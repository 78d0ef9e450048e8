#include "common/io.hpp"

#include <cstdio>
#include <memory>
#include <stdexcept>

namespace drim {
namespace {

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

FilePtr open_or_throw(const std::string& path, const char* mode) {
  FilePtr f(std::fopen(path.c_str(), mode));
  if (!f) throw std::runtime_error("cannot open " + path);
  return f;
}

/// Size of an open file in bytes; leaves the read position at the start.
std::size_t file_size(std::FILE* f, const std::string& path) {
  if (std::fseek(f, 0, SEEK_END) != 0) throw std::runtime_error("cannot seek " + path);
  const long end = std::ftell(f);
  if (end < 0 || std::fseek(f, 0, SEEK_SET) != 0) {
    throw std::runtime_error("cannot seek " + path);
  }
  return static_cast<std::size_t>(end);
}

template <typename T>
VecFile<T> read_vecs(const std::string& path, std::size_t max_count) {
  auto f = open_or_throw(path, "rb");
  std::size_t left = file_size(f.get(), path);
  VecFile<T> out;
  while (left > 0 && (max_count == 0 || out.count < max_count)) {
    std::int32_t dim = 0;
    if (left < sizeof(dim) || std::fread(&dim, sizeof(dim), 1, f.get()) != 1) {
      throw std::runtime_error("truncated record in " + path);
    }
    left -= sizeof(dim);
    if (dim <= 0) throw std::runtime_error("bad record dimension in " + path);
    if (out.dim == 0) {
      out.dim = static_cast<std::size_t>(dim);
    } else if (out.dim != static_cast<std::size_t>(dim)) {
      throw std::runtime_error("inconsistent dimensions in " + path);
    }
    // Checked against the bytes left before anything is allocated, by
    // division so a corrupt dim cannot wrap the product.
    if (out.dim > left / sizeof(T)) {
      throw std::runtime_error("truncated record in " + path);
    }
    const std::size_t off = out.data.size();
    out.data.resize(off + out.dim);
    if (std::fread(out.data.data() + off, sizeof(T), out.dim, f.get()) != out.dim) {
      throw std::runtime_error("truncated record in " + path);
    }
    left -= out.dim * sizeof(T);
    ++out.count;
  }
  return out;
}

template <typename T>
void write_vecs(const std::string& path, const VecFile<T>& v) {
  auto f = open_or_throw(path, "wb");
  const std::int32_t dim = static_cast<std::int32_t>(v.dim);
  for (std::size_t i = 0; i < v.count; ++i) {
    if (std::fwrite(&dim, sizeof(dim), 1, f.get()) != 1 ||
        std::fwrite(v.row(i), sizeof(T), v.dim, f.get()) != v.dim) {
      throw std::runtime_error("write failure for " + path);
    }
  }
}

}  // namespace

VecFile<float> read_fvecs(const std::string& path, std::size_t max_count) {
  return read_vecs<float>(path, max_count);
}
VecFile<std::uint8_t> read_bvecs(const std::string& path, std::size_t max_count) {
  return read_vecs<std::uint8_t>(path, max_count);
}
VecFile<std::int32_t> read_ivecs(const std::string& path, std::size_t max_count) {
  return read_vecs<std::int32_t>(path, max_count);
}

void write_fvecs(const std::string& path, const VecFile<float>& v) { write_vecs(path, v); }
void write_bvecs(const std::string& path, const VecFile<std::uint8_t>& v) { write_vecs(path, v); }
void write_ivecs(const std::string& path, const VecFile<std::int32_t>& v) { write_vecs(path, v); }

}  // namespace drim
