#include "core/serialize.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace drim {
namespace {

constexpr char kMagic[4] = {'D', 'R', 'I', 'M'};

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

// ---- primitive writers/readers (little-endian host assumed) ----

void write_bytes(std::FILE* f, const void* p, std::size_t n) {
  if (std::fwrite(p, 1, n, f) != n) throw std::runtime_error("index write failure");
}

void read_bytes(std::FILE* f, void* p, std::size_t n) {
  if (std::fread(p, 1, n, f) != n) throw std::runtime_error("index read failure");
}

[[noreturn]] void corrupt(const std::string& what) {
  throw std::runtime_error("corrupt index file: " + what);
}

/// Bytes between the read position and the end of the file.
std::size_t bytes_left(std::FILE* f) {
  const long at = std::ftell(f);
  if (at < 0 || std::fseek(f, 0, SEEK_END) != 0) {
    throw std::runtime_error("index read failure");
  }
  const long end = std::ftell(f);
  if (end < at || std::fseek(f, at, SEEK_SET) != 0) {
    throw std::runtime_error("index read failure");
  }
  return static_cast<std::size_t>(end - at);
}

/// Check a length field before anything is allocated for it: `count`
/// elements of `elem_bytes` each must fit in the rest of the file. Compared
/// by division, so a corrupt count near 2^64 cannot wrap the product.
void check_length(std::FILE* f, std::uint64_t count, std::size_t elem_bytes,
                  const char* what) {
  const std::size_t left = bytes_left(f);
  if (count > left / elem_bytes) {
    corrupt(std::string(what) + " length " + std::to_string(count) + " x " +
            std::to_string(elem_bytes) + " bytes exceeds the " + std::to_string(left) +
            " bytes left in the file");
  }
}

template <typename T>
void write_pod(std::FILE* f, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  write_bytes(f, &v, sizeof(T));
}

template <typename T>
T read_pod(std::FILE* f) {
  static_assert(std::is_trivially_copyable_v<T>);
  T v{};
  read_bytes(f, &v, sizeof(T));
  return v;
}

template <typename T>
void write_vec(std::FILE* f, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  write_pod<std::uint64_t>(f, v.size());
  write_bytes(f, v.data(), v.size() * sizeof(T));
}

template <typename T>
std::vector<T> read_vec(std::FILE* f, const char* what) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto n = read_pod<std::uint64_t>(f);
  check_length(f, n, sizeof(T), what);
  std::vector<T> v(n);
  read_bytes(f, v.data(), n * sizeof(T));
  return v;
}

/// Rows x cols elements of `elem_bytes`, checked against the rest of the
/// file without forming an overflowing product. A shape with rows but no
/// columns is corrupt too: it stores nothing yet claims rows.
std::size_t checked_elements(std::FILE* f, std::uint64_t rows, std::uint64_t cols,
                             std::size_t elem_bytes, const char* what) {
  if (cols == 0 ? rows != 0 : rows > std::numeric_limits<std::uint64_t>::max() / cols) {
    corrupt(std::string(what) + " shape " + std::to_string(rows) + " x " +
            std::to_string(cols));
  }
  check_length(f, rows * cols, elem_bytes, what);
  return static_cast<std::size_t>(rows * cols);
}

void write_float_matrix(std::FILE* f, const FloatMatrix& m) {
  write_pod<std::uint64_t>(f, m.count());
  write_pod<std::uint64_t>(f, m.dim());
  write_bytes(f, m.data(), m.count() * m.dim() * sizeof(float));
}

FloatMatrix read_float_matrix(std::FILE* f, const char* what) {
  const auto count = read_pod<std::uint64_t>(f);
  const auto dim = read_pod<std::uint64_t>(f);
  const std::size_t elements = checked_elements(f, count, dim, sizeof(float), what);
  FloatMatrix m(count, dim);
  read_bytes(f, m.data(), elements * sizeof(float));
  return m;
}

void write_pq(std::FILE* f, const ProductQuantizer& pq) {
  write_pod<std::uint64_t>(f, pq.dim());
  write_pod<std::uint64_t>(f, pq.m());
  write_pod<std::uint64_t>(f, pq.cb_entries());
  for (std::size_t sub = 0; sub < pq.m(); ++sub) {
    write_float_matrix(f, pq.codebook(sub));
  }
}

ProductQuantizer read_pq(std::FILE* f) {
  const auto dim = read_pod<std::uint64_t>(f);
  const auto m = read_pod<std::uint64_t>(f);
  const auto cb = read_pod<std::uint64_t>(f);
  // Each codebook stores at least its two shape fields.
  check_length(f, m, 2 * sizeof(std::uint64_t), "codebook count");
  std::vector<FloatMatrix> books;
  books.reserve(m);
  for (std::size_t sub = 0; sub < m; ++sub) {
    books.push_back(read_float_matrix(f, "codebook"));
  }
  ProductQuantizer pq;
  try {
    pq.restore(dim, m, cb, std::move(books));
  } catch (const std::invalid_argument& e) {
    corrupt(e.what());  // a geometry restore() rejects
  }
  return pq;
}

void write_matrix(std::FILE* f, const Matrix& m) {
  write_pod<std::uint64_t>(f, m.rows());
  write_pod<std::uint64_t>(f, m.cols());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    write_bytes(f, m.row(r).data(), m.cols() * sizeof(double));
  }
}

Matrix read_matrix(std::FILE* f) {
  const auto rows = read_pod<std::uint64_t>(f);
  const auto cols = read_pod<std::uint64_t>(f);
  checked_elements(f, rows, cols, sizeof(double), "rotation");
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    read_bytes(f, m.row(r).data(), cols * sizeof(double));
  }
  return m;
}

}  // namespace

void save_index(const IvfPqIndex& index, const std::string& path) {
  if (!index.trained()) throw std::runtime_error("cannot save an untrained index");
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) throw std::runtime_error("cannot open " + path + " for writing");

  write_bytes(f.get(), kMagic, sizeof(kMagic));
  write_pod<std::uint32_t>(f.get(), kIndexFormatVersion);

  const IvfPqParams& p = index.params();
  write_pod<std::uint64_t>(f.get(), p.nlist);
  write_pod<std::uint64_t>(f.get(), p.pq.m);
  write_pod<std::uint64_t>(f.get(), p.pq.cb_entries);
  write_pod<std::uint8_t>(f.get(), static_cast<std::uint8_t>(p.variant));
  write_pod<std::uint64_t>(f.get(), index.ntotal());

  write_float_matrix(f.get(), index.centroids());
  write_pq(f.get(), index.pq());
  if (p.variant == PQVariant::kOPQ) {
    write_matrix(f.get(), index.opq()->rotation());
  }
  for (std::size_t c = 0; c < index.nlist(); ++c) {
    write_vec(f.get(), index.list(c).ids);
    write_vec(f.get(), index.list(c).codes);
  }
}

IvfPqIndex load_index(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) throw std::runtime_error("cannot open " + path);

  char magic[4];
  read_bytes(f.get(), magic, sizeof(magic));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error(path + " is not a DRIM index file");
  }
  const auto version = read_pod<std::uint32_t>(f.get());
  if (version != kIndexFormatVersion) {
    throw std::runtime_error("unsupported index format version " +
                             std::to_string(version));
  }

  IvfPqParams p;
  p.nlist = read_pod<std::uint64_t>(f.get());
  p.pq.m = read_pod<std::uint64_t>(f.get());
  p.pq.cb_entries = read_pod<std::uint64_t>(f.get());
  const auto variant = read_pod<std::uint8_t>(f.get());
  if (variant > static_cast<std::uint8_t>(PQVariant::kDPQ)) {
    corrupt("variant byte " + std::to_string(variant) + " is not a PQ variant");
  }
  p.variant = static_cast<PQVariant>(variant);
  const auto ntotal = read_pod<std::uint64_t>(f.get());
  // Ids are assigned from 0 upward and never reused (IvfPqIndex::add,
  // IndexWriter::insert), so ntotal is the id-space high-water mark: it fits
  // the 32-bit id space and every stored id lies below it.
  if (ntotal > (std::uint64_t{1} << 32)) {
    corrupt("ntotal " + std::to_string(ntotal) + " exceeds the 32-bit id space");
  }

  FloatMatrix centroids = read_float_matrix(f.get(), "centroids");
  if (centroids.count() != p.nlist) {
    corrupt(std::to_string(centroids.count()) + " centroids for nlist " +
            std::to_string(p.nlist));
  }
  ProductQuantizer pq = read_pq(f.get());
  if (pq.m() != p.pq.m || pq.cb_entries() != p.pq.cb_entries) {
    corrupt("header m x cb " + std::to_string(p.pq.m) + " x " +
            std::to_string(p.pq.cb_entries) + " but the quantizer holds " +
            std::to_string(pq.m()) + " x " + std::to_string(pq.cb_entries()));
  }
  if (centroids.dim() != pq.dim()) {
    corrupt("centroid dim " + std::to_string(centroids.dim()) + " but quantizer dim " +
            std::to_string(pq.dim()));
  }
  std::unique_ptr<OptimizedProductQuantizer> opq;
  if (p.variant == PQVariant::kOPQ) {
    opq = std::make_unique<OptimizedProductQuantizer>();
    Matrix rotation = read_matrix(f.get());
    if (rotation.rows() != pq.dim() || rotation.cols() != pq.dim()) {
      corrupt("rotation shape " + std::to_string(rotation.rows()) + " x " +
              std::to_string(rotation.cols()) + " for dim " + std::to_string(pq.dim()));
    }
    ProductQuantizer inner = pq;  // the OPQ's quantizer is the index's
    opq->restore(std::move(rotation), std::move(inner));
  }

  // Each list stores at least its two length fields.
  check_length(f.get(), p.nlist, 2 * sizeof(std::uint64_t), "inverted list count");
  std::vector<InvertedList> lists(p.nlist);
  for (std::size_t c = 0; c < p.nlist; ++c) {
    lists[c].ids = read_vec<std::uint32_t>(f.get(), "list ids");
    lists[c].codes = read_vec<std::uint8_t>(f.get(), "list codes");
    if (lists[c].codes.size() != lists[c].ids.size() * pq.code_size()) {
      corrupt("list " + std::to_string(c) + " holds " +
              std::to_string(lists[c].ids.size()) + " ids but " +
              std::to_string(lists[c].codes.size()) + " code bytes");
    }
    for (const std::uint32_t id : lists[c].ids) {
      if (id >= ntotal) {
        corrupt("list " + std::to_string(c) + " holds id " + std::to_string(id) +
                " at or above ntotal " + std::to_string(ntotal));
      }
    }
  }
  // Every point is stored once. A sorted copy of the stored ids finds a
  // repeat in memory proportional to the file, not to ntotal.
  {
    std::vector<std::uint32_t> ids;
    std::size_t stored = 0;
    for (const InvertedList& list : lists) stored += list.ids.size();
    ids.reserve(stored);
    for (const InvertedList& list : lists) {
      ids.insert(ids.end(), list.ids.begin(), list.ids.end());
    }
    std::sort(ids.begin(), ids.end());
    const auto dup = std::adjacent_find(ids.begin(), ids.end());
    if (dup != ids.end()) corrupt("duplicate id " + std::to_string(*dup));
  }

  IvfPqIndex index;
  index.restore(p, std::move(centroids), std::move(pq), std::move(opq),
                std::move(lists), ntotal);
  return index;
}

}  // namespace drim
