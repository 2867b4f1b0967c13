#include "io/serialize.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "io/json.hpp"

namespace venom::io {

namespace {

constexpr std::uint32_t kVersion = 1;
constexpr char kMagicHalf[4] = {'M', 'A', 'T', 'H'};
constexpr char kMagicFloat[4] = {'M', 'A', 'T', 'F'};
constexpr char kMagicVnm[4] = {'V', 'N', 'M', '1'};
constexpr char kMagicNm[4] = {'N', 'M', 'F', '1'};
constexpr char kMagicCsr[4] = {'C', 'S', 'R', '1'};
constexpr char kMagicQuantVnm[4] = {'Q', 'V', 'N', '1'};
constexpr char kMagicFp8Vnm[4] = {'F', 'V', 'N', '1'};

class Writer {
 public:
  explicit Writer(const std::string& path) : out_(path, std::ios::binary) {
    VENOM_CHECK_MSG(out_.good(), "cannot open '" << path << "' for writing");
  }
  void magic(const char m[4]) { out_.write(m, 4); }
  void u32(std::uint32_t v) {
    out_.write(reinterpret_cast<const char*>(&v), sizeof(v));
  }
  void u64(std::uint64_t v) {
    out_.write(reinterpret_cast<const char*>(&v), sizeof(v));
  }
  template <typename T>
  void raw(const T* data, std::size_t count) {
    out_.write(reinterpret_cast<const char*>(data),
               std::streamsize(count * sizeof(T)));
  }
  void finish(const std::string& path) {
    out_.flush();
    VENOM_CHECK_MSG(out_.good(), "write to '" << path << "' failed");
  }

 private:
  std::ofstream out_;
};

class Reader {
 public:
  explicit Reader(const std::string& path) : in_(path, std::ios::binary),
                                             path_(path) {
    VENOM_CHECK_MSG(in_.good(), "cannot open '" << path << "' for reading");
    in_.seekg(0, std::ios::end);
    const std::streamoff size = in_.tellg();
    in_.seekg(0, std::ios::beg);
    VENOM_CHECK_MSG(in_.good() && size >= 0,
                    "cannot size '" << path << "' for reading");
    size_ = std::uint64_t(size);
  }
  void expect_magic(const char m[4]) {
    char got[4] = {};
    in_.read(got, 4);
    VENOM_CHECK_MSG(in_.good() && std::memcmp(got, m, 4) == 0,
                    "'" << path_ << "' has wrong magic (expected "
                        << std::string(m, 4) << ")");
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    in_.read(reinterpret_cast<char*>(&v), sizeof(v));
    check();
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    in_.read(reinterpret_cast<char*>(&v), sizeof(v));
    check();
    return v;
  }
  /// `a * b` and `a + b` over header fields. A corrupt header throws
  /// here instead of wrapping to a small count that would "load".
  std::size_t mul(std::size_t a, std::size_t b) const {
    std::size_t out = 0;
    VENOM_CHECK_MSG(!__builtin_mul_overflow(a, b, &out),
                    "'" << path_ << "' header sizes overflow");
    return out;
  }
  std::size_t add(std::size_t a, std::size_t b) const {
    std::size_t out = 0;
    VENOM_CHECK_MSG(!__builtin_add_overflow(a, b, &out),
                    "'" << path_ << "' header sizes overflow");
    return out;
  }
  /// Reads `count` elements. The count comes from the header, so it is
  /// checked against the bytes left in the file before anything is
  /// allocated: a corrupt count throws venom::Error, not bad_alloc.
  template <typename T>
  std::vector<T> raw(std::size_t count) {
    const std::uint64_t left = size_ - std::uint64_t(in_.tellg());
    VENOM_CHECK_MSG(count <= left / sizeof(T),
                    "'" << path_ << "' is truncated or corrupt: header claims "
                        << count << " elements of " << sizeof(T)
                        << " bytes, " << left << " bytes left");
    std::vector<T> data(count);
    in_.read(reinterpret_cast<char*>(data.data()),
             std::streamsize(count * sizeof(T)));
    check();
    return data;
  }

 private:
  void check() {
    VENOM_CHECK_MSG(in_.good(), "'" << path_ << "' is truncated or corrupt");
  }
  std::ifstream in_;
  std::string path_;
  std::uint64_t size_ = 0;
};

}  // namespace

FileKind probe(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return FileKind::kUnknown;
  char magic[4] = {};
  in.read(magic, 4);
  if (!in.good()) return FileKind::kUnknown;
  if (std::memcmp(magic, kMagicHalf, 4) == 0) return FileKind::kHalfMatrix;
  if (std::memcmp(magic, kMagicFloat, 4) == 0) return FileKind::kFloatMatrix;
  if (std::memcmp(magic, kMagicVnm, 4) == 0) return FileKind::kVnmMatrix;
  if (std::memcmp(magic, kMagicNm, 4) == 0) return FileKind::kNmMatrix;
  if (std::memcmp(magic, kMagicCsr, 4) == 0) return FileKind::kCsrMatrix;
  if (std::memcmp(magic, kMagicQuantVnm, 4) == 0)
    return FileKind::kQuantVnmMatrix;
  if (std::memcmp(magic, kMagicFp8Vnm, 4) == 0) return FileKind::kFp8VnmMatrix;
  if (magic[0] == '{') return FileKind::kTuningCache;
  return FileKind::kUnknown;
}

void save(const HalfMatrix& m, const std::string& path) {
  Writer w(path);
  w.magic(kMagicHalf);
  w.u32(kVersion);
  w.u64(m.rows());
  w.u64(m.cols());
  // half_t is a trivially-copyable 2-byte wrapper; store raw bit patterns.
  std::vector<std::uint16_t> bits(m.size());
  for (std::size_t i = 0; i < m.size(); ++i) bits[i] = m.flat()[i].bits();
  w.raw(bits.data(), bits.size());
  w.finish(path);
}

void save(const FloatMatrix& m, const std::string& path) {
  Writer w(path);
  w.magic(kMagicFloat);
  w.u32(kVersion);
  w.u64(m.rows());
  w.u64(m.cols());
  w.raw(m.data(), m.size());
  w.finish(path);
}

void save(const VnmMatrix& m, const std::string& path) {
  Writer w(path);
  w.magic(kMagicVnm);
  w.u32(kVersion);
  w.u64(m.config().v);
  w.u64(m.config().n);
  w.u64(m.config().m);
  w.u64(m.rows());
  w.u64(m.cols());
  std::vector<std::uint16_t> bits(m.values().size());
  for (std::size_t i = 0; i < bits.size(); ++i) bits[i] = m.values()[i].bits();
  w.raw(bits.data(), bits.size());
  w.raw(m.m_indices().data(), m.m_indices().size());
  w.raw(m.column_locs().data(), m.column_locs().size());
  w.finish(path);
}

void save(const NmMatrix& m, const std::string& path) {
  Writer w(path);
  w.magic(kMagicNm);
  w.u32(kVersion);
  w.u64(m.pattern().n);
  w.u64(m.pattern().m);
  w.u64(m.rows());
  w.u64(m.cols());
  std::vector<std::uint16_t> bits(m.values().size());
  for (std::size_t i = 0; i < bits.size(); ++i) bits[i] = m.values()[i].bits();
  w.raw(bits.data(), bits.size());
  w.raw(m.indices().data(), m.indices().size());
  w.finish(path);
}

void save(const CsrMatrix& m, const std::string& path) {
  Writer w(path);
  w.magic(kMagicCsr);
  w.u32(kVersion);
  w.u64(m.rows());
  w.u64(m.cols());
  w.u64(m.nnz());
  w.raw(m.row_offsets().data(), m.row_offsets().size());
  w.raw(m.col_indices().data(), m.col_indices().size());
  std::vector<std::uint16_t> bits(m.values().size());
  for (std::size_t i = 0; i < bits.size(); ++i) bits[i] = m.values()[i].bits();
  w.raw(bits.data(), bits.size());
  w.finish(path);
}

void save(const quant::QuantizedVnmMatrix& m, const std::string& path) {
  Writer w(path);
  w.magic(kMagicQuantVnm);
  w.u32(kVersion);
  w.u64(m.config().v);
  w.u64(m.config().n);
  w.u64(m.config().m);
  w.u64(m.rows());
  w.u64(m.cols());
  w.raw(m.values().data(), m.values().size());
  w.raw(m.m_indices().data(), m.m_indices().size());
  w.raw(m.column_locs().data(), m.column_locs().size());
  w.raw(m.row_scales().data(), m.row_scales().size());
  w.finish(path);
}

void save(const quant::Fp8VnmMatrix& m, const std::string& path) {
  Writer w(path);
  w.magic(kMagicFp8Vnm);
  w.u32(kVersion);
  w.u64(m.config().v);
  w.u64(m.config().n);
  w.u64(m.config().m);
  w.u64(m.rows());
  w.u64(m.cols());
  w.u64(m.format() == Fp8Format::kE5M2 ? 0 : 1);
  w.raw(m.values().data(), m.values().size());
  w.raw(m.m_indices().data(), m.m_indices().size());
  w.raw(m.column_locs().data(), m.column_locs().size());
  w.finish(path);
}

HalfMatrix load_half_matrix(const std::string& path) {
  Reader r(path);
  r.expect_magic(kMagicHalf);
  VENOM_CHECK_MSG(r.u32() == kVersion, "unsupported version in " << path);
  const std::size_t rows = r.u64();
  const std::size_t cols = r.u64();
  const auto bits = r.raw<std::uint16_t>(r.mul(rows, cols));
  HalfMatrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i)
    m.flat()[i] = half_t::from_bits(bits[i]);
  return m;
}

FloatMatrix load_float_matrix(const std::string& path) {
  Reader r(path);
  r.expect_magic(kMagicFloat);
  VENOM_CHECK_MSG(r.u32() == kVersion, "unsupported version in " << path);
  const std::size_t rows = r.u64();
  const std::size_t cols = r.u64();
  const auto data = r.raw<float>(r.mul(rows, cols));
  FloatMatrix m(rows, cols);
  std::copy(data.begin(), data.end(), m.flat().begin());
  return m;
}

VnmMatrix load_vnm_matrix(const std::string& path) {
  Reader r(path);
  r.expect_magic(kMagicVnm);
  VENOM_CHECK_MSG(r.u32() == kVersion, "unsupported version in " << path);
  VnmConfig cfg;
  cfg.v = r.u64();
  cfg.n = r.u64();
  cfg.m = r.u64();
  const std::size_t rows = r.u64();
  const std::size_t cols = r.u64();
  VENOM_CHECK_MSG(cfg.m >= 2 && cols % cfg.m == 0 && cfg.v >= 1 &&
                      rows % cfg.v == 0,
                  "invalid VNM metadata in " << path);
  const std::size_t groups = cols / cfg.m;
  const auto bits = r.raw<std::uint16_t>(r.mul(r.mul(rows, groups), cfg.n));
  std::vector<half_t> values(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i)
    values[i] = half_t::from_bits(bits[i]);
  auto m_indices = r.raw<std::uint8_t>(values.size());
  auto column_loc = r.raw<std::uint8_t>(
      r.mul(r.mul(rows / cfg.v, groups), cfg.selected_cols()));
  return VnmMatrix::from_parts(cfg, rows, cols, std::move(values),
                               std::move(m_indices), std::move(column_loc));
}

quant::QuantizedVnmMatrix load_quant_vnm_matrix(const std::string& path) {
  Reader r(path);
  r.expect_magic(kMagicQuantVnm);
  VENOM_CHECK_MSG(r.u32() == kVersion, "unsupported version in " << path);
  VnmConfig cfg;
  cfg.v = r.u64();
  cfg.n = r.u64();
  cfg.m = r.u64();
  const std::size_t rows = r.u64();
  const std::size_t cols = r.u64();
  VENOM_CHECK_MSG(cfg.m >= 2 && cols % cfg.m == 0 && cfg.v >= 1 &&
                      rows % cfg.v == 0,
                  "invalid QVN metadata in " << path);
  const std::size_t groups = cols / cfg.m;
  auto values = r.raw<std::int8_t>(r.mul(r.mul(rows, groups), cfg.n));
  auto m_indices = r.raw<std::uint8_t>(values.size());
  auto column_loc = r.raw<std::uint8_t>(
      r.mul(r.mul(rows / cfg.v, groups), cfg.selected_cols()));
  auto scales = r.raw<float>(rows);
  return quant::QuantizedVnmMatrix::from_parts(
      cfg, rows, cols, std::move(values), std::move(m_indices),
      std::move(column_loc), std::move(scales));
}

quant::Fp8VnmMatrix load_fp8_vnm_matrix(const std::string& path) {
  Reader r(path);
  r.expect_magic(kMagicFp8Vnm);
  VENOM_CHECK_MSG(r.u32() == kVersion, "unsupported version in " << path);
  VnmConfig cfg;
  cfg.v = r.u64();
  cfg.n = r.u64();
  cfg.m = r.u64();
  const std::size_t rows = r.u64();
  const std::size_t cols = r.u64();
  const std::uint64_t format_code = r.u64();
  VENOM_CHECK_MSG(cfg.m >= 2 && cols % cfg.m == 0 && cfg.v >= 1 &&
                      rows % cfg.v == 0 && format_code <= 1,
                  "invalid FVN metadata in " << path);
  const Fp8Format format =
      format_code == 0 ? Fp8Format::kE5M2 : Fp8Format::kE4M3;
  const std::size_t groups = cols / cfg.m;
  auto values = r.raw<std::uint8_t>(r.mul(r.mul(rows, groups), cfg.n));
  auto m_indices = r.raw<std::uint8_t>(values.size());
  auto column_loc = r.raw<std::uint8_t>(
      r.mul(r.mul(rows / cfg.v, groups), cfg.selected_cols()));
  return quant::Fp8VnmMatrix::from_parts(cfg, rows, cols, format,
                                         std::move(values),
                                         std::move(m_indices),
                                         std::move(column_loc));
}

NmMatrix load_nm_matrix(const std::string& path) {
  Reader r(path);
  r.expect_magic(kMagicNm);
  VENOM_CHECK_MSG(r.u32() == kVersion, "unsupported version in " << path);
  NmPattern pattern;
  pattern.n = r.u64();
  pattern.m = r.u64();
  const std::size_t rows = r.u64();
  const std::size_t cols = r.u64();
  VENOM_CHECK_MSG(pattern.m >= 2 && cols % pattern.m == 0,
                  "invalid N:M metadata in " << path);
  const std::size_t count = r.mul(r.mul(rows, cols / pattern.m), pattern.n);
  const auto bits = r.raw<std::uint16_t>(count);
  std::vector<half_t> values(count);
  for (std::size_t i = 0; i < count; ++i)
    values[i] = half_t::from_bits(bits[i]);
  auto indices = r.raw<std::uint8_t>(count);
  return NmMatrix::from_parts(pattern, rows, cols, std::move(values),
                              std::move(indices));
}

// ---------------------------------------------------------------- JSON
// The tuning cache is the human-readable artefact: parsing goes through
// the shared io/json reader (also used by the serving engine plan).

void save_tuning_cache(const spatha::TuningCache& cache,
                       const std::string& path) {
  std::string out = "{\n  \"format\": \"venom-tune-cache\",\n"
                    "  \"version\": 1,\n  \"entries\": [";
  const auto entries = cache.entries();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& [key, e] = entries[i];
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "%s\n    {\"r\": %zu, \"k\": %zu, \"c\": %zu, "
        "\"v\": %zu, \"n\": %zu, \"m\": %zu, \"features\": \"",
        i == 0 ? "" : ",", key.rows, key.cols, key.b_cols, key.v, key.n,
        key.m);
    out += buf;
    json_escape_to(out, key.features);
    std::snprintf(
        buf, sizeof(buf),
        "\",\n     \"config\": {\"block_k\": %zu, \"block_c\": %zu, "
        "\"warp_r\": %zu, \"warp_k\": %zu, \"warp_c\": %zu, "
        "\"batch_size\": %zu, \"chunk_grain\": %zu, "
        "\"store_bits\": %d, \"column_loc_fixed\": %d},\n"
        "     \"gflops\": %.6g, \"heuristic_gflops\": %.6g, "
        "\"threads\": %zu}",
        e.config.block_k, e.config.block_c, e.config.warp_r,
        e.config.warp_k, e.config.warp_c, e.config.batch_size,
        e.config.chunk_grain,
        e.config.store_width == spatha::StoreWidth::k32bit ? 32 : 128,
        e.config.column_loc == spatha::ColumnLocMode::kFixed ? 1 : 0,
        e.gflops, e.heuristic_gflops, e.threads);
    out += buf;
  }
  out += entries.empty() ? "]\n}\n" : "\n  ]\n}\n";

  Writer w(path);
  w.raw(out.data(), out.size());
  w.finish(path);
}

spatha::TuningCache load_tuning_cache(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  VENOM_CHECK_MSG(in.good(), "cannot open '" << path << "' for reading");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());

  const JsonValue doc = parse_json(text, path);
  VENOM_CHECK_MSG(doc.type == JsonValue::Type::kObject,
                  "'" << path << "' is not a JSON object");
  const JsonValue* format = doc.get("format");
  VENOM_CHECK_MSG(format != nullptr &&
                      format->type == JsonValue::Type::kString &&
                      format->str == "venom-tune-cache",
                  "'" << path << "' is not a venom tuning cache");
  VENOM_CHECK_MSG(json_size_field(doc, "version", path) == 1,
                  "unsupported tuning-cache version in " << path);
  const JsonValue* entries = doc.get("entries");
  VENOM_CHECK_MSG(entries != nullptr &&
                      entries->type == JsonValue::Type::kArray,
                  "'" << path << "' has no \"entries\" array");

  spatha::TuningCache cache;
  for (const JsonValue& item : entries->array) {
    VENOM_CHECK_MSG(item.type == JsonValue::Type::kObject,
                    "'" << path << "' has a non-object cache entry");
    spatha::TuningKey key;
    key.rows = json_size_field(item, "r", path);
    key.cols = json_size_field(item, "k", path);
    key.b_cols = json_size_field(item, "c", path);
    key.v = json_size_field(item, "v", path);
    key.n = json_size_field(item, "n", path);
    key.m = json_size_field(item, "m", path);
    const JsonValue* features = item.get("features");
    VENOM_CHECK_MSG(features != nullptr &&
                        features->type == JsonValue::Type::kString,
                    "'" << path << "' cache entry missing \"features\"");
    key.features = features->str;

    const JsonValue* cfg = item.get("config");
    VENOM_CHECK_MSG(cfg != nullptr && cfg->type == JsonValue::Type::kObject,
                    "'" << path << "' cache entry missing \"config\"");
    spatha::TuningEntry e;
    e.config.block_k = json_size_field(*cfg, "block_k", path);
    e.config.block_c = json_size_field(*cfg, "block_c", path);
    e.config.warp_r = json_size_field(*cfg, "warp_r", path);
    e.config.warp_k = json_size_field(*cfg, "warp_k", path);
    e.config.warp_c = json_size_field(*cfg, "warp_c", path);
    e.config.batch_size = json_size_field(*cfg, "batch_size", path);
    e.config.chunk_grain = json_size_field(*cfg, "chunk_grain", path);
    // Optional since they were added after version 1 shipped: caches
    // written before carry neither, and their configs used the defaults
    // the fields also default to here.
    if (cfg->get("store_bits") != nullptr)
      e.config.store_width = json_size_field(*cfg, "store_bits", path) == 32
                                 ? spatha::StoreWidth::k32bit
                                 : spatha::StoreWidth::k128bit;
    if (cfg->get("column_loc_fixed") != nullptr)
      e.config.column_loc =
          json_size_field(*cfg, "column_loc_fixed", path) != 0
              ? spatha::ColumnLocMode::kFixed
              : spatha::ColumnLocMode::kEnabled;
    VENOM_CHECK_MSG(e.config.block_k >= 1 && e.config.block_c >= 1,
                    "'" << path << "' cache entry has a degenerate tile");
    e.gflops = json_double_field(item, "gflops", path);
    e.heuristic_gflops = json_double_field(item, "heuristic_gflops", path);
    e.threads = json_size_field(item, "threads", path);
    cache.put(key, e);
  }
  return cache;
}

CsrMatrix load_csr_matrix(const std::string& path) {
  Reader r(path);
  r.expect_magic(kMagicCsr);
  VENOM_CHECK_MSG(r.u32() == kVersion, "unsupported version in " << path);
  const std::size_t rows = r.u64();
  const std::size_t cols = r.u64();
  const std::size_t nnz = r.u64();
  auto offsets = r.raw<std::uint32_t>(r.add(rows, 1));
  auto col_indices = r.raw<std::uint32_t>(nnz);
  const auto bits = r.raw<std::uint16_t>(nnz);
  std::vector<half_t> values(nnz);
  for (std::size_t i = 0; i < nnz; ++i)
    values[i] = half_t::from_bits(bits[i]);
  return CsrMatrix::from_parts(rows, cols, std::move(offsets),
                               std::move(col_indices), std::move(values));
}

}  // namespace venom::io
