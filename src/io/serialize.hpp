// Binary serialization for dense matrices and compressed formats.
//
// A minimal self-describing container: 4-byte magic, u32 version, shape
// and format metadata as u64 fields, then raw little-endian payloads.
// Used by the venomtool CLI and by applications that want to ship
// pre-compressed V:N:M weights to deployment.
//
//   MATH — HalfMatrix      MATF — FloatMatrix      VNM1 — VnmMatrix
//   NMF1 — NmMatrix        CSR1 — CsrMatrix        QVN1 — QuantizedVnmMatrix
//   FVN1 — Fp8VnmMatrix
//
// The empirical tuning cache is the one human-readable artefact: a JSON
// document (see save_tuning_cache below) so tuned kernel configurations
// can be inspected, diffed, and checked into deployment images.
#pragma once

#include <string>

#include "format/csr.hpp"
#include "format/nm.hpp"
#include "format/vnm.hpp"
#include "quant/quantized_vnm.hpp"
#include "spatha/tuning_cache.hpp"
#include "tensor/matrix.hpp"

namespace venom::io {

/// Kind of artefact stored in a file (from its magic; a leading '{'
/// marks the JSON tuning cache).
enum class FileKind {
  kHalfMatrix,
  kFloatMatrix,
  kVnmMatrix,
  kNmMatrix,
  kCsrMatrix,
  kQuantVnmMatrix,
  kFp8VnmMatrix,
  kTuningCache,
  kUnknown
};

/// Peeks at a file's magic without loading the payload.
FileKind probe(const std::string& path);

void save(const HalfMatrix& m, const std::string& path);
void save(const FloatMatrix& m, const std::string& path);
void save(const VnmMatrix& m, const std::string& path);
void save(const NmMatrix& m, const std::string& path);
void save(const CsrMatrix& m, const std::string& path);
void save(const quant::QuantizedVnmMatrix& m, const std::string& path);
void save(const quant::Fp8VnmMatrix& m, const std::string& path);

/// Loaders throw venom::Error on missing files, bad magic, truncated
/// payloads, or invalid format metadata.
HalfMatrix load_half_matrix(const std::string& path);
FloatMatrix load_float_matrix(const std::string& path);
VnmMatrix load_vnm_matrix(const std::string& path);
NmMatrix load_nm_matrix(const std::string& path);
CsrMatrix load_csr_matrix(const std::string& path);
quant::QuantizedVnmMatrix load_quant_vnm_matrix(const std::string& path);
quant::Fp8VnmMatrix load_fp8_vnm_matrix(const std::string& path);

/// Writes the tuning cache as a JSON document:
///
///   {"format": "venom-tune-cache", "version": 1, "entries": [
///     {"r":…, "k":…, "c":…, "v":…, "n":…, "m":…, "features":"…",
///      "config": {"block_k":…, "block_c":…, "warp_r":…, "warp_k":…,
///                 "warp_c":…, "batch_size":…, "chunk_grain":…,
///                 "store_bits":…, "column_loc_fixed":…},
///      "gflops":…, "heuristic_gflops":…}, …]}
///
/// Throws venom::Error, before opening `path`, on a non-finite gflops.
void save_tuning_cache(const spatha::TuningCache& cache,
                       const std::string& path);

/// Parses a JSON tuning cache. Throws venom::Error on a missing file,
/// malformed JSON, a foreign "format" tag, an unsupported version, or
/// missing/invalid entry fields (TuningCache::try_load wraps this with a
/// non-throwing fallback for dispatch-time lazy loading).
spatha::TuningCache load_tuning_cache(const std::string& path);

}  // namespace venom::io
