// Tests for autoregressive decode: the KvCache ring buffer, the cached
// incremental forward (prefill / decode_step / batched forward_cached),
// and the serving engine's generation mode. The load-bearing invariant
// throughout: decoding against the KV ring is BIT-identical to re-running
// the full (windowed) causal forward over the accumulated sequence at
// every step — including after ring wraparound, in ragged batches, under
// mixed prefill/decode batching, and under both Spatha ColumnLocModes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool_testing.hpp"
#include "ops/context.hpp"
#include "serving/admission.hpp"
#include "serving/engine.hpp"
#include "serving/router.hpp"
#include "spatha/config.hpp"
#include "spatha/tuning_cache.hpp"
#include "tensor/matrix.hpp"
#include "transformer/config.hpp"
#include "transformer/encoder.hpp"
#include "transformer/kv_cache.hpp"

namespace venom::transformer {
namespace {

using namespace std::chrono_literals;

constexpr VnmConfig kVnm{8, 2, 4};

ModelConfig causal_config(std::size_t window = 0) {
  return ModelConfig{.name = "tiny-causal", .layers = 2, .hidden = 32,
                     .heads = 4, .ffn_hidden = 64, .seq_len = 64,
                     .causal = true, .attn_window = window};
}

/// A pruned tiny causal encoder with deterministic weights.
Encoder causal_encoder(std::size_t window = 0, std::uint64_t seed = 7) {
  Rng rng(seed);
  Encoder enc(causal_config(window), rng);
  enc.sparsify(kVnm);
  return enc;
}

void expect_bits_eq(const HalfMatrix& a, const HalfMatrix& b,
                    const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (std::size_t e = 0; e < a.flat().size(); ++e)
    ASSERT_EQ(a.flat()[e].bits(), b.flat()[e].bits())
        << what << " differs at flat index " << e;
}

HalfMatrix column(const HalfMatrix& m, std::size_t c) {
  HalfMatrix out(m.rows(), 1);
  for (std::size_t r = 0; r < m.rows(); ++r) out(r, 0) = m(r, c);
  return out;
}

HalfMatrix leading_cols(const HalfMatrix& m, std::size_t n) {
  HalfMatrix out(m.rows(), n);
  for (std::size_t r = 0; r < m.rows(); ++r)
    std::memcpy(&out(r, 0), &m(r, 0), n * sizeof(half_t));
  return out;
}

// ---- KvCache --------------------------------------------------------------

TEST(KvCache, AppendGatherRoundTrip) {
  KvCache cache(2, 8, 4);
  EXPECT_EQ(cache.layers(), 2u);
  EXPECT_EQ(cache.hidden(), 8u);
  EXPECT_EQ(cache.capacity(), 4u);
  EXPECT_EQ(cache.length(), 0u);
  EXPECT_TRUE(cache.synchronized());

  Rng rng(3);
  const HalfMatrix k = random_half_matrix(8, 3, rng);
  const HalfMatrix v = random_half_matrix(8, 3, rng);
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_EQ(cache.append(0, k, v, t), t);
    EXPECT_EQ(cache.append(1, k, v, t), t);
  }
  EXPECT_EQ(cache.length(), 3u);
  EXPECT_EQ(cache.window_begin(), 0u);

  HalfMatrix got;
  cache.gather_k(0, 2, 4, 0, 3, got);  // rows [2, 6), positions [0, 3)
  ASSERT_EQ(got.rows(), 4u);
  ASSERT_EQ(got.cols(), 3u);
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t t = 0; t < 3; ++t)
      EXPECT_EQ(got(r, t).bits(), k(2 + r, t).bits());
  cache.gather_v(1, 0, 8, 1, 2, got);  // all rows, positions [1, 3)
  for (std::size_t r = 0; r < 8; ++r)
    for (std::size_t t = 0; t < 2; ++t)
      EXPECT_EQ(got(r, t).bits(), v(r, 1 + t).bits());
}

TEST(KvCache, RingWraparoundKeepsNewestWindow) {
  KvCache cache(1, 4, 4);
  Rng rng(5);
  const HalfMatrix k = random_half_matrix(4, 10, rng);
  const HalfMatrix v = random_half_matrix(4, 10, rng);
  for (std::size_t t = 0; t < 10; ++t) EXPECT_EQ(cache.append(0, k, v, t), t);
  EXPECT_EQ(cache.length(), 10u);
  EXPECT_EQ(cache.window_begin(), 6u);

  // Positions 6..9 live in slots 2,3,0,1 — the gather crosses the seam.
  HalfMatrix got;
  cache.gather_k(0, 0, 4, 6, 4, got);
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t t = 0; t < 4; ++t)
      EXPECT_EQ(got(r, t).bits(), k(r, 6 + t).bits());
  // A partial window that still crosses the seam.
  cache.gather_v(0, 1, 2, 7, 3, got);
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t t = 0; t < 3; ++t)
      EXPECT_EQ(got(r, t).bits(), v(1 + r, 7 + t).bits());
}

TEST(KvCache, RejectsNonResidentGather) {
  KvCache cache(1, 4, 4);
  Rng rng(6);
  const HalfMatrix k = random_half_matrix(4, 8, rng);
  const HalfMatrix v = random_half_matrix(4, 8, rng);
  for (std::size_t t = 0; t < 6; ++t) cache.append(0, k, v, t);

  HalfMatrix got;
  EXPECT_NO_THROW(cache.gather_k(0, 0, 4, 2, 4, got));  // exactly resident
  EXPECT_THROW(cache.gather_k(0, 0, 4, 1, 4, got), Error);  // 1 evicted
  EXPECT_THROW(cache.gather_k(0, 0, 4, 3, 4, got), Error);  // beyond length
  EXPECT_THROW(cache.gather_k(0, 0, 4, 2, 5, got), Error);  // w > capacity
  EXPECT_THROW(cache.gather_k(0, 0, 4, 2, 0, got), Error);  // empty window
}

TEST(KvCache, ResetAndLayerSynchronization) {
  KvCache cache(2, 4, 4);
  Rng rng(8);
  const HalfMatrix k = random_half_matrix(4, 2, rng);
  const HalfMatrix v = random_half_matrix(4, 2, rng);
  cache.append(0, k, v, 0);
  EXPECT_FALSE(cache.synchronized());  // layer 1 lags mid-forward
  EXPECT_EQ(cache.layer_length(0), 1u);
  EXPECT_EQ(cache.layer_length(1), 0u);
  cache.append(1, k, v, 0);
  EXPECT_TRUE(cache.synchronized());

  cache.reset();
  EXPECT_EQ(cache.length(), 0u);
  EXPECT_TRUE(cache.synchronized());
  EXPECT_EQ(cache.append(0, k, v, 1), 0u);  // fresh sequence

  // bytes() = 2 (K and V) * layers * hidden * capacity * sizeof(float).
  EXPECT_EQ(cache.bytes(), 2u * 2u * 4u * 4u * sizeof(float));
  EXPECT_THROW(KvCache(0, 4, 4), Error);
  EXPECT_THROW(KvCache(2, 0, 4), Error);
  EXPECT_THROW(KvCache(2, 4, 0), Error);
}

// ---- cached forward vs full causal forward --------------------------------

TEST(CachedDecode, PrefillMatchesFullForwardBits) {
  const Encoder enc = causal_encoder();
  Rng rng(11);
  const HalfMatrix prompt = random_half_matrix(32, 12, rng, 0.5f);

  KvCache cache = enc.make_cache(32);
  const HalfMatrix cached = enc.prefill(prompt, cache);
  const HalfMatrix full = enc.forward(prompt);
  expect_bits_eq(cached, full, "prefill vs full forward");
  EXPECT_EQ(cache.length(), 12u);
  EXPECT_TRUE(cache.synchronized());
}

// The acceptance bar: >= 32 generated tokens, each step's cached output
// bit-identical to re-running the full causal forward over the whole
// accumulated sequence.
TEST(CachedDecode, DecodeStepsBitIdenticalToFullForward) {
  const Encoder enc = causal_encoder();
  constexpr std::size_t kPrompt = 7, kSteps = 32;
  Rng rng(13);
  const HalfMatrix prompt = random_half_matrix(32, kPrompt, rng, 0.5f);

  KvCache cache = enc.make_cache(kPrompt + kSteps);
  const HalfMatrix pre = enc.prefill(prompt, cache);

  // Autoregressive identity feedback: step t's input is step t-1's
  // output column (the last prompt output seeds step 0).
  HalfMatrix seq(32, kPrompt + kSteps);
  for (std::size_t r = 0; r < 32; ++r)
    std::memcpy(&seq(r, 0), &prompt(r, 0), kPrompt * sizeof(half_t));
  HalfMatrix x = column(pre, kPrompt - 1);
  for (std::size_t t = 0; t < kSteps; ++t) {
    for (std::size_t r = 0; r < 32; ++r) seq(r, kPrompt + t) = x(r, 0);
    const HalfMatrix y = enc.decode_step(x, cache);
    const HalfMatrix full = enc.forward(leading_cols(seq, kPrompt + t + 1));
    expect_bits_eq(y, column(full, kPrompt + t), "decode step");
    x = y;
  }
  EXPECT_EQ(cache.length(), kPrompt + kSteps);
}

// Same invariant with a sliding window: capacity == window == 8, decoding
// far past wraparound. The reference is the same encoder's full forward,
// whose causal mask also hides keys outside the window.
TEST(CachedDecode, WraparoundMatchesWindowedFullForward) {
  constexpr std::size_t kWindow = 8, kPrompt = 6, kSteps = 34;
  const Encoder enc = causal_encoder(kWindow);
  ASSERT_EQ(enc.attention_window(), kWindow);
  Rng rng(17);
  const HalfMatrix prompt = random_half_matrix(32, kPrompt, rng, 0.5f);

  KvCache cache = enc.make_cache(kWindow);
  const HalfMatrix pre = enc.prefill(prompt, cache);
  expect_bits_eq(pre, enc.forward(prompt), "windowed prefill");

  HalfMatrix seq(32, kPrompt + kSteps);
  for (std::size_t r = 0; r < 32; ++r)
    std::memcpy(&seq(r, 0), &prompt(r, 0), kPrompt * sizeof(half_t));
  HalfMatrix x = column(pre, kPrompt - 1);
  for (std::size_t t = 0; t < kSteps; ++t) {
    for (std::size_t r = 0; r < 32; ++r) seq(r, kPrompt + t) = x(r, 0);
    const HalfMatrix y = enc.decode_step(x, cache);
    const HalfMatrix full = enc.forward(leading_cols(seq, kPrompt + t + 1));
    expect_bits_eq(y, column(full, kPrompt + t), "windowed decode step");
    x = y;
  }
  EXPECT_EQ(cache.length(), kPrompt + kSteps);  // logical length keeps growing
  EXPECT_EQ(cache.window_begin(), kPrompt + kSteps - kWindow);
}

TEST(CachedDecode, RaggedBatchedPrefillMatchesSolo) {
  const Encoder enc = causal_encoder();
  constexpr std::size_t kLenA = 3, kLenB = 10;
  Rng rng(19);
  const HalfMatrix a = random_half_matrix(32, kLenA, rng, 0.5f);
  const HalfMatrix b = random_half_matrix(32, kLenB, rng, 0.5f);

  // Packed ragged prefill: two sequences, two caches, one forward.
  HalfMatrix packed(32, kLenA + kLenB);
  for (std::size_t r = 0; r < 32; ++r) {
    std::memcpy(&packed(r, 0), &a(r, 0), kLenA * sizeof(half_t));
    std::memcpy(&packed(r, kLenA), &b(r, 0), kLenB * sizeof(half_t));
  }
  KvCache ca = enc.make_cache(16), cb = enc.make_cache(16);
  const std::size_t ends[] = {kLenA, kLenA + kLenB};
  KvCache* caches[] = {&ca, &cb};
  const HalfMatrix y = enc.forward_cached(packed, ends, caches);
  EXPECT_EQ(ca.length(), kLenA);
  EXPECT_EQ(cb.length(), kLenB);

  // Each span bit-matches the solo prefill (and hence the full forward).
  KvCache sa = enc.make_cache(16), sb = enc.make_cache(16);
  const HalfMatrix ya = enc.prefill(a, sa);
  const HalfMatrix yb = enc.prefill(b, sb);
  for (std::size_t r = 0; r < 32; ++r) {
    for (std::size_t t = 0; t < kLenA; ++t)
      ASSERT_EQ(y(r, t).bits(), ya(r, t).bits());
    for (std::size_t t = 0; t < kLenB; ++t)
      ASSERT_EQ(y(r, kLenA + t).bits(), yb(r, t).bits());
  }
}

// One forward_cached mixing a decode step of a live session with a
// prefill chunk of a fresh one — the batch shape the serving engine
// builds — must not perturb either sequence's bits.
TEST(CachedDecode, MixedPrefillDecodeBatchBitIdentity) {
  const Encoder enc = causal_encoder();
  constexpr std::size_t kLenA = 5, kLenB = 4;
  Rng rng(23);
  const HalfMatrix a = random_half_matrix(32, kLenA, rng, 0.5f);
  const HalfMatrix b = random_half_matrix(32, kLenB, rng, 0.5f);

  // Solo reference: prefill A, one decode step; prefill B.
  KvCache sa = enc.make_cache(16), sb = enc.make_cache(16);
  const HalfMatrix pa = enc.prefill(a, sa);
  const HalfMatrix xa = column(pa, kLenA - 1);
  const HalfMatrix ref_a = enc.decode_step(xa, sa);
  const HalfMatrix ref_b = enc.prefill(b, sb);

  // Mixed batch: A's decode token (1 column) packed ahead of B's prompt.
  KvCache ma = enc.make_cache(16), mb = enc.make_cache(16);
  (void)enc.prefill(a, ma);
  HalfMatrix packed(32, 1 + kLenB);
  for (std::size_t r = 0; r < 32; ++r) {
    packed(r, 0) = xa(r, 0);
    std::memcpy(&packed(r, 1), &b(r, 0), kLenB * sizeof(half_t));
  }
  const std::size_t ends[] = {1, 1 + kLenB};
  KvCache* caches[] = {&ma, &mb};
  const HalfMatrix y = enc.forward_cached(packed, ends, caches);

  for (std::size_t r = 0; r < 32; ++r) {
    ASSERT_EQ(y(r, 0).bits(), ref_a(r, 0).bits());
    for (std::size_t t = 0; t < kLenB; ++t)
      ASSERT_EQ(y(r, 1 + t).bits(), ref_b(r, t).bits());
  }
}

HalfMatrix cols(const HalfMatrix& m, std::size_t c0, std::size_t n) {
  HalfMatrix out(m.rows(), n);
  for (std::size_t r = 0; r < m.rows(); ++r)
    std::memcpy(&out(r, 0), &m(r, c0), n * sizeof(half_t));
  return out;
}

void expect_cols_eq(const HalfMatrix& got, const HalfMatrix& full,
                    std::size_t got0, std::size_t full0, std::size_t n,
                    const char* what) {
  for (std::size_t r = 0; r < full.rows(); ++r)
    for (std::size_t t = 0; t < n; ++t)
      ASSERT_EQ(got(r, got0 + t).bits(), full(r, full0 + t).bits())
          << what << ": row " << r << ", column " << full0 + t;
}

// A prefill chunk reads the ring's window in place and appends only after
// the core has run; a decode step appends first. Chunks of 2, 3, 5 and 8
// tokens (8 = the window, so a chunk's first query still needs every
// resident key its own tokens evict), interleaved with decode steps, far
// past the ring's wraparound: every column must equal the windowed full
// forward's (a causal column depends only on the tokens up to it).
TEST(CachedDecode, ChunkedPrefillAcrossTheWrapMatchesWindowedFullForward) {
  constexpr std::size_t kWindow = 8;
  const Encoder enc = causal_encoder(kWindow);
  const std::size_t schedule[] = {2, 3, 1, 5, 1, 8, 1, 1, 3, 8, 2, 1, 5, 8};
  std::size_t total = 0;
  for (const std::size_t n : schedule) total += n;
  Rng rng(37);
  const HalfMatrix seq = random_half_matrix(32, total, rng, 0.5f);
  const HalfMatrix full = enc.forward(seq);

  KvCache cache = enc.make_cache(kWindow);
  std::size_t p = 0;
  for (const std::size_t n : schedule) {
    const HalfMatrix chunk = cols(seq, p, n);
    const HalfMatrix y =
        n == 1 ? enc.decode_step(chunk, cache) : enc.prefill(chunk, cache);
    expect_cols_eq(y, full, 0, p, n, "chunk");
    p += n;
    EXPECT_EQ(cache.length(), p);
    EXPECT_TRUE(cache.synchronized());
  }
}

// One batch mixing a wrapped decode item (it appends before the core
// runs) with a wrapped prefill chunk (it appends after).
TEST(CachedDecode, WrappedDecodeAndPrefillInOneBatch) {
  constexpr std::size_t kWindow = 8, kLenA = 14, kLenB = 16, kChunkB = 5;
  const Encoder enc = causal_encoder(kWindow);
  Rng rng(41);
  const HalfMatrix a = random_half_matrix(32, kLenA, rng, 0.5f);
  const HalfMatrix b = random_half_matrix(32, kLenB, rng, 0.5f);
  const HalfMatrix full_a = enc.forward(a), full_b = enc.forward(b);

  // Both sessions past the wrap: A up to its last token, B up to its
  // last chunk.
  KvCache ca = enc.make_cache(kWindow), cb = enc.make_cache(kWindow);
  (void)enc.prefill(cols(a, 0, 5), ca);
  (void)enc.prefill(cols(a, 5, kLenA - 6), ca);
  (void)enc.prefill(cols(b, 0, kLenB - kChunkB), cb);

  HalfMatrix packed(32, 1 + kChunkB);
  for (std::size_t r = 0; r < 32; ++r) {
    packed(r, 0) = a(r, kLenA - 1);
    std::memcpy(&packed(r, 1), &b(r, kLenB - kChunkB),
                kChunkB * sizeof(half_t));
  }
  const std::size_t ends[] = {1, 1 + kChunkB};
  KvCache* caches[] = {&ca, &cb};
  const HalfMatrix y = enc.forward_cached(packed, ends, caches);
  expect_cols_eq(y, full_a, 0, kLenA - 1, 1, "wrapped decode item");
  expect_cols_eq(y, full_b, 1, kLenB - kChunkB, kChunkB,
                 "wrapped prefill chunk");
  EXPECT_EQ(ca.length(), kLenA);
  EXPECT_EQ(cb.length(), kLenB);
}

// Every cache of a batch is validated before any is appended to: a batch
// whose second cache has the wrong shape throws and leaves every cache's
// layer lengths as they were — the decode items' too, which would append
// before the core runs.
TEST(CachedDecode, FailedValidationLeavesCachesUntouched) {
  constexpr std::size_t kWindow = 8;
  const Encoder enc = causal_encoder(kWindow);
  Rng rng(43);
  KvCache a = enc.make_cache(kWindow), c = enc.make_cache(kWindow);
  (void)enc.prefill(random_half_matrix(32, 10, rng, 0.5f), a);
  (void)enc.prefill(random_half_matrix(32, 3, rng, 0.5f), c);
  // Layer count and hidden fit the encoder; the head layout or the
  // capacity does not.
  KvCache bad_shapes[] = {KvCache(2, 32, kWindow, 2),
                          KvCache(2, 32, 2 * kWindow, 4)};
  const HalfMatrix x = random_half_matrix(32, 1 + 1 + 4, rng, 0.5f);
  const std::size_t ends[] = {1, 2, 6};  // decode, decode, prefill chunk
  for (KvCache& bad : bad_shapes) {
    KvCache* caches[] = {&a, &bad, &c};
    std::vector<std::size_t> before;
    for (const KvCache* cache : caches)
      for (std::size_t l = 0; l < cache->layers(); ++l)
        before.push_back(cache->layer_length(l));
    EXPECT_THROW(enc.forward_cached(x, ends, caches), Error);
    std::size_t i = 0;
    for (const KvCache* cache : caches)
      for (std::size_t l = 0; l < cache->layers(); ++l)
        EXPECT_EQ(cache->layer_length(l), before[i++]) << "layer " << l;
  }
}

// The hidden-32 shapes above run the attention core inline on the
// caller. Here ForcePooled puts every step of 9 sessions' batched prefill
// and decode, far past the wrap, on a 4-thread pool's workers, so the
// in-place ring reads run there (and under TSan); the outputs must equal
// the inline run bit for bit.
TEST(CachedDecode, PooledDecodeMatchesInlineBits) {
  constexpr std::size_t kWindow = 8, kSeqs = 9, kSteps = 14;
  const Encoder enc = causal_encoder(kWindow);
  const auto generate = [&](bool pooled) {
    std::optional<detail::ForcePooled> guard;
    if (pooled) guard.emplace();
    ops::ExecContextOptions opts;
    opts.threads = 4;
    ops::ExecContext ctx(opts);
    Rng rng(47);
    std::vector<KvCache> caches;
    std::vector<KvCache*> ptrs;
    std::vector<std::size_t> ends;
    for (std::size_t s = 0; s < kSeqs; ++s) {
      caches.push_back(enc.make_cache(kWindow));
      ends.push_back((ends.empty() ? 0 : ends.back()) + 3 + s % 4);
    }
    for (KvCache& cache : caches) ptrs.push_back(&cache);
    std::vector<HalfMatrix> outputs;
    outputs.push_back(enc.forward_cached(
        random_half_matrix(32, ends.back(), rng, 0.5f), ends, ptrs, nullptr,
        &ctx));
    for (std::size_t s = 0; s < kSeqs; ++s) ends[s] = s + 1;
    HalfMatrix x = random_half_matrix(32, kSeqs, rng, 0.5f);
    for (std::size_t t = 0; t < kSteps; ++t) {
      x = enc.forward_cached(x, ends, ptrs, nullptr, &ctx);
      outputs.push_back(x);
    }
    for (const KvCache& cache : caches) EXPECT_GT(cache.length(), kWindow);
    return outputs;
  };
  const std::vector<HalfMatrix> inline_run = generate(false);
  const std::vector<HalfMatrix> pooled_run = generate(true);
  ASSERT_EQ(inline_run.size(), pooled_run.size());
  for (std::size_t i = 0; i < inline_run.size(); ++i)
    expect_bits_eq(pooled_run[i], inline_run[i], "pooled vs inline");
}

// The decode invariant must hold whichever Spatha column-location mode
// the projections dispatch under. kEnabled is the default; kFixed (the
// paper's column-loc ablation) is forced for every weight shape and
// batch width this test touches via the process-wide tuning cache — the
// same channel `venomtool tune` uses — and removed afterwards.
TEST(CachedDecode, BitIdenticalUnderBothColumnLocModes) {
  constexpr std::size_t kPrompt = 5, kSteps = 12;
  constexpr std::size_t kMaxCols = kPrompt + kSteps;
  // M = 8 so the vector-wise stage keeps 4 of 8 columns per group:
  // column-location metadata is non-trivial (with M = 4 every column is
  // kept and kFixed degenerates to kEnabled by construction).
  constexpr VnmConfig kWideVnm{8, 2, 8};
  const Encoder enc = [] {
    Rng rng(7);
    Encoder e(causal_config(), rng);
    e.sparsify(kWideVnm);
    return e;
  }();

  struct TunedModeGuard {
    std::vector<spatha::TuningKey> keys;
    ~TunedModeGuard() {
      for (const auto& key : keys) spatha::TuningCache::global().erase(key);
    }
  };

  HalfMatrix outputs[2];  // final decode output per mode, for contrast
  for (const spatha::ColumnLocMode mode :
       {spatha::ColumnLocMode::kEnabled, spatha::ColumnLocMode::kFixed}) {
    TunedModeGuard guard;
    if (mode == spatha::ColumnLocMode::kFixed) {
      // (out, in) shapes of the six per-layer weights; b_cols spans every
      // activation width the full forwards and decode steps below use.
      const std::size_t shapes[][2] = {{32, 32}, {64, 32}, {32, 64}};
      for (const auto& shape : shapes)
        for (std::size_t b = 1; b <= kMaxCols; ++b) {
          spatha::TuningEntry entry;
          entry.config = spatha::select_config_heuristic(kWideVnm, shape[0],
                                                         shape[1], b);
          entry.config.column_loc = spatha::ColumnLocMode::kFixed;
          entry.gflops = 1.0;
          const spatha::TuningKey key =
              spatha::make_tuning_key(kWideVnm, shape[0], shape[1], b);
          spatha::TuningCache::global().put(key, entry);
          guard.keys.push_back(key);
        }
      // The injected entries must actually win config selection.
      ASSERT_EQ(spatha::select_config(kWideVnm, 32, 32, 1).column_loc,
                spatha::ColumnLocMode::kFixed);
    }

    Rng rng(29);
    const HalfMatrix prompt = random_half_matrix(32, kPrompt, rng, 0.5f);
    // A private context per mode: plan caches memoize per-shape configs,
    // so reusing one would leak the previous mode's plans.
    ops::ExecContext ctx;
    KvCache cache = enc.make_cache(kMaxCols);
    const HalfMatrix pre = enc.prefill(prompt, cache, nullptr, &ctx);
    expect_bits_eq(pre, enc.forward(prompt, nullptr, &ctx), "mode prefill");

    HalfMatrix seq(32, kMaxCols);
    for (std::size_t r = 0; r < 32; ++r)
      std::memcpy(&seq(r, 0), &prompt(r, 0), kPrompt * sizeof(half_t));
    HalfMatrix x = column(pre, kPrompt - 1);
    for (std::size_t t = 0; t < kSteps; ++t) {
      for (std::size_t r = 0; r < 32; ++r) seq(r, kPrompt + t) = x(r, 0);
      const HalfMatrix y = enc.decode_step(x, cache, nullptr, &ctx);
      const HalfMatrix full =
          enc.forward(leading_cols(seq, kPrompt + t + 1), nullptr, &ctx);
      expect_bits_eq(y, column(full, kPrompt + t), "mode decode step");
      x = y;
    }
    outputs[mode == spatha::ColumnLocMode::kFixed ? 1 : 0] = x;
  }
  // The ablation must have taken effect: with magnitude-selected (non-
  // identity) columns, kFixed computes a different linear map, so the
  // two modes' trajectories diverge even though each is self-consistent.
  bool identical = true;
  for (std::size_t e = 0; e < outputs[0].flat().size(); ++e)
    identical = identical &&
                outputs[0].flat()[e].bits() == outputs[1].flat()[e].bits();
  EXPECT_FALSE(identical);
}

TEST(CachedDecode, GuardsMisuse) {
  Rng rng(31);
  const HalfMatrix x1 = random_half_matrix(32, 1, rng, 0.5f);

  {  // non-causal encoder: a KV cache is a decode structure
    Rng r2(33);
    ModelConfig cfg = causal_config();
    cfg.causal = false;
    Encoder enc(cfg, r2);
    enc.sparsify(kVnm);
    KvCache cache = enc.make_cache(8);
    EXPECT_THROW(enc.prefill(x1, cache), Error);
  }
  {  // dynamic N:M attention needs the whole probability row
    Encoder enc = causal_encoder();
    enc.set_dynamic_score_sparsity(NmPattern{2, 4});
    KvCache cache = enc.make_cache(8);
    EXPECT_THROW(enc.prefill(x1, cache), Error);
  }
  const Encoder enc = causal_encoder();
  {  // layer-count mismatch
    KvCache cache(1, 32, 8);
    EXPECT_THROW(enc.prefill(x1, cache), Error);
  }
  {  // window/capacity pairing is enforced
    const Encoder windowed = causal_encoder(8);
    KvCache cache = windowed.make_cache(16);
    EXPECT_THROW(windowed.prefill(x1, cache), Error);
  }
  {  // ring overflow without a window must throw, not silently evict
    KvCache cache = enc.make_cache(4);
    const HalfMatrix prompt = random_half_matrix(32, 4, rng, 0.5f);
    (void)enc.prefill(prompt, cache);
    EXPECT_THROW(enc.decode_step(x1, cache), Error);
  }
  {  // decode_step is single-token by contract
    KvCache cache = enc.make_cache(8);
    const HalfMatrix two = random_half_matrix(32, 2, rng, 0.5f);
    EXPECT_THROW(enc.decode_step(two, cache), Error);
  }
}

}  // namespace
}  // namespace venom::transformer

// ---- serving engine generation -------------------------------------------

namespace venom::serving {
namespace {

using namespace std::chrono_literals;
using transformer::Encoder;
using transformer::KvCache;

Options gen_options() {
  Options opts;
  opts.batching.max_batch_tokens = 64;
  opts.batching.max_wait = std::chrono::microseconds(200);
  opts.kv_capacity = 64;
  opts.max_new_tokens = 32;
  return opts;
}

/// The engine's generation contract, replayed directly on the encoder:
/// prefill the prompt, seed decode with the last prompt output, then
/// `steps` identity-feedback decode steps. Returns (hidden x steps).
HalfMatrix direct_generate(const Encoder& enc, const HalfMatrix& prompt,
                           std::size_t steps, std::size_t capacity) {
  KvCache cache = enc.make_cache(capacity);
  const HalfMatrix pre = enc.prefill(prompt, cache);
  HalfMatrix gen(prompt.rows(), steps);
  HalfMatrix x(prompt.rows(), 1);
  for (std::size_t r = 0; r < prompt.rows(); ++r)
    x(r, 0) = pre(r, prompt.cols() - 1);
  for (std::size_t t = 0; t < steps; ++t) {
    const HalfMatrix y = enc.decode_step(x, cache);
    for (std::size_t r = 0; r < prompt.rows(); ++r) {
      gen(r, t) = y(r, 0);
      x(r, 0) = y(r, 0);
    }
  }
  return gen;
}

void expect_bits_eq(const HalfMatrix& a, const HalfMatrix& b,
                    const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (std::size_t e = 0; e < a.flat().size(); ++e)
    ASSERT_EQ(a.flat()[e].bits(), b.flat()[e].bits())
        << what << " differs at flat index " << e;
}

TEST(EngineGeneration, MatchesDirectPrefillDecodeLoop) {
  const Encoder enc = transformer::causal_encoder();
  const HalfMatrix ref = [&] {
    Rng rng(41);
    return direct_generate(enc, random_half_matrix(32, 6, rng, 0.5f), 8, 64);
  }();

  InferenceEngine engine(transformer::causal_encoder(), gen_options());
  Request req;
  {
    Rng rng(41);
    req.input = random_half_matrix(32, 6, rng, 0.5f);
  }
  req.max_new_tokens = 8;
  const Response resp = engine.submit(std::move(req)).get();

  expect_bits_eq(resp.output, ref, "engine generation");
  EXPECT_EQ(resp.tokens_generated, 8u);
  EXPECT_GT(resp.prefill_ms, 0.0);
  EXPECT_GT(resp.decode_ms, 0.0);
  EXPECT_DOUBLE_EQ(resp.exec_ms, resp.prefill_ms + resp.decode_ms);

  const ServingStats stats = engine.stats();
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.prefill_tokens, 6u);
  EXPECT_EQ(stats.decode_steps, 8u);
  EXPECT_GT(stats.decode_p50_ms, 0.0);
  EXPECT_GE(stats.decode_p99_ms, stats.decode_p50_ms);
}

TEST(EngineGeneration, OnTokenHookTransformsFeedbackAndStopsEarly) {
  // The hook overwrites the feedback column with a constant and declares
  // eos after 3 generated tokens. The engine's outputs must match a
  // direct loop applying the same transformation.
  const half_t fed(0.25f);
  const Encoder enc = transformer::causal_encoder();
  Rng rng(43);
  const HalfMatrix prompt = random_half_matrix(32, 4, rng, 0.5f);

  HalfMatrix ref(32, 3);
  {
    KvCache cache = enc.make_cache(64);
    (void)enc.prefill(prompt, cache);
    HalfMatrix x(32, 1);
    for (std::size_t r = 0; r < 32; ++r) x(r, 0) = fed;  // post-hook seed
    for (std::size_t t = 0; t < 3; ++t) {
      const HalfMatrix y = enc.decode_step(x, cache);
      for (std::size_t r = 0; r < 32; ++r) {
        ref(r, t) = y(r, 0);
        x(r, 0) = fed;
      }
    }
  }

  InferenceEngine engine(transformer::causal_encoder(), gen_options());
  Request req;
  req.input = prompt;
  req.max_new_tokens = 32;  // eos, not the cap, must stop generation
  std::atomic<std::size_t> calls{0};
  req.on_token = [&](std::span<half_t> next) {
    for (half_t& h : next) h = fed;
    // Called once after prefill, then once per decode output: returning
    // false on the 4th call stops after 3 generated tokens.
    return calls.fetch_add(1) + 1 < 4;
  };
  const Response resp = engine.submit(std::move(req)).get();
  EXPECT_EQ(resp.tokens_generated, 3u);
  expect_bits_eq(resp.output, ref, "hooked generation");
  EXPECT_EQ(calls.load(), 4u);
}

TEST(EngineGeneration, EosInPromptGeneratesNothing) {
  InferenceEngine engine(transformer::causal_encoder(), gen_options());
  Rng rng(47);
  Request req;
  req.input = random_half_matrix(32, 5, rng, 0.5f);
  req.max_new_tokens = 8;
  req.on_token = [](std::span<half_t>) { return false; };
  const Response resp = engine.submit(std::move(req)).get();
  EXPECT_EQ(resp.tokens_generated, 0u);
  EXPECT_EQ(resp.output.cols(), 0u);
  EXPECT_GT(resp.prefill_ms, 0.0);
  EXPECT_EQ(engine.stats().decode_steps, 0u);
}

// Generation interleaved with plain encode traffic, with prefill chunking
// forcing multi-pass prompts: every response must still be bit-identical
// to its unbatched reference.
TEST(EngineGeneration, MixedTrafficKeepsBitIdentity) {
  const Encoder ref_enc = transformer::causal_encoder();
  Options opts = gen_options();
  opts.batching.max_batch_tokens = 16;
  opts.prefill_chunk_tokens = 4;  // a 9-token prompt takes 3 chunks
  InferenceEngine engine(transformer::causal_encoder(), opts);

  Rng rng(53);
  const HalfMatrix prompt_a = random_half_matrix(32, 9, rng, 0.5f);
  const HalfMatrix prompt_b = random_half_matrix(32, 5, rng, 0.5f);
  std::vector<HalfMatrix> encodes;
  for (int i = 0; i < 6; ++i)
    encodes.push_back(random_half_matrix(32, 3 + i % 4, rng, 0.5f));

  Request ga;
  ga.input = prompt_a;
  ga.max_new_tokens = 6;
  Request gb;
  gb.input = prompt_b;
  gb.max_new_tokens = 6;
  auto fa = engine.submit(std::move(ga));
  auto fb = engine.submit(std::move(gb));
  std::vector<std::future<Response>> fe;
  for (const auto& x : encodes) {
    Request req;
    req.input = x;
    fe.push_back(engine.submit(std::move(req)));
  }

  expect_bits_eq(fa.get().output, direct_generate(ref_enc, prompt_a, 6, 64),
                 "mixed generation A");
  expect_bits_eq(fb.get().output, direct_generate(ref_enc, prompt_b, 6, 64),
                 "mixed generation B");
  for (std::size_t i = 0; i < fe.size(); ++i)
    expect_bits_eq(fe[i].get().output, ref_enc.forward(encodes[i]),
                   "mixed encode");

  const ServingStats stats = engine.stats();
  EXPECT_EQ(stats.prefill_tokens, 14u);
  EXPECT_EQ(stats.decode_steps, 12u);
  EXPECT_EQ(stats.requests, 8u);
}

TEST(EngineGeneration, WindowedSessionDecodesPastTheRing) {
  // window == kv_capacity == 8: a 6-token prompt plus 16 decode steps
  // wraps the ring inside the engine; outputs must match the direct loop.
  const Encoder ref_enc = transformer::causal_encoder(8);
  Options opts = gen_options();
  opts.kv_capacity = 8;
  InferenceEngine engine(transformer::causal_encoder(8), opts);

  Rng rng(59);
  const HalfMatrix prompt = random_half_matrix(32, 6, rng, 0.5f);
  Request req;
  req.input = prompt;
  req.max_new_tokens = 16;
  const Response resp = engine.submit(std::move(req)).get();
  EXPECT_EQ(resp.tokens_generated, 16u);
  expect_bits_eq(resp.output, direct_generate(ref_enc, prompt, 16, 8),
                 "windowed engine generation");
}

TEST(EngineGeneration, ShutdownDrainsLiveSessions) {
  InferenceEngine engine(transformer::causal_encoder(), gen_options());
  Rng rng(61);
  Request req;
  req.input = random_half_matrix(32, 4, rng, 0.5f);
  req.max_new_tokens = 12;
  auto fut = engine.submit(std::move(req));
  // The session's decode steps re-enter the queue after close(): shutdown
  // must drain the generation to completion, not abandon it.
  engine.shutdown();
  const Response resp = fut.get();
  EXPECT_EQ(resp.tokens_generated, 12u);
}

TEST(EngineGeneration, LapsedDeadlineShedsQueuedSession) {
  InferenceEngine engine(transformer::causal_encoder(), gen_options());
  Rng rng(67);
  Request req;
  req.input = random_half_matrix(32, 4, rng, 0.5f);
  req.max_new_tokens = 4;
  req.deadline = Clock::now() - 1ms;  // already lapsed at submit
  auto fut = engine.submit(std::move(req));
  try {
    (void)fut.get();
    FAIL() << "expected AdmissionError(kDeadlineExceeded)";
  } catch (const AdmissionError& e) {
    EXPECT_EQ(e.reason(), AdmissionReason::kDeadlineExceeded);
  }
  EXPECT_EQ(engine.stats().shed, 1u);
}

TEST(EngineGeneration, SubmitValidation) {
  EXPECT_THROW(
      [] {
        Options opts = gen_options();
        opts.kv_capacity = 0;
        InferenceEngine engine(transformer::causal_encoder(), opts);
      }(),
      Error);

  Rng rng(71);
  const HalfMatrix prompt = random_half_matrix(32, 8, rng, 0.5f);
  {  // over the options cap
    InferenceEngine engine(transformer::causal_encoder(), gen_options());
    Request req;
    req.input = prompt;
    req.max_new_tokens = 33;
    EXPECT_THROW(engine.submit(std::move(req)), Error);
  }
  {  // generation needs a causal encoder
    Rng r2(73);
    transformer::Encoder enc(transformer::ModelConfig{
        .name = "tiny", .layers = 2, .hidden = 32, .heads = 4,
        .ffn_hidden = 64, .seq_len = 16}, r2);
    enc.sparsify({8, 2, 4});
    InferenceEngine engine(std::move(enc), gen_options());
    Request req;
    req.input = prompt;
    req.max_new_tokens = 4;
    EXPECT_THROW(engine.submit(std::move(req)), Error);
  }
  {  // prompt + max_new_tokens must fit an unwindowed ring
    Options opts = gen_options();
    opts.kv_capacity = 10;
    opts.max_new_tokens = 8;
    InferenceEngine engine(transformer::causal_encoder(), opts);
    Request req;
    req.input = prompt;
    req.max_new_tokens = 3;  // 8 + 3 > 10
    EXPECT_THROW(engine.submit(std::move(req)), Error);
  }
  {  // a windowed encoder pins kv_capacity to the window
    InferenceEngine engine(transformer::causal_encoder(8), gen_options());
    Request req;
    req.input = prompt;
    req.max_new_tokens = 4;
    EXPECT_THROW(engine.submit(std::move(req)), Error);
  }
  {  // dynamic N:M attention cannot generate
    transformer::Encoder enc = transformer::causal_encoder();
    enc.set_dynamic_score_sparsity(NmPattern{2, 4});
    InferenceEngine engine(std::move(enc), gen_options());
    Request req;
    req.input = prompt;
    req.max_new_tokens = 4;
    EXPECT_THROW(engine.submit(std::move(req)), Error);
  }
}

TEST(EngineGroupGeneration, StickySessionsStayBitIdentical) {
  const Encoder ref_enc = transformer::causal_encoder();
  Options opts = gen_options();
  opts.replicas = 2;
  EngineGroup group(transformer::causal_encoder(), opts);

  Rng rng(79);
  std::vector<HalfMatrix> prompts;
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 4; ++i) {
    prompts.push_back(random_half_matrix(32, 3 + i, rng, 0.5f));
    Request req;
    req.input = prompts.back();
    req.max_new_tokens = 5;
    futs.push_back(group.submit(std::move(req)));
  }
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const Response resp = futs[i].get();
    EXPECT_LT(resp.replica, 2u);
    expect_bits_eq(resp.output, direct_generate(ref_enc, prompts[i], 5, 64),
                   "group generation");
  }
  const GroupStats stats = group.stats();
  EXPECT_EQ(stats.decode_steps, 20u);
  EXPECT_EQ(stats.prefill_tokens, 3u + 4u + 5u + 6u);
  EXPECT_EQ(stats.requests, 4u);
  // Admission gauges fully released once every session delivered.
  EXPECT_EQ(stats.admission.inflight_tokens, 0u);
}

}  // namespace
}  // namespace venom::serving
