// Tests for the empirical tuning cache: JSON round-trip, transparent
// cache-hit dispatch (bit-identical to the heuristic path), corrupt-file
// fallback, and the measured autotuner itself.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/cpu_features.hpp"
#include "common/rng.hpp"
#include "gpumodel/autotune.hpp"
#include "io/serialize.hpp"
#include "ops/context.hpp"
#include "quant/quantized_vnm.hpp"
#include "spatha/epilogue.hpp"
#include "spatha/sddmm.hpp"
#include "spatha/spmm.hpp"
#include "spatha/tuning_cache.hpp"

namespace venom {
namespace {

using spatha::SpmmConfig;
using spatha::TuningCache;
using spatha::TuningEntry;
using spatha::TuningKey;

std::string temp_path(const char* name) {
  return testing::TempDir() + name;
}

TuningKey sample_key() {
  TuningKey key;
  key.rows = 256;
  key.cols = 512;
  key.b_cols = 128;
  key.v = 64;
  key.n = 2;
  key.m = 8;
  key.features = "avx2-f16c";
  return key;
}

TuningEntry sample_entry() {
  TuningEntry e;
  e.config.block_k = 256;
  e.config.block_c = 32;
  e.config.warp_r = 16;
  e.config.warp_k = 32;
  e.config.warp_c = 32;
  e.config.batch_size = 3;
  e.config.chunk_grain = 2;
  e.gflops = 21.5;
  e.heuristic_gflops = 13.25;
  e.threads = 8;
  return e;
}

TEST(TuningCache, PutFindLookup) {
  TuningCache cache;
  EXPECT_TRUE(cache.empty());
  const TuningKey key = sample_key();
  cache.put(key, sample_entry());
  EXPECT_EQ(cache.size(), 1u);

  const auto found = cache.find(key);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->config, sample_entry().config);

  TuningKey other = key;
  other.b_cols = 64;  // different C: no entry
  EXPECT_FALSE(cache.find(other).has_value());

  // lookup() keys by this build's feature string, not the entry's.
  TuningKey native = spatha::make_tuning_key({64, 2, 8}, 256, 512, 128);
  EXPECT_EQ(native.features, cpu_feature_string());
  cache.put(native, sample_entry());
  const auto cfg = cache.lookup({64, 2, 8}, 256, 512, 128);
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(*cfg, sample_entry().config);
}

TEST(TuningCache, JsonRoundTripPreservesEveryField) {
  TuningCache cache;
  cache.put(sample_key(), sample_entry());
  TuningKey key2 = sample_key();
  key2.m = 16;
  key2.features = "portable";
  TuningEntry e2 = sample_entry();
  e2.config.block_k = 64;
  e2.config.chunk_grain = 0;
  // Non-default store/column-loc choices must survive the round trip
  // (they were silently dropped before store_bits/column_loc_fixed were
  // persisted).
  e2.config.store_width = spatha::StoreWidth::k32bit;
  e2.config.column_loc = spatha::ColumnLocMode::kFixed;
  e2.gflops = 1.75;
  e2.threads = 1;
  cache.put(key2, e2);

  const std::string path = temp_path("roundtrip.json");
  io::save_tuning_cache(cache, path);
  EXPECT_EQ(io::probe(path), io::FileKind::kTuningCache);

  const TuningCache loaded = io::load_tuning_cache(path);
  ASSERT_EQ(loaded.size(), 2u);
  for (const auto& [key, want] : cache.entries()) {
    const auto got = loaded.find(key);
    ASSERT_TRUE(got.has_value()) << key.features;
    EXPECT_EQ(got->config, want.config);
    EXPECT_DOUBLE_EQ(got->gflops, want.gflops);
    EXPECT_DOUBLE_EQ(got->heuristic_gflops, want.heuristic_gflops);
    EXPECT_EQ(got->threads, want.threads);
  }
}

TEST(TuningCache, EmptyCacheRoundTrips) {
  const std::string path = temp_path("empty.json");
  io::save_tuning_cache(TuningCache{}, path);
  EXPECT_TRUE(io::load_tuning_cache(path).empty());
}

TEST(TuningCache, CorruptFilesThrowFromLoadAndFallBackInTryLoad) {
  const std::string missing = temp_path("no_such_cache.json");
  std::remove(missing.c_str());
  EXPECT_THROW(io::load_tuning_cache(missing), Error);

  const auto corrupt_cases = {
      std::string("this is not json"),
      std::string("{\"format\": \"venom-tune-cache\", \"version\": 1"),
      std::string("{\"format\": \"something-else\", \"version\": 1, "
                  "\"entries\": []}"),
      std::string("{\"format\": \"venom-tune-cache\", \"version\": 99, "
                  "\"entries\": []}"),
      std::string("{\"format\": \"venom-tune-cache\", \"version\": 1, "
                  "\"entries\": [{\"r\": 8}]}"),
      // Above 2^53: must reject, not overflow the float-to-int cast.
      std::string("{\"format\": \"venom-tune-cache\", \"version\": 1, "
                  "\"entries\": [{\"r\": 1e300}]}"),
  };
  const std::string path = temp_path("corrupt.json");
  for (const std::string& text : corrupt_cases) {
    std::ofstream(path, std::ios::trunc) << text;
    EXPECT_THROW(io::load_tuning_cache(path), Error) << text;

    TuningCache cache;
    cache.put(sample_key(), sample_entry());
    EXPECT_FALSE(cache.try_load(path)) << text;
    EXPECT_EQ(cache.size(), 1u);  // fallback leaves the cache unchanged
  }
}

TEST(TuningCache, TryLoadMergesIntoExistingEntries) {
  TuningCache on_disk;
  on_disk.put(sample_key(), sample_entry());
  const std::string path = temp_path("merge.json");
  io::save_tuning_cache(on_disk, path);

  TuningCache cache;
  TuningKey other = sample_key();
  other.rows = 1024;
  cache.put(other, sample_entry());
  EXPECT_TRUE(cache.try_load(path));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.find(sample_key()).has_value());
  EXPECT_TRUE(cache.find(other).has_value());
}

/// Inserts `cfg` as the global tuned choice for the problem and erases
/// exactly that key on destruction, so dispatch tests neither leak state
/// nor wipe entries the process loaded from $VENOM_TUNE_CACHE.
class ScopedGlobalEntry {
 public:
  ScopedGlobalEntry(const VnmConfig& fmt, std::size_t rows, std::size_t cols,
                    std::size_t b_cols, const SpmmConfig& cfg) {
    key_ = spatha::make_tuning_key(fmt, rows, cols, b_cols);
    TuningEntry e;
    e.config = cfg;
    TuningCache::global().put(key_, e);
  }
  ~ScopedGlobalEntry() { TuningCache::global().erase(key_); }

 private:
  TuningKey key_;
};

TEST(TuningCacheDispatch, SelectConfigPrefersCacheAndFallsBack) {
  const VnmConfig fmt{64, 2, 8};
  const auto heuristic = spatha::select_config_heuristic(fmt, 256, 512, 128);
  EXPECT_EQ(spatha::select_config(fmt, 256, 512, 128), heuristic);

  SpmmConfig tuned = heuristic;
  tuned.block_c = 128;
  tuned.batch_size = 4;
  tuned.chunk_grain = 2;
  ScopedGlobalEntry scoped(fmt, 256, 512, 128, tuned);
  EXPECT_EQ(spatha::select_config(fmt, 256, 512, 128), tuned);
  // Any other shape still falls back to the heuristic.
  EXPECT_EQ(spatha::select_config(fmt, 256, 512, 64),
            spatha::select_config_heuristic(fmt, 256, 512, 64));
}

TEST(TuningCacheDispatch, InvalidCachedConfigFallsBackToHeuristic) {
  const VnmConfig fmt{64, 2, 8};
  SpmmConfig bad = spatha::select_config_heuristic(fmt, 256, 512, 128);
  bad.block_k = 100;  // not a multiple of M: fails validate()
  ScopedGlobalEntry scoped(fmt, 256, 512, 128, bad);
  // A hand-edited cache entry that no longer validates must not poison
  // dispatch at that shape.
  EXPECT_EQ(spatha::select_config(fmt, 256, 512, 128),
            spatha::select_config_heuristic(fmt, 256, 512, 128));
}

TEST(TuningCacheDispatch, CacheHitSpmmIsBitIdenticalToHeuristicDispatch) {
  const VnmConfig fmt{16, 2, 8};
  Rng rng(3);
  const HalfMatrix w = random_half_matrix(64, 128, rng, 0.1f);
  const HalfMatrix b = random_half_matrix(128, 48, rng, 0.1f);
  const VnmMatrix a = VnmMatrix::from_dense_magnitude(w, fmt);

  const FloatMatrix heuristic_out = spatha::spmm_vnm(a, b);
  const FloatMatrix reference = spatha::spmm_vnm_reference(a, b);

  SpmmConfig tuned =
      spatha::select_config_heuristic(fmt, 64, 128, 48);
  tuned.block_k = 32;
  tuned.block_c = 16;
  tuned.chunk_grain = 1;

  spatha::Epilogue epilogue;
  FloatMatrix tuned_out;
  HalfMatrix fused;
  {
    ScopedGlobalEntry scoped(fmt, 64, 128, 48, tuned);
    tuned_out = spatha::spmm_vnm(a, b);
    // The fused epilogue (the transformer::Linear path) also dispatches
    // through select_config.
    fused = spatha::spmm_vnm_fused(a, b, epilogue);
  }

  // The convenience overload dispatched the cached config; results must
  // stay bit-identical to both the heuristic path and the oracle.
  ASSERT_EQ(tuned_out.size(), heuristic_out.size());
  EXPECT_EQ(std::memcmp(tuned_out.data(), heuristic_out.data(),
                        tuned_out.size() * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(tuned_out.data(), reference.data(),
                        tuned_out.size() * sizeof(float)),
            0);

  const HalfMatrix fused_heuristic = spatha::spmm_vnm_fused(a, b, epilogue);
  ASSERT_EQ(fused.size(), fused_heuristic.size());
  for (std::size_t i = 0; i < fused.size(); ++i)
    EXPECT_EQ(fused.flat()[i].bits(), fused_heuristic.flat()[i].bits()) << i;
}

TEST(TuningCacheDispatch, SddmmUnaffectedByTunedChunkGrain) {
  const VnmConfig fmt{16, 2, 8};
  Rng rng(5);
  const HalfMatrix w = random_half_matrix(64, 128, rng, 0.1f);
  const VnmMatrix structure = VnmMatrix::from_dense_magnitude(w, fmt);
  const HalfMatrix qa = random_half_matrix(64, 32, rng, 0.1f);
  const HalfMatrix qb = random_half_matrix(32, 128, rng, 0.1f);

  const VnmMatrix plain = spatha::sddmm_vnm(structure, qa, qb);
  SpmmConfig tuned = spatha::select_config_heuristic(fmt, 64, 128, 32);
  tuned.chunk_grain = 3;
  ScopedGlobalEntry scoped(fmt, 64, 128, 32, tuned);
  const VnmMatrix cached = spatha::sddmm_vnm(structure, qa, qb);

  ASSERT_EQ(plain.values().size(), cached.values().size());
  for (std::size_t i = 0; i < plain.values().size(); ++i)
    EXPECT_EQ(plain.values()[i].bits(), cached.values()[i].bits()) << i;
}

TEST(AutotuneMeasured, BeatsOrMatchesHeuristicAndVerifies) {
  const VnmConfig fmt{8, 2, 8};
  Rng rng(9);
  const HalfMatrix w = random_half_matrix(32, 64, rng, 0.1f);
  const HalfMatrix b = random_half_matrix(64, 32, rng, 0.1f);
  const VnmMatrix a = VnmMatrix::from_dense_magnitude(w, fmt);

  gpumodel::MeasureOptions opts;
  opts.max_tiles = 3;
  opts.min_sample_s = 0.001;  // keep the unit test fast
  gpumodel::TuneSpace space;
  space.thread_counts = {1};  // exercise the refinement path
  const auto result = gpumodel::autotune_measured(a, b, space, opts);

  EXPECT_GE(result.best.gflops, result.heuristic.gflops);
  EXPECT_FALSE(result.ranked.empty());
  for (std::size_t i = 1; i < result.ranked.size(); ++i)
    EXPECT_LE(result.ranked[i - 1].seconds, result.ranked[i].seconds);

  // The result carries a ready-to-persist entry for this problem.
  EXPECT_EQ(result.key.rows, 32u);
  EXPECT_EQ(result.key.cols, 64u);
  EXPECT_EQ(result.key.b_cols, 32u);
  EXPECT_EQ(result.key.features, cpu_feature_string());
  EXPECT_EQ(result.entry.config, result.best.config);
  EXPECT_GT(result.entry.gflops, 0.0);
  EXPECT_GT(result.entry.heuristic_gflops, 0.0);
  EXPECT_GE(result.entry.threads, 1u);
}

TEST(AutotuneMeasured, TileBudgetCountsTheHeuristicBaseline) {
  // A shape with plenty of valid analytical tiles, so the budget (not
  // the candidate pool) is what limits the search.
  const VnmConfig fmt{16, 2, 8};
  Rng rng(11);
  const HalfMatrix w = random_half_matrix(64, 256, rng, 0.1f);
  const HalfMatrix b = random_half_matrix(256, 64, rng, 0.1f);
  const VnmMatrix a = VnmMatrix::from_dense_magnitude(w, fmt);

  gpumodel::MeasureOptions opts;
  opts.max_tiles = 2;
  opts.min_sample_s = 0.001;
  opts.verify = false;
  gpumodel::TuneSpace space;
  space.chunk_grains = {0, 1};
  const auto result = gpumodel::autotune_measured(a, b, space, opts);

  // max_tiles bounds the DISTINCT (block_k, block_c) tiles measured,
  // heuristic baseline included — the old `>` admitted one extra tile.
  std::set<std::pair<std::size_t, std::size_t>> tiles;
  for (const auto& mc : result.ranked)
    tiles.insert({mc.config.block_k, mc.config.block_c});
  EXPECT_EQ(tiles.size(), 2u);

  // Candidate count is pinned by the dedup semantics: the baseline, plus
  // 2 tiles x 2 grains, minus the one exact duplicate of the baseline
  // (the heuristic's grain is 0, which is in the swept grain set — its
  // OTHER grain variant stays in the search).
  ASSERT_EQ(result.heuristic.config.chunk_grain, 0u);
  EXPECT_EQ(result.ranked.size(), 4u);
}

TEST(AutotuneMeasuredI8, ProducesAnI8EntryReachableBySelectConfigI8) {
  const VnmConfig fmt{8, 2, 8};
  Rng rng(13);
  const HalfMatrix w = random_half_matrix(32, 64, rng, 0.1f);
  const HalfMatrix b = random_half_matrix(64, 32, rng, 0.1f);
  const VnmMatrix a = VnmMatrix::from_dense_magnitude(w, fmt);

  gpumodel::MeasureOptions opts;
  opts.max_tiles = 3;
  opts.min_sample_s = 0.001;
  opts.dtype = ops::Dtype::kI8;  // verify stays on: the i8 scalar oracle
  const auto result = gpumodel::autotune_measured(a, b, {}, opts);

  // Same-run ordering invariant as fp16: the int8 heuristic is in the
  // measured set, so the winner can never lose to it.
  EXPECT_GE(result.best.gflops, result.heuristic.gflops);
  EXPECT_EQ(result.heuristic.config,
            spatha::select_config_heuristic(fmt, 32, 64, 32,
                                            ops::Dtype::kI8));

  // The key carries the "+i8" feature tag — the entry lands where
  // select_config(..., kI8) looks, not under the fp16 key.
  EXPECT_EQ(result.key,
            spatha::make_tuning_key(fmt, 32, 64, 32, ops::Dtype::kI8));
  EXPECT_EQ(result.key.features, cpu_feature_string() + "+i8");

  spatha::TuningCache cache;
  cache.put(result.key, result.entry);
  EXPECT_EQ(spatha::select_config(cache, fmt, 32, 64, 32, ops::Dtype::kI8),
            result.best.config);
  // The fp16 lookup must NOT see the int8 entry.
  EXPECT_FALSE(cache.lookup(fmt, 32, 64, 32).has_value());

  // And the winner's output is the i8 kernel's, bit-identical to the
  // int8 scalar oracle (autotune already verified; assert independently).
  const auto qa = quant::QuantizedVnmMatrix::quantize(a);
  const FloatMatrix got = quant::spmm_vnm_i8(qa, b, result.best.config);
  const FloatMatrix want =
      quant::spmm_vnm_i8_scalar(qa, b, result.best.config.column_loc);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        got.size() * sizeof(float)),
            0);
}

TEST(TuningCacheDispatch, PrivateContextI8EntryHonoredByConvenienceOverload) {
  const VnmConfig fmt{16, 2, 8};
  Rng rng(17);
  const HalfMatrix w = random_half_matrix(64, 128, rng, 0.2f);
  const HalfMatrix b = random_half_matrix(128, 32, rng, 0.1f);
  const VnmMatrix a = VnmMatrix::from_dense_magnitude(w, fmt);
  const auto qa = quant::QuantizedVnmMatrix::quantize(a);

  // A +i8 entry whose column-loc mode is flipped to kFixed: a config
  // choice that changes which B rows the kernel gathers, so whether the
  // entry was honored is visible in the output bits.
  spatha::SpmmConfig tuned =
      spatha::select_config_heuristic(fmt, 64, 128, 32, ops::Dtype::kI8);
  tuned.column_loc = spatha::ColumnLocMode::kFixed;
  spatha::TuningCache on_disk;
  spatha::TuningEntry entry;
  entry.config = tuned;
  on_disk.put(spatha::make_tuning_key(fmt, 64, 128, 32, ops::Dtype::kI8),
              entry);
  const std::string path = temp_path("private_i8.json");
  io::save_tuning_cache(on_disk, path);

  ops::ExecContext ctx(
      ops::ExecContextOptions{.tuning_cache_path = path});
  ASSERT_EQ(ctx.select_config(fmt, 64, 128, 32, ops::Dtype::kI8), tuned);
  // The global cache has no such entry; its dispatch stays heuristic.
  ASSERT_EQ(spatha::select_config(fmt, 64, 128, 32, ops::Dtype::kI8),
            spatha::select_config_heuristic(fmt, 64, 128, 32,
                                            ops::Dtype::kI8));

  // The convenience overload with the context's cache must dispatch the
  // private entry (the regression: it used to consult only the global
  // cache, making a scoped tune unreachable)...
  const FloatMatrix via_ctx =
      quant::spmm_vnm_i8(qa, b, nullptr, &ctx.tuning_cache());
  const FloatMatrix explicit_tuned = quant::spmm_vnm_i8(qa, b, tuned);
  ASSERT_EQ(via_ctx.size(), explicit_tuned.size());
  EXPECT_EQ(std::memcmp(via_ctx.data(), explicit_tuned.data(),
                        via_ctx.size() * sizeof(float)),
            0);

  // ...and the default overload keeps dispatching the heuristic — the
  // two disagree on these operands, which is what makes the check above
  // meaningful rather than vacuous.
  const FloatMatrix via_global = quant::spmm_vnm_i8(qa, b);
  ASSERT_EQ(via_global.size(), via_ctx.size());
  EXPECT_NE(std::memcmp(via_global.data(), via_ctx.data(),
                        via_global.size() * sizeof(float)),
            0);
}

TEST(TuningCacheDispatch, CorruptI8EntryDegradesToI8Heuristic) {
  const VnmConfig fmt{16, 2, 8};
  // A +i8 entry that no longer validates for the shape (block_k not a
  // multiple of M) must degrade to the INT8 heuristic, not throw and not
  // fall back to the fp16 heuristic.
  spatha::SpmmConfig bad =
      spatha::select_config_heuristic(fmt, 64, 128, 32, ops::Dtype::kI8);
  bad.block_k = 100;
  spatha::TuningEntry entry;
  entry.config = bad;
  const spatha::TuningKey key =
      spatha::make_tuning_key(fmt, 64, 128, 32, ops::Dtype::kI8);
  TuningCache::global().put(key, entry);
  const auto selected =
      spatha::select_config(fmt, 64, 128, 32, ops::Dtype::kI8);
  TuningCache::global().erase(key);
  EXPECT_EQ(selected, spatha::select_config_heuristic(fmt, 64, 128, 32,
                                                      ops::Dtype::kI8));
}

// The datapath tag table, pinned against literal JSON: the cache file is
// written by hand with the on-disk feature suffixes "", "+i8" and
// "+fp8" (not through make_tuning_key), so a respelled tag cannot pass
// by agreeing with itself. Every dtype must resolve to exactly its own
// entry — E5M2 and E4M3 share "+fp8" — and, with that entry removed,
// fall back to its own heuristic: the int8 tiling for int8, the fp16
// tiling for f16 and both fp8 flavours.
TEST(TuningCacheDispatch, DatapathTagsResolveLiteralJsonEntries) {
  const VnmConfig fmt{16, 2, 8};
  const std::size_t r = 64, k = 512, c = 128;
  const auto config = [](std::size_t bk, std::size_t bc, std::size_t grain) {
    SpmmConfig cfg;
    cfg.block_k = bk;
    cfg.block_c = bc;
    cfg.warp_r = 16;
    cfg.warp_k = 32;
    cfg.warp_c = bc;
    cfg.chunk_grain = grain;  // nonzero: no heuristic picks it
    return cfg;
  };
  const std::vector<std::pair<std::string, SpmmConfig>> entries = {
      {"", config(64, 16, 1)},
      {"+i8", config(32, 32, 2)},
      {"+fp8", config(128, 8, 3)}};
  // The entry each dtype owns (an index into `entries`).
  const std::vector<std::pair<ops::Dtype, std::size_t>> owner = {
      {ops::Dtype::kF16, 0},
      {ops::Dtype::kI8, 1},
      {ops::Dtype::kF8E5M2, 2},
      {ops::Dtype::kF8E4M3, 2}};
  const SpmmConfig f16_heuristic =
      spatha::select_config_heuristic(fmt, r, k, c);
  const SpmmConfig i8_heuristic =
      spatha::select_config_heuristic(fmt, r, k, c, ops::Dtype::kI8);
  // At this shape the two tilings differ, so a wrong fallback shows.
  ASSERT_NE(f16_heuristic, i8_heuristic);

  // `removed` names the entry left out of the file; entries.size() keeps
  // all three.
  for (std::size_t removed = 0; removed <= entries.size(); ++removed) {
    SCOPED_TRACE("removed entry " + std::to_string(removed));
    const std::string path = temp_path("datapath_tags.json");
    {
      std::ofstream out(path);
      out << "{\"format\": \"venom-tune-cache\", \"version\": 1, "
             "\"entries\": [";
      const char* sep = "";
      for (std::size_t i = 0; i < entries.size(); ++i) {
        if (i == removed) continue;
        const SpmmConfig& cfg = entries[i].second;
        out << sep << "{\"r\": " << r << ", \"k\": " << k
            << ", \"c\": " << c << ", \"v\": " << fmt.v
            << ", \"n\": " << fmt.n << ", \"m\": " << fmt.m
            << ", \"features\": \"" << cpu_feature_string()
            << entries[i].first << "\", \"config\": {\"block_k\": "
            << cfg.block_k << ", \"block_c\": " << cfg.block_c
            << ", \"warp_r\": " << cfg.warp_r << ", \"warp_k\": "
            << cfg.warp_k << ", \"warp_c\": " << cfg.warp_c
            << ", \"batch_size\": " << cfg.batch_size
            << ", \"chunk_grain\": " << cfg.chunk_grain
            << "}, \"gflops\": 1, \"heuristic_gflops\": 1, "
               "\"threads\": 0}";
        sep = ", ";
      }
      out << "]}\n";
    }
    ops::ExecContext ctx(ops::ExecContextOptions{.tuning_cache_path = path});
    ASSERT_EQ(ctx.tuning_cache().size(),
              removed < entries.size() ? entries.size() - 1
                                       : entries.size());
    ASSERT_TRUE(TuningCache::global().try_load(path));

    for (const auto& [dtype, index] : owner) {
      SCOPED_TRACE(ops::to_string(dtype));
      const SpmmConfig want =
          index != removed ? entries[index].second
          : dtype == ops::Dtype::kI8 ? i8_heuristic
                                     : f16_heuristic;
      EXPECT_EQ(spatha::select_config(fmt, r, k, c, dtype), want);
      EXPECT_EQ(ctx.select_config(fmt, r, k, c, dtype), want);
    }

    for (const auto& [suffix, cfg] : entries) {
      TuningKey key;
      key.rows = r;
      key.cols = k;
      key.b_cols = c;
      key.v = fmt.v;
      key.n = fmt.n;
      key.m = fmt.m;
      key.features = cpu_feature_string() + suffix;
      TuningCache::global().erase(key);
    }
  }
}

}  // namespace
}  // namespace venom
