// Tests for the persisted engine plan (serving/plan.hpp): JSON
// round-trip fidelity, the apply() contracts on Options and Encoder
// (including the graceful foreign-fingerprint ignore), the throwing
// load paths, and the end-to-end Options::plan_path fold performed by
// the InferenceEngine constructors.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <utility>

#include "common/cpu_features.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "io/serialize.hpp"
#include "serving/engine.hpp"
#include "serving/plan.hpp"
#include "transformer/config.hpp"
#include "transformer/encoder.hpp"

namespace venom::serving {
namespace {

transformer::ModelConfig tiny_config() {
  return transformer::ModelConfig{.name = "tiny", .layers = 2, .hidden = 32,
                                  .heads = 4, .ffn_hidden = 64, .seq_len = 16};
}

/// A pruned tiny encoder (reduced weight dtypes require sparse weights).
transformer::Encoder tiny_encoder(std::uint64_t seed = 7) {
  Rng rng(seed);
  transformer::Encoder enc(tiny_config(), rng);
  enc.sparsify({8, 2, 4});
  return enc;
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

/// A fully-populated plan fingerprinted for THIS build, so apply()
/// fires. Tests that need a foreign plan overwrite `features`.
EnginePlan sample_plan() {
  EnginePlan plan;
  plan.model = "tiny";
  plan.features = cpu_feature_string();
  plan.max_batch_tokens = 96;
  plan.workers = 2;
  plan.measured_rps = 1234.5;
  plan.layers = {{"vnm-int8", ops::Dtype::kI8},
                 {"vnm-fast", ops::Dtype::kF16}};
  return plan;
}

TEST(EnginePlan, SaveLoadRoundTripPreservesEveryField) {
  EnginePlan plan = sample_plan();
  plan.layers.push_back({"vnm-fp8", ops::Dtype::kF8E5M2});
  // Every ASCII byte but NUL, control characters included, survives the
  // writer's escaping and the reader's unescaping.
  plan.model.clear();
  for (int c = 0x01; c <= 0x7f; ++c) plan.model += static_cast<char>(c);
  const std::string path = temp_path("engine_plan_roundtrip.json");
  save_engine_plan(plan, path);

  const EnginePlan loaded = load_engine_plan(path);
  EXPECT_EQ(loaded.model, plan.model);
  EXPECT_EQ(loaded.features, plan.features);
  EXPECT_EQ(loaded.max_batch_tokens, plan.max_batch_tokens);
  EXPECT_EQ(loaded.workers, plan.workers);
  EXPECT_DOUBLE_EQ(loaded.measured_rps, plan.measured_rps);
  ASSERT_EQ(loaded.layers.size(), plan.layers.size());
  for (std::size_t i = 0; i < plan.layers.size(); ++i) {
    EXPECT_EQ(loaded.layers[i].backend, plan.layers[i].backend) << i;
    EXPECT_EQ(loaded.layers[i].dtype, plan.layers[i].dtype) << i;
  }
}

TEST(EnginePlan, ApplyFoldsMeasuredKnobsIntoOptions) {
  const EnginePlan plan = sample_plan();
  Options opts;
  ASSERT_TRUE(plan.apply(opts));
  EXPECT_EQ(opts.batching.max_batch_tokens, 96u);
  EXPECT_EQ(opts.workers, 2u);

  // Untuned knobs (0) leave the caller's options alone.
  EnginePlan partial = sample_plan();
  partial.max_batch_tokens = 0;
  partial.workers = 0;
  Options defaults;
  const std::size_t budget = defaults.batching.max_batch_tokens;
  ASSERT_TRUE(partial.apply(defaults));
  EXPECT_EQ(defaults.batching.max_batch_tokens, budget);
  EXPECT_EQ(defaults.workers, 1u);
}

TEST(EnginePlan, ForeignFingerprintIsIgnoredGracefully) {
  EnginePlan plan = sample_plan();
  plan.features = "some-other-machine";
  EXPECT_FALSE(plan.compatible());

  Options opts;
  const std::size_t budget = opts.batching.max_batch_tokens;
  EXPECT_FALSE(plan.apply(opts));
  EXPECT_EQ(opts.batching.max_batch_tokens, budget);
  EXPECT_EQ(opts.workers, 1u);

  transformer::Encoder enc = tiny_encoder();
  EXPECT_FALSE(plan.apply(enc));
  EXPECT_EQ(enc.layer(0).ffn_in().weight_dtype(), ops::Dtype::kF16);
}

TEST(EnginePlan, ApplyEncoderSetsPerLayerDtypes) {
  EnginePlan plan = sample_plan();
  // More plan layers than encoder layers: the extras are ignored.
  plan.layers.push_back({"vnm-fp8", ops::Dtype::kF8E5M2});
  transformer::Encoder enc = tiny_encoder();
  ASSERT_EQ(enc.layer_count(), 2u);
  ASSERT_TRUE(plan.apply(enc));
  EXPECT_EQ(enc.layer(0).ffn_in().weight_dtype(), ops::Dtype::kI8);
  EXPECT_EQ(enc.layer(1).ffn_in().weight_dtype(), ops::Dtype::kF16);
}

TEST(EnginePlan, LoadThrowsOnMissingOrCorruptFiles) {
  EXPECT_THROW(load_engine_plan(temp_path("no_such_plan.json")), Error);

  // A valid JSON document that is not an engine plan.
  const std::string foreign = temp_path("engine_plan_foreign.json");
  {
    std::string text = "{\"format\": \"venom-tune-cache\", \"version\": 1}";
    FILE* f = std::fopen(foreign.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }
  EXPECT_THROW(load_engine_plan(foreign), Error);

  // Version from the future.
  EnginePlan plan = sample_plan();
  const std::string versioned = temp_path("engine_plan_version.json");
  save_engine_plan(plan, versioned);
  {
    std::ifstream in(versioned);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const std::size_t at = text.find("\"version\": 1");
    ASSERT_NE(at, std::string::npos);
    text.replace(at, 12, "\"version\": 9");
    std::ofstream out(versioned, std::ios::trunc);
    out << text;
  }
  EXPECT_THROW(load_engine_plan(versioned), Error);

  // Unknown layer dtype name.
  const std::string bad_dtype = temp_path("engine_plan_bad_dtype.json");
  save_engine_plan(plan, bad_dtype);
  {
    std::ifstream in(bad_dtype);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const std::size_t at = text.find("\"int8\"");
    ASSERT_NE(at, std::string::npos);
    text.replace(at, 6, "\"int3\"");
    std::ofstream out(bad_dtype, std::ios::trunc);
    out << text;
  }
  EXPECT_THROW(load_engine_plan(bad_dtype), Error);

  // A \u escape past ASCII (the writer never emits one), and a document
  // nested past the reader's depth bound: both throw, neither crashes.
  const std::string corrupt = temp_path("engine_plan_corrupt.json");
  for (const std::string& text :
       {std::string("{\"format\": \"venom-engine-plan\", \"model\": "
                    "\"caf\\u00e9\"}"),
        std::string(1000000, '[')}) {
    std::ofstream(corrupt, std::ios::trunc) << text;
    EXPECT_THROW(load_engine_plan(corrupt), Error) << text.substr(0, 64);
  }
}

TEST(EnginePlan, SaversRefuseNonFiniteNumbers) {
  // JSON has no inf or nan: both writers throw rather than save a file
  // their reader would refuse.
  const std::string path = temp_path("non_finite.json");
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    EnginePlan plan = sample_plan();
    plan.measured_rps = bad;
    EXPECT_THROW(save_engine_plan(plan, path), Error) << bad;

    spatha::TuningEntry entry;
    entry.gflops = bad;
    spatha::TuningCache cache;
    cache.put(spatha::make_tuning_key({8, 2, 4}, 32, 64, 16), entry);
    EXPECT_THROW(io::save_tuning_cache(cache, path), Error) << bad;
  }
}

TEST(EnginePlan, OptionsWithPlanFoldsOnlyWhenPathIsSet) {
  const std::string path = temp_path("engine_plan_fold.json");
  save_engine_plan(sample_plan(), path);

  Options bare;
  const std::size_t budget = bare.batching.max_batch_tokens;
  Options untouched = options_with_plan(bare);
  EXPECT_EQ(untouched.batching.max_batch_tokens, budget);

  Options with;
  with.plan_path = path;
  Options folded = options_with_plan(with);
  EXPECT_EQ(folded.batching.max_batch_tokens, 96u);
  EXPECT_EQ(folded.workers, 2u);

  Options missing;
  missing.plan_path = temp_path("no_such_plan_either.json");
  EXPECT_THROW(options_with_plan(missing), Error);
}

TEST(EnginePlan, EngineConstructorHonorsPlanPath) {
  const std::string path = temp_path("engine_plan_ctor.json");
  save_engine_plan(sample_plan(), path);

  Options opts;
  opts.plan_path = path;
  InferenceEngine engine(tiny_encoder(), opts);
  // The measured knobs landed in the engine's options...
  EXPECT_EQ(engine.options().batching.max_batch_tokens, 96u);
  EXPECT_EQ(engine.options().workers, 2u);
  // ...and the per-layer dtypes landed on the (then-mutable) encoder.
  EXPECT_EQ(engine.encoder().layer(0).ffn_in().weight_dtype(),
            ops::Dtype::kI8);
  EXPECT_EQ(engine.encoder().layer(1).ffn_in().weight_dtype(),
            ops::Dtype::kF16);

  // The planned engine still serves.
  Rng rng(11);
  Request req;
  req.input = random_half_matrix(32, 4, rng);
  Response resp = engine.submit(std::move(req)).get();
  EXPECT_EQ(resp.output.rows(), 32u);
  EXPECT_EQ(resp.output.cols(), 4u);
  engine.shutdown();
}

}  // namespace
}  // namespace venom::serving
