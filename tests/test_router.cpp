// Tests for the horizontally scaled serving layer: the EngineGroup
// router (shared const weights, least-queued-tokens routing), the
// AdmissionController (per-tenant token buckets, global in-flight
// bounds), and serving::Options validation.
//
// The load-bearing guarantee is bit-identity under scale: a request
// routed across 4 replicas produces exactly the bits of the same request
// on a 1-replica group, which produces exactly the bits of a direct
// Encoder::forward — replication must change capacity, never results.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "serving/admission.hpp"
#include "serving/bench_harness.hpp"
#include "serving/options.hpp"
#include "serving/router.hpp"
#include "transformer/config.hpp"
#include "transformer/encoder.hpp"

namespace venom::serving {
namespace {

using namespace std::chrono_literals;

transformer::ModelConfig tiny_config() {
  return transformer::ModelConfig{.name = "tiny", .layers = 2, .hidden = 32,
                                  .heads = 4, .ffn_hidden = 64, .seq_len = 16};
}

transformer::Encoder tiny_encoder(std::uint64_t seed = 7) {
  Rng rng(seed);
  transformer::Encoder enc(tiny_config(), rng);
  enc.sparsify({8, 2, 4});
  return enc;
}

std::future<Response> submit_input(EngineGroup& group, HalfMatrix x,
                                   const std::string& tenant = "default") {
  Request req;
  req.input = std::move(x);
  req.tenant = tenant;
  return group.submit(std::move(req));
}

// ---- AdmissionController --------------------------------------------------

TEST(AdmissionController, UnlimitedTenantRidesGlobalBoundOnly) {
  AdmissionPolicy policy;
  policy.max_queued_tokens = 10;
  policy.max_queued_requests = 0;  // unbounded request count
  AdmissionController ctrl(policy);
  ctrl.admit("a", 6);
  ctrl.admit("b", 4);  // 10/10 tokens in flight
  try {
    ctrl.admit("c", 1);
    FAIL() << "global token bound should reject";
  } catch (const AdmissionError& e) {
    EXPECT_EQ(e.reason(), AdmissionReason::kQueueFull);
  }
  ctrl.release(4);
  EXPECT_NO_THROW(ctrl.admit("c", 1));  // released capacity readmits
  const AdmissionStats s = ctrl.stats();
  EXPECT_EQ(s.admitted, 3u);
  EXPECT_EQ(s.rejected_queue, 1u);
  EXPECT_EQ(s.inflight_tokens, 7u);
  EXPECT_EQ(s.inflight_requests, 2u);
}

TEST(AdmissionController, TokenBucketRateLimitsOneTenantNotOthers) {
  AdmissionPolicy policy;
  policy.tenants["limited"] = {.tokens_per_s = 1.0, .burst_tokens = 8.0};
  AdmissionController ctrl(policy);
  // A fresh bucket starts with its full burst: the first 8 tokens pass.
  EXPECT_NO_THROW(ctrl.admit("limited", 8));
  // The bucket is empty and refills at 1 token/s — an immediate second
  // request is over budget...
  try {
    ctrl.admit("limited", 8);
    FAIL() << "empty bucket should rate-limit";
  } catch (const AdmissionError& e) {
    EXPECT_EQ(e.reason(), AdmissionReason::kRateLimited);
  }
  // ...while an unlimited tenant (and the default policy) is untouched.
  EXPECT_NO_THROW(ctrl.admit("free", 64));
  const AdmissionStats s = ctrl.stats();
  EXPECT_EQ(s.admitted, 2u);
  EXPECT_EQ(s.rejected_rate, 1u);
}

TEST(AdmissionController, BucketRefillsOverTime) {
  AdmissionPolicy policy;
  // 1000 tokens/s so the refill is visible within test time.
  policy.tenants["t"] = {.tokens_per_s = 1000.0, .burst_tokens = 4.0};
  AdmissionController ctrl(policy);
  EXPECT_NO_THROW(ctrl.admit("t", 4));  // drains the burst
  EXPECT_THROW(ctrl.admit("t", 4), AdmissionError);
  std::this_thread::sleep_for(20ms);  // refills ~20 tokens, capped at 4
  EXPECT_NO_THROW(ctrl.admit("t", 4));
}

// ---- Options validation ---------------------------------------------------

TEST(Options, ValidateRejectsDegenerateConfigs) {
  const auto broken = [](auto mutate) {
    Options opts;
    mutate(opts);
    return opts;
  };
  EXPECT_THROW(broken([](Options& o) { o.batching.max_batch_tokens = 0; })
                   .validate(),
               Error);
  EXPECT_THROW(broken([](Options& o) { o.batching.max_batch_requests = 0; })
                   .validate(),
               Error);
  EXPECT_THROW(broken([](Options& o) { o.workers = 0; }).validate(), Error);
  EXPECT_THROW(broken([](Options& o) { o.latency_window = 0; }).validate(),
               Error);
  EXPECT_THROW(broken([](Options& o) { o.replicas = 0; }).validate(), Error);
  // A positive rate with zero burst admits nothing, ever.
  EXPECT_THROW(broken([](Options& o) {
                 o.admission.tenants["t"] = {.tokens_per_s = 5.0,
                                             .burst_tokens = 0.0};
               }).validate(),
               Error);
  EXPECT_NO_THROW(Options{}.validate());
}

TEST(Options, ConstructorsRejectInvalidOptions) {
  Options zero_replicas;
  zero_replicas.replicas = 0;
  EXPECT_THROW(EngineGroup(tiny_encoder(), zero_replicas), Error);
  Options zero_budget;
  zero_budget.batching.max_batch_tokens = 0;
  EXPECT_THROW(InferenceEngine(tiny_encoder(), zero_budget), Error);
}

TEST(Options, BenchHarnessesRejectEmptyTraces) {
  // An empty trace has no capacity to calibrate against and no plan to
  // write: both harnesses must refuse it up front, naming the field.
  LoadSetup load;
  load.model = tiny_config();
  load.requests = 0;
  EXPECT_THROW(run_serving_load(load), Error);
  load.requests = 4;
  load.tokens = load.max_tokens + 1;
  EXPECT_THROW(run_serving_load(load), Error);
  EngineSweepSetup sweep;
  sweep.model = tiny_config();
  sweep.requests = 0;
  try {
    run_engine_sweep(sweep);
    FAIL() << "an empty sweep trace should be rejected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("requests"), std::string::npos);
  }
  sweep.requests = 4;
  sweep.tokens = 0;
  EXPECT_THROW(run_engine_sweep(sweep), Error);
}

// ---- EngineGroup ----------------------------------------------------------

TEST(EngineGroup, RoutedOutputsBitIdenticalAcrossReplicaCounts) {
  // The scaled-serving acceptance bar: direct forward, a 1-replica
  // group, and a 4-replica group must agree bit for bit on every
  // request, whatever replica or batch served it.
  std::vector<HalfMatrix> inputs;
  std::vector<HalfMatrix> refs;
  {
    transformer::Encoder ref_enc = tiny_encoder();
    for (std::uint64_t i = 0; i < 24; ++i) {
      Rng rng(200 + i);
      inputs.push_back(random_half_matrix(32, 4 + 4 * (i % 3), rng));
      refs.push_back(ref_enc.forward(inputs.back()));
    }
  }

  const auto run_group = [&](std::size_t replicas) {
    Options opts;
    opts.batching.max_batch_tokens = 16;
    opts.batching.max_batch_requests = 8;
    opts.batching.max_wait = 2ms;
    opts.replicas = replicas;
    EngineGroup group(tiny_encoder(), opts);
    std::vector<std::future<Response>> futs;
    futs.reserve(inputs.size());
    for (const HalfMatrix& x : inputs) futs.push_back(submit_input(group, x));
    std::vector<Response> outs;
    outs.reserve(futs.size());
    for (auto& f : futs) outs.push_back(f.get());
    return outs;
  };

  const std::vector<Response> one = run_group(1);
  const std::vector<Response> four = run_group(4);
  ASSERT_EQ(one.size(), refs.size());
  ASSERT_EQ(four.size(), refs.size());
  for (std::size_t i = 0; i < refs.size(); ++i) {
    ASSERT_EQ(one[i].output.size(), refs[i].size()) << i;
    ASSERT_EQ(four[i].output.size(), refs[i].size()) << i;
    for (std::size_t e = 0; e < refs[i].size(); ++e) {
      ASSERT_EQ(one[i].output.flat()[e].bits(), refs[i].flat()[e].bits())
          << "replicas=1 request " << i << " element " << e;
      ASSERT_EQ(four[i].output.flat()[e].bits(), refs[i].flat()[e].bits())
          << "replicas=4 request " << i << " element " << e;
    }
  }
}

TEST(EngineGroup, SharesOneEncoderAcrossReplicas) {
  auto encoder =
      std::make_shared<const transformer::Encoder>(tiny_encoder());
  Options opts;
  opts.replicas = 3;
  EngineGroup group(encoder, opts);
  EXPECT_EQ(group.replica_count(), 3u);
  // No weight replication: every replica serves from the same object.
  for (std::size_t i = 0; i < group.replica_count(); ++i) {
    EXPECT_EQ(&group.replica(i).encoder(), encoder.get());
    EXPECT_EQ(group.replica(i).replica_id(), i);
  }
}

TEST(EngineGroup, SpreadsLoadAcrossReplicas) {
  Options opts;
  opts.batching.max_batch_tokens = 4;  // one request per batch
  opts.batching.max_batch_requests = 1;
  opts.batching.max_wait = 1ms;
  opts.replicas = 4;
  EngineGroup group(tiny_encoder(11), opts);
  std::vector<std::future<Response>> futs;
  for (std::uint64_t i = 0; i < 32; ++i) {
    Rng rng(300 + i);
    futs.push_back(submit_input(group, random_half_matrix(32, 4, rng)));
  }
  for (auto& f : futs) f.get();
  // Least-queued-tokens routing: a burst of identical requests cannot
  // pile onto one replica while others idle. Exact splits depend on
  // completion timing; the invariant is that more than one replica
  // worked.
  const GroupStats stats = group.stats();
  EXPECT_EQ(stats.requests, futs.size());
  std::size_t active = 0;
  for (const ServingStats& s : stats.replicas) active += s.requests > 0;
  EXPECT_GT(active, 1u);
}

TEST(EngineGroup, QueueFullShedsAndReleaseReadmits) {
  Options opts;
  opts.batching.max_batch_tokens = 8;
  opts.batching.max_wait = 1ms;
  opts.replicas = 2;
  opts.admission.max_queued_tokens = 8;  // two 4-token requests in flight
  EngineGroup group(tiny_encoder(13), opts);

  // Hold the group's admission budget with requests (deliberately using
  // the whole bound), then overflow it.
  std::vector<std::future<Response>> held;
  std::size_t shed = 0;
  for (std::uint64_t i = 0; i < 8; ++i) {
    Rng rng(400 + i);
    try {
      held.push_back(submit_input(group, random_half_matrix(32, 4, rng)));
    } catch (const AdmissionError& e) {
      EXPECT_EQ(e.reason(), AdmissionReason::kQueueFull);
      ++shed;
    }
  }
  for (auto& f : held) EXPECT_NO_THROW(f.get());
  // Completions release admission capacity: the group serves again.
  Rng rng(999);
  EXPECT_NO_THROW(submit_input(group, random_half_matrix(32, 4, rng)).get());
  const GroupStats stats = group.stats();
  EXPECT_EQ(stats.admission.rejected_queue, shed);
  EXPECT_EQ(stats.admission.inflight_tokens, 0u);
  EXPECT_EQ(stats.admission.inflight_requests, 0u);
}

TEST(EngineGroup, RateLimitedTenantShedsOthersUnaffected) {
  Options opts;
  opts.replicas = 2;
  opts.admission.tenants["metered"] = {.tokens_per_s = 1.0,
                                       .burst_tokens = 8.0};
  EngineGroup group(tiny_encoder(17), opts);
  Rng rng(500);

  // The metered tenant's burst covers one 8-token request; the second is
  // rejected with the typed reason while the free tenant keeps serving.
  EXPECT_NO_THROW(
      submit_input(group, random_half_matrix(32, 8, rng), "metered").get());
  try {
    submit_input(group, random_half_matrix(32, 8, rng), "metered");
    FAIL() << "over-budget tenant should be rate-limited";
  } catch (const AdmissionError& e) {
    EXPECT_EQ(e.reason(), AdmissionReason::kRateLimited);
  }
  EXPECT_NO_THROW(
      submit_input(group, random_half_matrix(32, 8, rng), "free").get());
  const GroupStats stats = group.stats();
  EXPECT_EQ(stats.admission.rejected_rate, 1u);
  EXPECT_EQ(stats.admission.admitted, 2u);
}

TEST(EngineGroup, ShutdownRefusesNewWorkAndDrains) {
  Options opts;
  opts.replicas = 2;
  EngineGroup group(tiny_encoder(19), opts);
  std::vector<std::future<Response>> futs;
  for (std::uint64_t i = 0; i < 6; ++i) {
    Rng rng(600 + i);
    futs.push_back(submit_input(group, random_half_matrix(32, 4, rng)));
  }
  group.shutdown();
  for (auto& f : futs) EXPECT_NO_THROW(f.get());  // drained, not dropped
  Rng rng(998);
  try {
    submit_input(group, random_half_matrix(32, 4, rng));
    FAIL() << "submit after shutdown should throw";
  } catch (const AdmissionError& e) {
    EXPECT_EQ(e.reason(), AdmissionReason::kShutdown);
  }
}

TEST(EngineGroup, AdmissionReleasedOnDeadlineShed) {
  // A shed request must release its admission slot exactly like a served
  // one — otherwise sheds leak the global budget until nothing admits.
  Options opts;
  opts.replicas = 1;
  opts.admission.max_queued_tokens = 8;
  EngineGroup group(tiny_encoder(23), opts);
  Rng rng(700);
  Request req;
  req.input = random_half_matrix(32, 8, rng);
  req.deadline = Clock::now() - 1ms;  // lapsed: shed, never executed
  auto fut = group.submit(std::move(req));
  EXPECT_THROW(fut.get(), AdmissionError);
  // The whole budget must be available again.
  Rng rng2(701);
  EXPECT_NO_THROW(
      submit_input(group, random_half_matrix(32, 8, rng2)).get());
  EXPECT_EQ(group.stats().admission.inflight_tokens, 0u);
}

}  // namespace
}  // namespace venom::serving
