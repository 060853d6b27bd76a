// Differential and edge tests for the executing disaggregated cluster.
//
// The load-bearing claims, each enforced here:
//   * On the lockstep domain (uniform shapes, simultaneous arrivals, an idle
//     prefill pool, one decode instance) the executing cluster reproduces
//     the analytic PlanDisaggregation report to <= 1e-9 relative: TTFT
//     (prefill + KV transfer), steady-state tpot at the planner's
//     mid-context, and decode throughput at the feasible batch.
//   * Execution is real: every request's token stream equals full-recompute
//     Generate bitwise, across the prefill -> migrate -> decode pipeline.
//   * Reports are byte-stable across reruns and thread counts.
//   * Degenerate topologies (no prefill pool, no decode pool) and unservable
//     requests (including out-of-vocab prompts) reject gracefully — no UB,
//     no CHECK crash.
#include "src/llm/disagg_cluster.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "src/gpusim/device_spec.h"
#include "src/llm/disaggregation.h"
#include "src/llm/tiny_transformer.h"
#include "src/pruning/magnitude.h"
#include "src/util/random.h"
#include "src/util/thread_pool.h"

namespace spinfer {
namespace {

constexpr int64_t kInputLen = 16;
constexpr int64_t kOutputLen = 8;
constexpr int64_t kBatch = 8;

TinyTransformer MakePrunedModel(uint64_t seed = 7) {
  TinyTransformer model(TinyConfig{}, seed);
  model.PruneWeights(MagnitudePruner(), 0.6);
  return model;
}

// The analytic plan whose numbers the executing cluster must reproduce.
DisaggConfig PlanConfig() {
  DisaggConfig cfg;
  cfg.model = Opt13B();
  cfg.framework = Framework::kSpInfer;
  cfg.sparsity = 0.6;
  cfg.prefill_device = Rtx4090();
  cfg.prefill_gpus = 1;
  cfg.decode_device = Rtx4090();
  cfg.decode_gpus = 1;
  cfg.request_rate_rps = 1.0;
  cfg.input_len = kInputLen;
  cfg.output_len = kOutputLen;
  cfg.max_decode_batch = kBatch;
  cfg.transfer_bw_gbs = 25.0;
  return cfg;
}

DisaggClusterConfig ClusterConfig() {
  const DisaggConfig plan = PlanConfig();
  DisaggClusterConfig cfg;
  // One idle prefill instance per request: all arrivals at t=0 prefill in
  // parallel, finish together, and get batch-admitted to decode in lockstep.
  cfg.prefill_instances = kBatch;
  cfg.decode_instances = 1;
  cfg.max_decode_batch = kBatch;
  cfg.kv_block_tokens = 8;
  cfg.kv_num_blocks = 64;
  cfg.prefill_cost.model = plan.model;
  cfg.prefill_cost.framework = plan.framework;
  cfg.prefill_cost.device = plan.prefill_device;
  cfg.prefill_cost.num_gpus = plan.prefill_gpus;
  cfg.prefill_cost.sparsity = plan.sparsity;
  cfg.decode_cost = cfg.prefill_cost;
  cfg.decode_cost.device = plan.decode_device;
  cfg.decode_cost.num_gpus = plan.decode_gpus;
  cfg.transfer_bw_gbs = plan.transfer_bw_gbs;
  return cfg;
}

std::vector<int32_t> RandomPrompt(Rng& rng, int64_t len, int64_t vocab) {
  std::vector<int32_t> p(static_cast<size_t>(len));
  for (int32_t& t : p) {
    t = static_cast<int32_t>(rng.Below(static_cast<uint64_t>(vocab)));
  }
  return p;
}

std::vector<std::vector<int32_t>> LockstepPrompts(const TinyTransformer& model) {
  Rng rng(23);
  std::vector<std::vector<int32_t>> prompts;
  for (int64_t i = 0; i < kBatch; ++i) {
    prompts.push_back(RandomPrompt(rng, kInputLen, model.config().vocab));
  }
  return prompts;
}

// The tentpole cross-check: executing TTFT, steady-state tpot, and decode
// throughput reproduce PlanDisaggregation to <= 1e-9 relative on the
// lockstep domain.
TEST(DisaggClusterTest, MatchesAnalyticPlannerOnLockstepDomain) {
  const TinyTransformer model = MakePrunedModel();
  const DisaggReport plan = PlanDisaggregation(PlanConfig());
  ASSERT_TRUE(plan.prefill_fits);
  ASSERT_TRUE(plan.decode_fits);
  // The comparison needs the executing batch to BE the planner's feasible
  // batch; the tiny pools and the scheduler cap both sit at kBatch.
  ASSERT_EQ(plan.decode_batch, kBatch);

  ThreadPool::SetGlobalThreads(1);
  DisaggCluster cluster(&model, ClusterConfig());
  for (const auto& p : LockstepPrompts(model)) {
    cluster.Submit(p, kOutputLen, /*arrival_s=*/0.0);
  }
  const DisaggClusterReport report = cluster.Run();
  ThreadPool::SetGlobalThreads(0);

  EXPECT_EQ(report.arrived, kBatch);
  EXPECT_EQ(report.completed, kBatch);
  EXPECT_EQ(report.rejected, 0);
  EXPECT_EQ(report.prefills, kBatch);
  EXPECT_EQ(report.migrations, kBatch);
  EXPECT_EQ(report.peak_decode_batch, kBatch);

  const double kRel = 1e-9;
  // TTFT: with an idle prefill instance per request, queueing is zero and
  // the executing TTFT is exactly prefill_ms + kv_transfer_ms.
  for (const RequestRecord& r : cluster.results()) {
    EXPECT_NEAR(r.ttft_ms, plan.ttft_ms, kRel * plan.ttft_ms) << "id=" << r.id;
  }
  EXPECT_NEAR(report.ttft.mean_ms, plan.ttft_ms, kRel * plan.ttft_ms);

  // Steady state: the decode iteration whose mean context equals the
  // planner's mid-context (input + output/2) must price exactly the
  // planner's tpot, and its throughput is the planner's tokens/s.
  const int64_t mid_context = kInputLen + kOutputLen / 2;
  bool found = false;
  for (const DisaggIterationSample& s : cluster.decode_samples(0)) {
    EXPECT_EQ(s.batch, kBatch);  // lockstep: full batch every iteration
    if (s.mean_context == mid_context) {
      found = true;
      EXPECT_NEAR(s.cost_us / 1e3, plan.tpot_ms, kRel * plan.tpot_ms);
      const double tokens_per_s =
          static_cast<double>(s.batch) * 1e6 / s.cost_us;
      EXPECT_NEAR(tokens_per_s, plan.decode_tokens_per_s,
                  kRel * plan.decode_tokens_per_s);
    }
  }
  EXPECT_TRUE(found) << "no decode iteration hit the planner's mid-context "
                     << mid_context;
}

// Execution through the prefill -> migrate -> decode pipeline is real: every
// request's stream equals full-recompute Generate bitwise (the KV handoff
// moved the exact cached bits).
TEST(DisaggClusterTest, TokenStreamsMatchGenerateAcrossMigration) {
  const TinyTransformer model = MakePrunedModel();
  const auto prompts = LockstepPrompts(model);

  ThreadPool::SetGlobalThreads(1);
  DisaggCluster cluster(&model, ClusterConfig());
  for (const auto& p : prompts) {
    cluster.Submit(p, kOutputLen, 0.0);
  }
  cluster.Run();
  ThreadPool::SetGlobalThreads(0);

  for (size_t i = 0; i < prompts.size(); ++i) {
    const std::vector<int32_t> full = model.Generate(
        prompts[i], static_cast<int>(kOutputLen), MatmulBackend::kTcaBmeCpu);
    const std::vector<int32_t> tail(full.begin() + prompts[i].size(),
                                    full.end());
    EXPECT_EQ(cluster.results()[i].generated, tail) << "id=" << i;
  }
}

// Byte-identical reports and trajectories for a fixed workload, across
// reruns and thread counts.
TEST(DisaggClusterTest, ReportByteStableAcrossRerunsAndThreads) {
  const TinyTransformer model = MakePrunedModel();
  const auto prompts = LockstepPrompts(model);
  auto run = [&]() {
    DisaggCluster cluster(&model, ClusterConfig());
    for (size_t i = 0; i < prompts.size(); ++i) {
      // Staggered arrivals exercise the queueing paths too.
      cluster.Submit(prompts[i], kOutputLen, 0.001 * static_cast<double>(i));
    }
    const DisaggClusterReport report = cluster.Run();
    return std::make_pair(report.ToString(), cluster.results());
  };

  ThreadPool::SetGlobalThreads(1);
  const auto baseline = run();

  for (int threads : {1, 2, 8}) {
    ThreadPool::SetGlobalThreads(threads);
    const auto other = run();
    EXPECT_EQ(other.first, baseline.first) << "threads=" << threads;
    ASSERT_EQ(other.second.size(), baseline.second.size());
    for (size_t i = 0; i < baseline.second.size(); ++i) {
      EXPECT_EQ(other.second[i].generated, baseline.second[i].generated)
          << "threads=" << threads << " id=" << i;
      EXPECT_DOUBLE_EQ(other.second[i].ttft_ms, baseline.second[i].ttft_ms);
      EXPECT_DOUBLE_EQ(other.second[i].latency_ms,
                       baseline.second[i].latency_ms);
    }
  }
  ThreadPool::SetGlobalThreads(0);
}

// A topology with an empty pool on either side rejects every request
// gracefully instead of crashing or hanging.
TEST(DisaggClusterTest, EmptyPoolsRejectGracefully) {
  const TinyTransformer model = MakePrunedModel();
  Rng rng(5);
  for (const bool empty_prefill : {true, false}) {
    DisaggClusterConfig cfg = ClusterConfig();
    (empty_prefill ? cfg.prefill_instances : cfg.decode_instances) = 0;
    DisaggCluster cluster(&model, cfg);
    cluster.Submit(RandomPrompt(rng, 8, model.config().vocab), 4);
    cluster.Submit(RandomPrompt(rng, 8, model.config().vocab), 4);
    const DisaggClusterReport report = cluster.Run();
    EXPECT_EQ(report.arrived, 2);
    EXPECT_EQ(report.rejected, 2);
    EXPECT_EQ(report.completed, 0);
    EXPECT_EQ(report.migrations, 0);
    for (const RequestRecord& r : cluster.results()) {
      EXPECT_EQ(r.reason, FinishReason::kRejected);
    }
  }
}

// Unservable requests — empty prompts, context-window overflows, prompts no
// pool could ever hold — reject while servable neighbors still complete.
TEST(DisaggClusterTest, UnservableRequestsRejectServableOnesComplete) {
  const TinyTransformer model = MakePrunedModel();
  Rng rng(9);
  DisaggClusterConfig cfg = ClusterConfig();
  DisaggCluster cluster(&model, cfg);

  const int64_t ok = cluster.Submit(RandomPrompt(rng, 8, 256), 4);
  const int64_t empty = cluster.Submit({}, 4);
  // 60 + 8 > max_seq 64: overflows the context window.
  const int64_t overflow = cluster.Submit(RandomPrompt(rng, 60, 256), 8);
  const int64_t zero_budget = cluster.Submit(RandomPrompt(rng, 8, 256), 0);

  const DisaggClusterReport report = cluster.Run();
  EXPECT_EQ(report.arrived, 4);
  EXPECT_EQ(report.completed, 1);
  EXPECT_EQ(report.rejected, 3);
  EXPECT_EQ(cluster.results()[static_cast<size_t>(ok)].reason,
            FinishReason::kMaxTokens);
  for (const int64_t id : {empty, overflow, zero_budget}) {
    EXPECT_EQ(cluster.results()[static_cast<size_t>(id)].reason,
              FinishReason::kRejected);
  }
}

// A max_new_tokens of 1 is satisfied by the prefill token alone: the request
// completes at transfer time without ever touching the decode pool.
TEST(DisaggClusterTest, SingleTokenBudgetSkipsDecode) {
  const TinyTransformer model = MakePrunedModel();
  Rng rng(17);
  DisaggCluster cluster(&model, ClusterConfig());
  cluster.Submit(RandomPrompt(rng, 8, 256), 1);
  const DisaggClusterReport report = cluster.Run();
  EXPECT_EQ(report.completed, 1);
  EXPECT_EQ(report.migrations, 0);
  EXPECT_EQ(report.decode_iterations, 0);
  const RequestRecord& r = cluster.results()[0];
  EXPECT_EQ(static_cast<int64_t>(r.generated.size()), 1);
  EXPECT_DOUBLE_EQ(r.ttft_ms, r.latency_ms);
}

// A prompt token outside [0, vocab) rejects that request at prefill routing;
// the others complete with exactly the streams they get without it.
TEST(DisaggClusterTest, OutOfVocabPromptRejectedOthersUnchanged) {
  const TinyTransformer model = MakePrunedModel();
  const auto prompts = LockstepPrompts(model);
  auto arrival = [](size_t i) { return 0.001 * static_cast<double>(i); };
  DisaggCluster clean(&model, ClusterConfig());
  for (size_t i = 0; i < prompts.size(); ++i) {
    clean.Submit(prompts[i], kOutputLen, arrival(i));
  }
  clean.Run();

  const int32_t vocab = static_cast<int32_t>(model.config().vocab);
  for (const int32_t bad_token : {-1, vocab}) {
    std::vector<int32_t> bad = prompts[0];
    bad[5] = bad_token;
    DisaggCluster cluster(&model, ClusterConfig());
    std::vector<int64_t> good_ids;
    int64_t bad_id = -1;
    for (size_t i = 0; i < prompts.size(); ++i) {
      if (i == 3) {
        bad_id = cluster.Submit(bad, kOutputLen, 0.0025);
      }
      good_ids.push_back(cluster.Submit(prompts[i], kOutputLen, arrival(i)));
    }
    const DisaggClusterReport report = cluster.Run();
    EXPECT_EQ(report.rejected, 1) << "bad token " << bad_token;
    EXPECT_EQ(report.completed, kBatch) << "bad token " << bad_token;
    EXPECT_EQ(cluster.results()[static_cast<size_t>(bad_id)].reason,
              FinishReason::kRejected);
    for (size_t i = 0; i < prompts.size(); ++i) {
      const RequestRecord& r =
          cluster.results()[static_cast<size_t>(good_ids[i])];
      EXPECT_EQ(r.reason, FinishReason::kMaxTokens) << "prompt " << i;
      EXPECT_EQ(r.generated, clean.results()[i].generated) << "prompt " << i;
    }
  }
}

// A non-finite or negative arrival time rejects that request before the
// arrival sort (a NaN would break its ordering and, before, hang the decode
// loop); the others keep exactly their streams and timings.
TEST(DisaggClusterTest, BadArrivalTimeRejectedOthersUnchanged) {
  const TinyTransformer model = MakePrunedModel();
  const auto prompts = LockstepPrompts(model);
  auto arrival = [](size_t i) { return 0.001 * static_cast<double>(i); };
  DisaggCluster clean(&model, ClusterConfig());
  for (size_t i = 0; i < prompts.size(); ++i) {
    clean.Submit(prompts[i], kOutputLen, arrival(i));
  }
  const DisaggClusterReport clean_report = clean.Run();

  for (const double bad_arrival :
       {std::nan(""), std::numeric_limits<double>::infinity(), -5.0}) {
    DisaggCluster cluster(&model, ClusterConfig());
    std::vector<int64_t> good_ids;
    int64_t bad_id = -1;
    for (size_t i = 0; i < prompts.size(); ++i) {
      if (i == 2) {
        bad_id = cluster.Submit(prompts[1], kOutputLen, bad_arrival);
      }
      good_ids.push_back(cluster.Submit(prompts[i], kOutputLen, arrival(i)));
    }
    const DisaggClusterReport report = cluster.Run();
    EXPECT_EQ(report.rejected, 1) << "arrival " << bad_arrival;
    EXPECT_EQ(report.completed, kBatch) << "arrival " << bad_arrival;
    EXPECT_EQ(report.sim_time_s, clean_report.sim_time_s);
    EXPECT_EQ(report.ttft.p99_ms, clean_report.ttft.p99_ms);
    EXPECT_EQ(report.latency.mean_ms, clean_report.latency.mean_ms);
    EXPECT_EQ(cluster.results()[static_cast<size_t>(bad_id)].reason,
              FinishReason::kRejected);
    for (size_t i = 0; i < prompts.size(); ++i) {
      const RequestRecord& r =
          cluster.results()[static_cast<size_t>(good_ids[i])];
      const RequestRecord& want = clean.results()[i];
      EXPECT_EQ(r.generated, want.generated) << "prompt " << i;
      EXPECT_EQ(r.ttft_ms, want.ttft_ms) << "prompt " << i;
      EXPECT_EQ(r.latency_ms, want.latency_ms) << "prompt " << i;
    }
  }
}

// Several prefill and decode instances with staggered arrivals: each decode
// engine numbers its requests from 0, so its ids diverge from the cluster's,
// yet every stream equals Generate and every multi-token request migrates
// exactly once.
TEST(DisaggClusterTest, MultiInstanceDecodeMatchesGenerate) {
  const TinyTransformer model = MakePrunedModel();
  Rng rng(41);
  std::vector<std::vector<int32_t>> prompts;
  std::vector<int64_t> budgets;
  int64_t multi_token = 0;
  for (int i = 0; i < 12; ++i) {
    prompts.push_back(RandomPrompt(
        rng, 4 + static_cast<int64_t>(rng.Below(20)), model.config().vocab));
    // Every fourth request is done at prefill and never migrates.
    budgets.push_back(i % 4 == 0 ? 1 : 2 + static_cast<int64_t>(rng.Below(10)));
    multi_token += budgets.back() > 1 ? 1 : 0;
  }

  for (const int64_t decode_instances : {2, 3}) {
    DisaggClusterConfig cfg = ClusterConfig();
    cfg.prefill_instances = 2;
    cfg.decode_instances = decode_instances;
    cfg.max_decode_batch = 3;
    cfg.kv_num_blocks = 16;
    DisaggCluster cluster(&model, cfg);
    for (size_t i = 0; i < prompts.size(); ++i) {
      cluster.Submit(prompts[i], budgets[i], 0.0007 * static_cast<double>(i));
    }
    const DisaggClusterReport report = cluster.Run();
    EXPECT_EQ(report.completed, 12) << "decode_instances=" << decode_instances;
    EXPECT_EQ(report.migrations, multi_token);
    int64_t samples = 0;
    for (int64_t d = 0; d < decode_instances; ++d) {
      EXPECT_FALSE(cluster.decode_samples(d).empty()) << "instance " << d;
      samples += static_cast<int64_t>(cluster.decode_samples(d).size());
    }
    EXPECT_EQ(samples, report.decode_iterations);
    for (size_t i = 0; i < prompts.size(); ++i) {
      const std::vector<int32_t> full = model.Generate(
          prompts[i], static_cast<int>(budgets[i]), MatmulBackend::kTcaBmeCpu);
      const std::vector<int32_t> tail(full.begin() + prompts[i].size(),
                                      full.end());
      EXPECT_EQ(cluster.results()[i].generated, tail)
          << "decode_instances=" << decode_instances << " id=" << i;
    }
  }
}

// A config that cannot drive a cluster names its first bad field.
TEST(DisaggClusterTest, ValidateNamesTheBadField) {
  EXPECT_EQ(ClusterConfig().Validate(), "");
  EXPECT_EQ(DisaggClusterConfig{}.Validate(),
            "prefill_cost.model.hidden must be > 0");
  DisaggClusterConfig cfg = ClusterConfig();
  cfg.decode_cost.device = DeviceSpec{};
  EXPECT_EQ(cfg.Validate(), "decode_cost.device.dram_bw_gbs must be > 0");
  for (const double bw : {0.0, -1.0, std::nan(""),
                          std::numeric_limits<double>::infinity()}) {
    cfg = ClusterConfig();
    cfg.transfer_bw_gbs = bw;
    EXPECT_EQ(cfg.Validate(), "transfer_bw_gbs must be finite and > 0")
        << "bw " << bw;
  }
  cfg = ClusterConfig();
  cfg.max_decode_batch = 0;
  EXPECT_EQ(cfg.Validate(), "max_decode_batch must be > 0");
}

TEST(DisaggClusterDeathTest, DefaultConfigDiesNamingTheField) {
  // The model is built inside the statement: the forked child must not
  // inherit a running thread pool.
  EXPECT_DEATH(
      {
        const TinyTransformer model = MakePrunedModel();
        DisaggCluster(&model, DisaggClusterConfig{});
      },
      "DisaggClusterConfig: prefill_cost.model.hidden must be > 0");
}

}  // namespace
}  // namespace spinfer
