#include "src/llm/disagg_cluster.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>

#include "src/llm/attention.h"
#include "src/llm/kv_allocator.h"
#include "src/util/check.h"

namespace spinfer {

std::string DisaggClusterReport::ToString() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "arrived=%lld rejected=%lld completed=%lld prefills=%lld "
      "migrations=%lld decode_iters=%lld peak_decode_batch=%lld sim_s=%.6f "
      "ttft_ms{mean=%.6f p50=%.6f p95=%.6f p99=%.6f} "
      "lat_ms{mean=%.6f p50=%.6f p95=%.6f p99=%.6f}",
      static_cast<long long>(arrived), static_cast<long long>(rejected),
      static_cast<long long>(completed), static_cast<long long>(prefills),
      static_cast<long long>(migrations),
      static_cast<long long>(decode_iterations),
      static_cast<long long>(peak_decode_batch), sim_time_s, ttft.mean_ms,
      ttft.p50_ms, ttft.p95_ms, ttft.p99_ms, latency.mean_ms, latency.p50_ms,
      latency.p95_ms, latency.p99_ms);
  return std::string(buf);
}

std::string DisaggClusterConfig::Validate() const {
  if (prefill_instances < 0) return "prefill_instances must be >= 0";
  if (decode_instances < 0) return "decode_instances must be >= 0";
  if (max_decode_batch <= 0) return "max_decode_batch must be > 0";
  if (!(std::isfinite(transfer_bw_gbs) && transfer_bw_gbs > 0.0)) {
    return "transfer_bw_gbs must be finite and > 0";
  }
  const std::string bad = ValidateCostConfig(prefill_cost, "prefill_cost");
  return bad.empty() ? ValidateCostConfig(decode_cost, "decode_cost") : bad;
}

DisaggCluster::DisaggCluster(const TinyTransformer* model,
                             const DisaggClusterConfig& cfg)
    : model_(model), cfg_(cfg) {
  SPINFER_CHECK(model != nullptr);
  SPINFER_CHECK_MSG(cfg.Validate().empty(),
                    "DisaggClusterConfig: " << cfg.Validate());
  samples_.resize(static_cast<size_t>(cfg.decode_instances));
}

int64_t DisaggCluster::Submit(std::vector<int32_t> prompt,
                              int64_t max_new_tokens, double arrival_s) {
  SPINFER_CHECK(!ran_);
  RequestRecord r;
  r.id = static_cast<int64_t>(records_.size());
  r.prompt = std::move(prompt);
  r.max_new_tokens = max_new_tokens;
  r.arrival_s = arrival_s;
  records_.push_back(std::move(r));
  return records_.back().id;
}

const std::vector<DisaggIterationSample>& DisaggCluster::decode_samples(
    int64_t instance) const {
  SPINFER_CHECK(instance >= 0 &&
                instance < static_cast<int64_t>(samples_.size()));
  return samples_[static_cast<size_t>(instance)];
}

DisaggClusterReport DisaggCluster::Run() {
  SPINFER_CHECK(!ran_);
  ran_ = true;
  DisaggClusterReport report;
  report.arrived = static_cast<int64_t>(records_.size());

  // An unusable topology rejects everything — gracefully, not as UB or a
  // CHECK: the caller asked an empty cluster to serve.
  const bool usable = cfg_.prefill_instances > 0 && cfg_.decode_instances > 0;

  struct PrefillInstance {
    PagedKvCache cache;
    double free_at_s = 0.0;
    explicit PrefillInstance(const PagedKvCacheConfig& kv) : cache(kv) {}
  };
  struct DecodeInstance {
    std::unique_ptr<ServingEngine> engine;
    std::vector<int64_t> cluster_ids;  // indexed by engine request id
  };

  std::vector<PrefillInstance> prefills;
  std::vector<DecodeInstance> decodes;
  if (usable) {
    const PagedKvCacheConfig kv =
        model_->KvCacheConfig(cfg_.kv_block_tokens, cfg_.kv_num_blocks);
    prefills.reserve(static_cast<size_t>(cfg_.prefill_instances));
    for (int64_t i = 0; i < cfg_.prefill_instances; ++i) {
      prefills.emplace_back(kv);
    }
    ServingEngineConfig decode_cfg;
    decode_cfg.max_batch = cfg_.max_decode_batch;
    decode_cfg.kv_block_tokens = cfg_.kv_block_tokens;
    decode_cfg.kv_num_blocks = cfg_.kv_num_blocks;
    decode_cfg.backend = cfg_.backend;
    decode_cfg.cost = cfg_.decode_cost;
    decodes.resize(static_cast<size_t>(cfg_.decode_instances));
    for (DecodeInstance& d : decodes) {
      d.engine = std::make_unique<ServingEngine>(model_, decode_cfg);
    }
  }

  // ---- Prefill scheduling + execution + handoff routing. -------------------
  // One prompt at a time per instance; earliest-free instance wins, ties to
  // the lowest index — an analytic schedule over the virtual clock, executed
  // for real in schedule order. Unservable requests are rejected before the
  // arrival sort (a NaN arrival would break its ordering). Both pools share
  // one geometry, so a request the decode engines can serve fits a prefill
  // pool.
  std::vector<int64_t> order;
  order.reserve(records_.size());
  for (RequestRecord& r : records_) {
    if (usable && IsWellFormedRequest(r, model_->config()) &&
        decodes[0].engine->IsServable(r)) {
      order.push_back(r.id);
    } else {
      r.reason = FinishReason::kRejected;
      ++report.rejected;
    }
  }
  std::stable_sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    return records_[static_cast<size_t>(a)].arrival_s <
           records_[static_cast<size_t>(b)].arrival_s;
  });

  double sim_end_s = 0.0;
  for (const int64_t id : order) {
    RequestRecord& r = records_[static_cast<size_t>(id)];
    const int64_t len = static_cast<int64_t>(r.prompt.size());
    PrefillInstance& inst = *std::min_element(
        prefills.begin(), prefills.end(),
        [](const PrefillInstance& a, const PrefillInstance& b) {
          return a.free_at_s < b.free_at_s;
        });
    // A resident sequence waiting on decode admission still holds its blocks
    // here; a full pool is transient backpressure for a real cluster but a
    // sizing error for this virtual-clock executor — reject, don't wedge.
    if (!inst.cache.AddSequence(r.id, len)) {
      r.reason = FinishReason::kRejected;
      ++report.rejected;
      continue;
    }
    const double start_s = std::max(r.arrival_s, inst.free_at_s);
    const double prefill_ms =
        PrefillTimeUs(cfg_.prefill_cost, /*batch=*/1, len) / 1e3;
    const double done_s = start_s + prefill_ms / 1e3;
    inst.free_at_s = done_s;
    ++report.prefills;

    r.generated.push_back(
        model_->Prefill(r.prompt, cfg_.backend, &inst.cache, r.id));

    // KV handoff: the prompt's cache pages cross the fabric once, priced on
    // the cost model (the executing tiny pools are stand-ins).
    const double transfer_ms =
        static_cast<double>(
            KvCacheBytes(cfg_.prefill_cost.model, /*batch=*/1, len, 1)) /
        (cfg_.transfer_bw_gbs * 1e6);
    const double ready_s = done_s + transfer_ms / 1e3;
    r.admit_s = start_s;
    r.first_token_s = ready_s;
    r.ttft_ms = (ready_s - r.arrival_s) * 1e3;

    if (r.max_new_tokens == 1) {
      // The prefill token already met the budget; no decode admission.
      inst.cache.RemoveSequence(r.id);
      r.finish_s = ready_s;
      r.latency_ms = (ready_s - r.arrival_s) * 1e3;
      r.reason = FinishReason::kMaxTokens;
      sim_end_s = std::max(sim_end_s, ready_s);
      continue;
    }

    // Least-loaded decode instance, ties to the lowest index.
    DecodeInstance& target = *std::min_element(
        decodes.begin(), decodes.end(),
        [](const DecodeInstance& a, const DecodeInstance& b) {
          return a.cluster_ids.size() < b.cluster_ids.size();
        });
    target.engine->SubmitPrefilled(r.prompt, r.generated[0], r.max_new_tokens,
                                   ready_s, &inst.cache, r.id);
    target.cluster_ids.push_back(r.id);
  }

  // ---- Decode: each instance is a ServingEngine admitting the handoffs. -----
  for (size_t di = 0; di < decodes.size(); ++di) {
    ServingEngine& engine = *decodes[di].engine;
    while (const std::optional<ServingStep> step = engine.Step()) {
      samples_[di].push_back(*step);
      ++report.decode_iterations;
      report.peak_decode_batch = std::max(report.peak_decode_batch, step->batch);
    }
    report.migrations += static_cast<int64_t>(engine.admission_order().size());
    const std::vector<int64_t>& ids = decodes[di].cluster_ids;
    for (size_t e = 0; e < ids.size(); ++e) {
      const RequestRecord& done = engine.results()[e];
      RequestRecord& r = records_[static_cast<size_t>(ids[e])];
      r.generated = done.generated;
      r.reason = done.reason;
      r.finish_s = done.finish_s;
      r.latency_ms = (r.finish_s - r.arrival_s) * 1e3;
      sim_end_s = std::max(sim_end_s, r.finish_s);
    }
  }

  report.sim_time_s = sim_end_s;
  std::vector<double> ttfts, lats;
  for (const RequestRecord& r : records_) {
    if (r.reason == FinishReason::kMaxTokens) {
      ttfts.push_back(r.ttft_ms);
      lats.push_back(r.latency_ms);
    }
  }
  report.completed = static_cast<int64_t>(ttfts.size());
  report.ttft = SummarizeLatenciesMs(std::move(ttfts));
  report.latency = SummarizeLatenciesMs(std::move(lats));
  return report;
}

}  // namespace spinfer
