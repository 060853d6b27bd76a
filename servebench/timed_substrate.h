// Timing decorator around a ServingSubstrate.
//
// ServingEngine's borrowed-substrate constructor accepts any substrate, so
// the benchmark hands it this wrapper around the real one
// (SingleInstanceSubstrate or ShardedEngine) and sees, from outside the
// program, every call the scheduler makes into the execution layer: each
// MixedStep and each KV entry point (MatchPrefix, AddSequenceSharing,
// RemoveSequence, IndexPrefix). The engine uses the request id as the
// sequence id, so the wall time at which each MixedStep returns is the wall
// time of every token it carries, per request.
//
// Timestamps are always taken (two clock reads per call, the measuring
// apparatus of the wall-clock latency metrics); spans are recorded only when
// a SpanLog is attached, in the traced run.
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "servebench/span_log.h"
#include "src/llm/serving_substrate.h"

namespace servebench {

struct CallTime {
  int64_t calls = 0;
  uint64_t total_ns = 0;

  void Add(uint64_t ns) {
    ++calls;
    total_ns += ns;
  }
};

// One executed MixedStep.
struct StepRecord {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t decode_cols = 0;
  int64_t prefill_cols = 0;
  // Attention work: one item per panel column, each attending over
  // `contexts[i]` cached positions (decode: the whole context including the
  // new token; prompt chunk: positions [0, pos]).
  std::vector<int64_t> contexts;
};

class TimedSubstrate : public spinfer::ServingSubstrate {
 public:
  // `inner` is borrowed and must outlive this wrapper. `step_layer` names
  // the layer the MixedStep spans are attributed to ("step" for a single
  // instance, "tp" for a sharded one). `log` may be null (untraced run).
  TimedSubstrate(spinfer::ServingSubstrate* inner, const char* step_layer,
                 SpanLog* log);

  const spinfer::TinyConfig& model_config() const override {
    return inner_->model_config();
  }
  const spinfer::PagedKvCache& cache() const override { return inner_->cache(); }
  spinfer::PagedKvCache::PrefixMatch MatchPrefix(
      const std::vector<int32_t>& prompt) const override;
  bool AddSequenceSharing(int64_t seq_id, const std::vector<int32_t>& prompt,
                          int64_t tokens,
                          const spinfer::PagedKvCache::PrefixMatch& match) override;
  void RemoveSequence(int64_t seq_id) override;
  void IndexPrefix(int64_t seq_id, const std::vector<int32_t>& prompt,
                   int64_t filled) override;
  void MixedStep(const std::vector<int64_t>& dec_ids,
                 const std::vector<int32_t>& dec_last,
                 const std::vector<spinfer::PrefillChunk>& chunks,
                 spinfer::MatmulBackend backend, std::vector<int32_t>* dec_next,
                 std::vector<int32_t>* chunk_next) override;

  // --- What the wrapper observed -------------------------------------------
  const std::vector<StepRecord>& steps() const { return steps_; }
  // Wall time of each token, per request id, in generation order.
  const std::vector<std::vector<uint64_t>>& token_ns() const { return token_ns_; }
  // Start of each request's AddSequenceSharing call (0 = never admitted).
  const std::vector<uint64_t>& admit_ns() const { return admit_ns_; }
  const CallTime& match_time() const { return match_; }
  const CallTime& add_time() const { return add_; }
  const CallTime& remove_time() const { return remove_; }
  const CallTime& index_time() const { return index_; }
  // KV pool occupancy sampled after every call that can grow it.
  double peak_used_frac() const { return peak_used_frac_; }
  // Mean over steps of wasted slots / allocated slots, both counted per
  // resident sequence (internal fragmentation of partially filled last
  // blocks, PagedKvCache::WastedTokenSlots), sampled after each step.
  double waste_frac_mean() const;

 private:
  void Grow(int64_t seq_id);
  void SampleOccupancy();
  // Records a span for a finished call when tracing.
  void Trace(const char* name, const char* layer, uint64_t start,
             uint64_t end, int64_t seq_id) const;

  spinfer::ServingSubstrate* inner_;
  const char* step_layer_;
  SpanLog* log_;

  std::vector<StepRecord> steps_;
  std::vector<std::vector<uint64_t>> token_ns_;
  std::vector<uint64_t> admit_ns_;
  std::set<int64_t> resident_;
  // MatchPrefix is const in the interface; its bookkeeping is not state of
  // the substrate.
  mutable CallTime match_;
  CallTime add_, remove_, index_;
  double peak_used_frac_ = 0.0;
  double waste_frac_sum_ = 0.0;
  int64_t waste_samples_ = 0;
};

}  // namespace servebench
