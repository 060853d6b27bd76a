#include "servebench/timed_substrate.h"

#include <algorithm>
#include <string>

namespace servebench {

using spinfer::PagedKvCache;
using spinfer::PrefillChunk;

TimedSubstrate::TimedSubstrate(spinfer::ServingSubstrate* inner,
                               const char* step_layer, SpanLog* log)
    : inner_(inner), step_layer_(step_layer), log_(log) {}

void TimedSubstrate::Grow(int64_t seq_id) {
  if (seq_id >= static_cast<int64_t>(token_ns_.size())) {
    token_ns_.resize(static_cast<size_t>(seq_id) + 1);
    admit_ns_.resize(static_cast<size_t>(seq_id) + 1, 0);
  }
}

void TimedSubstrate::SampleOccupancy() {
  const PagedKvCache& c = inner_->cache();
  if (c.total_blocks() > 0) {
    peak_used_frac_ = std::max(
        peak_used_frac_, static_cast<double>(c.used_blocks()) /
                             static_cast<double>(c.total_blocks()));
  }
}

double TimedSubstrate::waste_frac_mean() const {
  return waste_samples_ == 0 ? 0.0
                             : waste_frac_sum_ / static_cast<double>(waste_samples_);
}

void TimedSubstrate::Trace(const char* name, const char* layer, uint64_t start,
                           uint64_t end, int64_t seq_id) const {
  if (log_ == nullptr) {
    return;
  }
  Span s;
  s.name = name;
  s.layer = layer;
  s.start_ns = start;
  s.end_ns = end;
  s.args.emplace_back("req", seq_id);
  log_->Add(std::move(s));
}

PagedKvCache::PrefixMatch TimedSubstrate::MatchPrefix(
    const std::vector<int32_t>& prompt) const {
  const uint64_t t0 = NowNs();
  PagedKvCache::PrefixMatch m = inner_->MatchPrefix(prompt);
  const uint64_t t1 = NowNs();
  match_.Add(t1 - t0);
  Trace("kv.match", "kv", t0, t1, -1);
  return m;
}

bool TimedSubstrate::AddSequenceSharing(int64_t seq_id,
                                        const std::vector<int32_t>& prompt,
                                        int64_t tokens,
                                        const PagedKvCache::PrefixMatch& match) {
  Grow(seq_id);
  const uint64_t t0 = NowNs();
  const bool ok = inner_->AddSequenceSharing(seq_id, prompt, tokens, match);
  const uint64_t t1 = NowNs();
  add_.Add(t1 - t0);
  admit_ns_[static_cast<size_t>(seq_id)] = t0;
  if (ok) {
    resident_.insert(seq_id);
  }
  Trace("kv.add", "kv", t0, t1, seq_id);
  SampleOccupancy();
  return ok;
}

void TimedSubstrate::RemoveSequence(int64_t seq_id) {
  const uint64_t t0 = NowNs();
  inner_->RemoveSequence(seq_id);
  const uint64_t t1 = NowNs();
  remove_.Add(t1 - t0);
  resident_.erase(seq_id);
  Trace("kv.remove", "kv", t0, t1, seq_id);
}

void TimedSubstrate::IndexPrefix(int64_t seq_id,
                                 const std::vector<int32_t>& prompt,
                                 int64_t filled) {
  const uint64_t t0 = NowNs();
  inner_->IndexPrefix(seq_id, prompt, filled);
  const uint64_t t1 = NowNs();
  index_.Add(t1 - t0);
  Trace("kv.index", "kv", t0, t1, seq_id);
}

void TimedSubstrate::MixedStep(const std::vector<int64_t>& dec_ids,
                               const std::vector<int32_t>& dec_last,
                               const std::vector<PrefillChunk>& chunks,
                               spinfer::MatmulBackend backend,
                               std::vector<int32_t>* dec_next,
                               std::vector<int32_t>* chunk_next) {
  StepRecord rec;
  rec.decode_cols = static_cast<int64_t>(dec_ids.size());
  for (const int64_t id : dec_ids) {
    // The step appends the last token's slot, then attends over everything.
    rec.contexts.push_back(inner_->cache().SequenceTokens(id) + 1);
  }
  for (const PrefillChunk& c : chunks) {
    rec.prefill_cols += c.count;
    for (int64_t p = c.start; p < c.start + c.count; ++p) {
      rec.contexts.push_back(p + 1);
    }
  }

  rec.start_ns = NowNs();
  inner_->MixedStep(dec_ids, dec_last, chunks, backend, dec_next, chunk_next);
  rec.end_ns = NowNs();

  for (const int64_t id : dec_ids) {
    Grow(id);
    token_ns_[static_cast<size_t>(id)].push_back(rec.end_ns);
  }
  for (const PrefillChunk& c : chunks) {
    if (c.start + c.count == static_cast<int64_t>(c.prompt->size())) {
      Grow(c.seq_id);
      token_ns_[static_cast<size_t>(c.seq_id)].push_back(rec.end_ns);
    }
  }

  if (log_ != nullptr) {
    Span s;
    s.name = step_layer_;
    s.layer = step_layer_;
    s.start_ns = rec.start_ns;
    s.end_ns = rec.end_ns;
    s.args.emplace_back("iter", static_cast<int64_t>(steps_.size()));
    s.args.emplace_back("decode_cols", rec.decode_cols);
    s.args.emplace_back("prefill_cols", rec.prefill_cols);
    std::string ids = "decode:";
    for (const int64_t id : dec_ids) {
      ids += ' ' + std::to_string(id);
    }
    ids += " prefill:";
    for (const PrefillChunk& c : chunks) {
      ids += ' ' + std::to_string(c.seq_id);
    }
    s.detail = std::move(ids);
    log_->Add(std::move(s));
  }

  const PagedKvCache& c = inner_->cache();
  int64_t slots = 0;
  for (const int64_t id : resident_) {
    slots += c.SequenceBlocks(id) * c.config().block_tokens;
  }
  if (slots > 0) {
    waste_frac_sum_ +=
        static_cast<double>(c.WastedTokenSlots()) / static_cast<double>(slots);
    ++waste_samples_;
  }
  SampleOccupancy();
  steps_.push_back(std::move(rec));
}

}  // namespace servebench
