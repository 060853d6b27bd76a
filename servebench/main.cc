// Serving benchmark: builds a workload's model, feeds its seeded traffic to
// the public serving API, checks the outputs, and prints every metric by
// name. See README.md for the metrics, the workloads and how to
// run it.
//
//   servebench --workload NAME --seed N --seconds S --trace 0|1
//              [--trace-out FILE]
//
// --trace 0 prints the end-to-end metrics; --trace 1 the per-layer metrics
// (from bench-side spans, kernel/attention probes and thread-pool counters),
// and writes the spans as Chrome trace JSON to --trace-out when given. The
// last line of stdout is one JSON object: correct, attempted, failed and
// metrics.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "servebench/probes.h"
#include "servebench/span_log.h"
#include "servebench/timed_substrate.h"
#include "servebench/workloads.h"
#include "src/core/cpu_backend.h"
#include "src/llm/disagg_cluster.h"
#include "src/llm/serving_engine.h"
#include "src/llm/sharded_engine.h"
#include "src/pruning/magnitude.h"
#include "src/util/check.h"
#include "src/util/random.h"
#include "src/util/thread_pool.h"

namespace servebench {
namespace {

using spinfer::FinishReason;
using spinfer::RequestRecord;

// Thread-pool width: the host's cores, at most four, so runs on larger hosts
// stay comparable.
constexpr int kMaxPoolThreads = 4;
// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 5;
// Weight sparsity of every workload's model (the paper's end-to-end point).
constexpr double kSparsity = 0.6;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "servebench: %s needs a value\n", flag.c_str());
      return false;
    }
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") {
        std::fprintf(stderr, "servebench: --trace takes 0 or 1\n");
        return false;
      }
      a->trace = v == "1";
    } else if (flag == "--trace-out") {
      a->trace_out = v;
    } else {
      std::fprintf(stderr, "servebench: unknown flag %s\n", flag.c_str());
      return false;
    }
    if (end != nullptr && (*end != '\0' || v.empty())) {
      std::fprintf(stderr, "servebench: bad value for %s: %s\n", flag.c_str(),
                   v.c_str());
      return false;
    }
  }
  if (a->workload.empty() || !(a->seconds > 0.0)) {
    std::fprintf(stderr, "servebench: --workload and --seconds > 0 are required\n");
    return false;
  }
  return true;
}

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

// Linear interpolation between closest ranks (the percentile definition of
// src/util/stats). Empty input yields NaN, which the report prints as absent.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return std::nan("");
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// Peak resident set size of the process (Linux reports ru_maxrss in KiB).
double PeakRssMb() {
  rusage ru{};
  return getrusage(RUSAGE_SELF, &ru) == 0 ? static_cast<double>(ru.ru_maxrss) / 1024.0
                                          : std::nan("");
}

// ---------------------------------------------------------------------------
// Set-up: model construction, pruning + encoding, substrate construction.

struct Setup {
  std::unique_ptr<spinfer::TinyTransformer> model;
  std::unique_ptr<spinfer::SingleInstanceSubstrate> single;
  std::unique_ptr<spinfer::ShardedEngine> sharded;
  spinfer::ServingSubstrate* substrate = nullptr;  // null for disagg
  double init_s = 0.0;
  double prune_encode_s = 0.0;
  double substrate_s = 0.0;

  double total_s() const { return init_s + prune_encode_s + substrate_s; }
};

Setup BuildSetup(const Workload& w, SpanLog* log) {
  Setup s;
  uint64_t t0 = NowNs();
  {
    ScopedSpan span(log, "bench.setup.init", "setup");
    s.model = std::make_unique<spinfer::TinyTransformer>(w.model, w.model_seed);
  }
  uint64_t t1 = NowNs();
  s.init_s = Seconds(t1 - t0);
  {
    ScopedSpan span(log, "bench.setup.prune_encode", "setup");
    s.model->PruneWeights(spinfer::MagnitudePruner(), kSparsity);
  }
  t0 = NowNs();
  s.prune_encode_s = Seconds(t0 - t1);
  {
    ScopedSpan span(log, "bench.setup.substrate", "setup");
    if (w.shards > 0) {
      spinfer::ShardedEngineConfig cfg;
      cfg.shards = w.shards;
      cfg.kv_block_tokens = w.engine.kv_block_tokens;
      cfg.kv_num_blocks = w.engine.kv_num_blocks;
      cfg.device = w.engine.cost.device;
      s.sharded = std::make_unique<spinfer::ShardedEngine>(s.model.get(), cfg);
      s.substrate = s.sharded.get();
    } else if (!w.disagg) {
      s.single = std::make_unique<spinfer::SingleInstanceSubstrate>(
          s.model.get(), w.engine.kv_block_tokens, w.engine.kv_num_blocks);
      s.substrate = s.single.get();
    } else {
      // The cluster allocates its pools per Run; its construction is the
      // whole substrate set-up and is repeated for each round.
      spinfer::DisaggCluster probe(s.model.get(), DisaggConfigFor(w));
    }
  }
  s.substrate_s = Seconds(NowNs() - t0);
  return s;
}

// ---------------------------------------------------------------------------
// One round: a fresh engine over the set-up's substrate, one Run().

struct Tally {
  int64_t sent = 0;
  int64_t succeeded = 0;
  int64_t cancelled = 0;  // client-intended cancels (count as succeeded)
  int64_t failed = 0;

  void Merge(const Tally& o) {
    sent += o.sent;
    succeeded += o.succeeded;
    cancelled += o.cancelled;
    failed += o.failed;
  }
};

struct RoundResult {
  bool traced = false;
  std::vector<Request> reqs;
  std::vector<RequestRecord> records;
  double run_s = 0.0;
  int64_t tokens = 0;
  double sim_time_s = 0.0;
  double peak_iter_ms = 0.0;
  int64_t iterations = 0;
  int64_t prefix_hit_blocks = 0;
  int64_t prefix_miss_blocks = 0;
  int64_t cow_copies = 0;
  // Decorator observations (seam workloads).
  std::vector<StepRecord> steps;
  std::vector<std::vector<uint64_t>> token_ns;
  std::vector<uint64_t> admit_ns;
  CallTime match, add, remove, index;
  double peak_used_frac = 0.0;
  double waste_frac_mean = 0.0;
  int64_t timeline_events = 0;
  double comm_virt_ms = 0.0;
  // Disagg.
  int64_t migrations = 0;
  int64_t decode_iters = 0;
  int64_t peak_decode_batch = 0;
  std::vector<spinfer::DisaggIterationSample> decode_samples;

  spinfer::ThreadPool::Stats pool_delta;
  size_t run_span = SIZE_MAX;  // index of this round's bench.run span
  // KV blocks still allocated after Run() drained every request.
  int64_t leaked_blocks = 0;
  Tally tally;
};

spinfer::ThreadPool::Stats Delta(const spinfer::ThreadPool::Stats& a,
                                 const spinfer::ThreadPool::Stats& b) {
  spinfer::ThreadPool::Stats d;
  d.tasks_submitted = b.tasks_submitted - a.tasks_submitted;
  d.tasks_inline = b.tasks_inline - a.tasks_inline;
  d.tasks_popped = b.tasks_popped - a.tasks_popped;
  d.tasks_stolen = b.tasks_stolen - a.tasks_stolen;
  d.parallel_fors = b.parallel_fors - a.parallel_fors;
  d.parallel_fors_inline = b.parallel_fors_inline - a.parallel_fors_inline;
  return d;
}

// Terminal-state check of every request and of KV block conservation,
// outside the timed region.
Tally CheckRound(const Workload& w, const RoundResult& r, std::string* why) {
  Tally t;
  if (r.leaked_blocks != 0 && why->empty()) {
    *why = std::to_string(r.leaked_blocks) + " KV blocks still allocated after Run()";
  }
  const int32_t eos = w.engine.eos_token;
  for (size_t i = 0; i < r.reqs.size(); ++i) {
    ++t.sent;
    const Request& q = r.reqs[i];
    const RequestRecord& rec = r.records[i];
    const int64_t n = static_cast<int64_t>(rec.generated.size());
    bool ok = false;
    switch (rec.reason) {
      case FinishReason::kMaxTokens:
        ok = n == q.max_new &&
             (eos < 0 || std::find(rec.generated.begin(), rec.generated.end(),
                                   eos) == rec.generated.end());
        break;
      case FinishReason::kEos:
        ok = eos >= 0 && n >= 1 && n <= q.max_new &&
             std::find(rec.generated.begin(), rec.generated.end(), eos) ==
                 rec.generated.end() - 1;
        break;
      case FinishReason::kCancelled:
        ok = q.cancel_at_s >= 0.0 && n <= q.max_new;
        break;
      default:  // rejected, or never finished
        ok = false;
        break;
    }
    // The decorator must have seen exactly the tokens the engine reports.
    if (ok && !w.disagg) {
      const int64_t seen = i < r.token_ns.size()
                               ? static_cast<int64_t>(r.token_ns[i].size())
                               : 0;
      ok = seen == n;
    }
    if (!ok) {
      ++t.failed;
      if (why->empty()) {
        *why = "request " + std::to_string(i) + " ended as " +
               spinfer::FinishReasonName(rec.reason) + " with " +
               std::to_string(n) + " tokens";
      }
    } else if (rec.reason == FinishReason::kCancelled) {
      ++t.cancelled;
    } else {
      ++t.succeeded;
    }
  }
  return t;
}

RoundResult RunServingRound(Setup& s, const Workload& w,
                            std::vector<Request> reqs, SpanLog* log) {
  RoundResult r;
  r.traced = log != nullptr;
  r.reqs = std::move(reqs);
  TimedSubstrate timed(s.substrate, w.shards > 0 ? "tp" : "step", log);
  spinfer::ServingEngine engine(&timed, w.engine);
  for (size_t i = 0; i < r.reqs.size(); ++i) {
    const Request& q = r.reqs[i];
    const int64_t id = engine.Submit(q.prompt, q.max_new, q.arrival_s);
    SPINFER_CHECK(id == static_cast<int64_t>(i));
    if (q.cancel_at_s >= 0.0) {
      engine.Cancel(id, q.cancel_at_s);
    }
  }
  const double comm_before = s.sharded ? s.sharded->comm_us() : 0.0;
  const spinfer::ThreadPool::Stats before = spinfer::ThreadPool::Global().stats();
  spinfer::ExecServingReport rep;
  const uint64_t t0 = NowNs();
  {
    ScopedSpan span(log, "bench.run", "sched");
    span.Arg("requests", static_cast<int64_t>(r.reqs.size()));
    rep = engine.Run();
    span.Arg("virt_sim_us", static_cast<int64_t>(std::llround(rep.sim_time_s * 1e6)));
  }
  r.run_s = Seconds(NowNs() - t0);
  r.pool_delta = Delta(before, spinfer::ThreadPool::Global().stats());
  if (log != nullptr) {
    r.run_span = log->spans().size() - 1;
  }
  r.records = engine.results();
  r.tokens = rep.tokens_generated;
  r.sim_time_s = rep.sim_time_s;
  r.peak_iter_ms = rep.peak_iter_ms;
  r.iterations = rep.iterations;
  r.prefix_hit_blocks = rep.prefix_hit_blocks;
  r.prefix_miss_blocks = rep.prefix_miss_blocks;
  r.cow_copies = rep.cow_copies;
  r.steps = timed.steps();
  r.token_ns = timed.token_ns();
  r.admit_ns = timed.admit_ns();
  r.match = timed.match_time();
  r.add = timed.add_time();
  r.remove = timed.remove_time();
  r.index = timed.index_time();
  r.peak_used_frac = timed.peak_used_frac();
  r.waste_frac_mean = timed.waste_frac_mean();
  if (engine.request_log() != nullptr) {
    r.timeline_events = static_cast<int64_t>(engine.request_log()->events().size());
  }
  if (s.sharded) {
    r.comm_virt_ms = (s.sharded->comm_us() - comm_before) / 1e3;
  }
  r.leaked_blocks = s.substrate->cache().used_blocks();
  return r;
}

RoundResult RunDisaggRound(Setup& s, const Workload& w, std::vector<Request> reqs,
                           SpanLog* log) {
  RoundResult r;
  r.traced = log != nullptr;
  r.reqs = std::move(reqs);
  spinfer::DisaggCluster cluster(s.model.get(), DisaggConfigFor(w));
  for (const Request& q : r.reqs) {
    cluster.Submit(q.prompt, q.max_new, q.arrival_s);
  }
  const spinfer::ThreadPool::Stats before = spinfer::ThreadPool::Global().stats();
  spinfer::DisaggClusterReport rep;
  const uint64_t t0 = NowNs();
  {
    ScopedSpan span(log, "bench.run", "disagg");
    span.Arg("requests", static_cast<int64_t>(r.reqs.size()));
    rep = cluster.Run();
    span.Arg("virt_sim_us", static_cast<int64_t>(std::llround(rep.sim_time_s * 1e6)));
  }
  r.run_s = Seconds(NowNs() - t0);
  r.pool_delta = Delta(before, spinfer::ThreadPool::Global().stats());
  if (log != nullptr) {
    r.run_span = log->spans().size() - 1;
  }
  r.records = cluster.results();
  for (const RequestRecord& rec : r.records) {
    r.tokens += static_cast<int64_t>(rec.generated.size());
  }
  r.sim_time_s = rep.sim_time_s;
  r.migrations = rep.migrations;
  r.decode_iters = rep.decode_iterations;
  r.peak_decode_batch = rep.peak_decode_batch;
  for (int64_t i = 0; i < w.decode_instances; ++i) {
    const auto& samples = cluster.decode_samples(i);
    r.decode_samples.insert(r.decode_samples.end(), samples.begin(), samples.end());
  }
  for (const auto& sample : r.decode_samples) {
    r.peak_iter_ms = std::max(r.peak_iter_ms, sample.cost_us / 1e3);
  }
  return r;
}

RoundResult RunRound(Setup& s, const Workload& w, std::vector<Request> reqs,
                     SpanLog* log, std::string* why) {
  RoundResult r = w.disagg ? RunDisaggRound(s, w, std::move(reqs), log)
                           : RunServingRound(s, w, std::move(reqs), log);
  r.tally = CheckRound(w, r, why);
  return r;
}

// Seeded sample of completed requests compared token for token with
// TinyTransformer::Generate on the same backend, up to EOS.
Tally OracleCheck(const Workload& w, const Setup& s,
                  const std::vector<RoundResult>& rounds, uint64_t seed,
                  std::string* why) {
  std::vector<std::pair<size_t, size_t>> done;
  for (size_t ri = 0; ri < rounds.size(); ++ri) {
    for (size_t i = 0; i < rounds[ri].records.size(); ++i) {
      const FinishReason f = rounds[ri].records[i].reason;
      if (f == FinishReason::kMaxTokens || f == FinishReason::kEos) {
        done.emplace_back(ri, i);
      }
    }
  }
  spinfer::Rng rng(seed ^ 0x0ac1eULL);
  Tally t;
  for (int k = 0; k < w.oracle_samples && !done.empty(); ++k) {
    const size_t pick = static_cast<size_t>(rng.Below(done.size()));
    const auto [ri, i] = done[pick];
    done.erase(done.begin() + static_cast<std::ptrdiff_t>(pick));
    const Request& q = rounds[ri].reqs[i];
    const RequestRecord& rec = rounds[ri].records[i];
    // Generate as many tokens as the engine produced: CheckRound already
    // holds the stream to max_new tokens or to its first EOS, so equality
    // here is equality up to EOS.
    const std::vector<int32_t> full = s.model->Generate(
        q.prompt, static_cast<int>(rec.generated.size()), w.engine.backend);
    const std::vector<int32_t> want(
        full.begin() + static_cast<std::ptrdiff_t>(q.prompt.size()), full.end());
    ++t.sent;
    if (want == rec.generated) {
      ++t.succeeded;
    } else {
      ++t.failed;
      if (why->empty()) {
        *why = "request " + std::to_string(i) + " of round " + std::to_string(ri) +
               " differs from Generate";
      }
    }
  }
  return t;
}

void PrintPhase(const char* phase, const Tally& t, uint64_t start_ns) {
  std::printf("phase %-8s sent=%lld succeeded=%lld cancelled=%lld failed=%lld (%.1f s)\n",
              phase, static_cast<long long>(t.sent),
              static_cast<long long>(t.succeeded),
              static_cast<long long>(t.cancelled), static_cast<long long>(t.failed),
              Seconds(NowNs() - start_ns));
}

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  // Records `value` and prints it with its sample count. NaN (nothing to
  // measure on this workload) prints as absent and is left out of the JSON.
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& samples) {
    if (std::isnan(value)) {
      std::printf("metric %-30s absent (%s)\n", name.c_str(), samples.c_str());
      return;
    }
    std::printf("metric %-30s %.6g %s (%s)\n", name.c_str(), value, unit.c_str(),
                samples.c_str());
    metrics_.push_back({name, value, unit});
  }

  void PrintJson(bool correct, int64_t attempted, int64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", metrics_[i].value);
      out += (i == 0 ? "\"" : ", \"") + metrics_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
  }

 private:
  std::vector<Metric> metrics_;
};

template <typename Count>
std::string N(Count n, const char* what) {
  return "n=" + std::to_string(static_cast<long long>(n)) + " " + what;
}

double Ratio(double num, double den) {
  return den > 0.0 ? num / den : std::nan("");
}

void ReportEndToEnd(const Workload& w, const std::vector<double>& setup_totals,
                    const std::vector<RoundResult>& rounds, int64_t sent,
                    int64_t failed, Report* rep) {
  double run_s = 0.0, sim_s = 0.0, stall = 0.0;
  int64_t tokens = 0;
  std::vector<double> tbt, admit, virt_ttft;
  for (const RoundResult& r : rounds) {
    run_s += r.run_s;
    sim_s += r.sim_time_s;
    tokens += r.tokens;
    stall = std::max(stall, r.peak_iter_ms);
    for (size_t i = 0; i < r.records.size(); ++i) {
      const RequestRecord& rec = r.records[i];
      if (rec.reason == FinishReason::kMaxTokens || rec.reason == FinishReason::kEos) {
        virt_ttft.push_back(rec.ttft_ms);
      }
      if (w.disagg || i >= r.token_ns.size() || r.token_ns[i].empty()) {
        continue;
      }
      const std::vector<uint64_t>& ts = r.token_ns[i];
      for (size_t k = 1; k < ts.size(); ++k) {
        tbt.push_back(static_cast<double>(ts[k] - ts[k - 1]) / 1e6);
      }
      admit.push_back(static_cast<double>(ts[0] - r.admit_ns[i]) / 1e6);
    }
  }
  const std::string rounds_n = N(rounds.size(), "rounds");
  rep->Add("setup_s", Quantile(setup_totals, 0.5), "s",
           N(setup_totals.size(), "set-ups, median"));
  rep->Add("out_tok_s", Ratio(tokens, run_s), "tok/s",
           N(tokens, "tokens") + " over " + std::to_string(run_s) + " s of Run, " +
               rounds_n);
  rep->Add("tbt_ms_p50", Quantile(tbt, 0.5), "ms", N(tbt.size(), "gaps"));
  rep->Add("tbt_ms_p90", Quantile(tbt, 0.9), "ms", N(tbt.size(), "gaps"));
  rep->Add("admit_ttft_ms_p50", Quantile(admit, 0.5), "ms", N(admit.size(), "requests"));
  rep->Add("admit_ttft_ms_p90", Quantile(admit, 0.9), "ms", N(admit.size(), "requests"));
  const std::string completed_n = N(virt_ttft.size(), "requests");
  rep->Add("virt_ttft_ms_p50", Quantile(virt_ttft, 0.5), "ms", completed_n);
  rep->Add("virt_ttft_ms_p90", Quantile(virt_ttft, 0.9), "ms", completed_n);
  rep->Add("virt_stall_ms_max", stall > 0.0 ? stall : std::nan(""), "ms",
           "max over " + rounds_n);
  rep->Add("virt_tok_s", Ratio(tokens, sim_s), "tok/s", N(tokens, "tokens"));
  rep->Add("peak_rss_mb", PeakRssMb(), "MB", "process high-water mark");
  // fail_frac = (rejected + missing or unexpected terminal state + stream
  // mismatch) / requests sent; the JSON carries its complement, which is
  // never 0 on a working program.
  const double fail_frac = Ratio(failed, sent);
  std::printf("metric %-30s %.6g frac (n=%lld requests sent)\n", "fail_frac", fail_frac,
              static_cast<long long>(sent));
  rep->Add("ok_frac", 1.0 - fail_frac, "frac", N(sent, "requests"));
}

// Widths at which the probes run, taken from what the workload executed.
struct ObservedShapes {
  int64_t n8_cols = 0;     // p90 width of decode-only steps
  int64_t chunk_cols = 0;  // median width of steps that carry prompt tokens
  int64_t attn_batch = 0;  // median attention items per step
  int64_t attn_ctx = 0;    // median context per attention item
  double n1_share = 0.0;   // share of steps at width 1
  size_t steps = 0;
};

ObservedShapes Observe(const Workload& w, const std::vector<RoundResult>& rounds) {
  std::vector<double> dec_only, with_prefill, batch, ctx;
  size_t n1 = 0, steps = 0;
  for (const RoundResult& r : rounds) {
    if (w.disagg) {
      for (const auto& s : r.decode_samples) {
        dec_only.push_back(static_cast<double>(s.batch));
        batch.push_back(static_cast<double>(s.batch));
        ctx.push_back(static_cast<double>(s.mean_context));
        n1 += s.batch == 1;
        ++steps;
      }
      for (const Request& q : r.reqs) {
        with_prefill.push_back(static_cast<double>(q.prompt.size()));
      }
      continue;
    }
    for (const StepRecord& s : r.steps) {
      const int64_t cols = s.decode_cols + s.prefill_cols;
      (s.prefill_cols > 0 ? with_prefill : dec_only).push_back(static_cast<double>(cols));
      batch.push_back(static_cast<double>(s.contexts.size()));
      for (const int64_t c : s.contexts) {
        ctx.push_back(static_cast<double>(c));
      }
      n1 += cols == 1;
      ++steps;
    }
  }
  ObservedShapes o;
  o.steps = steps;
  o.n1_share = Ratio(static_cast<double>(n1), static_cast<double>(steps));
  o.n8_cols = dec_only.empty() ? w.engine.max_batch
                               : std::llround(Quantile(dec_only, 0.9));
  o.chunk_cols = with_prefill.empty() ? 0 : std::llround(Quantile(with_prefill, 0.5));
  o.attn_batch = batch.empty() ? 0 : std::llround(Quantile(batch, 0.5));
  o.attn_ctx = ctx.empty() ? 0 : std::llround(Quantile(ctx, 0.5));
  return o;
}

void ReportPerLayer(const Workload& w, const Setup& s,
                    const std::vector<Setup>& setup_times,
                    const std::vector<RoundResult>& rounds, SpanLog* log,
                    double read_gbs, std::string* why, Report* rep) {
  std::vector<const RoundResult*> traced;
  double untraced_tokens = 0.0, untraced_s = 0.0, traced_tokens = 0.0, traced_s = 0.0;
  for (const RoundResult& r : rounds) {
    if (r.traced) {
      traced.push_back(&r);
      traced_tokens += static_cast<double>(r.tokens);
      traced_s += r.run_s;
    } else {
      untraced_tokens += static_cast<double>(r.tokens);
      untraced_s += r.run_s;
    }
  }
  const double nan = std::nan("");
  const std::string per_round = "per round, " + N(traced.size(), "traced rounds");

  // --- Attribution of each traced Run() -----------------------------------
  Attribution sum;
  for (const RoundResult* r : traced) {
    const Attribution a = log->Attribute(r->run_span);
    sum.root_ms += a.root_ms;
    sum.unattributed_ms += a.unattributed_ms;
    for (const auto& [layer, ms] : a.self_ms) {
      sum.self_ms[layer] += ms;
    }
  }
  if (std::fabs(sum.SumMs() - sum.root_ms) > 1e-6 * std::max(1.0, sum.root_ms) &&
      why->empty()) {
    *why = "layer self times do not sum to bench.run wall";
  }
  const auto self = [&](const char* layer) {
    const auto it = sum.self_ms.find(layer);
    return it == sum.self_ms.end() ? nan : it->second;
  };
  const std::string spans_n = N(traced.size(), "bench.run spans");
  rep->Add("self.run_ms", sum.root_ms, "ms", spans_n);
  rep->Add("self.sched_ms", self("sched"), "ms", spans_n);
  // The MixedStep layer is named "tp" on a sharded substrate; both are step.
  rep->Add("self.step_ms", self(w.shards > 0 ? "tp" : "step"), "ms", spans_n);
  rep->Add("self.kv_ms", self("kv"), "ms", spans_n);
  rep->Add("self.disagg_ms", self("disagg"), "ms", spans_n);
  rep->Add("self.unattributed_ms", w.disagg ? nan : sum.unattributed_ms, "ms",
           spans_n);
  rep->Add("trace.overhead_frac",
           1.0 - Ratio(Ratio(traced_tokens, traced_s),
                       Ratio(untraced_tokens, untraced_s)),
           "frac", "traced vs untraced out_tok_s on the same traffic, " +
                       N(traced.size(), "round pairs"));

  // --- step / sched / kv / pool / tp / obs / disagg -------------------------
  std::vector<double> step_ms, with_prefill_ms, decode_only_ms, queue_wait;
  double step_total_ms = 0.0, cols = 0.0, dec_cols = 0.0, pre_cols = 0.0, run_ms = 0.0;
  int64_t iterations = 0, hits = 0, misses = 0, cow = 0, events = 0;
  int64_t migrations = 0, decode_iters = 0, peak_decode_batch = 0;
  double comm_ms = 0.0, sim_ms = 0.0, peak_used = 0.0, waste = 0.0;
  CallTime match, add, remove, index;
  spinfer::ThreadPool::Stats pool;
  size_t steps = 0;
  for (const RoundResult* r : traced) {
    run_ms += r->run_s * 1e3;
    iterations += r->iterations;
    hits += r->prefix_hit_blocks;
    misses += r->prefix_miss_blocks;
    cow += r->cow_copies;
    events += r->timeline_events;
    comm_ms += r->comm_virt_ms;
    sim_ms += r->sim_time_s * 1e3;
    migrations += r->migrations;
    decode_iters += r->decode_iters;
    peak_decode_batch = std::max(peak_decode_batch, r->peak_decode_batch);
    peak_used = std::max(peak_used, r->peak_used_frac);
    waste += r->waste_frac_mean;
    for (auto [dst, src] : {std::pair{&match, &r->match}, std::pair{&add, &r->add},
                            std::pair{&remove, &r->remove},
                            std::pair{&index, &r->index}}) {
      dst->calls += src->calls;
      dst->total_ns += src->total_ns;
    }
    pool.parallel_fors += r->pool_delta.parallel_fors;
    pool.parallel_fors_inline += r->pool_delta.parallel_fors_inline;
    pool.tasks_popped += r->pool_delta.tasks_popped;
    pool.tasks_stolen += r->pool_delta.tasks_stolen;
    for (const StepRecord& st : r->steps) {
      const double ms = static_cast<double>(st.end_ns - st.start_ns) / 1e6;
      step_ms.push_back(ms);
      (st.prefill_cols > 0 ? with_prefill_ms : decode_only_ms).push_back(ms);
      step_total_ms += ms;
      cols += static_cast<double>(st.decode_cols + st.prefill_cols);
      dec_cols += static_cast<double>(st.decode_cols);
      pre_cols += static_cast<double>(st.prefill_cols);
    }
    steps += r->steps.size();
    for (const RequestRecord& rec : r->records) {
      if (rec.reason != FinishReason::kRejected && rec.admit_s > 0.0) {
        queue_wait.push_back((rec.admit_s - rec.arrival_s) * 1e3);
      }
    }
  }
  const double rounds_d = static_cast<double>(traced.size());
  const bool seam = !w.disagg;
  const std::string steps_n = N(steps, "steps");
  rep->Add("step.us_per_col", seam ? Ratio(step_total_ms * 1e3, cols) : nan, "us",
           steps_n + ", " + N(cols, "cols"));
  rep->Add("step.ms_p50", seam ? Quantile(step_ms, 0.5) : nan, "ms", steps_n);
  rep->Add("step.share_of_run", seam ? Ratio(step_total_ms, run_ms) : nan, "frac",
           steps_n);
  rep->Add("step.with_prefill_ms_p50", Quantile(with_prefill_ms, 0.5), "ms",
           N(with_prefill_ms.size(), "steps"));
  rep->Add("step.decode_only_ms_p50", Quantile(decode_only_ms, 0.5), "ms",
           N(decode_only_ms.size(), "steps"));
  rep->Add("sched.self_us_per_iter", seam ? Ratio(self("sched") * 1e3, iterations) : nan,
           "us", N(iterations, "iterations"));
  rep->Add("sched.iterations", seam ? iterations / rounds_d : nan, "count", per_round);
  rep->Add("sched.mean_decode_cols", seam ? Ratio(dec_cols, steps) : nan, "cols",
           steps_n);
  rep->Add("sched.mean_prefill_cols", seam ? Ratio(pre_cols, steps) : nan, "cols",
           steps_n);
  rep->Add("sched.queue_wait_virt_ms_p50", Quantile(queue_wait, 0.5), "ms",
           N(queue_wait.size(), "admitted requests"));

  rep->Add("kv.prefix_hit_ratio",
           w.engine.enable_prefix_cache || hits + misses > 0
               ? Ratio(hits, hits + misses)
               : nan,
           "frac", N(hits + misses, "prompt blocks"));
  const auto us_per = [](const CallTime& c) {
    return c.calls > 0 ? Ratio(c.total_ns / 1e3, c.calls) : std::nan("");
  };
  // MatchPrefix and IndexPrefix run only with the prefix cache on, so they
  // are pooled with the two entry points every workload calls.
  CallTime all;
  for (const CallTime* c : {&match, &add, &remove, &index}) {
    all.calls += c->calls;
    all.total_ns += c->total_ns;
  }
  rep->Add("kv.us_per_call", us_per(all), "us",
           N(all.calls, "calls") + " (match " + std::to_string(match.calls) +
               ", add " + std::to_string(add.calls) + ", remove " +
               std::to_string(remove.calls) + ", index " +
               std::to_string(index.calls) + ")");
  rep->Add("kv.add_us_per_call", us_per(add), "us", N(add.calls, "calls"));
  rep->Add("kv.remove_us_per_call", us_per(remove), "us", N(remove.calls, "calls"));
  const std::string max_over = "max over " + N(traced.size(), "traced rounds");
  rep->Add("kv.peak_used_frac", seam ? peak_used : nan, "frac", max_over);
  rep->Add("kv.waste_frac_mean", seam ? waste / rounds_d : nan, "frac", steps_n);
  rep->Add("kv.cow_copies", seam ? cow / rounds_d : nan, "count", per_round);

  const uint64_t fors = pool.parallel_fors;
  const uint64_t tasks = pool.tasks_popped + pool.tasks_stolen;
  const int64_t steps_or_iters = seam ? static_cast<int64_t>(steps) : decode_iters;
  rep->Add("pool.parallel_fors_per_step", Ratio(fors, steps_or_iters), "count",
           N(fors, "ParallelFor calls"));
  rep->Add("pool.inline_frac", Ratio(pool.parallel_fors_inline, fors), "frac",
           N(fors, "ParallelFor calls"));
  rep->Add("pool.steal_frac", Ratio(pool.tasks_stolen, tasks), "frac",
           N(tasks, "worker tasks"));

  // Without shards or obs these read 0: no interconnect time is charged and
  // no timeline event is recorded.
  rep->Add("tp.comm_virt_frac", seam ? Ratio(comm_ms, sim_ms) : nan, "frac",
           "interconnect share of the virtual run time, " + per_round);
  rep->Add("obs.timeline_events", seam ? events / rounds_d : nan, "count", per_round);
  rep->Add("disagg.migrations", w.disagg ? migrations / rounds_d : nan, "count",
           per_round);
  rep->Add("disagg.decode_iters", w.disagg ? decode_iters / rounds_d : nan, "count",
           per_round);
  rep->Add("disagg.peak_decode_batch",
           w.disagg ? static_cast<double>(peak_decode_batch) : nan, "count", max_over);

  // --- setup / fmt ------------------------------------------------------------
  std::vector<double> init, prune, sub;
  for (const Setup& t : setup_times) {
    init.push_back(t.init_s);
    prune.push_back(t.prune_encode_s);
    sub.push_back(t.substrate_s);
  }
  const std::string setups_n = N(setup_times.size(), "set-ups, median");
  rep->Add("setup.init_s", Quantile(init, 0.5), "s", setups_n);
  rep->Add("setup.prune_encode_s", Quantile(prune, 0.5), "s", setups_n);
  rep->Add("setup.substrate_s", Quantile(sub, 0.5), "s", setups_n);
  rep->Add("fmt.encoded_mb", s.model->EncodedWeightBytes() / 1e6, "MB",
           "TCA-BME StorageBytes of all layer weights");
  rep->Add("fmt.compression_ratio",
           Ratio(static_cast<double>(s.model->DenseWeightBytes()),
                 static_cast<double>(s.model->EncodedWeightBytes())),
           "x", "dense FP16 bytes / encoded bytes");

  // --- kernel and attention probes at the observed shapes -------------------
  const ObservedShapes o = Observe(w, rounds);
  std::printf("observed: %zu steps, %.3f at width 1, decode-only p90 width %lld, "
              "prefill-step median width %lld, attention median batch %lld ctx %lld\n",
              o.steps, o.n1_share, static_cast<long long>(o.n8_cols),
              static_cast<long long>(o.chunk_cols), static_cast<long long>(o.attn_batch),
              static_cast<long long>(o.attn_ctx));
  std::printf("probe bytes are computed from encoded tensor sizes (StorageBytes) plus "
              "FP32 activation panels; attention bytes are the FP32 K/V rows read\n");
  const auto kern = [&](const char* name, int64_t width, const char* span) {
    const std::string base = std::string("kern.") + name;
    if (width <= 0) {
      rep->Add(base + "_us", nan, "us", "width not observed");
      rep->Add(base + "_gbs", nan, "GB/s", "width not observed");
      rep->Add(base + "_roofline_frac", nan, "frac", "width not observed");
      return;
    }
    const ProbeResult p = ProbeLayerMatmuls(*s.model, width, log, span);
    const std::string n = N(p.reps, "calls") + ", N=" +
                          std::to_string(width) + ", 6 matrices";
    rep->Add(base + "_us", p.us, "us", n);
    rep->Add(base + "_gbs", p.Gbs(), "GB/s", n);
    rep->Add(base + "_roofline_frac", Ratio(p.Gbs(), read_gbs), "frac",
             n + ", of host.read_gbs");
  };
  kern("spmv_n1", 1, "probe.kern.spmv_n1");
  kern("spmm_n8", o.n8_cols, "probe.kern.spmm_n8");
  kern("spmm_chunk", o.chunk_cols, "probe.kern.spmm_chunk");
  rep->Add("kern.n8_cols", static_cast<double>(o.n8_cols), "cols", "observed");
  rep->Add("kern.chunk_cols", o.chunk_cols > 0 ? static_cast<double>(o.chunk_cols) : nan,
           "cols", "observed");
  if (o.attn_batch > 0 && o.attn_ctx > 0) {
    const ProbeResult a = ProbeAttention(*s.model, o.attn_batch, o.attn_ctx, log);
    const std::string n = N(a.reps, "calls") + ", batch=" + std::to_string(o.attn_batch) +
                          " ctx=" + std::to_string(o.attn_ctx);
    rep->Add("attn.us_per_call", a.us, "us", n);
    rep->Add("attn.gbs", a.Gbs(), "GB/s", n);
  }
  rep->Add("host.read_gbs", read_gbs, "GB/s", "best of 5 parallel reads of 64 MiB");
  rep->Add("host.cores", std::thread::hardware_concurrency(), "count",
           "hardware threads");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return 2;
  }
  Workload w;
  if (!FindWorkload(args.workload, &w)) {
    std::string names;
    for (const std::string& n : WorkloadNames()) {
      names += " " + n;
    }
    std::fprintf(stderr, "servebench: unknown workload %s (known:%s)\n",
                 args.workload.c_str(), names.c_str());
    return 2;
  }
  const int hw = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const int threads = std::min(hw, kMaxPoolThreads);
  spinfer::ThreadPool::SetGlobalThreads(threads);
  const double read_gbs = MeasureReadGbs();
  std::printf("host: cores=%d pool_threads=%d simd=%s read_gbs=%.3f\n", hw, threads,
              spinfer::CpuSpmmVariantName(spinfer::ActiveCpuSpmmVariant()), read_gbs);
  std::printf("workload %s seed %llu seconds %.1f trace %d\n", w.name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);

  SpanLog log;
  SpanLog* tlog = args.trace ? &log : nullptr;

  // Set-up, several times; the last one serves.
  std::vector<Setup> setups;
  std::vector<double> setup_totals;
  for (int i = 0; i < kSetupReps; ++i) {
    setups.push_back(BuildSetup(w, tlog));
    setup_totals.push_back(setups.back().total_s());
    if (i + 1 < kSetupReps) {
      // Keep only the timings of the earlier set-ups.
      setups.back().sharded.reset();
      setups.back().single.reset();
      setups.back().model.reset();
    }
  }
  Setup& s = setups.back();

  std::string why;
  // Warm-up: grows scratch buffers and faults pages in, untimed.
  const uint64_t warm_start = NowNs();
  const RoundResult warm = RunRound(s, w, MakeWarmup(w, args.seed), nullptr, &why);
  PrintPhase("warmup", warm.tally, warm_start);

  // Measured rounds. Their number follows from --seconds and the workload's
  // nominal round time, not from how fast rounds actually run, so a run's
  // requests depend only on the seed and --seconds. The traced run plays
  // each round's traffic twice, untraced then traced, so the tracing
  // overhead is measured on identical work; it runs half as many rounds.
  const int64_t num_rounds = std::max<int64_t>(
      1, std::llround(args.seconds / (w.nominal_round_s * (args.trace ? 2.0 : 1.0))));
  std::vector<RoundResult> rounds;
  Tally measured;
  uint64_t phase_start = NowNs();
  for (int64_t round = 0; round < num_rounds; ++round) {
    const std::vector<Request> traffic = MakeTraffic(w, args.seed, round);
    for (int pass = 0; pass < (args.trace ? 2 : 1); ++pass) {
      RoundResult r = RunRound(s, w, traffic, pass == 1 ? &log : nullptr, &why);
      measured.Merge(r.tally);
      rounds.push_back(std::move(r));
    }
  }
  PrintPhase("measure", measured, phase_start);

  phase_start = NowNs();
  const Tally oracle = OracleCheck(w, s, rounds, args.seed, &why);
  PrintPhase("oracle", oracle, phase_start);

  Tally all = measured;
  all.Merge(oracle);
  Report rep;
  if (args.trace) {
    ReportPerLayer(w, s, setups, rounds, &log, read_gbs, &why, &rep);
    if (!args.trace_out.empty() && !log.WriteChrome(args.trace_out)) {
      std::fprintf(stderr, "servebench: cannot write %s\n", args.trace_out.c_str());
      return 1;
    }
  } else {
    ReportEndToEnd(w, setup_totals, rounds, measured.sent, all.failed, &rep);
  }
  if (!why.empty()) {
    std::printf("check failed: %s\n", why.c_str());
  }
  rep.PrintJson(why.empty(), all.sent, all.failed);
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) { return servebench::Main(argc, argv); }
