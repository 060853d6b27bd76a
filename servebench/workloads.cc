#include "servebench/workloads.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "src/gpusim/device_spec.h"
#include "src/llm/model_config.h"
#include "src/util/random.h"

namespace servebench {

using spinfer::Rng;

namespace {

// Per-round arrival schedules are drawn from this fixed stream, not from the
// run's seed: Poisson arrivals for a few dozen requests make queueing
// percentiles swing by tens of percent from seed to seed, which would drown
// the regressions the benchmark exists to catch. The seed still decides
// which request (length, content) lands in which arrival slot.
constexpr uint64_t kArrivalStream = 0x5e12eb0c4a1ULL;

uint64_t Mix(uint64_t seed, int64_t round, uint64_t salt) {
  return seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(round) * 1000003ULL +
         salt;
}

template <typename T>
void Shuffle(std::vector<T>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Below(i)]);
  }
}

// n evenly spaced integers from lo to hi inclusive, in a seeded order.
std::vector<int64_t> Spread(int64_t n, int64_t lo, int64_t hi, Rng* rng) {
  std::vector<int64_t> v(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    v[static_cast<size_t>(i)] = n == 1 ? lo : lo + ((hi - lo) * i) / (n - 1);
  }
  Shuffle(&v, rng);
  return v;
}

// n integers from lo to hi inclusive, evenly spaced in log scale (a heavy
// tail: most are short, a few are long), in a seeded order.
std::vector<int64_t> LogSpread(int64_t n, int64_t lo, int64_t hi, Rng* rng) {
  std::vector<int64_t> v(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const double u = (static_cast<double>(i) + 0.5) / static_cast<double>(n);
    const double x = static_cast<double>(lo) *
                     std::pow(static_cast<double>(hi) / static_cast<double>(lo), u);
    v[static_cast<size_t>(i)] =
        std::clamp(static_cast<int64_t>(std::llround(x)), lo, hi);
  }
  Shuffle(&v, rng);
  return v;
}

// Arrival times of n events of a Poisson process at `rate_per_s`: the
// inter-arrival gaps are the n quantile midpoints of Exp(rate) in a shuffled
// order, so every schedule has the same gap distribution.
std::vector<double> PoissonTimes(int64_t n, double rate_per_s, int64_t round) {
  Rng rng(Mix(kArrivalStream, round, 1));
  std::vector<double> gaps(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const double u = (static_cast<double>(i) + 0.5) / static_cast<double>(n);
    gaps[static_cast<size_t>(i)] = -std::log(1.0 - u) / rate_per_s;
  }
  Shuffle(&gaps, &rng);
  std::vector<double> t(static_cast<size_t>(n));
  double now = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    now += gaps[static_cast<size_t>(i)];
    t[static_cast<size_t>(i)] = now;
  }
  return t;
}

std::vector<int32_t> Tokens(int64_t n, int64_t vocab, Rng* rng) {
  std::vector<int32_t> t(static_cast<size_t>(n));
  for (auto& x : t) {
    x = static_cast<int32_t>(rng->Below(static_cast<uint64_t>(vocab)));
  }
  return t;
}

spinfer::EngineConfig Opt13bOnRtx4090() {
  spinfer::EngineConfig c;
  c.model = spinfer::Opt13B();
  c.framework = spinfer::Framework::kSpInfer;
  c.device = spinfer::Rtx4090();
  c.sparsity = 0.6;
  return c;
}

spinfer::TinyConfig SmallModel(int64_t max_seq) {
  spinfer::TinyConfig m;
  m.vocab = 256;
  m.hidden = 256;
  m.layers = 4;
  m.heads = 8;
  m.ffn = 1024;
  m.max_seq = max_seq;
  return m;
}

// --- decode_heavy -----------------------------------------------------------
constexpr int64_t kDecodeRequests = 25;
constexpr double kDecodeRate = 4.0;

std::vector<Request> DecodeHeavy(const Workload& w, uint64_t seed, int64_t round) {
  Rng rng(Mix(seed, round, 11));
  const auto prompt = Spread(kDecodeRequests, 16, 64, &rng);
  const auto out = Spread(kDecodeRequests, 32, 96, &rng);
  const auto t = PoissonTimes(kDecodeRequests, kDecodeRate, round);
  std::vector<Request> reqs;
  for (int64_t i = 0; i < kDecodeRequests; ++i) {
    Request r;
    r.prompt = Tokens(prompt[static_cast<size_t>(i)], w.model.vocab, &rng);
    r.max_new = out[static_cast<size_t>(i)];
    r.arrival_s = t[static_cast<size_t>(i)];
    reqs.push_back(std::move(r));
  }
  return reqs;
}

// --- shared_prefix ----------------------------------------------------------
constexpr int64_t kSharedRequests = 32;
constexpr int64_t kSystemPrompts = 3;
constexpr int64_t kSystemPromptTokens = 512;
constexpr double kSharedRate = 8.0;

std::vector<Request> SharedPrefix(const Workload& w, uint64_t seed, int64_t round) {
  // The system prompts are the same in every round of a run.
  Rng sys_rng(Mix(seed, 0, 21));
  std::vector<std::vector<int32_t>> system;
  for (int64_t s = 0; s < kSystemPrompts; ++s) {
    system.push_back(Tokens(kSystemPromptTokens, w.model.vocab, &sys_rng));
  }
  Rng rng(Mix(seed, round, 22));
  const auto tail = Spread(kSharedRequests, 4, 16, &rng);
  const auto out = Spread(kSharedRequests, 8, 16, &rng);
  const auto t = PoissonTimes(kSharedRequests, kSharedRate, round);
  std::vector<Request> reqs;
  for (int64_t i = 0; i < kSharedRequests; ++i) {
    Request r;
    r.prompt = system[static_cast<size_t>(i % kSystemPrompts)];
    const auto unique = Tokens(tail[static_cast<size_t>(i)], w.model.vocab, &rng);
    r.prompt.insert(r.prompt.end(), unique.begin(), unique.end());
    r.max_new = out[static_cast<size_t>(i)];
    r.arrival_s = t[static_cast<size_t>(i)];
    reqs.push_back(std::move(r));
  }
  return reqs;
}

// --- bursty_tp2 -------------------------------------------------------------
constexpr int64_t kBursts = 6;
constexpr int64_t kBurstSize = 6;
constexpr double kBurstRate = 2.0;        // bursts per virtual second
constexpr double kBurstSpacingS = 0.0005;  // between requests of one burst
constexpr double kCancelFrac = 0.1;
constexpr double kCancelAfterS = 0.3;  // virtual, after arrival: mid-stream

// Deals ranks 0..n-1 into kBursts bursts of kBurstSize so that every burst
// gets one rank from each kBurstSize-quantile stratum: all bursts are alike
// in mix, and the seed decides which member of each stratum goes where.
std::vector<int64_t> DealIntoBursts(Rng* rng) {
  std::vector<int64_t> out(static_cast<size_t>(kBursts * kBurstSize));
  for (int64_t k = 0; k < kBurstSize; ++k) {
    std::vector<int64_t> stratum(static_cast<size_t>(kBursts));
    std::iota(stratum.begin(), stratum.end(), k * kBursts);
    Shuffle(&stratum, rng);
    for (int64_t b = 0; b < kBursts; ++b) {
      out[static_cast<size_t>(b * kBurstSize + k)] = stratum[static_cast<size_t>(b)];
    }
  }
  for (int64_t b = 0; b < kBursts; ++b) {
    std::vector<int64_t> burst(out.begin() + b * kBurstSize,
                               out.begin() + (b + 1) * kBurstSize);
    Shuffle(&burst, rng);
    std::copy(burst.begin(), burst.end(), out.begin() + b * kBurstSize);
  }
  return out;
}

std::vector<Request> BurstyTp2(const Workload& w, uint64_t seed, int64_t round) {
  const int64_t n = kBursts * kBurstSize;
  Rng rng(Mix(seed, round, 31));
  // Heavy-tailed prompts and outputs, paired long prompt with short output
  // and the reverse, so no request's KV footprint is both: with prompt and
  // output lengths paired at random, whether one request held half the pool
  // depended on the seed, and queueing percentiles swung by 30%.
  std::vector<int64_t> prompt = LogSpread(n, 8, 384, &rng);
  std::vector<int64_t> out = LogSpread(n, 1, 128, &rng);
  std::sort(prompt.begin(), prompt.end());
  std::sort(out.begin(), out.end());
  const std::vector<int64_t> rank = DealIntoBursts(&rng);
  const int64_t cancels = std::llround(kCancelFrac * static_cast<double>(n));
  const auto burst_t = PoissonTimes(kBursts, kBurstRate, round);
  std::vector<Request> reqs;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t k = rank[static_cast<size_t>(i)];
    Request r;
    r.prompt = Tokens(prompt[static_cast<size_t>(k)], w.model.vocab, &rng);
    r.max_new = out[static_cast<size_t>(n - 1 - k)];
    r.arrival_s = burst_t[static_cast<size_t>(i / kBurstSize)] +
                  static_cast<double>(i % kBurstSize) * kBurstSpacingS;
    reqs.push_back(std::move(r));
  }
  // The client cancels one request from each of `cancels` strata of length
  // rank, so every round frees about the same KV: with cancels drawn at
  // random, whether they hit long-lived requests depended on the seed and
  // moved the queueing percentiles.
  std::vector<int64_t> by_rank(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    by_rank[static_cast<size_t>(rank[static_cast<size_t>(i)])] = i;
  }
  for (int64_t c = 0; c < cancels; ++c) {
    const int64_t lo = c * n / cancels;
    const int64_t hi = (c + 1) * n / cancels;
    const int64_t k = lo + static_cast<int64_t>(rng.Below(static_cast<uint64_t>(hi - lo)));
    Request& r = reqs[static_cast<size_t>(by_rank[static_cast<size_t>(k)])];
    r.cancel_at_s = r.arrival_s + kCancelAfterS;
  }
  return reqs;
}

// --- disagg -----------------------------------------------------------------
constexpr int64_t kDisaggRequests = 32;
constexpr double kDisaggRate = 8.0;

std::vector<Request> Disagg(const Workload& w, uint64_t seed, int64_t round) {
  Rng rng(Mix(seed, round, 41));
  const auto prompt = Spread(kDisaggRequests, 64, 256, &rng);
  const auto out = Spread(kDisaggRequests, 8, 32, &rng);
  const auto t = PoissonTimes(kDisaggRequests, kDisaggRate, round);
  std::vector<Request> reqs;
  for (int64_t i = 0; i < kDisaggRequests; ++i) {
    Request r;
    r.prompt = Tokens(prompt[static_cast<size_t>(i)], w.model.vocab, &rng);
    r.max_new = out[static_cast<size_t>(i)];
    r.arrival_s = t[static_cast<size_t>(i)];
    reqs.push_back(std::move(r));
  }
  return reqs;
}

std::vector<Workload> AllWorkloads() {
  std::vector<Workload> all;
  {
    Workload w;
    w.name = "decode_heavy";
    w.model.vocab = 256;
    w.model.hidden = 512;
    w.model.layers = 4;
    w.model.heads = 8;
    w.model.ffn = 2048;
    w.model.max_seq = 192;
    w.model_seed = 101;
    w.engine.max_batch = 8;
    w.engine.kv_block_tokens = 16;
    w.engine.kv_num_blocks = 128;  // ample: admission is never KV-bound
    w.engine.cost = Opt13bOnRtx4090();
    w.oracle_samples = 1;
    w.nominal_round_s = 10.5;
    all.push_back(w);
  }
  {
    Workload w;
    w.name = "shared_prefix";
    w.model = SmallModel(640);
    w.model_seed = 202;
    w.engine.max_batch = 8;
    w.engine.kv_block_tokens = 16;
    w.engine.kv_num_blocks = 512;
    w.engine.enable_prefix_cache = true;
    w.engine.prefill_chunk_tokens = 128;
    w.engine.cost = Opt13bOnRtx4090();
    w.oracle_samples = 1;
    w.nominal_round_s = 4.0;
    all.push_back(w);
  }
  {
    Workload w;
    w.name = "bursty_tp2";
    w.model = SmallModel(512);
    w.model_seed = 303;
    w.engine.max_batch = 8;
    w.engine.kv_block_tokens = 16;
    w.engine.kv_num_blocks = 48;  // tight: growth-reserve admission queues
    w.engine.eos_token = 76;  // ends about one stream in six early
    w.engine.prefill_chunk_tokens = 64;
    w.engine.cost = Opt13bOnRtx4090();
    w.engine.obs.request_timeline = true;
    w.engine.obs.flight_recorder_iters = 64;
    w.engine.obs.slo_tracker = true;
    w.shards = 2;
    w.oracle_samples = 1;
    w.nominal_round_s = 3.0;
    all.push_back(w);
  }
  {
    Workload w;
    w.name = "disagg";
    w.model = SmallModel(320);
    w.model_seed = 404;
    w.engine.max_batch = 8;
    w.engine.kv_block_tokens = 16;
    w.engine.kv_num_blocks = 256;
    w.engine.cost = Opt13bOnRtx4090();
    w.disagg = true;
    w.prefill_instances = 2;
    w.decode_instances = 1;
    w.oracle_samples = 2;
    w.nominal_round_s = 2.0;
    all.push_back(w);
  }
  return all;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (const Workload& w : AllWorkloads()) {
      n.push_back(w.name);
    }
    return n;
  }();
  return names;
}

bool FindWorkload(const std::string& name, Workload* out) {
  for (const Workload& w : AllWorkloads()) {
    if (w.name == name) {
      *out = w;
      return true;
    }
  }
  return false;
}

std::vector<Request> MakeTraffic(const Workload& w, uint64_t seed, int64_t round) {
  if (w.name == "decode_heavy") return DecodeHeavy(w, seed, round);
  if (w.name == "shared_prefix") return SharedPrefix(w, seed, round);
  if (w.name == "bursty_tp2") return BurstyTp2(w, seed, round);
  return Disagg(w, seed, round);
}

std::vector<Request> MakeWarmup(const Workload& w, uint64_t seed) {
  std::vector<Request> reqs = MakeTraffic(w, seed ^ 0xa5a5a5a5ULL, 0);
  reqs.resize(std::min<size_t>(reqs.size(), 3));
  for (Request& r : reqs) {
    r.max_new = std::min<int64_t>(r.max_new, 4);
    r.cancel_at_s = -1.0;
  }
  return reqs;
}

spinfer::DisaggClusterConfig DisaggConfigFor(const Workload& w) {
  spinfer::DisaggClusterConfig c;
  c.prefill_instances = w.prefill_instances;
  c.decode_instances = w.decode_instances;
  c.max_decode_batch = w.engine.max_batch;
  c.kv_block_tokens = w.engine.kv_block_tokens;
  c.kv_num_blocks = w.engine.kv_num_blocks;
  c.backend = w.engine.backend;
  c.prefill_cost = w.engine.cost;
  c.decode_cost = w.engine.cost;
  return c;
}

}  // namespace servebench
