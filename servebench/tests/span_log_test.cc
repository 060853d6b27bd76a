// Checks that the traced run's layer self times plus `unattributed` equal
// the bench.run wall time: on hand-built spans with known answers, and on a
// real traced Run() through the timing decorator.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "servebench/span_log.h"
#include "servebench/timed_substrate.h"
#include "src/gpusim/device_spec.h"
#include "src/llm/model_config.h"
#include "src/llm/serving_engine.h"
#include "src/pruning/magnitude.h"

namespace servebench {
namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++g_failures;
  }
}

bool Near(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

Span At(const char* name, const char* layer, uint64_t start_ms, uint64_t end_ms) {
  Span s;
  s.name = name;
  s.layer = layer;
  s.start_ns = start_ms * 1'000'000;
  s.end_ns = end_ms * 1'000'000;
  return s;
}

void HandBuiltSpans() {
  // Recorded in closing order, as scoped spans are: children first.
  SpanLog log;
  log.Add(At("step", "step", 10, 20));
  log.Add(At("kv.add", "kv", 25, 30));
  log.Add(At("kv.index", "kv", 50, 60));
  log.Add(At("step", "step", 40, 90));
  log.Add(At("bench.run", "sched", 0, 100));
  log.Add(At("probe", "probe", 120, 130));  // outside the root: ignored
  const Attribution a = log.Attribute(4);
  Expect(Near(a.root_ms, 100.0), "root wall");
  Expect(Near(a.self_ms.at("step"), 10.0 + 40.0), "step self time excludes nested kv");
  Expect(Near(a.self_ms.at("kv"), 5.0 + 10.0), "kv self time");
  Expect(Near(a.unattributed_ms, 10.0 + 10.0), "root time before first/after last child");
  Expect(Near(a.self_ms.at("sched"), 15.0), "root time between children");
  Expect(a.self_ms.count("probe") == 0, "spans outside the root are not attributed");
  Expect(Near(a.SumMs(), a.root_ms), "hand-built parts sum to the root");

  SpanLog alone;
  alone.Add(At("bench.run", "disagg", 5, 25));
  const Attribution b = alone.Attribute(0);
  Expect(Near(b.self_ms.at("disagg"), 20.0) && b.unattributed_ms == 0.0,
         "a root without children is all its own layer");
}

void RealTracedRun() {
  spinfer::TinyConfig cfg;
  cfg.vocab = 64;
  cfg.hidden = 64;
  cfg.layers = 2;
  cfg.heads = 4;
  cfg.ffn = 128;
  cfg.max_seq = 96;
  spinfer::TinyTransformer model(cfg, 5);
  model.PruneWeights(spinfer::MagnitudePruner(), 0.6);
  spinfer::SingleInstanceSubstrate inner(&model, 16, 64);

  SpanLog log;
  TimedSubstrate timed(&inner, "step", &log);
  spinfer::ServingEngineConfig ecfg;
  ecfg.max_batch = 4;
  ecfg.enable_prefix_cache = true;
  ecfg.prefill_chunk_tokens = 16;
  ecfg.cost.model = spinfer::Opt13B();
  ecfg.cost.device = spinfer::Rtx4090();
  spinfer::ServingEngine engine(&timed, ecfg);
  std::vector<int32_t> shared(40);
  for (size_t i = 0; i < shared.size(); ++i) {
    shared[i] = static_cast<int32_t>((i * 7) % 64);
  }
  for (int r = 0; r < 6; ++r) {
    std::vector<int32_t> p = shared;
    p.push_back(r);
    engine.Submit(p, 4 + r, 0.01 * r);
  }
  {
    ScopedSpan span(&log, "bench.run", "sched");
    engine.Run();
  }
  const Attribution a = log.Attribute(log.spans().size() - 1);
  Expect(a.root_ms > 0.0, "traced run has wall time");
  Expect(a.self_ms.count("step") == 1 && a.self_ms.at("step") > 0.0, "step layer seen");
  Expect(a.self_ms.count("kv") == 1 && a.self_ms.at("kv") > 0.0, "kv layer seen");
  Expect(Near(a.SumMs(), a.root_ms),
         "traced layer self times + unattributed == bench.run");

  for (size_t i = 0; i < engine.results().size(); ++i) {
    Expect(timed.token_ns()[i].size() == engine.results()[i].generated.size(),
           "decorator saw every token of request " + std::to_string(i));
  }
}

}  // namespace
}  // namespace servebench

int main() {
  servebench::HandBuiltSpans();
  servebench::RealTracedRun();
  if (servebench::g_failures == 0) {
    std::printf("span_log_test: all checks passed\n");
  }
  return servebench::g_failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
