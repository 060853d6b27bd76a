// Bench-side span recording for the serving benchmark.
//
// Spans are taken only around the benchmark's own calls into the library
// (setup phases, ServingEngine::Run, each ServingSubstrate call, the kernel
// and attention probes), all on the calling thread and all on one clock
// (steady_clock). Virtual times never become timestamps; they travel as
// span arguments. Spans live in memory and are written out as Chrome
// trace-event JSON when the run ends.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace servebench {

// Monotonic wall clock, nanoseconds.
uint64_t NowNs();

struct Span {
  std::string name;   // e.g. "bench.run", "step", "kv.add"
  std::string layer;  // attribution bucket the span's self time goes to
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  std::vector<std::pair<std::string, int64_t>> args;
  std::string detail;  // free text (e.g. request ids), written as an arg
};

// Self time of one root span split by layer. A span's self time is its
// duration minus the part its children cover. The root's own self time goes
// to its layer while it lies between its first child's start and its last
// child's end; the rest of it (before the first and after the last child) is
// `unattributed`. So the layers plus `unattributed_ms` always sum to
// `root_ms`.
struct Attribution {
  double root_ms = 0.0;
  double unattributed_ms = 0.0;
  std::map<std::string, double> self_ms;  // by layer

  double SumMs() const;
};

class SpanLog {
 public:
  void Add(Span span) { spans_.push_back(std::move(span)); }
  const std::vector<Span>& spans() const { return spans_; }

  // Attribution of every span nested (by time containment) in the span at
  // `root`. Spans must be properly nested, as single-threaded RAII-style
  // recording makes them.
  Attribution Attribute(size_t root) const;

  // Chrome trace-event JSON ("X" events, microsecond timestamps relative to
  // the first span). Returns false when the file cannot be written.
  bool WriteChrome(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

// Records a span from construction to destruction when `log` is non-null.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, std::string layer);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Arg(std::string key, int64_t value);

 private:
  SpanLog* log_;
  Span span_;
};

}  // namespace servebench
