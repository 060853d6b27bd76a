#include "servebench/span_log.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>

namespace servebench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Attribution::SumMs() const {
  double sum = unattributed_ms;
  for (const auto& [layer, ms] : self_ms) {
    sum += ms;
  }
  return sum;
}

Attribution SpanLog::Attribute(size_t root) const {
  const Span& r = spans_.at(root);
  std::vector<size_t> inside;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i != root && s.start_ns >= r.start_ns && s.end_ns <= r.end_ns) {
      inside.push_back(i);
    }
  }
  // Outer spans first: earlier start, then longer; on an exact tie the
  // later-recorded span is the outer one (a scope closes after its children).
  std::sort(inside.begin(), inside.end(), [&](size_t a, size_t b) {
    const Span& x = spans_[a];
    const Span& y = spans_[b];
    if (x.start_ns != y.start_ns) return x.start_ns < y.start_ns;
    if (x.end_ns != y.end_ns) return x.end_ns > y.end_ns;
    return a > b;
  });

  // Self time in integer nanoseconds so the parts sum exactly.
  std::map<size_t, int64_t> self;
  self[root] = static_cast<int64_t>(r.end_ns - r.start_ns);
  std::vector<size_t> open;
  uint64_t first_child = r.end_ns;
  uint64_t last_child = r.start_ns;
  for (const size_t i : inside) {
    const Span& s = spans_[i];
    while (!open.empty() && spans_[open.back()].end_ns <= s.start_ns) {
      open.pop_back();
    }
    const size_t parent = open.empty() ? root : open.back();
    const int64_t dur = static_cast<int64_t>(s.end_ns - s.start_ns);
    self[i] = dur;
    self[parent] -= dur;
    if (parent == root) {
      first_child = std::min(first_child, s.start_ns);
      last_child = std::max(last_child, s.end_ns);
    }
    open.push_back(i);
  }

  Attribution out;
  int64_t unattributed = 0;
  if (first_child <= last_child) {
    unattributed = static_cast<int64_t>(first_child - r.start_ns) +
                   static_cast<int64_t>(r.end_ns - last_child);
  }
  std::map<std::string, int64_t> by_layer;
  for (const auto& [i, ns] : self) {
    by_layer[spans_[i].layer] += i == root ? ns - unattributed : ns;
  }
  for (const auto& [layer, ns] : by_layer) {
    out.self_ms[layer] = static_cast<double>(ns) / 1e6;
  }
  out.unattributed_ms = static_cast<double>(unattributed) / 1e6;
  out.root_ms = static_cast<double>(r.end_ns - r.start_ns) / 1e6;
  return out;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

bool SpanLog::WriteChrome(const std::string& path) const {
  std::ofstream f(path);
  if (!f) {
    return false;
  }
  uint64_t base = UINT64_MAX;
  for (const Span& s : spans_) {
    base = std::min(base, s.start_ns);
  }
  f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  f << "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
       "\"args\":{\"name\":\"servebench (wall clock)\"}}";
  for (const Span& s : spans_) {
    char ts[64];
    std::snprintf(ts, sizeof(ts), "%.3f,\"dur\":%.3f",
                  static_cast<double>(s.start_ns - base) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    f << ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"" << JsonEscape(s.name)
      << "\",\"cat\":\"" << JsonEscape(s.layer) << "\",\"ts\":" << ts
      << ",\"args\":{";
    bool first = true;
    for (const auto& [key, value] : s.args) {
      f << (first ? "" : ",") << '"' << JsonEscape(key) << "\":" << value;
      first = false;
    }
    if (!s.detail.empty()) {
      f << (first ? "" : ",") << "\"detail\":\"" << JsonEscape(s.detail) << '"';
    }
    f << "}}";
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

ScopedSpan::ScopedSpan(SpanLog* log, std::string name, std::string layer)
    : log_(log) {
  if (log_ != nullptr) {
    span_.name = std::move(name);
    span_.layer = std::move(layer);
    span_.start_ns = NowNs();
  }
}

ScopedSpan::~ScopedSpan() {
  if (log_ != nullptr) {
    span_.end_ns = NowNs();
    log_->Add(std::move(span_));
  }
}

void ScopedSpan::Arg(std::string key, int64_t value) {
  if (log_ != nullptr) {
    span_.args.emplace_back(std::move(key), value);
  }
}

}  // namespace servebench
