#include "servebench/probes.h"

#include <algorithm>
#include <vector>

#include "src/core/cpu_backend.h"
#include "src/core/cpu_spmv.h"
#include "src/format/tca_bme.h"
#include "src/llm/kv_allocator.h"
#include "src/llm/paged_attention.h"
#include "src/numeric/matrix.h"
#include "src/util/check.h"
#include "src/util/random.h"
#include "src/util/thread_pool.h"

namespace servebench {

using spinfer::FloatMatrix;
using spinfer::TcaBmeMatrix;

namespace {

// Repeats `call` until it has run at least kMinReps times and kMinNs of
// wall time, and returns the median call time in microseconds.
constexpr int64_t kMinReps = 5;
constexpr uint64_t kMinNs = 200'000'000;
constexpr int64_t kMaxReps = 2000;

template <typename F>
ProbeResult TimeMedian(F&& call, SpanLog* log, const char* name) {
  call();  // warm: scratch growth, page faults
  std::vector<double> us;
  const uint64_t begin = NowNs();
  while (static_cast<int64_t>(us.size()) < kMaxReps &&
         (static_cast<int64_t>(us.size()) < kMinReps || NowNs() - begin < kMinNs)) {
    ScopedSpan span(log, name, "probe");
    const uint64_t t0 = NowNs();
    call();
    us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
  std::sort(us.begin(), us.end());
  ProbeResult r;
  r.us = us[us.size() / 2];
  r.reps = static_cast<int64_t>(us.size());
  return r;
}

FloatMatrix RandomPanel(int64_t rows, int64_t cols, uint64_t seed) {
  spinfer::Rng rng(seed);
  FloatMatrix m(rows, cols);
  for (int64_t i = 0; i < rows * cols; ++i) {
    m.data()[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }
  return m;
}

}  // namespace

double MeasureReadGbs() {
  constexpr int64_t kFloats = int64_t{1} << 24;  // 64 MiB
  constexpr int64_t kChunks = 256;
  std::vector<float> buf(static_cast<size_t>(kFloats));
  for (int64_t i = 0; i < kFloats; ++i) {
    buf[static_cast<size_t>(i)] = static_cast<float>(i & 7);
  }
  std::vector<float> partial(kChunks);
  double best = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const uint64_t t0 = NowNs();
    spinfer::ParallelFor(0, kChunks, [&](int64_t c) {
      const float* p = buf.data() + c * (kFloats / kChunks);
      float s0 = 0.f, s1 = 0.f, s2 = 0.f, s3 = 0.f, s4 = 0.f, s5 = 0.f, s6 = 0.f,
            s7 = 0.f;
      for (int64_t i = 0; i < kFloats / kChunks; i += 8) {
        s0 += p[i];
        s1 += p[i + 1];
        s2 += p[i + 2];
        s3 += p[i + 3];
        s4 += p[i + 4];
        s5 += p[i + 5];
        s6 += p[i + 6];
        s7 += p[i + 7];
      }
      partial[static_cast<size_t>(c)] = s0 + s1 + s2 + s3 + s4 + s5 + s6 + s7;
    });
    const double s = static_cast<double>(NowNs() - t0) / 1e9;
    best = std::max(best, static_cast<double>(kFloats) * sizeof(float) / s / 1e9);
  }
  float total = 0.f;
  for (const float p : partial) {
    total += p;
  }
  // The sum is data the compiler cannot see through; using it keeps the
  // loads from being elided.
  if (total < 0.f) {
    best = -best;
  }
  return best;
}

ProbeResult ProbeLayerMatmuls(const spinfer::TinyTransformer& model,
                              int64_t cols, SpanLog* log, const char* name) {
  const spinfer::TinyTransformer::LayerWeights lw = model.layer_weights(0);
  const spinfer::HalfMatrix* dense[] = {lw.wq, lw.wk, lw.wv, lw.wo, lw.fc1, lw.fc2};
  std::vector<TcaBmeMatrix> enc;
  std::vector<FloatMatrix> x, out;
  double bytes = 0.0;
  uint64_t seed = 1;
  for (const spinfer::HalfMatrix* w : dense) {
    enc.push_back(TcaBmeMatrix::Encode(*w, spinfer::TinyTransformer::EncodeFormat()));
    x.push_back(RandomPanel(w->cols(), cols, seed++));
    out.emplace_back(w->rows(), cols);
    bytes += static_cast<double>(enc.back().StorageBytes()) +
             static_cast<double>((w->cols() + w->rows()) * cols) * sizeof(float);
  }
  spinfer::SpmmWorkspace ws;
  ProbeResult r = TimeMedian(
      [&] {
        for (size_t i = 0; i < enc.size(); ++i) {
          if (cols == 1) {
            spinfer::CpuSpmvQuantInto(enc[i], x[i], &ws, &out[i]);
          } else {
            spinfer::CpuSpmmQuantInto(enc[i], x[i], &ws, &out[i]);
          }
        }
      },
      log, name);
  r.bytes = bytes;
  return r;
}

ProbeResult ProbeAttention(const spinfer::TinyTransformer& model, int64_t batch,
                           int64_t context, SpanLog* log) {
  const spinfer::TinyConfig& cfg = model.config();
  constexpr int64_t kBlockTokens = 16;
  const int64_t blocks_per_seq = (context + kBlockTokens - 1) / kBlockTokens;
  spinfer::PagedKvCache cache(
      model.KvCacheConfig(kBlockTokens, batch * blocks_per_seq));
  spinfer::Rng rng(7);
  std::vector<spinfer::PagedAttentionItem> items;
  for (int64_t s = 0; s < batch; ++s) {
    SPINFER_CHECK(cache.AddSequence(s, context));
    for (int64_t t = 0; t < context; ++t) {
      float* k = cache.KRow(0, s, t);
      float* v = cache.VRow(0, s, t);
      for (int64_t d = 0; d < cfg.kv_dim(); ++d) {
        k[d] = static_cast<float>(rng.Uniform(-1.0, 1.0));
        v[d] = static_cast<float>(rng.Uniform(-1.0, 1.0));
      }
    }
    spinfer::PagedAttentionItem item;
    item.seq_id = s;
    item.col = s;
    items.push_back(item);
  }
  const FloatMatrix q = RandomPanel(cfg.hidden, batch, 9);
  FloatMatrix out(cfg.hidden, batch);
  spinfer::PagedAttentionScratch scratch;
  ProbeResult r = TimeMedian(
      [&] {
        spinfer::PagedAttentionDecodeBatch(cache, 0, cfg.heads, cfg.kv_head_count(),
                                           q, items, &out, &scratch);
      },
      log, "probe.attn");
  r.bytes = 2.0 * static_cast<double>(batch * context * cfg.kv_dim()) * sizeof(float);
  return r;
}

}  // namespace servebench
