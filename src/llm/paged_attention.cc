// Portable half of the batched paged-attention kernel: the batch driver
// (validation, per-item page-table resolution, scratch growth, ThreadPool
// fan-out, SIMD dispatch, tracing) plus the scalar block kernels shared
// through paged_attention_inner.h, and the retained scalar reference.
//
// Compiled with -ffp-contract=off (see src/llm/CMakeLists.txt): every
// multiply and add must round separately so results are bit-identical to the
// AVX2 unit and to the pre-fusion per-element loop.
#include "src/llm/paged_attention.h"

#include <algorithm>
#include <cmath>

#include "src/llm/paged_attention_inner.h"
#include "src/obs/trace.h"
#include "src/util/check.h"
#include "src/util/cpu_features.h"
#include "src/util/thread_pool.h"

namespace spinfer {
namespace {

using paged_attention_detail::AttnPhaseRecorder;
using paged_attention_detail::PvBlockFn;
using paged_attention_detail::QkBlockFn;

// AlignedBuffer::Reserve allocates exactly what is asked, so a decode loop
// whose context grows one token per step would reallocate `scores` every
// step. Growing geometrically keeps the serving loop's allocation count
// O(log max_context) instead of O(steps).
void ReserveGeometric(AlignedBuffer<float>* buf, size_t count) {
  if (count > buf->capacity()) {
    buf->Reserve(std::max(count, 2 * buf->capacity()));
  }
}

// Per-work-item scratch slices are padded to whole cache lines so
// concurrently running tasks never share a line (speed only — each task's
// writes are private either way).
int64_t RoundUpLine(int64_t floats) { return (floats + 15) & ~int64_t{15}; }

void BatchImpl(const PagedKvCache& cache, int64_t layer, int64_t heads,
               int64_t kv_heads, const FloatMatrix& q,
               const std::vector<PagedAttentionItem>& items, FloatMatrix* out,
               PagedAttentionScratch* scratch, CpuSpmmVariant variant) {
  const int64_t kv_dim = cache.config().kv_dim;
  SPINFER_CHECK(heads > 0 && kv_heads > 0);
  SPINFER_CHECK_MSG(heads % kv_heads == 0,
                    "GQA requires kv_heads to divide heads");
  SPINFER_CHECK(kv_dim % kv_heads == 0);
  const int64_t hd = kv_dim / kv_heads;
  const int64_t q_rows = heads * hd;
  SPINFER_CHECK_EQ(q.rows(), q_rows);
  SPINFER_CHECK_EQ(out->rows(), q_rows);
  const int64_t ni = static_cast<int64_t>(items.size());
  if (ni == 0) {
    return;
  }

  // Resolve every item's horizon and page table once, up front: the block
  // lists stay valid for the whole call (the cache is const), and the hot
  // loop indexes them directly.
  scratch->contexts.resize(static_cast<size_t>(ni));
  scratch->block_lists.resize(static_cast<size_t>(ni));
  int64_t max_ctx = 0;
  for (int64_t i = 0; i < ni; ++i) {
    const PagedAttentionItem& it = items[static_cast<size_t>(i)];
    SPINFER_CHECK(it.col >= 0 && it.col < q.cols());
    SPINFER_CHECK_EQ(out->cols(), q.cols());
    const int64_t ctx =
        it.context < 0 ? cache.SequenceTokens(it.seq_id) : it.context;
    SPINFER_CHECK_MSG(ctx > 0,
                      "sequence " << it.seq_id << " has no cached tokens");
    SPINFER_CHECK(ctx <= cache.SequenceTokens(it.seq_id));
    const std::vector<int32_t>* blocks = cache.SequenceBlockList(it.seq_id);
    SPINFER_CHECK(blocks != nullptr);
    scratch->contexts[static_cast<size_t>(i)] = ctx;
    scratch->block_lists[static_cast<size_t>(i)] = blocks;
    max_ctx = std::max(max_ctx, ctx);
  }

  const int64_t n_work = ni * heads;
  const int64_t hd_stride = RoundUpLine(hd);
  const int64_t ctx_stride = RoundUpLine(max_ctx);
  ReserveGeometric(&scratch->q, static_cast<size_t>(n_work * hd_stride));
  ReserveGeometric(&scratch->acc, static_cast<size_t>(n_work * hd_stride));
  ReserveGeometric(&scratch->scores, static_cast<size_t>(n_work * ctx_stride));
  float* q_base = scratch->q.data();
  float* acc_base = scratch->acc.data();
  float* scores_base = scratch->scores.data();

  const bool tracing = obs::TracingEnabled();
  obs::TraceScope call_scope("paged_attn");
  if (call_scope.active()) {
    call_scope.AddArg("items", ni);
    call_scope.AddArg("heads", heads);
    call_scope.AddArg("max_ctx", max_ctx);
  }

  const bool avx2 = variant == CpuSpmmVariant::kAvx2;
  const QkBlockFn qk_fn = avx2 ? &paged_attention_detail::QkBlockAvx2
                               : &paged_attention_detail::ScalarQkBlock;
  const PvBlockFn pv_fn = avx2 ? &paged_attention_detail::PvBlockAvx2
                               : &paged_attention_detail::ScalarPvBlock;
  const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(hd));
  const int64_t group = heads / kv_heads;

  // One task per (item, head); each owns rows [h*hd, (h+1)*hd) of its item's
  // output column, so writes are disjoint and bits thread-count-independent.
  // grain=1: tasks are coarse (a whole context sweep) and ragged contexts
  // make them uneven, so finer chunks schedule better than block splits.
  ParallelFor(
      0, n_work,
      [&](int64_t idx) {
        const int64_t i = idx / heads;
        const int64_t h = idx % heads;
        const PagedAttentionItem& it = items[static_cast<size_t>(i)];
        const std::vector<int32_t>& blocks =
            *scratch->block_lists[static_cast<size_t>(i)];
        const int64_t ctx = scratch->contexts[static_cast<size_t>(i)];
        const int64_t r0q = h * hd;
        const int64_t r0k = (h / group) * hd;
        float* qh = q_base + idx * hd_stride;
        float* acc = acc_base + idx * hd_stride;
        float* sc = scores_base + idx * ctx_stride;
        if (!tracing) {
          paged_attention_detail::RunAttentionItem<false>(
              cache, layer, blocks, ctx, q, it.col, r0q, r0k, hd, inv_sqrt_d,
              qk_fn, pv_fn, qh, sc, acc, out);
          return;
        }
        AttnPhaseRecorder rec;
        obs::Tracer& tracer = obs::Tracer::Global();
        const uint64_t task_start = tracer.NowNs();
        paged_attention_detail::RunAttentionItem<true>(
            cache, layer, blocks, ctx, q, it.col, r0q, r0k, hd, inv_sqrt_d,
            qk_fn, pv_fn, qh, sc, acc, out, &rec);
        const uint64_t task_end = tracer.NowNs();
        obs::TraceArg task_args[3] = {{"seq", it.seq_id},
                                      {"head", h},
                                      {"ctx", ctx}};
        tracer.Record("attn.item", task_start, task_end - task_start,
                      task_args, 3);
        // The fused pass is one walk, but the phase split still matters for
        // profiling: synthetic child slices laid end to end, like
        // cpu_spmm.convert/accumulate.
        tracer.Record("attn.qk", task_start, rec.qk_ns);
        tracer.Record("attn.softmax", task_start + rec.qk_ns, rec.softmax_ns);
        tracer.Record("attn.pv", task_start + rec.qk_ns + rec.softmax_ns,
                      rec.pv_ns);
      },
      /*grain=*/1);
}

}  // namespace

namespace paged_attention_detail {
uint64_t AttnPhaseRecorder::Now() const { return obs::Tracer::Global().NowNs(); }
}  // namespace paged_attention_detail

void PagedAttentionDecodeBatch(const PagedKvCache& cache, int64_t layer,
                               int64_t heads, int64_t kv_heads,
                               const FloatMatrix& q,
                               const std::vector<PagedAttentionItem>& items,
                               FloatMatrix* out,
                               PagedAttentionScratch* scratch) {
  BatchImpl(cache, layer, heads, kv_heads, q, items, out, scratch,
            ActivePagedAttentionVariant());
}

void PagedAttentionDecodeBatchVariant(
    const PagedKvCache& cache, int64_t layer, int64_t heads, int64_t kv_heads,
    const FloatMatrix& q, const std::vector<PagedAttentionItem>& items,
    FloatMatrix* out, PagedAttentionScratch* scratch, CpuSpmmVariant v) {
  SPINFER_CHECK_MSG(
      PagedAttentionVariantAvailable(v),
      "requested paged-attention variant is unavailable on this machine");
  BatchImpl(cache, layer, heads, kv_heads, q, items, out, scratch, v);
}

bool PagedAttentionVariantAvailable(CpuSpmmVariant v) {
  if (v == CpuSpmmVariant::kPortable) {
    return true;
  }
  const CpuFeatures& f = GetCpuFeatures();
  return paged_attention_detail::PagedAttentionAvx2Compiled() && f.avx2 &&
         f.fma;
}

CpuSpmmVariant ActivePagedAttentionVariant() {
  static const CpuSpmmVariant v = [] {
    if (ActiveSimdLevel() == SimdLevel::kAvx2 &&
        PagedAttentionVariantAvailable(CpuSpmmVariant::kAvx2)) {
      return CpuSpmmVariant::kAvx2;
    }
    return CpuSpmmVariant::kPortable;
  }();
  return v;
}

void PagedAttentionDecodeReference(const PagedKvCache& cache, int64_t layer,
                                   int64_t seq_id, int64_t heads,
                                   int64_t kv_heads, const FloatMatrix& q,
                                   int64_t col, FloatMatrix* out,
                                   std::vector<float>* scores,
                                   int64_t context) {
  const int64_t kv_dim = cache.config().kv_dim;
  SPINFER_CHECK(heads > 0 && kv_heads > 0);
  SPINFER_CHECK_MSG(heads % kv_heads == 0,
                    "GQA requires kv_heads to divide heads");
  SPINFER_CHECK(kv_dim % kv_heads == 0);
  const int64_t hd = kv_dim / kv_heads;
  SPINFER_CHECK_EQ(q.rows(), heads * hd);
  SPINFER_CHECK_EQ(out->rows(), heads * hd);
  const int64_t ctx = context < 0 ? cache.SequenceTokens(seq_id) : context;
  SPINFER_CHECK_MSG(ctx > 0, "sequence " << seq_id
                                         << " has no cached tokens to attend "
                                            "over (max_score needs ctx > 0)");
  SPINFER_CHECK(ctx <= cache.SequenceTokens(seq_id));
  const std::vector<int32_t>* blocks = cache.SequenceBlockList(seq_id);
  SPINFER_CHECK(blocks != nullptr);
  const int64_t bt = cache.config().block_tokens;
  if (static_cast<int64_t>(scores->size()) < ctx) {
    scores->resize(static_cast<size_t>(ctx));
  }
  const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(hd));
  const int64_t group = heads / kv_heads;
  for (int64_t head = 0; head < heads; ++head) {
    const int64_t r0q = head * hd;
    const int64_t r0k = (head / group) * hd;
    float max_score = -1e30f;
    for (int64_t t = 0; t < ctx; ++t) {
      const float* krow =
          cache.KBlockBase(layer, (*blocks)[static_cast<size_t>(t / bt)]) +
          (t % bt) * kv_dim;
      float dot = 0.0f;
      for (int64_t r = 0; r < hd; ++r) {
        dot += q.at(r0q + r, col) * krow[r0k + r];
      }
      (*scores)[static_cast<size_t>(t)] = dot * inv_sqrt_d;
      max_score = std::max(max_score, (*scores)[static_cast<size_t>(t)]);
    }
    float denom = 0.0f;
    for (int64_t t = 0; t < ctx; ++t) {
      float& s = (*scores)[static_cast<size_t>(t)];
      s = std::exp(s - max_score);
      denom += s;
    }
    // t-outer/r-inner: V rows stream once per head and the block pointer
    // resolves once per token, while every out element keeps its exact
    // ascending-t accumulation chain (the pre-fix r-outer loop formed the
    // same chains at O(hd * ctx) pointer resolutions).
    for (int64_t r = 0; r < hd; ++r) {
      out->at(r0q + r, col) = 0.0f;
    }
    for (int64_t t = 0; t < ctx; ++t) {
      const float* vrow =
          cache.VBlockBase(layer, (*blocks)[static_cast<size_t>(t / bt)]) +
          (t % bt) * kv_dim;
      const float s = (*scores)[static_cast<size_t>(t)];
      for (int64_t r = 0; r < hd; ++r) {
        out->at(r0q + r, col) += s * vrow[r0k + r];
      }
    }
    for (int64_t r = 0; r < hd; ++r) {
      out->at(r0q + r, col) /= denom;
    }
  }
}

}  // namespace spinfer
