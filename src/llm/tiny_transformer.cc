#include "src/llm/tiny_transformer.h"

#include <algorithm>
#include <cmath>

#include "src/core/cpu_backend.h"
#include "src/llm/paged_attention.h"
#include "src/obs/trace.h"
#include "src/util/check.h"
#include "src/util/random.h"

namespace spinfer {
namespace {

using Weight = TinyTransformer::Weight;
using Layer = TinyTransformer::Layer;
using RowBand = TinyTransformer::RowBand;
using StepScratch = TinyTransformer::StepScratch;

// Every weight of a layer, in initialization order, for code that treats all
// six alike.
constexpr Weight Layer::*kLayerWeights[] = {&Layer::wq, &Layer::wk,  &Layer::wv,
                                            &Layer::wo, &Layer::fc1, &Layer::fc2};

// Encoding geometry for the tiny weights: GroupTile = one TCTile keeps the
// padding overhead negligible at hidden sizes of 64.
TcaBmeConfig TinyFormat() {
  TcaBmeConfig cfg;
  cfg.gt_rows = 16;
  cfg.gt_cols = 16;
  return cfg;
}

// Converts a float activation (rows x cols) to FP16 into reusable storage.
void ToHalfInto(const FloatMatrix& f, HalfMatrix* h) {
  h->Reshape(f.rows(), f.cols());
  for (int64_t i = 0; i < f.size(); ++i) {
    h->data()[i] = Half(f.data()[i]);
  }
}

// Copy into reusable storage (grow-only Reshape, so warmed scratch matrices
// stop allocating; plain operator= could reallocate on every call).
void CopyInto(const FloatMatrix& src, FloatMatrix* dst) {
  dst->Reshape(src.rows(), src.cols());
  std::copy(src.data(), src.data() + src.size(), dst->data());
}

// Copies band panel `src` into rows [row0, row0 + src.rows()) of `dst` — the
// zero-arithmetic stand-in for a tensor-parallel all-gather.
void GatherRows(const FloatMatrix& src, int64_t row0, FloatMatrix* dst) {
  std::copy(src.data(), src.data() + src.size(), dst->data() + row0 * dst->cols());
}

// LayerNorm over the hidden dimension. Activations are (hidden x seq):
// normalize each column.
void LayerNormColumns(FloatMatrix* a) {
  const int64_t h = a->rows();
  for (int64_t c = 0; c < a->cols(); ++c) {
    double mean = 0.0;
    for (int64_t r = 0; r < h; ++r) {
      mean += a->at(r, c);
    }
    mean /= static_cast<double>(h);
    double var = 0.0;
    for (int64_t r = 0; r < h; ++r) {
      const double d = a->at(r, c) - mean;
      var += d * d;
    }
    var /= static_cast<double>(h);
    const double inv = 1.0 / std::sqrt(var + 1e-5);
    for (int64_t r = 0; r < h; ++r) {
      a->at(r, c) = static_cast<float>((a->at(r, c) - mean) * inv);
    }
  }
}

float Gelu(float x) {
  // tanh approximation, the variant transformer stacks use.
  const float c = 0.7978845608f;  // sqrt(2/pi)
  return 0.5f * x * (1.0f + std::tanh(c * (x + 0.044715f * x * x * x)));
}

// out = W*X on the selected backend, from FP32 activations: the sparse path
// quantizes to FP16 while filling the SpMM panel (CpuSpmmQuantInto), the
// dense reference path stages an explicit FP16 copy — both see the same FP16
// activation bits. `label` is a static string literal naming the matmul's
// trace span (e.g. "tt.matmul.wq").
void MatmulInto(const Weight& w, const FloatMatrix& x, MatmulBackend backend,
                const char* label, StepScratch* s, FloatMatrix* out) {
  SPINFER_TRACE_SCOPE(label);
  if (backend == MatmulBackend::kDense) {
    ToHalfInto(x, &s->xh);
    *out = ReferenceGemm(w.dense, s->xh);
    return;
  }
  CpuSpmmQuantInto(w.enc, x, &s->ws, out);
}

// out = W*X for weight `w` of `layer`, band by band: each band's rows land in
// its own `panel` and are row-gathered into `out` (bands are equal slices in
// order). A single band writes `out` directly.
void BandMatmul(std::span<const RowBand> bands, int64_t layer, Weight Layer::*w,
                FloatMatrix StepScratch::BandPanels::*panel, const FloatMatrix& x,
                MatmulBackend backend, const char* label, StepScratch* s,
                FloatMatrix* out) {
  auto weight = [&](size_t b) -> const Weight& {
    return (*bands[b].layers)[static_cast<size_t>(layer)].*w;
  };
  if (bands.size() == 1) {
    MatmulInto(weight(0), x, backend, label, s, out);
    return;
  }
  const int64_t rows = weight(0).dense.rows();
  out->Reshape(rows * static_cast<int64_t>(bands.size()), x.cols());
  for (size_t b = 0; b < bands.size(); ++b) {
    FloatMatrix& part = s->bands[b].*panel;
    MatmulInto(weight(b), x, backend, label, s, &part);
    GatherRows(part, static_cast<int64_t>(b) * rows, out);
  }
}

}  // namespace

bool TinyConfig::InVocab(const std::vector<int32_t>& tokens) const {
  return std::all_of(tokens.begin(), tokens.end(),
                     [this](int32_t t) { return t >= 0 && t < vocab; });
}

int32_t GreedyToken(const FloatMatrix& logits, int64_t row) {
  int32_t best = 0;
  float best_score = logits.at(row, 0);
  for (int64_t vtok = 1; vtok < logits.cols(); ++vtok) {
    if (logits.at(row, vtok) > best_score) {
      best_score = logits.at(row, vtok);
      best = static_cast<int32_t>(vtok);
    }
  }
  return best;
}

TinyTransformer::TinyTransformer(const TinyConfig& config, uint64_t seed)
    : config_(config) {
  SPINFER_CHECK(config.hidden % config.heads == 0);
  SPINFER_CHECK(config.heads % config.kv_head_count() == 0);
  Rng rng(seed);
  const float scale = 1.0f / std::sqrt(static_cast<float>(config.hidden));
  embedding_ = HalfMatrix::Random(config.vocab, config.hidden, rng, scale);
  layers_.resize(static_cast<size_t>(config.layers));
  for (Layer& l : layers_) {
    l.wq.dense = HalfMatrix::Random(config.hidden, config.hidden, rng, scale);
    l.wk.dense = HalfMatrix::Random(config.kv_dim(), config.hidden, rng, scale);
    l.wv.dense = HalfMatrix::Random(config.kv_dim(), config.hidden, rng, scale);
    l.wo.dense = HalfMatrix::Random(config.hidden, config.hidden, rng, scale);
    l.fc1.dense = HalfMatrix::Random(config.ffn, config.hidden, rng, scale);
    l.fc2.dense = HalfMatrix::Random(config.hidden, config.ffn, rng,
                                     1.0f / std::sqrt(static_cast<float>(config.ffn)));
  }
  EncodeAll();
}

void TinyTransformer::EncodeAll() {
  const TcaBmeConfig fmt = TinyFormat();
  for (Layer& l : layers_) {
    for (Weight Layer::*w : kLayerWeights) {
      (l.*w).enc = TcaBmeMatrix::Encode((l.*w).dense, fmt);
    }
  }
}

void TinyTransformer::PruneWeights(const Pruner& pruner, double sparsity) {
  for (Layer& l : layers_) {
    for (Weight Layer::*w : kLayerWeights) {
      (l.*w).dense = pruner.Prune((l.*w).dense, sparsity);
    }
  }
  EncodeAll();
}

std::vector<TinyTransformer::Layer> TinyTransformer::RowBandLayers(
    int64_t band, int64_t bands) const {
  SPINFER_CHECK(bands >= 1 && band >= 0 && band < bands);
  // Head-aligned cuts: each band owns whole query heads, and whole kv groups
  // so no query head reads another band's kv rows.
  SPINFER_CHECK_MSG(config_.heads % bands == 0, "heads must divide by band count");
  SPINFER_CHECK_MSG(config_.kv_head_count() % bands == 0,
                    "kv heads must divide by band count");
  const TcaBmeConfig fmt = TinyFormat();
  std::vector<Layer> out(layers_.size());
  for (size_t i = 0; i < layers_.size(); ++i) {
    for (Weight Layer::*w : kLayerWeights) {
      const HalfMatrix& full = (layers_[i].*w).dense;
      const int64_t rows = full.rows() / bands;
      // GroupTile-aligned cuts: slices encoded with the model's own geometry
      // traverse the same tiles as the whole-matrix encode.
      SPINFER_CHECK_MSG(full.rows() % bands == 0 && rows % fmt.gt_rows == 0,
                        "row band must be a GroupTile-row multiple");
      Weight& slice = out[i].*w;
      slice.dense = HalfMatrix(rows, full.cols());
      const Half* src = full.data() + band * rows * full.cols();
      std::copy(src, src + rows * full.cols(), slice.dense.data());
      slice.enc = TcaBmeMatrix::Encode(slice.dense, fmt);
    }
  }
  return out;
}

int64_t TinyTransformer::MatmulScratchGrowCount() const {
  return scratch_.ws.grow_count() + scratch_.attn.grow_count();
}

uint64_t TinyTransformer::MatmulScratchCapacityBytes() const {
  const StepScratch& s = scratch_;
  uint64_t bytes = s.ws.capacity_bytes() + s.xh.capacity() * sizeof(Half) +
                   s.scores.capacity() * sizeof(float) + s.attn.capacity_bytes() +
                   s.attn_items.capacity() * sizeof(PagedAttentionItem);
  std::vector<const FloatMatrix*> panels = {&s.act,    &s.normed,     &s.attn_out,
                                            &s.proj,   &s.ffn_in,     &s.hidden_act,
                                            &s.ffn_out, &s.logits};
  for (const StepScratch::BandPanels& p : s.bands) {
    panels.insert(panels.end(), {&p.q, &p.kk, &p.v, &p.attn_out, &p.proj,
                                 &p.hidden_act, &p.ffn_out});
  }
  for (const FloatMatrix* m : panels) {
    bytes += m->capacity() * sizeof(float);
  }
  return bytes;
}

void TinyTransformer::EmbedInto(int32_t token, int64_t pos, int64_t col,
                                FloatMatrix* act) const {
  SPINFER_CHECK(token >= 0 && token < config_.vocab);
  const int64_t h = config_.hidden;
  // Embedding + a fixed sinusoidal positional signal. `pos` is the token's
  // absolute position, so a decode step embeds exactly the bits a
  // full-sequence Forward would give that position.
  for (int64_t r = 0; r < h; ++r) {
    const double p = static_cast<double>(pos) /
                     std::pow(10000.0, static_cast<double>(2 * (r / 2)) / h);
    act->at(r, col) = embedding_.at(token, r).ToFloat() +
                      0.1f * static_cast<float>((r % 2 == 0) ? std::sin(p)
                                                             : std::cos(p));
  }
}

TinyTransformer::LayerWeights TinyTransformer::layer_weights(int64_t layer) const {
  const Layer& l = layers_[static_cast<size_t>(layer)];
  return LayerWeights{&l.wq.dense, &l.wk.dense,  &l.wv.dense,
                      &l.wo.dense, &l.fc1.dense, &l.fc2.dense};
}

TcaBmeConfig TinyTransformer::EncodeFormat() { return TinyFormat(); }

PagedKvCacheConfig TinyTransformer::KvCacheConfig(int64_t block_tokens,
                                                  int64_t num_blocks) const {
  PagedKvCacheConfig cfg;
  cfg.layers = config_.layers;
  cfg.kv_dim = config_.kv_dim();
  cfg.block_tokens = block_tokens;
  cfg.num_blocks = num_blocks;
  return cfg;
}

int32_t TinyTransformer::Prefill(const std::vector<int32_t>& tokens,
                                 MatmulBackend backend, PagedKvCache* cache,
                                 int64_t seq_id) const {
  SPINFER_CHECK(cache != nullptr);
  SPINFER_CHECK_EQ(cache->SequenceTokens(seq_id),
                   static_cast<int64_t>(tokens.size()));
  const std::vector<PrefillChunk> whole = {
      {seq_id, &tokens, /*start=*/0, static_cast<int64_t>(tokens.size())}};
  std::vector<int32_t> first;
  MixedStep({}, {}, whole, backend, cache, /*dec_next=*/nullptr, &first);
  return first[0];
}

FloatMatrix TinyTransformer::Forward(const std::vector<int32_t>& tokens,
                                     MatmulBackend backend) const {
  const int64_t seq = static_cast<int64_t>(tokens.size());
  SPINFER_CHECK(seq > 0 && seq <= config_.max_seq);
  const int64_t h = config_.hidden;
  const int64_t hd = config_.head_dim();
  // Grouped-query attention: query head `head` reads kv head `head / group`.
  const int64_t group = config_.heads / config_.kv_head_count();

  SPINFER_TRACE_SCOPE_ARG("tt.forward", "seq", seq);

  // Activations are (hidden x seq): one column per token, matching the
  // W(MxK) * X(KxN) convention of the kernels.
  FloatMatrix act(h, seq);
  {
    SPINFER_TRACE_SCOPE("tt.embed");
    for (int64_t t = 0; t < seq; ++t) {
      EmbedInto(tokens[t], /*pos=*/t, /*col=*/t, &act);
    }
  }

  StepScratch& s = scratch_;
  s.bands.resize(1);  // the whole model is one band
  StepScratch::BandPanels& p = s.bands[0];
  for (size_t layer_idx = 0; layer_idx < layers_.size(); ++layer_idx) {
    const Layer& l = layers_[layer_idx];
    SPINFER_TRACE_SCOPE_ARG("tt.layer", "layer",
                            static_cast<int64_t>(layer_idx));
    // --- Attention block (pre-LN). ---
    CopyInto(act, &s.normed);
    LayerNormColumns(&s.normed);
    MatmulInto(l.wq, s.normed, backend, "tt.matmul.wq", &s, &p.q);
    MatmulInto(l.wk, s.normed, backend, "tt.matmul.wk", &s, &p.kk);
    MatmulInto(l.wv, s.normed, backend, "tt.matmul.wv", &s, &p.v);
    const FloatMatrix& q = p.q;
    const FloatMatrix& kk = p.kk;
    const FloatMatrix& v = p.v;

    s.attn_out.Reshape(h, seq);
    FloatMatrix& attn_out = s.attn_out;
    const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(hd));
    s.scores.resize(static_cast<size_t>(seq));
    std::vector<float>& scores = s.scores;
    {
      SPINFER_TRACE_SCOPE("tt.attention");
      for (int64_t head = 0; head < config_.heads; ++head) {
        const int64_t r0 = head * hd;
        const int64_t kv0 = (head / group) * hd;  // kv-head row base
        for (int64_t t = 0; t < seq; ++t) {
          // Causal scores for query t against keys 0..t.
          float max_score = -1e30f;
          for (int64_t s = 0; s <= t; ++s) {
            float dot = 0.0f;
            for (int64_t r = 0; r < hd; ++r) {
              dot += q.at(r0 + r, t) * kk.at(kv0 + r, s);
            }
            scores[s] = dot * inv_sqrt_d;
            max_score = std::max(max_score, scores[s]);
          }
          float denom = 0.0f;
          for (int64_t s = 0; s <= t; ++s) {
            scores[s] = std::exp(scores[s] - max_score);
            denom += scores[s];
          }
          for (int64_t r = 0; r < hd; ++r) {
            float acc = 0.0f;
            for (int64_t s = 0; s <= t; ++s) {
              acc += scores[s] * v.at(kv0 + r, s);
            }
            attn_out.at(r0 + r, t) = acc / denom;
          }
        }
      }
    }
    MatmulInto(l.wo, attn_out, backend, "tt.matmul.wo", &s, &s.proj);
    for (int64_t i = 0; i < act.size(); ++i) {
      act.data()[i] += s.proj.data()[i];  // residual
    }

    // --- FFN block (pre-LN, GELU). ---
    CopyInto(act, &s.ffn_in);
    LayerNormColumns(&s.ffn_in);
    MatmulInto(l.fc1, s.ffn_in, backend, "tt.matmul.fc1", &s, &s.hidden_act);
    for (int64_t i = 0; i < s.hidden_act.size(); ++i) {
      s.hidden_act.data()[i] = Gelu(s.hidden_act.data()[i]);
    }
    MatmulInto(l.fc2, s.hidden_act, backend, "tt.matmul.fc2", &s, &s.ffn_out);
    for (int64_t i = 0; i < act.size(); ++i) {
      act.data()[i] += s.ffn_out.data()[i];
    }
  }

  // Final LN + tied unembedding: logits[t][v] = <embedding_v, act_t>.
  SPINFER_TRACE_SCOPE("tt.unembed");
  LayerNormColumns(&act);
  FloatMatrix logits(seq, config_.vocab);
  for (int64_t t = 0; t < seq; ++t) {
    for (int64_t vtok = 0; vtok < config_.vocab; ++vtok) {
      float dot = 0.0f;
      for (int64_t r = 0; r < h; ++r) {
        dot += embedding_.at(vtok, r).ToFloat() * act.at(r, t);
      }
      logits.at(t, vtok) = dot;
    }
  }
  return logits;
}

void TinyTransformer::DecodeStep(const std::vector<int64_t>& seq_ids,
                                 const std::vector<int32_t>& last_tokens,
                                 MatmulBackend backend, PagedKvCache* cache,
                                 std::vector<int32_t>* next_tokens,
                                 FloatMatrix* logits_out) const {
  SPINFER_CHECK(!seq_ids.empty());
  // A decode-only MixedStep: identical code path, so the original contract
  // (including bit-identity and the warmed zero-allocation property of the
  // matmul scratch) is the general path's, not a parallel implementation's.
  static const std::vector<PrefillChunk> kNoChunks;
  MixedStep(seq_ids, last_tokens, kNoChunks, backend, cache, next_tokens,
            /*chunk_next=*/nullptr, logits_out);
}

void TinyTransformer::MixedStep(const std::vector<int64_t>& dec_ids,
                                const std::vector<int32_t>& dec_last,
                                const std::vector<PrefillChunk>& chunks,
                                MatmulBackend backend, PagedKvCache* cache,
                                std::vector<int32_t>* dec_next,
                                std::vector<int32_t>* chunk_next,
                                FloatMatrix* dec_logits_out) const {
  SPINFER_CHECK(cache != nullptr);
  const RowBand whole{&layers_, cache};
  MixedStep(dec_ids, dec_last, chunks, backend, std::span(&whole, 1), &scratch_,
            dec_next, chunk_next, dec_logits_out);
}

void TinyTransformer::MixedStep(const std::vector<int64_t>& dec_ids,
                                const std::vector<int32_t>& dec_last,
                                const std::vector<PrefillChunk>& chunks,
                                MatmulBackend backend,
                                std::span<const RowBand> bands,
                                StepScratch* scratch,
                                std::vector<int32_t>* dec_next,
                                std::vector<int32_t>* chunk_next,
                                FloatMatrix* dec_logits_out) const {
  const int64_t dec = static_cast<int64_t>(dec_ids.size());
  SPINFER_CHECK_EQ(static_cast<int64_t>(dec_last.size()), dec);
  SPINFER_CHECK(dec_next != nullptr || dec == 0);
  SPINFER_CHECK(chunk_next != nullptr || chunks.empty());
  SPINFER_CHECK(scratch != nullptr && !bands.empty());
  const int64_t g = static_cast<int64_t>(bands.size());
  SPINFER_CHECK(config_.heads % g == 0 && config_.kv_head_count() % g == 0);
  for (const RowBand& band : bands) {
    SPINFER_CHECK(band.layers != nullptr && band.cache != nullptr);
  }
  const PagedKvCache& accounting = *bands[0].cache;
  const int64_t h = config_.hidden;

  // Panel width: one column per decode sequence plus one per chunk token.
  int64_t n = dec;
  for (const PrefillChunk& c : chunks) {
    SPINFER_CHECK(c.prompt != nullptr && c.count > 0 && c.start >= 0);
    const int64_t len = static_cast<int64_t>(c.prompt->size());
    SPINFER_CHECK(c.start + c.count <= len && len <= config_.max_seq);
    SPINFER_CHECK_MSG(accounting.SequenceTokens(c.seq_id) >= c.start + c.count,
                      "chunk past the registered slots of sequence " << c.seq_id);
    n += c.count;
  }
  SPINFER_CHECK(n > 0);

  SPINFER_TRACE_SCOPE_ARG("tt.decode", "batch", n);

  StepScratch& s = *scratch;
  s.bands.resize(bands.size());
  // Append each decode sequence's new slot — on every band's cache, in
  // lockstep, so their block tables stay identical — then embed its last
  // token at its absolute position. Admission reserved the blocks, so
  // exhaustion here is a scheduler bug, not a runtime condition. Chunk
  // columns embed prompt tokens at their absolute positions — the bits a
  // full-sequence Forward would give those positions. Each column's
  // attention item attends slots [0, context) and its own K/V lands in slot
  // context - 1: decode columns see their whole context, chunk columns the
  // causal horizon [0, pos] even though later slots of their chunk are
  // written before attention runs.
  // Producer columns are the ones whose logits are consumed: every decode
  // column, and the final column of each chunk that completes its prompt.
  s.act.Reshape(h, n);
  s.attn_items.clear();
  std::vector<int64_t> producer_cols;
  producer_cols.reserve(static_cast<size_t>(dec) + chunks.size());
  for (int64_t i = 0; i < dec; ++i) {
    for (const RowBand& band : bands) {
      SPINFER_CHECK_MSG(band.cache->AppendToken(dec_ids[i]),
                        "KV pool exhausted mid-decode; admission must reserve "
                        "blocks for a sequence's full max length");
    }
    const int64_t pos = accounting.SequenceTokens(dec_ids[i]) - 1;
    SPINFER_CHECK(pos < config_.max_seq);
    EmbedInto(dec_last[i], pos, /*col=*/i, &s.act);
    s.attn_items.push_back({dec_ids[i], /*col=*/i, /*context=*/pos + 1});
    producer_cols.push_back(i);
  }
  {
    int64_t col = dec;
    for (const PrefillChunk& c : chunks) {
      for (int64_t j = 0; j < c.count; ++j, ++col) {
        EmbedInto((*c.prompt)[static_cast<size_t>(c.start + j)], c.start + j,
                  col, &s.act);
        s.attn_items.push_back({c.seq_id, col, /*context=*/c.start + j + 1});
      }
      if (c.start + c.count == static_cast<int64_t>(c.prompt->size())) {
        producer_cols.push_back(col - 1);
      }
    }
  }

  for (int64_t layer = 0; layer < config_.layers; ++layer) {
    SPINFER_TRACE_SCOPE_ARG("tt.layer", "layer", layer);
    // --- Attention block (pre-LN). Each band computes its rows of q/k/v
    // from the full normed panel, stores its kv rows in its own cache, and
    // attends with its own heads in one fused batched call. ---
    CopyInto(s.act, &s.normed);
    LayerNormColumns(&s.normed);
    s.attn_out.Reshape(h, n);
    for (size_t b = 0; b < bands.size(); ++b) {
      const Layer& l = (*bands[b].layers)[static_cast<size_t>(layer)];
      PagedKvCache& cache = *bands[b].cache;
      StepScratch::BandPanels& p = s.bands[b];
      MatmulInto(l.wq, s.normed, backend, "tt.matmul.wq", &s, &p.q);
      MatmulInto(l.wk, s.normed, backend, "tt.matmul.wk", &s, &p.kk);
      MatmulInto(l.wv, s.normed, backend, "tt.matmul.wv", &s, &p.v);
      for (const PagedAttentionItem& it : s.attn_items) {
        float* krow = cache.KRow(layer, it.seq_id, it.context - 1);
        float* vrow = cache.VRow(layer, it.seq_id, it.context - 1);
        for (int64_t r = 0; r < p.kk.rows(); ++r) {
          krow[r] = p.kk.at(r, it.col);
          vrow[r] = p.v.at(r, it.col);
        }
      }
      FloatMatrix& attn_out = g == 1 ? s.attn_out : p.attn_out;
      attn_out.Reshape(p.q.rows(), n);
      {
        SPINFER_TRACE_SCOPE("tt.attention");
        PagedAttentionDecodeBatch(cache, layer, config_.heads / g,
                                  config_.kv_head_count() / g, p.q,
                                  s.attn_items, &attn_out, &s.attn);
      }
      if (g > 1) {
        GatherRows(attn_out, static_cast<int64_t>(b) * attn_out.rows(),
                   &s.attn_out);
      }
    }
    BandMatmul(bands, layer, &Layer::wo, &StepScratch::BandPanels::proj,
               s.attn_out, backend, "tt.matmul.wo", &s, &s.proj);
    for (int64_t i = 0; i < s.act.size(); ++i) {
      s.act.data()[i] += s.proj.data()[i];  // residual
    }

    // --- FFN block (pre-LN, GELU). ---
    CopyInto(s.act, &s.ffn_in);
    LayerNormColumns(&s.ffn_in);
    BandMatmul(bands, layer, &Layer::fc1, &StepScratch::BandPanels::hidden_act,
               s.ffn_in, backend, "tt.matmul.fc1", &s, &s.hidden_act);
    for (int64_t i = 0; i < s.hidden_act.size(); ++i) {
      s.hidden_act.data()[i] = Gelu(s.hidden_act.data()[i]);
    }
    BandMatmul(bands, layer, &Layer::fc2, &StepScratch::BandPanels::ffn_out,
               s.hidden_act, backend, "tt.matmul.fc2", &s, &s.ffn_out);
    for (int64_t i = 0; i < s.act.size(); ++i) {
      s.act.data()[i] += s.ffn_out.data()[i];
    }
  }

  // Final LN + tied unembedding — but only for producer columns.
  // Mid-prompt columns exist to deposit K/V; their logits are never consumed.
  SPINFER_TRACE_SCOPE("tt.unembed");
  LayerNormColumns(&s.act);
  const int64_t producers = static_cast<int64_t>(producer_cols.size());
  s.logits.Reshape(producers, config_.vocab);
  for (int64_t i = 0; i < producers; ++i) {
    const int64_t col = producer_cols[static_cast<size_t>(i)];
    for (int64_t vtok = 0; vtok < config_.vocab; ++vtok) {
      float dot = 0.0f;
      for (int64_t r = 0; r < h; ++r) {
        dot += embedding_.at(vtok, r).ToFloat() * s.act.at(r, col);
      }
      s.logits.at(i, vtok) = dot;
    }
  }
  if (dec_next != nullptr) {
    dec_next->resize(static_cast<size_t>(dec));
    for (int64_t i = 0; i < dec; ++i) {
      (*dec_next)[static_cast<size_t>(i)] = GreedyToken(s.logits, i);
    }
  }
  if (chunk_next != nullptr) {
    chunk_next->assign(chunks.size(), -1);
    int64_t row = dec;  // completing chunks' rows follow the decode rows
    for (size_t c = 0; c < chunks.size(); ++c) {
      const PrefillChunk& chunk = chunks[c];
      if (chunk.start + chunk.count ==
          static_cast<int64_t>(chunk.prompt->size())) {
        (*chunk_next)[c] = GreedyToken(s.logits, row++);
      }
    }
  }
  if (dec_logits_out != nullptr) {
    // Decode rows lead the logits panel, so rows [0, dec) are contiguous.
    dec_logits_out->Reshape(dec, config_.vocab);
    std::copy(s.logits.data(), s.logits.data() + dec * config_.vocab,
              dec_logits_out->data());
  }
}

std::vector<int32_t> TinyTransformer::Generate(const std::vector<int32_t>& prompt,
                                               int steps, MatmulBackend backend) const {
  std::vector<int32_t> tokens = prompt;
  for (int i = 0; i < steps && static_cast<int64_t>(tokens.size()) < config_.max_seq;
       ++i) {
    SPINFER_TRACE_SCOPE_ARG("tt.decode_step", "step", i);
    const FloatMatrix logits = Forward(tokens, backend);
    tokens.push_back(GreedyToken(logits, logits.rows() - 1));
  }
  return tokens;
}

uint64_t TinyTransformer::DenseWeightBytes() const {
  uint64_t total = 0;
  for (const Layer& l : layers_) {
    for (Weight Layer::*w : kLayerWeights) {
      total += 2ull * (l.*w).dense.size();
    }
  }
  return total;
}

uint64_t TinyTransformer::EncodedWeightBytes() const {
  uint64_t total = 0;
  for (const Layer& l : layers_) {
    for (Weight Layer::*w : kLayerWeights) {
      total += (l.*w).enc.StorageBytes();
    }
  }
  return total;
}

double TinyTransformer::WeightSparsity() const {
  int64_t nnz = 0;
  int64_t total = 0;
  for (const Layer& l : layers_) {
    for (Weight Layer::*w : kLayerWeights) {
      nnz += (l.*w).dense.CountNonZeros();
      total += (l.*w).dense.size();
    }
  }
  return 1.0 - static_cast<double>(nnz) / static_cast<double>(total);
}

}  // namespace spinfer
