// A complete, functional decoder-only transformer whose weight matmuls run
// through this library's sparse stack — the integration proof that pruning +
// TCA-BME + the bitmap SpMM backend compose into a working model, mirroring
// the paper's FasterTransformer integration at a CPU-executable scale.
//
// Numerics are exact enough to test: with the same pruned weights, the dense
// and TCA-BME backends produce matching logits and identical greedy decodes.
//
// One layer implementation serves everything. Forward/Generate is the
// full-recompute oracle (O(steps * seq) matmul work, no cache). Every serving
// entry point — Prefill, DecodeStep, MixedStep, and the tensor-parallel
// ShardedEngine — runs MixedStep over a list of row bands: each band owns a
// slice of the output rows of every weight matrix plus the PagedKvCache
// holding its K/V rows, and the single instance is the one-band case over the
// model's own weights. Each step runs ONE matmul per weight (and band) with
// N = batch columns and per-sequence paged attention over the cached context.
// Every stage is per-column/per-sequence and row bands are cut on GroupTile
// boundaries, so a sequence's tokens and logits are bit-identical for any
// batch composition, chunking, band count, and thread count, and match the
// full-recompute Generate path bit for bit.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/core/cpu_backend.h"
#include "src/format/tca_bme.h"
#include "src/llm/kv_allocator.h"
#include "src/llm/paged_attention.h"
#include "src/numeric/matrix.h"
#include "src/pruning/pruner.h"

namespace spinfer {

struct TinyConfig {
  int64_t vocab = 256;
  int64_t hidden = 64;
  int64_t layers = 2;
  int64_t heads = 4;
  int64_t ffn = 256;
  int64_t max_seq = 64;
  // Key/value heads for grouped-query attention; 0 means == heads (classic
  // MHA, the default — and bit-for-bit the pre-GQA model, including its Rng
  // weight-draw order, since wk/wv keep their hidden x hidden shape).
  int64_t kv_heads = 0;

  int64_t head_dim() const { return hidden / heads; }
  int64_t kv_head_count() const { return kv_heads > 0 ? kv_heads : heads; }
  // Rows of wk/wv and of one K (or V) cache row: kv heads x head_dim.
  int64_t kv_dim() const { return kv_head_count() * head_dim(); }
  // Whether every token id lies in [0, vocab): what the embedding accepts.
  // Serving front-ends reject a prompt that fails this before it can run.
  bool InVocab(const std::vector<int32_t>& tokens) const;
};

// Which engine executes the weight matmuls.
enum class MatmulBackend {
  kDense,     // ReferenceGemm on the dense FP16 weights
  kTcaBmeCpu  // CpuSpmm on the TCA-BME-encoded weights
};

// Greedy sampling: the max-logit column of `logits` row `row` (ties break to
// the lowest token id, matching Generate).
int32_t GreedyToken(const FloatMatrix& logits, int64_t row);

// One scheduled slice of a prompt for MixedStep: positions
// [start, start + count) of `*prompt` for `seq_id`, whose cache slots
// [0, start) must already hold real K/V (earlier chunks or an adopted shared
// prefix). The sequence must already be registered with >= start + count
// slots. A chunk with start + count == prompt->size() completes the prompt
// and produces the sequence's first generated token.
struct PrefillChunk {
  int64_t seq_id = 0;
  const std::vector<int32_t>* prompt = nullptr;
  int64_t start = 0;
  int64_t count = 0;
};

class TinyTransformer {
 public:
  // One weight matrix: dense FP16 and its TCA-BME encoding.
  struct Weight {
    HalfMatrix dense;
    TcaBmeMatrix enc;
  };
  // The six weight matrices of one layer — the whole model's, or one row
  // band of them (see RowBandLayers).
  struct Layer {
    Weight wq, wo;  // hidden x hidden
    Weight wk, wv;  // kv_dim x hidden (== hidden x hidden for MHA)
    Weight fc1;     // ffn x hidden
    Weight fc2;     // hidden x ffn
  };
  // One output-row band, the unit MixedStep runs over: a row slice of every
  // layer's weights and the cache holding that band's kv rows (kv_dim / bands
  // rows per token). Band b of g owns query heads [b * heads/g, ...) and kv
  // heads [b * kv_heads/g, ...).
  struct RowBand {
    const std::vector<Layer>* layers;
    PagedKvCache* cache;
  };
  // Reusable buffers for one step (or one Forward). Shapes depend only on
  // (panel width, hidden, ffn, band count), so every layer — and every later
  // call at seen shapes — reuses the same storage; nothing here is shrunk.
  // `xh` stages the FP16 conversion feeding the dense reference backend (the
  // sparse backend quantizes on panel fill and never touches it). `scores`
  // grows to the longest context Forward attends. The model owns one for its
  // own steps; a caller running its own bands owns another.
  struct StepScratch {
    // One band's projections: q/k/v stay band-local; the rest are row-gathered
    // into the full panels below (with one band they are not used — outputs
    // land in the full panels directly).
    struct BandPanels {
      FloatMatrix q, kk, v, attn_out, proj, hidden_act, ffn_out;
    };
    SpmmWorkspace ws;
    HalfMatrix xh;
    FloatMatrix act, normed, attn_out, proj, ffn_in, hidden_act, ffn_out, logits;
    std::vector<float> scores;
    std::vector<BandPanels> bands;
    // Batched paged-attention scratch + the per-step work list (decode
    // columns, then chunk columns).
    PagedAttentionScratch attn;
    std::vector<PagedAttentionItem> attn_items;
  };

  // Deterministic random initialization (scaled Gaussian).
  TinyTransformer(const TinyConfig& config, uint64_t seed);

  // Prunes every transformer weight matrix (attention + FFN; embeddings stay
  // dense, as in the paper's end-to-end setup) and re-encodes TCA-BME.
  void PruneWeights(const Pruner& pruner, double sparsity);

  // Full-recompute forward pass over `tokens`; returns logits (seq x vocab).
  // The oracle the serving path is tested against.
  FloatMatrix Forward(const std::vector<int32_t>& tokens, MatmulBackend backend) const;

  // Greedy decoding: extends `prompt` by `steps` tokens.
  std::vector<int32_t> Generate(const std::vector<int32_t>& prompt, int steps,
                                MatmulBackend backend) const;

  // --- Serving path (paged KV cache) ---------------------------------------

  // KV geometry for a PagedKvCache serving this model.
  PagedKvCacheConfig KvCacheConfig(int64_t block_tokens, int64_t num_blocks) const;

  // Whole-prompt prefill: a one-chunk MixedStep that writes every position's
  // per-layer K/V into `cache` slots [0, tokens.size()) of `seq_id` — which
  // must already be registered with exactly tokens.size() slots — and returns
  // the first generated token.
  int32_t Prefill(const std::vector<int32_t>& tokens, MatmulBackend backend,
                  PagedKvCache* cache, int64_t seq_id) const;

  // One continuous-batching decode iteration. For sequence i (ragged contexts
  // are fine), `last_tokens[i]` is its most recently produced token; the step
  // appends that token's slot to the cache (exhaustion is a CHECK failure —
  // the scheduler reserves capacity at admission), runs each weight matmul
  // once with N = batch columns, attends per sequence over its full cached
  // context, and writes the greedy next token per sequence to `next_tokens`.
  // `logits_out`, when non-null, receives the (batch x vocab) logits.
  void DecodeStep(const std::vector<int64_t>& seq_ids,
                  const std::vector<int32_t>& last_tokens, MatmulBackend backend,
                  PagedKvCache* cache, std::vector<int32_t>* next_tokens,
                  FloatMatrix* logits_out = nullptr) const;

  // One mixed continuous-batching iteration: a decode batch (as in
  // DecodeStep) plus any number of prompt chunks, all through ONE matmul per
  // weight with N = dec_ids.size() + sum(chunk counts) columns — prefill
  // work rides the decode batch at the wide-N operating point instead of
  // stalling it. Decode columns behave exactly as DecodeStep (with no
  // chunks, this IS DecodeStep, bit for bit); chunk columns write their
  // position's per-layer K/V into the cache and attend causally over slots
  // [0, pos]. Per-column kernels make every sequence's results independent
  // of the batch mix and of where chunk boundaries fall. `dec_next[i]`
  // receives decode sequence i's next token; `chunk_next[c]` receives the
  // first generated token of chunk c if it completes its prompt, else -1
  // (may be null when `chunks` is empty). `dec_logits_out`, when non-null,
  // receives the decode rows' logits (dec x vocab).
  void MixedStep(const std::vector<int64_t>& dec_ids,
                 const std::vector<int32_t>& dec_last,
                 const std::vector<PrefillChunk>& chunks, MatmulBackend backend,
                 PagedKvCache* cache, std::vector<int32_t>* dec_next,
                 std::vector<int32_t>* chunk_next,
                 FloatMatrix* dec_logits_out = nullptr) const;

  // The same step over `bands` (heads and kv heads must divide by their
  // count), using the caller's `scratch`. Each band computes its rows of
  // q/k/v, writes its kv rows into its own cache (slot appends run on every
  // cache in lockstep; bands[0]'s cache is the accounting view), and attends
  // over its own heads; every other projection is computed band by band and
  // row-gathered into the full panel — copies, no arithmetic, so the results
  // are bit-identical to the one-band step. The one-band call above is
  // exactly this over {layers_, cache} with the model's own scratch.
  void MixedStep(const std::vector<int64_t>& dec_ids,
                 const std::vector<int32_t>& dec_last,
                 const std::vector<PrefillChunk>& chunks, MatmulBackend backend,
                 std::span<const RowBand> bands, StepScratch* scratch,
                 std::vector<int32_t>* dec_next,
                 std::vector<int32_t>* chunk_next,
                 FloatMatrix* dec_logits_out = nullptr) const;

  // Band `band` of `bands`: output rows [band * R / bands, (band + 1) * R /
  // bands) of every weight matrix (R = its row count), spanning the full
  // input dimension and re-encoded with EncodeFormat(). CHECKs that every cut
  // lands on a head boundary and a GroupTile boundary, so each band's kernels
  // traverse the same tiles in the same order as the whole-matrix kernel.
  std::vector<Layer> RowBandLayers(int64_t band, int64_t bands) const;

  const TinyConfig& config() const { return config_; }

  // Read-only views of one layer's dense weights (benches re-encode them).
  struct LayerWeights {
    const HalfMatrix* wq;
    const HalfMatrix* wk;
    const HalfMatrix* wv;
    const HalfMatrix* wo;
    const HalfMatrix* fc1;
    const HalfMatrix* fc2;
  };
  LayerWeights layer_weights(int64_t layer) const;
  // The TCA-BME geometry the model's own matmuls encode with.
  static TcaBmeConfig EncodeFormat();
  // Observability for the zero-allocation serving contract (tests, benches).
  // Grow count / capacity of the model's own step scratch: once a
  // Forward/DecodeStep at the serving shapes has warmed it, further calls at
  // those (or smaller) shapes leave both unchanged — i.e. the matmul path
  // performs zero heap allocations per step.
  int64_t MatmulScratchGrowCount() const;
  uint64_t MatmulScratchCapacityBytes() const;
  // Weight footprints: dense FP16 vs the encoded TCA-BME bytes.
  uint64_t DenseWeightBytes() const;
  uint64_t EncodedWeightBytes() const;
  // Average sparsity across transformer weights.
  double WeightSparsity() const;

 private:
  // Embeds `token` at absolute position `pos` into column `col` of `act`.
  void EmbedInto(int32_t token, int64_t pos, int64_t col, FloatMatrix* act) const;

  void EncodeAll();

  TinyConfig config_;
  HalfMatrix embedding_;  // vocab x hidden (tied LM head)
  std::vector<Layer> layers_;
  // `mutable`: Forward and the one-band steps are logically const. A single
  // TinyTransformer must not run concurrent steps (matching the
  // SpmmWorkspace contract).
  mutable StepScratch scratch_;
};

}  // namespace spinfer
