// Bitmap-direct CPU SpMM backend: the production CPU path for TCA-BME
// models.
//
// The warp-level functional simulator (SpInferSpmmKernel::Run) exists to
// validate the GPU algorithm bit-for-bit; it is deliberately literal and
// slow. This backend walks each BitmapTile's 64-bit mask, consumes the
// compressed Values run sequentially (the order SMBD implies), and never
// emulates fragments. The tiny transformer, the serving engines and
// SparseLinear run on it.
//
// Execution scheme:
//   * The FP16 activation panel is converted to FP32 once per call into a
//     reusable workspace (exact conversion, so results are unchanged).
//   * One task per GroupTile grid row runs on the global ThreadPool; each
//     task owns a disjoint output-row range, so any thread count produces
//     bit-identical output.
//   * Two kernels, routed by the activation width N:
//       - N <= kCpuSpmmNarrowMaxCols (decode widths, SpMV is N = 1): the
//         narrow kernel. A task copies its outputs once into a stack-resident
//         lane-major accumulator; every BitmapTile is expanded once (AVX2:
//         FP16 run widened in registers, permutation-LUT expand, 8x8
//         transpose into per-column value vectors) and applied to all N
//         columns with blend-masked mul/add chains across the tile's 8 rows;
//         the outputs are stored once.
//       - N > kCpuSpmmNarrowMaxCols (prefill widths): the N-blocked kernel.
//         Output columns run in blocks of kCpuSpmmNBlock and each interior
//         BitmapTile row becomes one register-tiled update of the output row.
//   * Each kernel has a hand-written AVX2 variant (compiled separately with
//     -mavx2 -mfma -mf16c, run after runtime feature detection) and a
//     portable one. All are compiled with FP contraction off.
// Determinism: both kernels form every output element as the same chain —
// out + v*x over the element's nonzeros in ascending column order, separate
// mul and add roundings — so output bits do not depend on the kernel, the
// SIMD variant or the thread count. tests/cpu_backend_test.cc,
// tests/cpu_spmv_test.cc and tests/cpu_spmm_narrow_test.cc enforce it.
#pragma once

#include "src/format/tca_bme.h"
#include "src/gpusim/perf_counters.h"
#include "src/numeric/matrix.h"
#include "src/util/aligned_buffer.h"

namespace spinfer {

// Widest activation panel the narrow kernel takes. Decode-only serving steps
// are at most one column per running sequence (ServingEngineConfig's default
// max_batch is 8), and on a 4-core AVX2 host the narrow kernel beats the
// N-blocked one at every width up to 8 (DESIGN.md, CPU backend). Wider
// panels — prefill chunks and prefill-carrying steps — stay N-blocked.
inline constexpr int64_t kCpuSpmmNarrowMaxCols = 8;

// Output-column span one pass of the N-blocked kernel over the compressed
// Values stream covers. N <= 128 takes a single pass; larger N is blocked so
// the output tile a GroupTile row touches stays cache-resident.
inline constexpr int64_t kCpuSpmmNBlock = 128;

// Reusable scratch for the SpMM/SpMV calls: the FP32 X panel (half->float is
// exact, so converting the panel once per call changes no result bits) and
// the INT8 path's quantized activation vector (int16 codes, so the widening
// multiply-adds read them directly). Grown monotonically, never shrunk — a
// serving loop that has seen its largest shapes performs zero heap
// allocations in this path afterwards. Weight values are converted per
// BitmapTile into a stack-resident staging array inside the kernel and need
// no heap scratch. Not thread-safe to share across concurrent calls; give
// each serving thread its own.
struct SpmmWorkspace {
  AlignedBuffer<float> x_panel;     // K x N fp32 activation panel
  AlignedBuffer<int16_t> xq_panel;  // K quantized activation codes (SpMV INT8)

  int64_t grow_count() const {
    return x_panel.grow_count() + xq_panel.grow_count();
  }
  uint64_t capacity_bytes() const {
    return x_panel.capacity() * sizeof(float) +
           xq_panel.capacity() * sizeof(int16_t);
  }
};

// out = W * X, reshaping `out` to (w.rows(), x.cols()). All scratch comes
// from `ws`; after `out` and `ws` have seen the call's shapes once, repeat
// calls are allocation-free. Routes by width as described above (GroupTiles
// taller than 256 rows exceed the narrow kernel's stack accumulator and stay
// N-blocked at every width); the route never changes result bits.
void CpuSpmmInto(const TcaBmeMatrix& w, const HalfMatrix& x, SpmmWorkspace* ws,
                 FloatMatrix* out);

// out += W * X (out must already have shape (w.rows(), x.cols())), for
// callers that fuse bias/residual into the output before the matmul.
void CpuSpmmAccumulateInto(const TcaBmeMatrix& w, const HalfMatrix& x,
                           SpmmWorkspace* ws, FloatMatrix* out);

// Quantize-and-run forms for FP32 activations: each element of `x` is
// rounded to FP16 while the FP32 panel is built (panel = float(half(x))),
// bit-identical to converting `x` into a HalfMatrix first and calling the
// FP16 entry points — without materializing the intermediate FP16 matrix.
// The serving decode path feeds its FP32 activations straight through these,
// removing one staging buffer and one full conversion pass per matmul.
void CpuSpmmQuantInto(const TcaBmeMatrix& w, const FloatMatrix& x,
                      SpmmWorkspace* ws, FloatMatrix* out);
void CpuSpmmQuantAccumulateInto(const TcaBmeMatrix& w, const FloatMatrix& x,
                                SpmmWorkspace* ws, FloatMatrix* out);

// Legacy conveniences; thin wrappers over the workspace API that pay one
// workspace allocation per call. Results are identical.
FloatMatrix CpuSpmm(const TcaBmeMatrix& w, const HalfMatrix& x);
void CpuSpmmAccumulate(const TcaBmeMatrix& w, const HalfMatrix& x, FloatMatrix* out);

// --- SIMD dispatch introspection (tests, benches, diagnostics) -------------

enum class CpuSpmmVariant {
  kPortable,  // auto-vectorized C++; always available
  kAvx2,      // hand-written AVX2; requires compile-time and runtime support
};

const char* CpuSpmmVariantName(CpuSpmmVariant v);

// Whether `v` can run on this build + this machine.
bool CpuSpmmVariantAvailable(CpuSpmmVariant v);

// The variant CpuSpmm* dispatches to (feature detection + SPINFER_SIMD
// override, cached at first use).
CpuSpmmVariant ActiveCpuSpmmVariant();

// Accumulate-form entry with the variant pinned; CHECK-fails if `v` is
// unavailable. This is how the bit-identity tests drive both paths on one
// machine. Deliberately NOT routed by width: this entry always runs the
// N-blocked kernel, which makes it the reference the narrow-kernel
// differential tests compare against.
void CpuSpmmAccumulateIntoVariant(const TcaBmeMatrix& w, const HalfMatrix& x,
                                  SpmmWorkspace* ws, FloatMatrix* out,
                                  CpuSpmmVariant v);

// Accumulate-form entry pinned to the narrow kernel and variant `v`;
// CHECK-fails unless x.cols() <= kCpuSpmmNarrowMaxCols, the GroupTiles are at
// most 256 rows tall and `v` is available.
void CpuSpmmNarrowAccumulateIntoVariant(const TcaBmeMatrix& w,
                                        const HalfMatrix& x, SpmmWorkspace* ws,
                                        FloatMatrix* out, CpuSpmmVariant v);

}  // namespace spinfer
