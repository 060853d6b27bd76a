// CPU SpMV: single-column (batch-1 decode) matmuls.
//
// FP16 weights: SpMV is the N = 1 case of the narrow SpMM kernel
// (src/core/cpu_backend.h). These entry points are thin wrappers over the
// CpuSpmm* entries for callers that hold a single column; they CHECK
// x.cols() == 1 and otherwise behave, bit for bit, exactly like the CpuSpmm*
// entry they wrap.
//
// INT8 weights: the CpuSpmvInt8* entries run over TcaBmeQuantMatrix weights
// with activations quantized per call (symmetric absmax over the vector,
// codes in [-127,127] held as int16 for widening multiply-adds). Per
// BitmapTile row the integer dot is exact in int32 and folded into the output
// with a single mul-then-add of scale * float(idot) — see cpu_spmv_inner.h
// for the accumulation-order contract. Output bits do not depend on thread
// count (GroupTile grid rows own disjoint output rows) or on which SIMD
// variant ran, and warm calls are allocation-free (all scratch lives in
// SpmmWorkspace, grown monotonically).
#pragma once

#include "src/core/cpu_backend.h"
#include "src/format/tca_bme.h"
#include "src/format/tca_bme_quant.h"
#include "src/numeric/matrix.h"

namespace spinfer {

// out = W * x for a single-column x (x.cols() == 1), reshaping `out` to
// (w.rows(), 1): CpuSpmmInto on a single column.
void CpuSpmvInto(const TcaBmeMatrix& w, const HalfMatrix& x, SpmmWorkspace* ws,
                 FloatMatrix* out);

// out += W * x (out must already have shape (w.rows(), 1)).
void CpuSpmvAccumulateInto(const TcaBmeMatrix& w, const HalfMatrix& x,
                           SpmmWorkspace* ws, FloatMatrix* out);

// FP32-activation forms: CpuSpmmQuant* on a single column (elements are
// rounded to FP16 while the panel is built).
void CpuSpmvQuantInto(const TcaBmeMatrix& w, const FloatMatrix& x,
                      SpmmWorkspace* ws, FloatMatrix* out);
void CpuSpmvQuantAccumulateInto(const TcaBmeMatrix& w, const FloatMatrix& x,
                                SpmmWorkspace* ws, FloatMatrix* out);

// INT8 weights x symmetric-absmax-quantized activations. Not bit-comparable
// to the FP16 paths (different numerics by design); bit-identical across
// SIMD variants and thread counts like everything else in this family.
void CpuSpmvInt8Into(const TcaBmeQuantMatrix& w, const FloatMatrix& x,
                     SpmmWorkspace* ws, FloatMatrix* out);
void CpuSpmvInt8AccumulateInto(const TcaBmeQuantMatrix& w, const FloatMatrix& x,
                               SpmmWorkspace* ws, FloatMatrix* out);

// Variant-pinned entries for the bit-identity tests and benches; CHECK-fail
// if `v` is unavailable (same gate as CpuSpmmVariantAvailable). The FP16 one
// is CpuSpmmNarrowAccumulateIntoVariant on a single column.
void CpuSpmvAccumulateIntoVariant(const TcaBmeMatrix& w, const HalfMatrix& x,
                                  SpmmWorkspace* ws, FloatMatrix* out,
                                  CpuSpmmVariant v);
void CpuSpmvInt8AccumulateIntoVariant(const TcaBmeQuantMatrix& w,
                                      const FloatMatrix& x, SpmmWorkspace* ws,
                                      FloatMatrix* out, CpuSpmmVariant v);

}  // namespace spinfer
