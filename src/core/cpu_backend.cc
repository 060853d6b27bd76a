// Portable half of the CPU backend: the drivers (workspace, routing by
// width, GroupTile-row parallelism, dispatch) plus the portable kernels.
//
// Compiled with -ffp-contract=off (see src/core/CMakeLists.txt): every
// multiply and add must round separately so results are bit-identical to the
// AVX2 unit, which uses explicit mul/add intrinsics.
#include "src/core/cpu_backend.h"

#include <algorithm>

#include "src/core/cpu_backend_inner.h"
#include "src/obs/trace.h"
#include "src/util/check.h"
#include "src/util/cpu_features.h"
#include "src/util/thread_pool.h"

namespace spinfer {

namespace cpu_backend_detail {

// Out-of-line (this TU is built without ISA-specific flags) so every SIMD
// variant shares one clean copy; see the declaration for why.
uint64_t SpmmPhaseRecorder::Now() const { return obs::Tracer::Global().NowNs(); }

void RowParallelSweep(
    int64_t grid_rows, const RowTaskSpans& spans,
    const std::function<void(int64_t, SpmmPhaseRecorder*)>& run) {
  // The enabled check is hoisted out of the row loop: when tracing is off
  // each task passes a null recorder and runs the untimed instantiation —
  // zero instrumentation inside the tile walk.
  const bool tracing = obs::TracingEnabled();
  ParallelFor(0, grid_rows, [&](int64_t gtr) {
    if (!tracing) {
      run(gtr, nullptr);
      return;
    }
    // Traced row task: accumulate phase nanoseconds across the task, then
    // emit them as back-to-back synthetic child slices of the task span —
    // Perfetto sees properly nested slices whose durations are the real
    // per-phase totals. A phase fused into another (ns == 0) emits nothing.
    SpmmPhaseRecorder rec;
    obs::Tracer& tracer = obs::Tracer::Global();
    const uint64_t task_start = tracer.NowNs();
    run(gtr, &rec);
    const uint64_t task_end = tracer.NowNs();
    obs::TraceArg task_args[3] = {{"gt_row", gtr},
                                  {"tiles", static_cast<int64_t>(rec.tiles)},
                                  {"nnz", static_cast<int64_t>(rec.nnz)}};
    tracer.Record(spans.task, task_start, task_end - task_start, task_args, 3);
    const uint64_t phase_ns[3] = {rec.convert_ns, rec.decode_ns,
                                  rec.accumulate_ns};
    uint64_t slice_start = task_start;
    for (int p = 0; p < 3; ++p) {
      if (phase_ns[p] != 0) {
        tracer.Record(spans.phases[p], slice_start, phase_ns[p]);
        slice_start += phase_ns[p];
      }
    }
  });
}

}  // namespace cpu_backend_detail

namespace {

using cpu_backend_detail::NarrowRowFn;
using cpu_backend_detail::NarrowRowTask;
using cpu_backend_detail::ProcessGroupTile;
using cpu_backend_detail::RowTerm;
using cpu_backend_detail::SpmmPhaseRecorder;

// Portable register-tiled row update. The fixed-size inner loop (8 floats =
// one or two vector registers on any target) auto-vectorizes at -O2/-O3; the
// t-loop keeps the accumulators live across the row's nonzeros.
struct PortableRowFma {
  void operator()(float* orow, const RowTerm* terms, int count, int64_t nb) const {
    int64_t j = 0;
    for (; j + 8 <= nb; j += 8) {
      float acc[8];
      for (int u = 0; u < 8; ++u) {
        acc[u] = orow[j + u];
      }
      for (int t = 0; t < count; ++t) {
        const float v = terms[t].v;
        const float* xr = terms[t].xrow + j;
        for (int u = 0; u < 8; ++u) {
          acc[u] += v * xr[u];
        }
      }
      for (int u = 0; u < 8; ++u) {
        orow[j + u] = acc[u];
      }
    }
    for (; j < nb; ++j) {
      float acc = orow[j];
      for (int t = 0; t < count; ++t) {
        acc += terms[t].v * terms[t].xrow[j];
      }
      orow[j] = acc;
    }
  }
};

// LUT-based batch conversion for the portable variant; exact, so it matches
// the AVX2 unit's vcvtph2ps bit for bit.
struct PortableConvert {
  void operator()(const Half* src, float* dst, size_t count) const {
    for (size_t i = 0; i < count; ++i) {
      dst[i] = src[i].ToFloat();
    }
  }
};

void ProcessGroupTilePortable(const TcaBmeMatrix& w, int64_t gt, const float* xf,
                              int64_t n, int64_t j0, int64_t nb, float* out,
                              SpmmPhaseRecorder* rec) {
  if (rec != nullptr) {
    ProcessGroupTile<true>(w, gt, xf, n, j0, nb, out, PortableRowFma{},
                           PortableConvert{}, rec);
  } else {
    ProcessGroupTile<false>(w, gt, xf, n, j0, nb, out, PortableRowFma{},
                            PortableConvert{});
  }
}

template <int kN>
struct PortableNarrowTile {
  void operator()(uint64_t bitmap, const Half* run, int64_t ro, int64_t bt_c,
                  const float* xf, float* acc, int64_t g) const {
    float vals[kBitmapTileDim * kBitmapTileDim];
    PortableConvert{}(run, vals, static_cast<size_t>(std::popcount(bitmap)));
    cpu_backend_detail::NarrowScalarTile<kN, false>(bitmap, vals, ro, bt_c, 0,
                                                    0, xf, acc, g);
  }
};

template <int kN>
void NarrowRowPortable(const TcaBmeMatrix& w, int64_t gtr, const float* xf,
                       float* out, SpmmPhaseRecorder* rec) {
  if (rec != nullptr) {
    NarrowRowTask<true, kN>(w, gtr, xf, out, PortableNarrowTile<kN>{}, rec);
  } else {
    NarrowRowTask<false, kN>(w, gtr, xf, out, PortableNarrowTile<kN>{});
  }
}

NarrowRowFn NarrowRowFor(CpuSpmmVariant v, int64_t n) {
  if (v == CpuSpmmVariant::kAvx2) {
    return cpu_backend_detail::NarrowRowAvx2(n);
  }
  static constexpr NarrowRowFn kTable[kCpuSpmmNarrowMaxCols] = {
      &NarrowRowPortable<1>, &NarrowRowPortable<2>, &NarrowRowPortable<3>,
      &NarrowRowPortable<4>, &NarrowRowPortable<5>, &NarrowRowPortable<6>,
      &NarrowRowPortable<7>, &NarrowRowPortable<8>};
  return kTable[n - 1];
}

enum class Kernel { kNarrow, kNBlocked };

// Shared accumulate core: fills the FP32 X panel once (`fill_panel` is the
// only thing the FP16 and quantize-FP32 entry points differ in), then runs
// one task per GroupTile grid row. Each task owns the output rows of its
// grid row, so writes are disjoint and the per-element accumulation order
// (GroupTile column, then storage bit order) is fixed regardless of thread
// count — and is the same in both kernels, which is why routing by width
// changes no result bits.
template <typename FillPanel>
void AccumulateCore(const TcaBmeMatrix& w, int64_t x_rows, int64_t n,
                    const FillPanel& fill_panel, SpmmWorkspace* ws,
                    FloatMatrix* out, CpuSpmmVariant variant, Kernel kernel) {
  SPINFER_CHECK_EQ(w.cols(), x_rows);
  SPINFER_CHECK_EQ(out->rows(), w.rows());
  SPINFER_CHECK_EQ(out->cols(), n);
  if (n == 0 || w.rows() == 0) {
    return;
  }
  obs::TraceScope call_scope("cpu_spmm");
  if (call_scope.active()) {
    call_scope.AddArg("m", w.rows());
    call_scope.AddArg("k", w.cols());
    call_scope.AddArg("n", n);
  }

  ws->x_panel.Reserve(static_cast<size_t>(x_rows * n));
  float* xf = ws->x_panel.data();
  {
    // Named like the per-tile value staging so trace_report aggregates the
    // whole half->float phase under one row.
    SPINFER_TRACE_SCOPE("cpu_spmm.convert");
    fill_panel(xf);
  }

  float* out_data = out->data();
  static constexpr cpu_backend_detail::RowTaskSpans kSpans{
      "cpu_spmm.row_task",
      {"cpu_spmm.convert", "cpu_spmm.decode", "cpu_spmm.accumulate"}};
  if (kernel == Kernel::kNarrow) {
    const NarrowRowFn row = NarrowRowFor(variant, n);
    cpu_backend_detail::RowParallelSweep(
        w.gt_grid_rows(), kSpans,
        [&](int64_t gtr, SpmmPhaseRecorder* rec) { row(w, gtr, xf, out_data, rec); });
    return;
  }
  const auto tile = variant == CpuSpmmVariant::kAvx2
                        ? &cpu_backend_detail::ProcessGroupTileAvx2
                        : &ProcessGroupTilePortable;
  const int64_t grid_cols = w.gt_grid_cols();
  cpu_backend_detail::RowParallelSweep(
      w.gt_grid_rows(), kSpans, [&](int64_t gtr, SpmmPhaseRecorder* rec) {
        for (int64_t j0 = 0; j0 < n; j0 += kCpuSpmmNBlock) {
          const int64_t nb = std::min(kCpuSpmmNBlock, n - j0);
          for (int64_t gtc = 0; gtc < grid_cols; ++gtc) {
            tile(w, gtr * grid_cols + gtc, xf, n, j0, nb, out_data, rec);
          }
        }
      });
}

// Width routing of the dispatched entries: the narrow kernel where its
// stack accumulator fits, the N-blocked kernel otherwise.
Kernel RouteFor(const TcaBmeMatrix& w, int64_t n) {
  return n <= kCpuSpmmNarrowMaxCols &&
                 w.config().gt_rows <= cpu_backend_detail::kNarrowMaxGtRows
             ? Kernel::kNarrow
             : Kernel::kNBlocked;
}

// FP32 input: quantize to FP16 on the fly while filling the panel. The panel
// bits equal float(Half(x[i])) — exactly what ToFloatInto produces from a
// pre-converted HalfMatrix — so the two entry families are bit-identical.
void FillFromFloat(const FloatMatrix& x, float* xf) {
  const float* src = x.data();
  const int64_t size = x.size();
  for (int64_t i = 0; i < size; ++i) {
    xf[i] = Half(src[i]).ToFloat();
  }
}

void AccumulateImpl(const TcaBmeMatrix& w, const HalfMatrix& x, SpmmWorkspace* ws,
                    FloatMatrix* out, CpuSpmmVariant variant, Kernel kernel) {
  AccumulateCore(
      w, x.rows(), x.cols(), [&](float* xf) { ToFloatInto(x, xf); }, ws, out,
      variant, kernel);
}

void QuantAccumulateImpl(const TcaBmeMatrix& w, const FloatMatrix& x,
                         SpmmWorkspace* ws, FloatMatrix* out) {
  AccumulateCore(
      w, x.rows(), x.cols(), [&](float* xf) { FillFromFloat(x, xf); }, ws, out,
      ActiveCpuSpmmVariant(), RouteFor(w, x.cols()));
}

void CheckVariant(CpuSpmmVariant v) {
  SPINFER_CHECK_MSG(CpuSpmmVariantAvailable(v),
                    "requested CPU SpMM variant is unavailable on this machine");
}

}  // namespace

const char* CpuSpmmVariantName(CpuSpmmVariant v) {
  return v == CpuSpmmVariant::kAvx2 ? "avx2" : "portable";
}

bool CpuSpmmVariantAvailable(CpuSpmmVariant v) {
  if (v == CpuSpmmVariant::kPortable) {
    return true;
  }
  const CpuFeatures& f = GetCpuFeatures();
  return cpu_backend_detail::CpuSpmmAvx2Compiled() && f.avx2 && f.fma && f.f16c;
}

CpuSpmmVariant ActiveCpuSpmmVariant() {
  static const CpuSpmmVariant active = [] {
    if (ActiveSimdLevel() == SimdLevel::kAvx2 &&
        CpuSpmmVariantAvailable(CpuSpmmVariant::kAvx2)) {
      return CpuSpmmVariant::kAvx2;
    }
    return CpuSpmmVariant::kPortable;
  }();
  return active;
}

void CpuSpmmAccumulateIntoVariant(const TcaBmeMatrix& w, const HalfMatrix& x,
                                  SpmmWorkspace* ws, FloatMatrix* out,
                                  CpuSpmmVariant v) {
  CheckVariant(v);
  AccumulateImpl(w, x, ws, out, v, Kernel::kNBlocked);
}

void CpuSpmmNarrowAccumulateIntoVariant(const TcaBmeMatrix& w,
                                        const HalfMatrix& x, SpmmWorkspace* ws,
                                        FloatMatrix* out, CpuSpmmVariant v) {
  CheckVariant(v);
  SPINFER_CHECK_MSG(RouteFor(w, x.cols()) == Kernel::kNarrow,
                    "narrow CPU SpMM kernel needs 1..8 columns and GroupTiles "
                    "of at most 256 rows");
  AccumulateImpl(w, x, ws, out, v, Kernel::kNarrow);
}

void CpuSpmmAccumulateInto(const TcaBmeMatrix& w, const HalfMatrix& x,
                           SpmmWorkspace* ws, FloatMatrix* out) {
  AccumulateImpl(w, x, ws, out, ActiveCpuSpmmVariant(), RouteFor(w, x.cols()));
}

void CpuSpmmInto(const TcaBmeMatrix& w, const HalfMatrix& x, SpmmWorkspace* ws,
                 FloatMatrix* out) {
  SPINFER_CHECK_EQ(w.cols(), x.rows());
  out->Reshape(w.rows(), x.cols());
  out->Fill(0.0f);
  CpuSpmmAccumulateInto(w, x, ws, out);
}

void CpuSpmmQuantAccumulateInto(const TcaBmeMatrix& w, const FloatMatrix& x,
                                SpmmWorkspace* ws, FloatMatrix* out) {
  QuantAccumulateImpl(w, x, ws, out);
}

void CpuSpmmQuantInto(const TcaBmeMatrix& w, const FloatMatrix& x,
                      SpmmWorkspace* ws, FloatMatrix* out) {
  SPINFER_CHECK_EQ(w.cols(), x.rows());
  out->Reshape(w.rows(), x.cols());
  out->Fill(0.0f);
  QuantAccumulateImpl(w, x, ws, out);
}

FloatMatrix CpuSpmm(const TcaBmeMatrix& w, const HalfMatrix& x) {
  FloatMatrix out;
  SpmmWorkspace ws;
  CpuSpmmInto(w, x, &ws, &out);
  return out;
}

void CpuSpmmAccumulate(const TcaBmeMatrix& w, const HalfMatrix& x, FloatMatrix* out) {
  SpmmWorkspace ws;
  CpuSpmmAccumulateInto(w, x, &ws, out);
}

}  // namespace spinfer
