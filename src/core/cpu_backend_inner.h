// Internal: the GroupTile traversals shared by every CPU SpMM/SpMV SIMD
// variant.
//
// Each variant (portable, AVX2) supplies only its innermost update and the
// half->float batch conversion; the bitmap walk, Values-cursor arithmetic,
// and ragged-edge handling live here exactly once. That is what makes the
// bit-identity contract between variants cheap to keep: a variant cannot
// disagree about *which* products to form, only about how to schedule
// identical per-element mul-then-add chains — and those are lane-independent,
// so any vector width produces the same bits.
//
// Two traversals share the walk (ForEachBitmapTile):
//   * ProcessGroupTile, the N-blocked kernel for wide panels (N > 8): each
//     interior BitmapTile row becomes one register-tiled RowTerm update of
//     the output row.
//   * NarrowRowTask, the decode-width kernel (N <= 8): one task per GroupTile
//     grid row accumulates into a stack-resident, lane-major copy of its
//     outputs and expands each BitmapTile once for all N columns.
//
// Do not include outside src/core/cpu_backend*.cc, src/core/cpu_spmv*.cc
// and tests.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>

#include "src/core/cpu_backend.h"
#include "src/format/tca_bme.h"

namespace spinfer {
namespace cpu_backend_detail {

// Per-row-task phase accounting for tracing. Timing is a compile-time
// template parameter of the traversals (`kTimed`), so the untraced
// instantiation contains no timing code at all; the driver selects the
// instantiation once per task on the hoisted tracing flag (see
// src/obs/trace.h). When active, convert/decode/accumulate nanoseconds
// accumulate here and the driver emits them as synthetic child slices of the
// row-task span.
//
// Now() is defined out-of-line in cpu_backend.cc on purpose: this header is
// compiled into TUs with different ISA flags, and an inline body could hand
// AVX-encoded code to the portable path via COMDAT merging.
struct SpmmPhaseRecorder {
  uint64_t convert_ns = 0;     // half->float staging of tile Values
  uint64_t decode_ns = 0;      // bitmap walk / RowTerm gathering
  uint64_t accumulate_ns = 0;  // multiply-add updates (incl. fused decode)
  uint64_t tiles = 0;          // nonzero BitmapTiles processed
  uint64_t nnz = 0;            // nonzeros consumed

  uint64_t Now() const;  // Tracer clock (respects an injected FakeClock)
};

// Visits GroupTile `gt`'s nonzero BitmapTiles in storage order — TCTiles
// column-major, quadrants TL, BL, TR, BR — as fn(bi, bitmap, cursor, bt_r,
// bt_c): the tile's bitmap index, its mask, the offset of its run in the
// Values (or INT8 codes) stream, and its top-left element. For any one
// output row the visits run in ascending column order; every kernel's
// accumulation-order contract rests on that. Serves TcaBmeMatrix and
// TcaBmeQuantMatrix, which share their storage nesting by construction.
//
// `static`, not `inline`, here and below: the including TUs are compiled
// with different ISA flags, and a COMDAT-merged copy could hand AVX-encoded
// code to the portable path. Internal linkage keeps each TU's codegen to
// itself.
template <typename Matrix, typename Fn>
static inline void ForEachBitmapTile(const Matrix& w, int64_t gt, const Fn& fn) {
  const int tc_rows = w.tc_rows_per_gt();
  const int tc_cols = w.tc_cols_per_gt();
  int64_t bi = gt * w.tcs_per_gt() * 4;
  const uint64_t* bitmaps = w.bitmaps().data();
  const int64_t base_r = (gt / w.gt_grid_cols()) * w.config().gt_rows;
  const int64_t base_c = (gt % w.gt_grid_cols()) * w.config().gt_cols;
  size_t cursor = w.gtile_offsets()[static_cast<size_t>(gt)];
  for (int tcc = 0; tcc < tc_cols; ++tcc) {
    for (int tcr = 0; tcr < tc_rows; ++tcr) {
      for (int q = 0; q < 4; ++q, ++bi) {
        const uint64_t bitmap = bitmaps[bi];
        if (bitmap == 0) {
          continue;
        }
        fn(bi, bitmap, cursor,
           base_r + tcr * kTcTileDim + (q % 2) * kBitmapTileDim,
           base_c + tcc * kTcTileDim + (q / 2) * kBitmapTileDim);
        cursor += static_cast<size_t>(std::popcount(bitmap));
      }
    }
  }
}

// ConvertFn contract: convert(src, dst, count) writes dst[i] =
// float(src[i]) for i in [0, count). Half->float widening is exact, so the
// LUT and F16C implementations produce identical bits; the choice never
// affects results, only speed.

// --- N-blocked kernel (N > kCpuSpmmNarrowMaxCols) ---------------------------

// One nonzero's contribution to a row update: scalar weight value plus the
// (already j0-offset) X panel row it multiplies.
struct RowTerm {
  float v;
  const float* xrow;
};

// RowFma contract: fma(orow, terms, count, nb) performs, for every
// j in [0, nb) and t in [0, count) in ascending t order:
//     orow[j] = orow[j] + terms[t].v * terms[t].xrow[j]
// with one rounding for the multiply and one for the add (no fusion — the
// variant TUs are compiled with -ffp-contract=off). Per-element results are
// then identical for every vector width, which is the dispatch invariant the
// tests enforce.

// Ragged-edge BitmapTile: rows/cols may fall outside the logical matrix, so
// every element is guarded. Scalar on purpose — edges are rare, and sharing
// this exact code across variants removes any chance of edge divergence.
// `tile_vals` holds the tile's already-converted values in bit order.
static inline void EdgeBitmapTile(uint64_t bitmap, const float* tile_vals,
                                  int64_t bt_r, int64_t bt_c, int64_t m, int64_t k,
                                  const float* xf, int64_t n, int64_t j0,
                                  int64_t nb, float* out) {
  int t = 0;
  while (bitmap != 0) {
    const int bit = std::countr_zero(bitmap);
    bitmap &= bitmap - 1;
    const float v = tile_vals[t++];
    const int64_t r = bt_r + bit / kBitmapTileDim;
    const int64_t c = bt_c + bit % kBitmapTileDim;
    if (r >= m || c >= k) {
      continue;  // padding region: the stored value is never referenced
    }
    float* orow = out + r * n + j0;
    const float* xrow = xf + c * n + j0;
    for (int64_t j = 0; j < nb; ++j) {
      orow[j] += v * xrow[j];
    }
  }
}

// Applies one GroupTile's nonzeros to the output columns [j0, j0+nb), reading
// activations from the fp32 panel `xf` (row-major K x N). Each BitmapTile's
// compressed Values run is converted half->float in one batch into an
// L1-resident staging array (at most 64 floats), so the hot row updates read
// floats and the conversion vectorizes. The caller owns N-blocking and
// row-parallelism; every interior BitmapTile row goes to `row_fma` as one
// register-tiled update.
template <bool kTimed, typename RowFma, typename ConvertFn>
static void ProcessGroupTile(const TcaBmeMatrix& w, int64_t gt, const float* xf,
                             int64_t n, int64_t j0, int64_t nb, float* out,
                             const RowFma& row_fma, const ConvertFn& convert,
                             SpmmPhaseRecorder* rec = nullptr) {
  const Half* hvalues = w.values().data();
  const int64_t m = w.rows();
  const int64_t k = w.cols();
  ForEachBitmapTile(w, gt, [&](int64_t, uint64_t bitmap, size_t cursor,
                               int64_t bt_r, int64_t bt_c) {
    const int pc = std::popcount(bitmap);
    float tile_vals[kBitmapTileDim * kBitmapTileDim];
    uint64_t t_phase = 0;
    if constexpr (kTimed) {
      t_phase = rec->Now();
    }
    convert(hvalues + cursor, tile_vals, static_cast<size_t>(pc));
    if constexpr (kTimed) {
      rec->convert_ns += rec->Now() - t_phase;
      rec->tiles += 1;
      rec->nnz += static_cast<uint64_t>(pc);
    }
    if (bt_r + kBitmapTileDim > m || bt_c + kBitmapTileDim > k) {
      if constexpr (kTimed) {
        t_phase = rec->Now();
      }
      EdgeBitmapTile(bitmap, tile_vals, bt_r, bt_c, m, k, xf, n, j0, nb, out);
      if constexpr (kTimed) {
        rec->accumulate_ns += rec->Now() - t_phase;
      }
      return;
    }
    // Interior tile: bits are row-major (bit = r*8 + c), so each bitmap byte
    // is one output row's nonzeros and its Values are contiguous in the
    // staging array. Gather the row's terms once, replay them per register
    // tile.
    int tv = 0;
    for (int rr = 0; rr < kBitmapTileDim; ++rr) {
      uint64_t rowmask = (bitmap >> (rr * kBitmapTileDim)) & 0xFFull;
      if (rowmask == 0) {
        continue;
      }
      if constexpr (kTimed) {
        t_phase = rec->Now();
      }
      RowTerm terms[kBitmapTileDim];
      int count = 0;
      while (rowmask != 0) {
        const int cc = std::countr_zero(rowmask);
        rowmask &= rowmask - 1;
        terms[count].v = tile_vals[tv + count];
        terms[count].xrow = xf + (bt_c + cc) * n + j0;
        ++count;
      }
      tv += count;
      if constexpr (kTimed) {
        const uint64_t t_mid = rec->Now();
        rec->decode_ns += t_mid - t_phase;
        t_phase = t_mid;
      }
      row_fma(out + (bt_r + rr) * n + j0, terms, count, nb);
      if constexpr (kTimed) {
        rec->accumulate_ns += rec->Now() - t_phase;
      }
    }
  });
}

// --- Decode-width kernel (1 <= N <= kCpuSpmmNarrowMaxCols) ------------------

// Tallest GroupTile the narrow kernel's stack accumulator holds (8 KB at
// N = 8). Taller GroupTiles keep the N-blocked kernel at every width.
inline constexpr int kNarrowMaxGtRows = 256;

// Halves past the end of a tile's Values run a narrow tile may read: the
// AVX2 row expansion loads 8 halves at any offset inside the run.
inline constexpr int kNarrowRunPad = 8;

// Narrow tile contract — tile(bitmap, run, ro, bt_c, xf, acc, g), with
// `run` the tile's FP16 Values (readable kNarrowRunPad halves past its end)
// and the lane-major accumulator acc[j * g + row - base_r], performs for
// every column j in [0, kN) and every set bit (rr, cc) of `bitmap` in
// ascending cc order within each row rr:
//     acc[j*g + ro + rr] = acc[j*g + ro + rr] + float(run[t]) * xf[(bt_c + cc)*kN + j]
// where t is the bit's rank, with one rounding for the multiply and one for
// the add. Per (row, column) that is the chain ProcessGroupTile forms — the
// narrow and N-blocked kernels are bit-identical. Rows and columns not set in
// `bitmap` are left bitwise untouched (no +0 is added, so -0.0 survives).
//
// NarrowScalarTile is the portable variant's tile, the AVX2 unit's
// low-popcount fallback, and (kEdge) the guarded ragged-edge path of both:
// rows at or past `rows` (local) and columns at or past `k` are skipped.
template <int kN, bool kEdge>
static inline void NarrowScalarTile(uint64_t bitmap, const float* vals,
                                    int64_t ro, int64_t bt_c, int64_t rows,
                                    int64_t k, const float* xf, float* acc,
                                    int64_t g) {
  int t = 0;
  for (int rr = 0; rr < kBitmapTileDim; ++rr) {
    uint64_t rowmask = (bitmap >> (rr * kBitmapTileDim)) & 0xFFull;
    if (rowmask == 0) {
      continue;
    }
    if (kEdge && ro + rr >= rows) {
      t += std::popcount(rowmask);
      continue;
    }
    float a[kN];
    for (int j = 0; j < kN; ++j) {
      a[j] = acc[j * g + ro + rr];
    }
    while (rowmask != 0) {
      const int cc = std::countr_zero(rowmask);
      rowmask &= rowmask - 1;
      const float v = vals[t++];
      if (kEdge && bt_c + cc >= k) {
        continue;  // padding region: the stored value is never referenced
      }
      const float* xr = xf + (bt_c + cc) * kN;
      for (int j = 0; j < kN; ++j) {
        a[j] += v * xr[j];
      }
    }
    for (int j = 0; j < kN; ++j) {
      acc[j * g + ro + rr] = a[j];
    }
  }
}

// One task: every GroupTile of grid row `gtr` applied to its output rows at
// width kN (out and xf are row-major with kN columns). The task's outputs are
// read once into the stack accumulator, every tile updates them there, and
// they are written back once — no output cache line is shared with a
// neighbouring task while the walk runs.
template <bool kTimed, int kN, typename TileFn>
static void NarrowRowTask(const TcaBmeMatrix& w, int64_t gtr, const float* xf,
                          float* out, const TileFn& tile,
                          SpmmPhaseRecorder* rec = nullptr) {
  const Half* hvalues = w.values().data();
  const size_t nvalues = w.values().size();
  const int64_t k = w.cols();
  const int64_t g = w.config().gt_rows;
  const int64_t base_r = gtr * g;
  const int64_t rows = std::min(g, w.rows() - base_r);
  alignas(32) float acc[kNarrowMaxGtRows * kN];
  for (int64_t r = 0; r < rows; ++r) {
    for (int j = 0; j < kN; ++j) {
      acc[j * g + r] = out[(base_r + r) * kN + j];
    }
  }
  const int64_t grid_cols = w.gt_grid_cols();
  for (int64_t gt = gtr * grid_cols; gt < (gtr + 1) * grid_cols; ++gt) {
    ForEachBitmapTile(w, gt, [&](int64_t, uint64_t bitmap, size_t cursor,
                                 int64_t bt_r, int64_t bt_c) {
      const int pc = std::popcount(bitmap);
      uint64_t t_phase = 0;
      if constexpr (kTimed) {
        t_phase = rec->Now();
        rec->tiles += 1;
        rec->nnz += static_cast<uint64_t>(pc);
      }
      const int64_t ro = bt_r - base_r;
      if (ro + kBitmapTileDim > rows || bt_c + kBitmapTileDim > k) {
        float vals[kBitmapTileDim * kBitmapTileDim];
        for (int t = 0; t < pc; ++t) {
          vals[t] = hvalues[cursor + static_cast<size_t>(t)].ToFloat();
        }
        NarrowScalarTile<kN, true>(bitmap, vals, ro, bt_c, rows, k, xf, acc, g);
      } else if (cursor + static_cast<size_t>(pc + kNarrowRunPad) <= nvalues) {
        tile(bitmap, hvalues + cursor, ro, bt_c, xf, acc, g);
      } else {
        // Last runs of the stream: give the tile its readable pad.
        Half padded[kBitmapTileDim * kBitmapTileDim + kNarrowRunPad] = {};
        std::copy(hvalues + cursor, hvalues + cursor + pc, padded);
        tile(bitmap, padded, ro, bt_c, xf, acc, g);
      }
      if constexpr (kTimed) {
        rec->accumulate_ns += rec->Now() - t_phase;
      }
    });
  }
  for (int64_t r = 0; r < rows; ++r) {
    for (int j = 0; j < kN; ++j) {
      out[(base_r + r) * kN + j] = acc[j * g + r];
    }
  }
}

// Span names of one kernel family's traced row tasks: the task span and its
// convert/decode/accumulate phase slices (static literals; the tracer keeps
// the pointers).
struct RowTaskSpans {
  const char* task;
  const char* phases[3];
};

// ParallelFor over GroupTile grid rows with the tracing check hoisted out of
// the loop: untraced tasks get a null recorder (the untimed kernel
// instantiation), traced tasks a recorder whose phase totals become child
// slices of the task span. Defined in cpu_backend.cc.
void RowParallelSweep(int64_t grid_rows, const RowTaskSpans& spans,
                      const std::function<void(int64_t, SpmmPhaseRecorder*)>& run);

// Row-task entry points, one instantiation per width: table[n - 1] runs
// width n.
using NarrowRowFn = void (*)(const TcaBmeMatrix& w, int64_t gtr,
                             const float* xf, float* out,
                             SpmmPhaseRecorder* rec);

// The AVX2 variant's kernels, defined in cpu_backend_avx2.cc (built with
// -mavx2 -mfma -mf16c when the compiler supports them). Call only when
// CpuSpmmAvx2Compiled() and the running CPU advertises AVX2+FMA+F16C.
bool CpuSpmmAvx2Compiled();
void ProcessGroupTileAvx2(const TcaBmeMatrix& w, int64_t gt, const float* xf,
                          int64_t n, int64_t j0, int64_t nb, float* out,
                          SpmmPhaseRecorder* rec);
NarrowRowFn NarrowRowAvx2(int64_t n);
// 8-wide vcvtph2ps half->float of `count` elements; exact, so bit-identical
// to the portable LUT conversion for every non-NaN input (and for the NaN
// encodings hardware and the LUT agree on; weights are never NaN).
void ConvertHalfToFloatAvx2(const Half* src, float* dst, size_t count);

}  // namespace cpu_backend_detail
}  // namespace spinfer
