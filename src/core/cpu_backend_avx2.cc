// AVX2 unit of the CPU backend. This is the only translation unit of the
// FP16 kernels built with -mavx2 -mfma -mf16c (when the compiler supports
// those flags), and its kernels run only after runtime feature detection —
// the rest of the binary stays executable on baseline x86-64 and non-x86
// hosts.
//
// Bit-identity contract: every update uses explicit mul-then-add
// (_mm256_mul_ps + _mm256_add_ps, never _mm256_fmadd_ps) and the TU is built
// with -ffp-contract=off so the compiler cannot re-fuse them. Each output
// element therefore sees exactly the same rounding sequence as the portable
// loops, making the two variants bit-identical on any input.
//
// Decode-width tiles (N <= 8) vectorize across the 8 rows of a BitmapTile,
// never within a row's chain:
//
//   1. Widen 8 halves of the row-major compressed Values run straight from
//      the FP16 stream (vcvtph2ps) per tile row and expand them with a
//      256-entry prefix-popcount permutation LUT (vpermps) — lane cc of row
//      rr's vector holds value(rr, cc) when bit (rr, cc) is set, a
//      don't-care otherwise. Widening in registers matters: staging the
//      converted run through a stack array makes every row's unaligned
//      reload straddle two earlier stores, which defeats store forwarding
//      and cost about 2x at N = 1.
//   2. Transpose the 8 row vectors (8x8 unpack/shuffle/permute2f128) into
//      per-column value vectors.
//   3. For each column cc and each activation column j:
//      acc_j' = acc_j + col_cc * broadcast(x[bt_c + cc][j]), blended into
//      acc_j only in lanes whose bitmap bit is set (vblendvps keys on the
//      sign bit; the mask is the bitmap's row bytes shifted so bit cc lands
//      in bit 31). Unset lanes keep acc_j bitwise — adding a zero instead
//      would already turn -0.0 into +0.0.
//
// Per lane and column that is exactly the scalar chain: one vmulps rounding
// and one vaddps rounding per set bit, ascending cc. The expansion and
// transpose are paid once per tile and shared by all N columns.
#include "src/core/cpu_backend_inner.h"
#include "src/util/check.h"

#if defined(__AVX2__) && defined(__FMA__) && defined(__F16C__)
#include <immintrin.h>
#define SPINFER_CPU_BACKEND_AVX2 1
#endif

namespace spinfer {
namespace cpu_backend_detail {

bool CpuSpmmAvx2Compiled() {
#if defined(SPINFER_CPU_BACKEND_AVX2)
  return true;
#else
  return false;
#endif
}

#if defined(SPINFER_CPU_BACKEND_AVX2)

namespace {

struct Avx2RowFma {
  void operator()(float* orow, const RowTerm* terms, int count, int64_t nb) const {
    int64_t j = 0;
    // Widest register tile first: 64 output columns in eight of the sixteen
    // ymm registers, amortizing the per-term broadcast over 8 vector FMAs.
    // Every tier processes each output element as the same t-ascending
    // mul-then-add chain, so tier choice never changes result bits.
    for (; j + 64 <= nb; j += 64) {
      __m256 a0 = _mm256_loadu_ps(orow + j);
      __m256 a1 = _mm256_loadu_ps(orow + j + 8);
      __m256 a2 = _mm256_loadu_ps(orow + j + 16);
      __m256 a3 = _mm256_loadu_ps(orow + j + 24);
      __m256 a4 = _mm256_loadu_ps(orow + j + 32);
      __m256 a5 = _mm256_loadu_ps(orow + j + 40);
      __m256 a6 = _mm256_loadu_ps(orow + j + 48);
      __m256 a7 = _mm256_loadu_ps(orow + j + 56);
      for (int t = 0; t < count; ++t) {
        const __m256 v = _mm256_set1_ps(terms[t].v);
        const float* xr = terms[t].xrow + j;
        a0 = _mm256_add_ps(a0, _mm256_mul_ps(v, _mm256_loadu_ps(xr)));
        a1 = _mm256_add_ps(a1, _mm256_mul_ps(v, _mm256_loadu_ps(xr + 8)));
        a2 = _mm256_add_ps(a2, _mm256_mul_ps(v, _mm256_loadu_ps(xr + 16)));
        a3 = _mm256_add_ps(a3, _mm256_mul_ps(v, _mm256_loadu_ps(xr + 24)));
        a4 = _mm256_add_ps(a4, _mm256_mul_ps(v, _mm256_loadu_ps(xr + 32)));
        a5 = _mm256_add_ps(a5, _mm256_mul_ps(v, _mm256_loadu_ps(xr + 40)));
        a6 = _mm256_add_ps(a6, _mm256_mul_ps(v, _mm256_loadu_ps(xr + 48)));
        a7 = _mm256_add_ps(a7, _mm256_mul_ps(v, _mm256_loadu_ps(xr + 56)));
      }
      _mm256_storeu_ps(orow + j, a0);
      _mm256_storeu_ps(orow + j + 8, a1);
      _mm256_storeu_ps(orow + j + 16, a2);
      _mm256_storeu_ps(orow + j + 24, a3);
      _mm256_storeu_ps(orow + j + 32, a4);
      _mm256_storeu_ps(orow + j + 40, a5);
      _mm256_storeu_ps(orow + j + 48, a6);
      _mm256_storeu_ps(orow + j + 56, a7);
    }
    for (; j + 32 <= nb; j += 32) {
      __m256 a0 = _mm256_loadu_ps(orow + j);
      __m256 a1 = _mm256_loadu_ps(orow + j + 8);
      __m256 a2 = _mm256_loadu_ps(orow + j + 16);
      __m256 a3 = _mm256_loadu_ps(orow + j + 24);
      for (int t = 0; t < count; ++t) {
        const __m256 v = _mm256_set1_ps(terms[t].v);
        const float* xr = terms[t].xrow + j;
        a0 = _mm256_add_ps(a0, _mm256_mul_ps(v, _mm256_loadu_ps(xr)));
        a1 = _mm256_add_ps(a1, _mm256_mul_ps(v, _mm256_loadu_ps(xr + 8)));
        a2 = _mm256_add_ps(a2, _mm256_mul_ps(v, _mm256_loadu_ps(xr + 16)));
        a3 = _mm256_add_ps(a3, _mm256_mul_ps(v, _mm256_loadu_ps(xr + 24)));
      }
      _mm256_storeu_ps(orow + j, a0);
      _mm256_storeu_ps(orow + j + 8, a1);
      _mm256_storeu_ps(orow + j + 16, a2);
      _mm256_storeu_ps(orow + j + 24, a3);
    }
    for (; j + 8 <= nb; j += 8) {
      __m256 a = _mm256_loadu_ps(orow + j);
      for (int t = 0; t < count; ++t) {
        const __m256 v = _mm256_set1_ps(terms[t].v);
        a = _mm256_add_ps(a, _mm256_mul_ps(v, _mm256_loadu_ps(terms[t].xrow + j)));
      }
      _mm256_storeu_ps(orow + j, a);
    }
    for (; j + 4 <= nb; j += 4) {
      __m128 a = _mm_loadu_ps(orow + j);
      for (int t = 0; t < count; ++t) {
        const __m128 v = _mm_set1_ps(terms[t].v);
        a = _mm_add_ps(a, _mm_mul_ps(v, _mm_loadu_ps(terms[t].xrow + j)));
      }
      _mm_storeu_ps(orow + j, a);
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

struct Avx2Convert {
  void operator()(const Half* src, float* dst, size_t count) const {
    ConvertHalfToFloatAvx2(src, dst, count);
  }
};

// For each 8-bit row mask, lane cc holds the rank (prefix popcount) of bit
// cc: the index of value(rr, cc) within the row's packed Values run. Unset
// lanes get the running rank too — an in-bounds don't-care the blend
// discards.
struct PermLut {
  alignas(32) int32_t idx[256][8];
};

constexpr PermLut MakePermLut() {
  PermLut lut{};
  for (int mask = 0; mask < 256; ++mask) {
    int rank = 0;
    for (int cc = 0; cc < 8; ++cc) {
      lut.idx[mask][cc] = rank;
      if ((mask >> cc) & 1) {
        ++rank;
      }
    }
  }
  return lut;
}

constexpr PermLut kPermLut = MakePermLut();

template <int kN>
struct Avx2NarrowTile {
  void operator()(uint64_t bitmap, const Half* run, int64_t ro, int64_t bt_c,
                  const float* xf, float* acc, int64_t g) const {
    // 1. Expand each row's packed values into column-aligned lanes, widening
    // straight from the FP16 stream (vcvtph2ps is exact).
    __m256 rows[8];
    int off = 0;
    for (int rr = 0; rr < 8; ++rr) {
      const uint32_t rm = static_cast<uint32_t>(bitmap >> (rr * 8)) & 0xFFu;
      const __m256i perm =
          _mm256_load_si256(reinterpret_cast<const __m256i*>(kPermLut.idx[rm]));
      const __m256 packed = _mm256_cvtph_ps(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(run + off)));
      rows[rr] = _mm256_permutevar8x32_ps(packed, perm);
      off += std::popcount(rm);
    }
    // 2. 8x8 transpose: rows[rr] lane cc -> cols[cc] lane rr.
    const __m256 t0 = _mm256_unpacklo_ps(rows[0], rows[1]);
    const __m256 t1 = _mm256_unpackhi_ps(rows[0], rows[1]);
    const __m256 t2 = _mm256_unpacklo_ps(rows[2], rows[3]);
    const __m256 t3 = _mm256_unpackhi_ps(rows[2], rows[3]);
    const __m256 t4 = _mm256_unpacklo_ps(rows[4], rows[5]);
    const __m256 t5 = _mm256_unpackhi_ps(rows[4], rows[5]);
    const __m256 t6 = _mm256_unpacklo_ps(rows[6], rows[7]);
    const __m256 t7 = _mm256_unpackhi_ps(rows[6], rows[7]);
    const __m256 u0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 u1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 u2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 u3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 u4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 u5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 u6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 u7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 cols[8] = {_mm256_permute2f128_ps(u0, u4, 0x20),
                            _mm256_permute2f128_ps(u1, u5, 0x20),
                            _mm256_permute2f128_ps(u2, u6, 0x20),
                            _mm256_permute2f128_ps(u3, u7, 0x20),
                            _mm256_permute2f128_ps(u0, u4, 0x31),
                            _mm256_permute2f128_ps(u1, u5, 0x31),
                            _mm256_permute2f128_ps(u2, u6, 0x31),
                            _mm256_permute2f128_ps(u3, u7, 0x31)};
    // 3. Masked column sweep. rowbytes lane rr = row rr's 8-bit mask;
    // shifting bit cc into bit 31 makes vblendvps select the updated
    // accumulator exactly where bit (rr, cc) is set.
    const __m256i rowbytes =
        _mm256_cvtepu8_epi32(_mm_cvtsi64_si128(static_cast<long long>(bitmap)));
    const float* xt = xf + bt_c * kN;
    for (int j = 0; j < kN; ++j) {
      float* a = acc + j * g + ro;
      __m256 v = _mm256_load_ps(a);
      for (int cc = 0; cc < 8; ++cc) {
        const __m256 sum = _mm256_add_ps(
            v, _mm256_mul_ps(cols[cc], _mm256_broadcast_ss(xt + cc * kN + j)));
        const __m256i lane_mask = _mm256_slli_epi32(rowbytes, 31 - cc);
        v = _mm256_blendv_ps(v, sum, _mm256_castsi256_ps(lane_mask));
      }
      _mm256_store_ps(a, v);
    }
  }
};

template <int kN>
void NarrowRowAvx2Impl(const TcaBmeMatrix& w, int64_t gtr, const float* xf,
                       float* out, SpmmPhaseRecorder* rec) {
  if (rec != nullptr) {
    NarrowRowTask<true, kN>(w, gtr, xf, out, Avx2NarrowTile<kN>{}, rec);
  } else {
    NarrowRowTask<false, kN>(w, gtr, xf, out, Avx2NarrowTile<kN>{});
  }
}

}  // namespace

NarrowRowFn NarrowRowAvx2(int64_t n) {
  static constexpr NarrowRowFn kTable[kCpuSpmmNarrowMaxCols] = {
      &NarrowRowAvx2Impl<1>, &NarrowRowAvx2Impl<2>, &NarrowRowAvx2Impl<3>,
      &NarrowRowAvx2Impl<4>, &NarrowRowAvx2Impl<5>, &NarrowRowAvx2Impl<6>,
      &NarrowRowAvx2Impl<7>, &NarrowRowAvx2Impl<8>};
  return kTable[n - 1];
}

void ProcessGroupTileAvx2(const TcaBmeMatrix& w, int64_t gt, const float* xf,
                          int64_t n, int64_t j0, int64_t nb, float* out,
                          SpmmPhaseRecorder* rec) {
  if (rec != nullptr) {
    ProcessGroupTile<true>(w, gt, xf, n, j0, nb, out, Avx2RowFma{},
                           Avx2Convert{}, rec);
  } else {
    ProcessGroupTile<false>(w, gt, xf, n, j0, nb, out, Avx2RowFma{},
                            Avx2Convert{});
  }
}

void ConvertHalfToFloatAvx2(const Half* src, float* dst, size_t count) {
  static_assert(sizeof(Half) == 2, "F16C conversion assumes 2-byte Half");
  size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m128i h = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm256_storeu_ps(dst + i, _mm256_cvtph_ps(h));
  }
  for (; i < count; ++i) {
    dst[i] = src[i].ToFloat();  // LUT tail: exact, identical to the vector lanes
  }
}

#else  // !SPINFER_CPU_BACKEND_AVX2

void ProcessGroupTileAvx2(const TcaBmeMatrix& w, int64_t gt, const float* xf,
                          int64_t n, int64_t j0, int64_t nb, float* out,
                          SpmmPhaseRecorder* rec) {
  (void)w;
  (void)gt;
  (void)xf;
  (void)n;
  (void)j0;
  (void)nb;
  (void)out;
  (void)rec;
  SPINFER_CHECK_MSG(false, "AVX2 CPU SpMM kernel was not compiled into this binary");
}

NarrowRowFn NarrowRowAvx2(int64_t n) {
  (void)n;
  SPINFER_CHECK_MSG(false, "AVX2 CPU SpMM kernel was not compiled into this binary");
  return nullptr;
}

void ConvertHalfToFloatAvx2(const Half* src, float* dst, size_t count) {
  (void)src;
  (void)dst;
  (void)count;
  SPINFER_CHECK_MSG(false, "AVX2 CPU SpMM kernel was not compiled into this binary");
}

#endif

}  // namespace cpu_backend_detail
}  // namespace spinfer
