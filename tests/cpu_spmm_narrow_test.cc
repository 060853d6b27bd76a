// Differential suite for the decode-width (N <= kCpuSpmmNarrowMaxCols) CPU
// SpMM kernel.
//
// The narrow kernel must be bit-identical to the N-blocked kernel it replaced
// at decode widths: every output element is the same ascending-column
// mul-then-add chain in both. The N-blocked reference is reached through
// CpuSpmmAccumulateIntoVariant, which never routes by width. Comparisons are
// on raw float bits, so -0.0, infinities and NaN payloads must match too.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "src/core/cpu_backend.h"
#include "src/core/cpu_spmv.h"
#include "src/llm/tiny_transformer.h"
#include "src/util/random.h"
#include "src/util/thread_pool.h"

namespace spinfer {
namespace {

void ExpectSameBits(const FloatMatrix& got, const FloatMatrix& want,
                    const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (int64_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(got.data()[i]),
              std::bit_cast<uint32_t>(want.data()[i]))
        << what << ": first mismatch at flat index " << i << " (got "
        << got.data()[i] << ", want " << want.data()[i] << ")";
  }
}

std::vector<CpuSpmmVariant> AvailableVariants() {
  std::vector<CpuSpmmVariant> v = {CpuSpmmVariant::kPortable};
  if (CpuSpmmVariantAvailable(CpuSpmmVariant::kAvx2)) {
    v.push_back(CpuSpmmVariant::kAvx2);
  }
  return v;
}

// N-blocked reference: out = init + W * x.
FloatMatrix Reference(const TcaBmeMatrix& w, const HalfMatrix& x,
                      const FloatMatrix& init) {
  SpmmWorkspace ws;
  FloatMatrix out = init;
  CpuSpmmAccumulateIntoVariant(w, x, &ws, &out, ActiveCpuSpmmVariant());
  return out;
}

// Initial outputs cycling through the values an accumulate must carry
// through bit-exactly: -0.0 (an added +0 would flip it), +inf and a NaN.
FloatMatrix SpecialInit(int64_t rows, int64_t cols) {
  const float pattern[] = {-0.0f, std::numeric_limits<float>::infinity(),
                           std::numeric_limits<float>::quiet_NaN(), 1.5f,
                           -0.0f, -2.25f};
  FloatMatrix init(rows, cols);
  for (int64_t i = 0; i < init.size(); ++i) {
    init.data()[i] = pattern[i % 6];
  }
  return init;
}

// Sparse weights with every fifth row emptied, so some outputs receive no
// product at all and must keep their initial bits.
HalfMatrix WeightsWithEmptyRows(int64_t m, int64_t k, double density, Rng& rng) {
  HalfMatrix w = HalfMatrix::RandomSparse(m, k, 1.0 - density, rng);
  for (int64_t r = 0; r < m; r += 5) {
    for (int64_t c = 0; c < k; ++c) {
      w.at(r, c) = Half(0.0f);
    }
  }
  return w;
}

struct Shape {
  int64_t m;
  int64_t k;
};

// Aligned to every tile size, then ragged in rows, columns and both (not
// multiples of 8, 16 or 64).
constexpr Shape kShapes[] = {{128, 128}, {131, 128}, {64, 203}, {77, 93}};

struct SweepParam {
  double density;
  int gt;  // GroupTile edge: 16 (TinyTransformer::EncodeFormat) or 64
};

void PrintTo(const SweepParam& p, std::ostream* os) {
  *os << "density " << p.density << ", " << p.gt << "x" << p.gt << " GroupTiles";
}

class NarrowSweep : public ::testing::TestWithParam<SweepParam> {
 protected:
  TcaBmeConfig Format() const {
    if (GetParam().gt == 16) {
      return TinyTransformer::EncodeFormat();
    }
    return TcaBmeConfig{};
  }
};

// N in 1..9: every narrow width plus the first N-blocked one, so the routing
// boundary itself is pinned. Routed public entries, the pinned narrow entry
// of each SIMD variant and three thread counts all land on the reference's
// bits, from a zero and from a special-valued initial output.
TEST_P(NarrowSweep, BitIdenticalToNBlockedReference) {
  const SweepParam p = GetParam();
  Rng rng(9100 + static_cast<uint64_t>(p.density * 1000) + p.gt);
  for (const Shape s : kShapes) {
    const TcaBmeMatrix w =
        TcaBmeMatrix::Encode(WeightsWithEmptyRows(s.m, s.k, p.density, rng), Format());
    for (int64_t n = 1; n <= kCpuSpmmNarrowMaxCols + 1; ++n) {
      const std::string what = "m=" + std::to_string(s.m) + " k=" +
                               std::to_string(s.k) + " n=" + std::to_string(n);
      const HalfMatrix x = HalfMatrix::Random(s.k, n, rng, 0.5f);
      FloatMatrix zero(s.m, n);
      zero.Fill(0.0f);
      const FloatMatrix init = SpecialInit(s.m, n);
      const FloatMatrix ref = Reference(w, x, zero);
      const FloatMatrix ref_init = Reference(w, x, init);

      SpmmWorkspace ws;
      for (const int threads : {1, 2, 8}) {
        ThreadPool::SetGlobalThreads(threads);
        const std::string at = what + " threads=" + std::to_string(threads);
        FloatMatrix out;
        CpuSpmmInto(w, x, &ws, &out);
        ExpectSameBits(out, ref, "CpuSpmmInto " + at);
        out = init;
        CpuSpmmAccumulateInto(w, x, &ws, &out);
        ExpectSameBits(out, ref_init, "CpuSpmmAccumulateInto " + at);
        if (n > kCpuSpmmNarrowMaxCols) {
          continue;
        }
        for (const CpuSpmmVariant v : AvailableVariants()) {
          out = init;
          CpuSpmmNarrowAccumulateIntoVariant(w, x, &ws, &out, v);
          ExpectSameBits(out, ref_init,
                         std::string("narrow ") + CpuSpmmVariantName(v) + " " + at);
        }
      }
      ThreadPool::SetGlobalThreads(1);
      // Outputs of emptied rows received no product: their initial bits,
      // -0.0 included, survive unchanged.
      for (int64_t j = 0; j < n; ++j) {
        ASSERT_EQ(std::bit_cast<uint32_t>(ref_init.at(0, j)),
                  std::bit_cast<uint32_t>(init.at(0, j)))
            << what;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NarrowSweep,
    ::testing::Values(SweepParam{0.3, 16}, SweepParam{0.5, 16},
                      SweepParam{0.6, 16}, SweepParam{0.7, 16},
                      SweepParam{0.9, 16}, SweepParam{0.99, 16},
                      SweepParam{0.3, 64}, SweepParam{0.5, 64},
                      SweepParam{0.6, 64}, SweepParam{0.7, 64},
                      SweepParam{0.9, 64}, SweepParam{0.99, 64}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return "density" + std::to_string(static_cast<int>(info.param.density * 100)) +
             "_gt" + std::to_string(info.param.gt);
    });

// FP32 activations beyond the FP16 range round to +-inf while the panel is
// built. The Quant forms must land on the bits of the N-blocked kernel run on
// the explicitly rounded HalfMatrix, infinities and the NaNs of inf - inf
// included.
TEST(CpuSpmmNarrowTest, QuantFormsWithOverflowingActivations) {
  Rng rng(9201);
  for (const TcaBmeConfig& fmt : {TinyTransformer::EncodeFormat(), TcaBmeConfig{}}) {
    const TcaBmeMatrix w =
        TcaBmeMatrix::Encode(WeightsWithEmptyRows(77, 93, 0.6, rng), fmt);
    for (int64_t n = 1; n <= kCpuSpmmNarrowMaxCols + 1; ++n) {
      FloatMatrix x(93, n);
      HalfMatrix xh(93, n);
      for (int64_t i = 0; i < x.size(); ++i) {
        float v = rng.Uniform(-1.0f, 1.0f);
        if (i % 7 == 3) {
          v = 1.0e6f;  // overflows FP16 to +inf
        } else if (i % 11 == 5) {
          v = -7.0e4f;  // overflows FP16 to -inf
        }
        x.data()[i] = v;
        xh.data()[i] = Half(v);
      }
      FloatMatrix zero(77, n);
      zero.Fill(0.0f);
      const FloatMatrix init = SpecialInit(77, n);
      SpmmWorkspace ws;
      FloatMatrix out;
      CpuSpmmQuantInto(w, x, &ws, &out);
      ExpectSameBits(out, Reference(w, xh, zero), "CpuSpmmQuantInto n=" + std::to_string(n));
      out = init;
      CpuSpmmQuantAccumulateInto(w, x, &ws, &out);
      ExpectSameBits(out, Reference(w, xh, init),
                     "CpuSpmmQuantAccumulateInto n=" + std::to_string(n));
      if (n == 1) {
        CpuSpmvQuantInto(w, x, &ws, &out);
        ExpectSameBits(out, Reference(w, xh, zero), "CpuSpmvQuantInto");
      }
    }
  }
}

TcaBmeMatrix TallGroupTileMatrix(Rng& rng) {
  TcaBmeConfig tall;
  tall.gt_rows = 272;
  return TcaBmeMatrix::Encode(HalfMatrix::RandomSparse(300, 40, 0.5, rng), tall);
}

// GroupTiles taller than the narrow kernel's stack accumulator stay on the
// N-blocked kernel at decode widths.
TEST(CpuSpmmNarrowTest, TallGroupTilesRouteToNBlocked) {
  Rng rng(9301);
  const TcaBmeMatrix w = TallGroupTileMatrix(rng);
  const HalfMatrix x = HalfMatrix::Random(40, 3, rng, 0.5f);
  FloatMatrix zero(300, 3);
  zero.Fill(0.0f);
  SpmmWorkspace ws;
  FloatMatrix out;
  CpuSpmmInto(w, x, &ws, &out);
  ExpectSameBits(out, Reference(w, x, zero), "gt_rows=272");
}

TEST(CpuSpmmNarrowDeathTest, PinnedEntryRefusesTallGroupTiles) {
  EXPECT_DEATH(
      {
        Rng rng(9302);
        const TcaBmeMatrix w = TallGroupTileMatrix(rng);
        const HalfMatrix x = HalfMatrix::Random(40, 1, rng, 0.5f);
        FloatMatrix out(300, 1);
        SpmmWorkspace ws;
        CpuSpmmNarrowAccumulateIntoVariant(w, x, &ws, &out,
                                           CpuSpmmVariant::kPortable);
      },
      "narrow CPU SpMM kernel");
}

// A serving loop that has seen its widest decode batch once performs no
// further heap growth in the workspace, at any narrower width.
TEST(CpuSpmmNarrowTest, WarmCallsDoNotGrowWorkspace) {
  Rng rng(9401);
  const TcaBmeMatrix w = TcaBmeMatrix::Encode(
      HalfMatrix::RandomSparse(96, 80, 0.6, rng), TinyTransformer::EncodeFormat());
  std::vector<FloatMatrix> xs;
  for (int64_t n = 1; n <= kCpuSpmmNarrowMaxCols; ++n) {
    FloatMatrix x(80, n);
    for (int64_t i = 0; i < x.size(); ++i) {
      x.data()[i] = rng.Uniform(-1.0f, 1.0f);
    }
    xs.push_back(std::move(x));
  }
  SpmmWorkspace ws;
  FloatMatrix out;
  CpuSpmmQuantInto(w, xs.back(), &ws, &out);
  const int64_t warm = ws.grow_count();
  for (int rep = 0; rep < 3; ++rep) {
    for (const FloatMatrix& x : xs) {
      CpuSpmmQuantInto(w, x, &ws, &out);
      out.Fill(0.0f);
      CpuSpmmQuantAccumulateInto(w, x, &ws, &out);
    }
  }
  EXPECT_EQ(ws.grow_count(), warm);
}

}  // namespace
}  // namespace spinfer
