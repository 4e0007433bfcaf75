// AVX2+FMA omega-kernel bodies. This translation unit is compiled with
// per-file -mavx2 -mfma (see src/core/CMakeLists.txt) and is entered only
// after runtime CPUID detection (util/cpu_features.h), so the rest of the
// binary stays runnable on baseline x86-64 hosts.
//
// Argmax strategy: each of the four fp64 lanes tracks its own running
// maximum and the (a, b) indices of its *first* strictly-greater occurrence,
// exactly like the scalar reference does over its subsequence.
// Because lanes advance in b-major / a-ascending order, each lane's record
// is the lexicographically smallest occurrence of its lane maximum, and the
// final cross-lane reduce — greatest value, ties to the smallest (b, a) —
// reproduces the reference "first strict maximum in scan order" result
// bit-for-bit. The loop tail is handled by a scalar carbon copy whose
// candidate joins the same reduce.

#include "core/omega_kernel_cpu.h"

#if defined(OMEGA_HAVE_AVX2_TU)

#include <immintrin.h>

#include "core/omega_math.h"

namespace omega::core::detail {
namespace {

/// Lex-(b, a) candidate reduce of the final cross-lane combine. A value of 0
/// never displaces anything (the reference only records strictly positive
/// improvements over its zero init).
struct BestCandidate {
  double value = 0.0;
  std::size_t a = 0;
  std::size_t b = 0;

  void consider(double v, std::size_t av, std::size_t bv) noexcept {
    const bool better =
        v > value ||
        (v > 0.0 && v == value && (bv < b || (bv == b && av < a)));
    if (better) {
      value = v;
      a = av;
      b = bv;
    }
  }
};

}  // namespace

OmegaResult omega_search_avx2_f64(const DpMatrix& m,
                                  const GridPosition& position,
                                  std::size_t b_begin, std::size_t b_end,
                                  const OmegaKernelScratch& scratch) {
  OmegaResult result;
  const std::size_t c = position.c;
  const std::size_t n_left = position.a_max - position.lo + 1;
  const std::size_t n4 = n_left & ~static_cast<std::size_t>(3);
  const double eps = OmegaConfig::denominator_offset;

  const double* ls = scratch.ls.data();
  const double* kl = scratch.kl.data();
  const double* l_d = scratch.l_d.data();

  const __m256d veps = _mm256_set1_pd(eps);
  const __m256d vzero = _mm256_setzero_pd();
  const __m256d viota = _mm256_set_pd(3.0, 2.0, 1.0, 0.0);
  __m256d vbest = vzero;
  __m256d vbest_a = vzero;  // ai as double (exact below 2^53)
  __m256d vbest_b = vzero;  // global b as double

  double tail_best = 0.0;
  std::size_t tail_a = 0, tail_b = 0;

  for (std::size_t b = b_begin; b <= b_end; ++b) {
    const double rs = m.at_fast(b, c + 1);
    const double r_d = static_cast<double>(b - c);
    const double kr = choose2(b - c);
    const double* row_b = m.row_data(b) + (position.lo - m.base());

    const __m256d vrs = _mm256_set1_pd(rs);
    const __m256d vr = _mm256_set1_pd(r_d);
    const __m256d vkr = _mm256_set1_pd(kr);
    const __m256d vb = _mm256_set1_pd(static_cast<double>(b));

    for (std::size_t ai = 0; ai < n4; ai += 4) {
      const __m256d vls = _mm256_loadu_pd(ls + ai);
      const __m256d vkl = _mm256_loadu_pd(kl + ai);
      const __m256d vl = _mm256_loadu_pd(l_d + ai);
      const __m256d vtotal = _mm256_loadu_pd(row_b + ai);

      const __m256d vlr = _mm256_mul_pd(vl, vr);
      const __m256d vsum = _mm256_add_pd(vls, vrs);
      const __m256d vcross = _mm256_sub_pd(vtotal, vsum);
      const __m256d vpairs = _mm256_add_pd(vkl, vkr);
      const __m256d vnum = _mm256_mul_pd(vsum, vlr);
      const __m256d vden =
          _mm256_mul_pd(vpairs, _mm256_fmadd_pd(veps, vlr, vcross));
      __m256d vomega = _mm256_div_pd(vnum, vden);
      // Degenerate l == r == 1 windows (pairs == 0) score 0; the AND also
      // clears any NaN bits those lanes produced.
      const __m256d vvalid = _mm256_cmp_pd(vpairs, vzero, _CMP_GT_OQ);
      vomega = _mm256_and_pd(vomega, vvalid);

      const __m256d vgt = _mm256_cmp_pd(vomega, vbest, _CMP_GT_OQ);
      if (_mm256_movemask_pd(vgt) != 0) {
        const __m256d va =
            _mm256_add_pd(_mm256_set1_pd(static_cast<double>(ai)), viota);
        vbest = _mm256_blendv_pd(vbest, vomega, vgt);
        vbest_a = _mm256_blendv_pd(vbest_a, va, vgt);
        vbest_b = _mm256_blendv_pd(vbest_b, vb, vgt);
      }
    }

    for (std::size_t ai = n4; ai < n_left; ++ai) {
      const double lr = l_d[ai] * r_d;
      const double sum = ls[ai] + rs;
      const double cross = row_b[ai] - sum;
      const double pairs = kl[ai] + kr;
      const double w =
          pairs > 0.0 ? (sum * lr) / (pairs * (eps * lr + cross)) : 0.0;
      if (w > tail_best) {
        tail_best = w;
        tail_a = ai;
        tail_b = b;
      }
    }
  }

  result.evaluated =
      static_cast<std::uint64_t>(b_end - b_begin + 1) * n_left;

  double vals[4], avals[4], bvals[4];
  _mm256_storeu_pd(vals, vbest);
  _mm256_storeu_pd(avals, vbest_a);
  _mm256_storeu_pd(bvals, vbest_b);
  BestCandidate best;
  for (int lane = 0; lane < 4; ++lane) {
    best.consider(vals[lane],
                  position.lo + static_cast<std::size_t>(avals[lane]),
                  static_cast<std::size_t>(bvals[lane]));
  }
  best.consider(tail_best, position.lo + tail_a, tail_b);

  result.max_omega = best.value;
  if (best.value > 0.0) {
    result.best_a = best.a;
    result.best_b = best.b;
  }
  return result;
}

}  // namespace omega::core::detail

#endif  // OMEGA_HAVE_AVX2_TU
