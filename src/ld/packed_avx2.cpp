// AVX2 microkernel bodies of the packed LD engine, compiled in their own
// translation unit with per-file -mavx2 (see src/ld/CMakeLists.txt). Nothing
// here is called unless util/cpu_features reports AVX2 at runtime — the same
// per-TU dispatch contract as core/omega_kernel_avx2.cpp. When the compiler
// cannot target AVX2 the TU compiles to nothing and packed.cpp supplies the
// scalar-aliased fallback symbol.
//
// Popcount strategy by depth slice (Mula/Kurz/Lemire lineage):
//   * under one vector (1-3 words, the unpadded shallow rows): hardware
//     popcnt per u64 word (-mavx2 implies -mpopcnt), with no vector set-up
//     or horizontal sum per pair;
//   * from one vector: vpshufb nibble-LUT gives per-byte counts, vpsadbw
//     folds them into four u64 lanes;
//   * from 64 words: a Harley-Seal carry-save adder tree compresses 16
//     AND-ed vectors per full popcount, cutting the LUT work 16x.

#include "ld/packed.h"

#if defined(OMEGA_LD_HAVE_AVX2_TU)

#include <immintrin.h>

#include <bit>
#include <cstdint>

namespace omega::ld::packed_detail {
namespace {

inline __m256i load_and(const std::uint64_t* a, const std::uint64_t* b) {
  return _mm256_and_si256(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a)),
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b)));
}

/// Per-64-bit-lane popcount of a 256-bit vector: nibble lookup (vpshufb)
/// produces per-byte counts, vpsadbw against zero sums each 8-byte group.
inline __m256i popcount256(__m256i v) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  const __m256i bytes = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                        _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(bytes, _mm256_setzero_si256());
}

/// Carry-save adder: (h, l) = a + b + c as a 2-bit redundant sum per lane.
inline void csa(__m256i& h, __m256i& l, __m256i a, __m256i b, __m256i c) {
  const __m256i u = _mm256_xor_si256(a, b);
  h = _mm256_or_si256(_mm256_and_si256(a, b), _mm256_and_si256(u, c));
  l = _mm256_xor_si256(u, c);
}

inline std::uint64_t hsum_epi64(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i s = _mm_add_epi64(lo, hi);
  return static_cast<std::uint64_t>(_mm_cvtsi128_si64(s)) +
         static_cast<std::uint64_t>(_mm_extract_epi64(s, 1));
}

/// popcount(a & b) over `words` u64 words, by depth: popcnt per word under
/// one vector, Harley-Seal over 64-word blocks when the depth is there, and
/// plain LUT-popcount accumulation in between.
std::uint64_t and_popcount_avx2(const std::uint64_t* a, const std::uint64_t* b,
                                std::size_t words) {
  std::uint64_t sum = 0;
  std::size_t w = 0;
  if (words < kVectorWords) {
    for (; w < words; ++w) {
      sum += static_cast<std::uint64_t>(std::popcount(a[w] & b[w]));
    }
    return sum;
  }
  __m256i total = _mm256_setzero_si256();
  if (words >= 64) {
    __m256i ones = _mm256_setzero_si256();
    __m256i twos = _mm256_setzero_si256();
    __m256i fours = _mm256_setzero_si256();
    __m256i eights = _mm256_setzero_si256();
    for (; w + 64 <= words; w += 64) {
      __m256i twos_a, twos_b, fours_a, fours_b, eights_a, eights_b, sixteens;
      csa(twos_a, ones, ones, load_and(a + w, b + w),
          load_and(a + w + 4, b + w + 4));
      csa(twos_b, ones, ones, load_and(a + w + 8, b + w + 8),
          load_and(a + w + 12, b + w + 12));
      csa(fours_a, twos, twos, twos_a, twos_b);
      csa(twos_a, ones, ones, load_and(a + w + 16, b + w + 16),
          load_and(a + w + 20, b + w + 20));
      csa(twos_b, ones, ones, load_and(a + w + 24, b + w + 24),
          load_and(a + w + 28, b + w + 28));
      csa(fours_b, twos, twos, twos_a, twos_b);
      csa(eights_a, fours, fours, fours_a, fours_b);
      csa(twos_a, ones, ones, load_and(a + w + 32, b + w + 32),
          load_and(a + w + 36, b + w + 36));
      csa(twos_b, ones, ones, load_and(a + w + 40, b + w + 40),
          load_and(a + w + 44, b + w + 44));
      csa(fours_a, twos, twos, twos_a, twos_b);
      csa(twos_a, ones, ones, load_and(a + w + 48, b + w + 48),
          load_and(a + w + 52, b + w + 52));
      csa(twos_b, ones, ones, load_and(a + w + 56, b + w + 56),
          load_and(a + w + 60, b + w + 60));
      csa(fours_b, twos, twos, twos_a, twos_b);
      csa(eights_b, fours, fours, fours_a, fours_b);
      csa(sixteens, eights, eights, eights_a, eights_b);
      total = _mm256_add_epi64(total, popcount256(sixteens));
    }
    total = _mm256_slli_epi64(total, 4);
    total =
        _mm256_add_epi64(total, _mm256_slli_epi64(popcount256(eights), 3));
    total = _mm256_add_epi64(total, _mm256_slli_epi64(popcount256(fours), 2));
    total = _mm256_add_epi64(total, _mm256_slli_epi64(popcount256(twos), 1));
    total = _mm256_add_epi64(total, popcount256(ones));
  }
  for (; w + 4 <= words; w += 4) {
    total = _mm256_add_epi64(total, popcount256(load_and(a + w, b + w)));
  }
  sum = hsum_epi64(total);
  for (; w < words; ++w) {
    sum += static_cast<std::uint64_t>(std::popcount(a[w] & b[w]));
  }
  return sum;
}

void tile_counts_avx2(const std::uint64_t* a_panel,
                      const std::uint64_t* b_panel, std::size_t stride_words,
                      std::size_t words, std::size_t m, std::size_t n,
                      std::uint32_t* c, std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i) {
    const std::uint64_t* a = a_panel + i * stride_words;
    for (std::size_t j = 0; j < n; ++j) {
      c[i * ldc + j] += static_cast<std::uint32_t>(
          and_popcount_avx2(a, b_panel + j * stride_words, words));
    }
  }
}

void tile_fused_avx2(const std::uint64_t* a_panel,
                     const std::uint64_t* b_panel, std::size_t stride_words,
                     std::size_t mask_offset, std::size_t words, std::size_t m,
                     std::size_t n, std::uint32_t* c, std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i) {
    const std::uint64_t* ad = a_panel + i * stride_words;
    const std::uint64_t* am = ad + mask_offset;
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint64_t* bd = b_panel + j * stride_words;
      const std::uint64_t* bm = bd + mask_offset;
      // One pass, four independent accumulator chains (data.data, data.mask,
      // mask.data, mask.mask) — the ILP here is what makes the fused path
      // beat four separate sweeps even before the memory-traffic win.
      __m256i t11 = _mm256_setzero_si256();
      __m256i tni = _mm256_setzero_si256();
      __m256i tnj = _mm256_setzero_si256();
      __m256i tnn = _mm256_setzero_si256();
      std::size_t w = 0;
      for (; w + 4 <= words; w += 4) {
        const __m256i da =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ad + w));
        const __m256i ma =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(am + w));
        const __m256i db =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bd + w));
        const __m256i mb =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bm + w));
        t11 = _mm256_add_epi64(t11, popcount256(_mm256_and_si256(da, db)));
        tni = _mm256_add_epi64(tni, popcount256(_mm256_and_si256(da, mb)));
        tnj = _mm256_add_epi64(tnj, popcount256(_mm256_and_si256(ma, db)));
        tnn = _mm256_add_epi64(tnn, popcount256(_mm256_and_si256(ma, mb)));
      }
      // Under one vector the loop above never ran: skip the four horizontal
      // sums and count the words with popcnt below.
      std::uint64_t n11 = 0, ni = 0, nj = 0, nn = 0;
      if (words >= kVectorWords) {
        n11 = hsum_epi64(t11);
        ni = hsum_epi64(tni);
        nj = hsum_epi64(tnj);
        nn = hsum_epi64(tnn);
      }
      for (; w < words; ++w) {
        n11 += static_cast<std::uint64_t>(std::popcount(ad[w] & bd[w]));
        ni += static_cast<std::uint64_t>(std::popcount(ad[w] & bm[w]));
        nj += static_cast<std::uint64_t>(std::popcount(am[w] & bd[w]));
        nn += static_cast<std::uint64_t>(std::popcount(am[w] & bm[w]));
      }
      std::uint32_t* cell = c + (i * ldc + j) * 4;
      cell[0] += static_cast<std::uint32_t>(n11);
      cell[1] += static_cast<std::uint32_t>(ni);
      cell[2] += static_cast<std::uint32_t>(nj);
      cell[3] += static_cast<std::uint32_t>(nn);
    }
  }
}

}  // namespace

const PackedKernels& avx2_kernels() noexcept {
  static const PackedKernels kernels{tile_counts_avx2, tile_fused_avx2,
                                     "avx2"};
  return kernels;
}

}  // namespace omega::ld::packed_detail

#endif  // OMEGA_LD_HAVE_AVX2_TU
