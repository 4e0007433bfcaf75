#include "ld/packed.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "util/cpu_features.h"
#include "util/stage.h"
#include "util/telemetry.h"
#include "util/trace.h"

namespace omega::ld {
namespace packed_detail {
namespace {

void tile_counts_scalar(const std::uint64_t* a_panel,
                        const std::uint64_t* b_panel, std::size_t stride_words,
                        std::size_t words, std::size_t m, std::size_t n,
                        std::uint32_t* c, std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i) {
    const std::uint64_t* a = a_panel + i * stride_words;
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint64_t* b = b_panel + j * stride_words;
      std::uint64_t sum = 0;
      for (std::size_t w = 0; w < words; ++w) {
        sum += static_cast<std::uint64_t>(std::popcount(a[w] & b[w]));
      }
      c[i * ldc + j] += static_cast<std::uint32_t>(sum);
    }
  }
}

void tile_fused_scalar(const std::uint64_t* a_panel,
                       const std::uint64_t* b_panel, std::size_t stride_words,
                       std::size_t mask_offset, std::size_t words,
                       std::size_t m, std::size_t n, std::uint32_t* c,
                       std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i) {
    const std::uint64_t* ad = a_panel + i * stride_words;
    const std::uint64_t* am = ad + mask_offset;
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint64_t* bd = b_panel + j * stride_words;
      const std::uint64_t* bm = bd + mask_offset;
      std::uint64_t n11 = 0, ni = 0, nj = 0, nn = 0;
      for (std::size_t w = 0; w < words; ++w) {
        const std::uint64_t da = ad[w];
        const std::uint64_t ma = am[w];
        const std::uint64_t db = bd[w];
        const std::uint64_t mb = bm[w];
        n11 += static_cast<std::uint64_t>(std::popcount(da & db));
        ni += static_cast<std::uint64_t>(std::popcount(da & mb));
        nj += static_cast<std::uint64_t>(std::popcount(ma & db));
        nn += static_cast<std::uint64_t>(std::popcount(ma & mb));
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

const PackedKernels& scalar_kernels() noexcept {
  static const PackedKernels kernels{tile_counts_scalar, tile_fused_scalar,
                                     "scalar"};
  return kernels;
}

#if !defined(OMEGA_LD_HAVE_AVX2_TU)
// The compiler could not target AVX2, so the vector TU compiled to nothing;
// resolve_kernels never hands these out (packed_avx2_available() is false),
// but the symbol must exist for the link.
const PackedKernels& avx2_kernels() noexcept { return scalar_kernels(); }
#endif

const PackedKernels& resolve_kernels(PackedIsa isa) {
  switch (isa) {
    case PackedIsa::Scalar:
      return scalar_kernels();
    case PackedIsa::Avx2:
      if (!packed_avx2_available()) {
        throw std::runtime_error(
            "packed LD engine: AVX2 requested but this binary/host cannot "
            "run it");
      }
      return avx2_kernels();
    case PackedIsa::Auto:
      return packed_avx2_available() ? avx2_kernels() : scalar_kernels();
  }
  throw std::logic_error("unknown PackedIsa");
}

}  // namespace packed_detail

bool packed_avx2_available() noexcept {
#if defined(OMEGA_LD_HAVE_AVX2_TU)
  return util::cpu_features().avx2;
#else
  return false;
#endif
}

const char* packed_isa_name(PackedIsa isa) {
  return packed_detail::resolve_kernels(isa).isa;
}

PackedLd::PackedLd(const SnpMatrix& snps, PackedBlocking blocking,
                   PackedIsa isa)
    : snps_(snps),
      blocking_(blocking),
      kernels_(packed_detail::resolve_kernels(isa)),
      fused_(snps.has_missing()) {
  blocking_.mc = std::max<std::size_t>(blocking_.mc, PackedBlocking::mr);
  blocking_.nc = std::max<std::size_t>(blocking_.nc, PackedBlocking::nr);
  blocking_.kc_words = std::max<std::size_t>(blocking_.kc_words, 1);
  blocking_.sites_per_panel = std::max<std::size_t>(blocking_.sites_per_panel, 1);

  constexpr std::size_t kVector = packed_detail::kVectorWords;
  const std::size_t words = snps_.words_per_site();
  padded_words_ =
      words < kVector ? words : (words + kVector - 1) / kVector * kVector;
  stride_words_ = padded_words_ * (fused_ ? 2 : 1);
  const std::size_t sites = snps_.num_sites();
  num_blocks_ =
      (sites + blocking_.sites_per_panel - 1) / blocking_.sites_per_panel;
  if (!fused_) {
    const auto samples = static_cast<float>(snps_.num_samples());
    frac_.resize(snps_.num_samples() + 1);
    for (std::size_t k = 0; k < frac_.size(); ++k) {
      frac_[k] = static_cast<float>(k) / samples;
    }
  }
  if (sites > 0) {
    arena_ = std::make_unique<std::uint64_t[]>(sites * stride_words_);
    if (!fused_) {
      site_p_ = std::make_unique<float[]>(sites);
      site_pq_ = std::make_unique<float[]>(sites);
      site_q_ = std::make_unique<float[]>(sites);
    }
    block_packed_ = std::make_unique<std::atomic<bool>[]>(num_blocks_);
    for (std::size_t b = 0; b < num_blocks_; ++b) {
      block_packed_[b].store(false, std::memory_order_relaxed);
    }
  }
}

std::size_t PackedLd::ensure_packed(std::size_t begin, std::size_t end) const {
  static util::telemetry::Counter& hit_counter =
      util::telemetry::counter("ld.panel_cache.hits");
  static util::telemetry::Counter& miss_counter =
      util::telemetry::counter("ld.panel_cache.misses");
  if (begin >= end) return 0;
  const std::size_t first = begin / blocking_.sites_per_panel;
  const std::size_t last = (end - 1) / blocking_.sites_per_panel;

  // Fast path: every requested block already packed (the cross-extend case:
  // after the first extend against a chunk, subsequent calls are all hits).
  bool all_packed = true;
  for (std::size_t b = first; b <= last; ++b) {
    if (!block_packed_[b].load(std::memory_order_acquire)) {
      all_packed = false;
      break;
    }
  }
  if (all_packed) {
    const std::uint64_t blocks = last - first + 1;
    hits_.fetch_add(blocks, std::memory_order_relaxed);
    hit_counter.add(blocks);
    return 0;
  }

  std::size_t packed_now = 0;
  std::uint64_t hits_now = 0;
  const std::size_t words = snps_.words_per_site();
  const std::lock_guard<std::mutex> lock(pack_mutex_);
  for (std::size_t b = first; b <= last; ++b) {
    if (block_packed_[b].load(std::memory_order_relaxed)) {
      ++hits_now;
      continue;
    }
    const std::size_t s0 = b * blocking_.sites_per_panel;
    const std::size_t s1 =
        std::min(s0 + blocking_.sites_per_panel, snps_.num_sites());
    for (std::size_t s = s0; s < s1; ++s) {
      std::uint64_t* row = arena_.get() + s * stride_words_;
      std::memcpy(row, snps_.row(s), words * sizeof(std::uint64_t));
      std::memset(row + words, 0,
                  (padded_words_ - words) * sizeof(std::uint64_t));
      if (fused_) {
        std::uint64_t* mask = row + padded_words_;
        std::memcpy(mask, snps_.mask(s), words * sizeof(std::uint64_t));
        std::memset(mask + words, 0,
                    (padded_words_ - words) * sizeof(std::uint64_t));
      } else {
        // The same float operations r2_from_counts_f applies to ni or nj.
        const float p = frac_[static_cast<std::size_t>(snps_.derived_count(s))];
        site_p_[s] = p;
        site_pq_[s] = p * (1.0f - p);
        site_q_[s] = 1.0f - p;
      }
    }
    block_packed_[b].store(true, std::memory_order_release);
    ++packed_now;
  }
  packs_.fetch_add(packed_now, std::memory_order_relaxed);
  miss_counter.add(packed_now);
  if (hits_now > 0) {
    hits_.fetch_add(hits_now, std::memory_order_relaxed);
    hit_counter.add(hits_now);
  }
  return packed_now;
}

void PackedLd::r2_block(std::size_t i0, std::size_t i1, std::size_t j0,
                        std::size_t j1, float* out, std::size_t ld) const {
  static const util::Stage& pack_stage = util::stage("ld.pack");
  static const util::Stage& kernel_stage = util::stage("ld.kernel");
  const util::trace::Span span("ld.packed.r2_block");
  note_served(static_cast<std::uint64_t>(i1 - i0) * (j1 - j0));
  const std::size_t m = i1 - i0;
  const std::size_t n = j1 - j0;
  if (m == 0 || n == 0) return;

  {
    const util::StageScope scope(pack_stage);
    ensure_packed(i0, i1);
    ensure_packed(j0, j1);
  }

  const util::StageScope scope(kernel_stage);
  constexpr std::size_t MR = PackedBlocking::mr;
  constexpr std::size_t NR = PackedBlocking::nr;
  const std::size_t lanes = fused_ ? 4 : 1;

  // Per-thread count scratch: engines are shared across scan workers, so the
  // accumulator cannot live in the (const) engine itself.
  static thread_local std::vector<std::uint32_t> counts;
  counts.assign(m * n * lanes, 0);

  // BLIS-shaped pc (depth words) -> jc (B sites) -> ic (A sites) loop nest
  // over the packed arena, NR/MR slivers feeding the microkernel. Depth
  // blocking splits each pair's popcount into kc_words partial sums; integer
  // addition commutes, so the counts (and hence r2) are independent of the
  // blocking parameters.
  for (std::size_t pc = 0; pc < padded_words_; pc += blocking_.kc_words) {
    const std::size_t kw = std::min(blocking_.kc_words, padded_words_ - pc);
    for (std::size_t jc = 0; jc < n; jc += blocking_.nc) {
      const std::size_t ncb = std::min(blocking_.nc, n - jc);
      for (std::size_t ic = 0; ic < m; ic += blocking_.mc) {
        const std::size_t mcb = std::min(blocking_.mc, m - ic);
        for (std::size_t jb = 0; jb < ncb; jb += NR) {
          const std::size_t nrb = std::min(NR, ncb - jb);
          const std::uint64_t* b_panel = arena_row(j0 + jc + jb) + pc;
          for (std::size_t ib = 0; ib < mcb; ib += MR) {
            const std::size_t mrb = std::min(MR, mcb - ib);
            const std::uint64_t* a_panel = arena_row(i0 + ic + ib) + pc;
            std::uint32_t* c_tile =
                counts.data() + ((ic + ib) * n + (jc + jb)) * lanes;
            if (fused_) {
              kernels_.tile_fused(a_panel, b_panel, stride_words_,
                                  padded_words_, kw, mrb, nrb, c_tile, n);
            } else {
              kernels_.tile(a_panel, b_panel, stride_words_, kw, mrb, nrb,
                            c_tile, n);
            }
          }
        }
      }
    }
  }

  if (fused_) {
    // Pairwise-complete n differs per pair: convert through the same
    // r2_from_counts_f every engine uses.
    for (std::size_t i = 0; i < m; ++i) {
      float* row = out + i * ld;
      for (std::size_t j = 0; j < n; ++j) {
        const std::uint32_t* cell = counts.data() + (i * n + j) * 4;
        const PairCounts pair{static_cast<std::int32_t>(cell[3]),
                              static_cast<std::int32_t>(cell[1]),
                              static_cast<std::int32_t>(cell[2]),
                              static_cast<std::int32_t>(cell[0])};
        row[j] = r2_from_counts_f(pair);
      }
    }
  } else {
    r2_from_counts_hoisted(counts.data(), i0, m, j0, n, out, ld);
  }
}

void PackedLd::r2_from_counts_hoisted(const std::uint32_t* counts,
                                      std::size_t i0, std::size_t m,
                                      std::size_t j0, std::size_t n,
                                      float* out, std::size_t ld) const {
  if (snps_.num_samples() < 2) {  // r2_from_counts_f's samples < 2 zero
    for (std::size_t i = 0; i < m; ++i) std::fill_n(out + i * ld, n, 0.0f);
    return;
  }
  // r2_from_counts_f with n = samples, term for term: pi = ni/n, pj = nj/n
  // and pij = nij/n are the same divides (done once per site and per k),
  // denom = ((pi * (1 - pi)) * pj) * (1 - pj) and d = pij - pi * pj keep its
  // association, so only d * d / denom is left per pair.
  const float* col_p = site_p_.get() + j0;
  const float* col_q = site_q_.get() + j0;
  for (std::size_t i = 0; i < m; ++i) {
    const float pi = site_p_[i0 + i];
    const float pqi = site_pq_[i0 + i];
    const std::uint32_t* c = counts + i * n;
    float* row = out + i * ld;
    for (std::size_t j = 0; j < n; ++j) row[j] = frac_[c[j]];  // p_ij
    // d * d / denom is computed on every lane and masked to +0 where
    // denom <= 0: a branch or ?: here keeps GCC from vectorizing the loop
    // (it may not speculate a divide under -ftrapping-math). Vector lanes
    // round each operation exactly as the scalar r2_from_counts_f does.
    for (std::size_t j = 0; j < n; ++j) {
      const float denom = pqi * col_p[j] * col_q[j];
      const float d = row[j] - pi * col_p[j];
      const float r2 = d * d / denom;
      const std::uint32_t keep = 0u - static_cast<std::uint32_t>(denom > 0.0f);
      row[j] = std::bit_cast<float>(std::bit_cast<std::uint32_t>(r2) & keep);
    }
  }
}

}  // namespace omega::ld
