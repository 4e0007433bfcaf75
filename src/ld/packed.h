#pragma once
// Bit-packed blocked LD engine: the PLINK-style answer to GemmLd's byte
// panels. Operands stay 1 bit per genotype end-to-end — 256 genotypes per
// AVX2 vector — and each pair's count is AND + popcount over the two rows.
// The AVX2 body picks its popcount by row depth: hardware popcnt on the u64
// words for rows under one vector (1-3 words, <= 192 samples), the vpshufb
// nibble-LUT + vpsadbw for deeper rows, and a Harley-Seal carry-save
// reduction once a depth slice reaches 64 words. A scalar
// std::popcount-over-u64 body backs the same loop nest on hosts/binaries
// without AVX2; selection happens once at engine construction through
// util/cpu_features, mirroring the omega_kernel_avx2.cpp per-TU dispatch
// pattern.
//
// Row layout: a row is as deep as the data needs. Rows of 1-3 words are
// stored unpadded; rows of >= 4 words are zero-padded to a multiple of 4
// words (one AVX2 vector), so a 64-haplotype site costs one word, not a
// padded cache line. The same rule sizes each half of a fused row.
//
// Missing data: rows are packed as fused [data | mask] rows and the fused
// tile produces all four pairwise-complete count streams (data.data,
// data.mask, mask.data, mask.mask) in ONE pass — where GemmLd runs four
// independent GEMM sweeps.
//
// Counts -> r2: without missing data every pair shares n = samples, so the
// per-site terms of Eq. (1) (p, p(1-p), 1-p) are computed once when a
// site's row is packed and the k/n values once per engine; the pair loop
// then does one divide, in r2_from_counts_f's exact operation order, so the
// floats stay bitwise equal to every other engine (src/ld compiles with
// -ffp-contract=off to keep that order under -march=native too). The fused
// path converts per pair through r2_from_counts_f, since n varies by pair.
//
// Panel cache: packing is lazy and cached per site-range block, so the
// B-panels of a chunk are packed exactly once and every subsequent
// DpMatrix::extend against the same chunk is all cache hits (counters
// ld.panel_cache.{hits,misses} in the telemetry registry). The cache is
// keyed by site range over the engine's immutable SnpMatrix; a chunk switch
// builds a new engine and thereby invalidates it.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "ld/ld_engine.h"
#include "ld/snp_matrix.h"

namespace omega::ld {

/// Cache blocking of the packed engine. Depth (sample) blocking is in 64-bit
/// words: kc_words = 512 keeps one row slice at 4 KiB, so an nr B-sliver
/// sits in L1 while mr A-rows stream against it.
struct PackedBlocking {
  std::size_t mc = 128;        // A-tile height in sites (ic loop)
  std::size_t nc = 256;        // B-tile width in sites (jc loop)
  std::size_t kc_words = 512;  // depth slice in u64 words (pc loop)
  /// Pack/cache granularity: sites per lazily-packed panel block.
  std::size_t sites_per_panel = 256;
  // Sliver sizes: one tile call covers up to mr A-rows x nr B-rows. The
  // bodies walk those pairs one at a time; no counts stay in registers
  // across pairs.
  static constexpr std::size_t mr = 8;
  static constexpr std::size_t nr = 4;
};

/// Which microkernel body the packed engine runs. Auto resolves to Avx2 when
/// the binary carries the AVX2 TU and the host supports it.
enum class PackedIsa { Auto, Scalar, Avx2 };

/// True when the AVX2 microkernel is compiled in and the host can run it.
[[nodiscard]] bool packed_avx2_available() noexcept;

/// The body PackedIsa::Auto resolves to on this binary/host ("avx2" or
/// "scalar"); stamped into the metrics "ld" block and BENCH_LD.json.
[[nodiscard]] const char* packed_isa_name(PackedIsa isa);

namespace packed_detail {

/// u64 words per AVX2 vector. Rows at least this deep are zero-padded to a
/// multiple of it (a whole-row depth slice leaves the vector loop no scalar
/// tail); shallower rows stay unpadded and the AVX2 body counts them with
/// popcnt. The pad words are zero in data and mask alike, so they add
/// nothing to any count stream.
inline constexpr std::size_t kVectorWords = 4;

/// Count tile: c[i * ldc + j] += popcount(A_i & B_j) over `words` words,
/// for i < m (<= mr), j < n (<= nr), one pair at a time. Row r of a panel
/// starts at panel + r * stride_words; callers offset `panel` by the current
/// depth slice and keep `stride_words` at the full row stride.
using TileCountsFn = void (*)(const std::uint64_t* a_panel,
                              const std::uint64_t* b_panel,
                              std::size_t stride_words, std::size_t words,
                              std::size_t m, std::size_t n, std::uint32_t* c,
                              std::size_t ldc);

/// Fused pairwise-complete tile over [data | mask] rows (mask at
/// row + mask_offset words): accumulates the four streams into
/// c[(i * ldc + j) * 4 + {0: n11, 1: ni, 2: nj, 3: n}] in one pass.
using TileFusedFn = void (*)(const std::uint64_t* a_panel,
                             const std::uint64_t* b_panel,
                             std::size_t stride_words, std::size_t mask_offset,
                             std::size_t words, std::size_t m, std::size_t n,
                             std::uint32_t* c, std::size_t ldc);

struct PackedKernels {
  TileCountsFn tile = nullptr;
  TileFusedFn tile_fused = nullptr;
  const char* isa = "scalar";
};

/// Scalar std::popcount bodies (always available; the test oracle for the
/// AVX2 TU).
[[nodiscard]] const PackedKernels& scalar_kernels() noexcept;
/// AVX2 bodies; only valid to call when packed_avx2_available().
[[nodiscard]] const PackedKernels& avx2_kernels() noexcept;
/// Resolves `isa` (Auto -> best available). Throws std::runtime_error when
/// Avx2 is forced on a binary/host that cannot run it.
[[nodiscard]] const PackedKernels& resolve_kernels(PackedIsa isa);

}  // namespace packed_detail

/// The bit-packed blocked engine (non-owning view of the matrix).
class PackedLd final : public LdEngine {
 public:
  explicit PackedLd(const SnpMatrix& snps, PackedBlocking blocking = {},
                    PackedIsa isa = PackedIsa::Auto);

  void r2_block(std::size_t i0, std::size_t i1, std::size_t j0, std::size_t j1,
                float* out, std::size_t ld) const override;
  [[nodiscard]] std::string name() const override { return "packed"; }
  [[nodiscard]] std::size_t num_sites() const override {
    return snps_.num_sites();
  }

  /// The tile body this instance resolved to ("avx2" | "scalar").
  [[nodiscard]] const char* isa() const noexcept { return kernels_.isa; }

  /// Panel-cache accounting over this engine's lifetime (also mirrored into
  /// the process-wide telemetry counters ld.panel_cache.{misses,hits}).
  [[nodiscard]] std::uint64_t panel_packs() const noexcept {
    return packs_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t panel_hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }

 private:
  /// Packs (and caches) every panel block overlapping [begin, end), with the
  /// blocks' per-site Eq. (1) terms; returns the number of blocks packed by
  /// this call (0 = all hits).
  std::size_t ensure_packed(std::size_t begin, std::size_t end) const;

  /// Start of site `s`'s packed row inside the arena.
  [[nodiscard]] const std::uint64_t* arena_row(std::size_t s) const noexcept {
    return arena_.get() + s * stride_words_;
  }

  /// Complete-data counts -> r2 with the per-site terms hoisted.
  void r2_from_counts_hoisted(const std::uint32_t* counts, std::size_t i0,
                              std::size_t m, std::size_t j0, std::size_t n,
                              float* out, std::size_t ld) const;

  const SnpMatrix& snps_;
  PackedBlocking blocking_;
  packed_detail::PackedKernels kernels_;
  bool fused_ = false;          // missing data -> fused [data | mask] rows
  std::size_t padded_words_ = 0;  // row words, padded only when >= 4 words
  std::size_t stride_words_ = 0;  // padded_words_ * (fused_ ? 2 : 1)
  std::size_t num_blocks_ = 0;    // ceil(sites / sites_per_panel)
  /// k / samples for k = 0..samples: p_ij without a per-pair divide
  /// (complete data only).
  std::vector<float> frac_;

  // The arena, the site terms and the per-block packed flags are the panel
  // cache: blocks are packed lazily under pack_mutex_ and readers spin-free
  // on the acquire flags, so concurrent workers of a multithreaded scan
  // share one cache.
  mutable std::unique_ptr<std::uint64_t[]> arena_;
  // Eq. (1)'s per-site terms over all samples (complete data only), one
  // array each so the pair loop reads columns at unit stride.
  mutable std::unique_ptr<float[]> site_p_;   // derived_count / samples
  mutable std::unique_ptr<float[]> site_pq_;  // p * (1 - p)
  mutable std::unique_ptr<float[]> site_q_;   // 1 - p
  mutable std::unique_ptr<std::atomic<bool>[]> block_packed_;
  mutable std::mutex pack_mutex_;
  mutable std::atomic<std::uint64_t> packs_{0};
  mutable std::atomic<std::uint64_t> hits_{0};
};

}  // namespace omega::ld
