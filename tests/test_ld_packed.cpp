// PackedLd-specific tests: ISA dispatch (scalar vs AVX2 bitwise identity),
// panel-cache behaviour across r2_block / DpMatrix extend-relocate-reset
// patterns and chunk switches, backend-name plumbing, and the headline
// guarantee — whole-scan results are bitwise identical across every
// LdBackendKind, in-memory and streaming.

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <vector>

#include "core/dp_matrix.h"
#include "core/scanner.h"
#include "core/stream_scanner.h"
#include "io/chunk_reader.h"
#include "io/dataset.h"
#include "ld/ld_engine.h"
#include "ld/packed.h"
#include "ld/snp_matrix.h"
#include "sim/dataset_factory.h"
#include "util/prng.h"

namespace {

using omega::core::LdBackendKind;
using omega::core::OmegaConfig;
using omega::core::ScannerOptions;
using omega::core::StreamScanOptions;
using omega::io::Dataset;
using omega::io::DatasetChunkReader;
using omega::ld::PackedBlocking;
using omega::ld::PackedIsa;
using omega::ld::PackedLd;
using omega::ld::PopcountLd;
using omega::ld::SnpMatrix;

Dataset random_dataset(std::size_t sites, std::size_t samples,
                       std::uint64_t seed, double missing_rate = 0.0) {
  omega::util::Xoshiro256 rng(seed);
  std::vector<std::int64_t> positions(sites);
  std::vector<std::vector<std::uint8_t>> rows(sites);
  for (std::size_t s = 0; s < sites; ++s) {
    positions[s] = static_cast<std::int64_t>(s + 1) * 10;
    rows[s].resize(samples);
    const double p = 0.05 + 0.9 * rng.uniform();
    for (std::size_t h = 0; h < samples; ++h) {
      if (missing_rate > 0.0 && rng.uniform() < missing_rate) {
        rows[s][h] = Dataset::kMissing;
      } else {
        rows[s][h] = rng.uniform() < p ? 1 : 0;
      }
    }
  }
  return Dataset(std::move(positions), std::move(rows),
                 static_cast<std::int64_t>(sites + 1) * 10);
}

/// A coalescent dataset with `missing_rate` of the genotypes knocked out —
/// realistic positions for the scan grid plus the fused packed path.
Dataset scan_dataset(std::uint64_t seed, std::size_t sites,
                     double missing_rate = 0.0) {
  Dataset base = omega::sim::make_dataset({.snps = sites,
                                           .samples = 30,
                                           .locus_length_bp = 1'000'000,
                                           .rho = 25.0,
                                           .seed = seed});
  if (missing_rate <= 0.0) return base;
  omega::util::Xoshiro256 rng(seed ^ 0xfeed);
  std::vector<std::int64_t> positions(base.positions());
  std::vector<std::vector<std::uint8_t>> rows(base.num_sites());
  for (std::size_t s = 0; s < base.num_sites(); ++s) {
    rows[s] = base.site(s);
    for (auto& allele : rows[s]) {
      if (rng.uniform() < missing_rate) allele = Dataset::kMissing;
    }
  }
  return Dataset(std::move(positions), std::move(rows),
                 base.locus_length_bp());
}

OmegaConfig small_config() {
  OmegaConfig config;
  config.grid_size = 12;
  config.max_window = 200'000;
  config.min_window = 10'000;
  return config;
}

void expect_bitwise_equal(const omega::core::ScanResult& expected,
                          const omega::core::ScanResult& actual) {
  ASSERT_EQ(expected.scores.size(), actual.scores.size());
  for (std::size_t g = 0; g < expected.scores.size(); ++g) {
    const auto& e = expected.scores[g];
    const auto& a = actual.scores[g];
    ASSERT_EQ(e.valid, a.valid) << "grid " << g;
    ASSERT_EQ(e.position_bp, a.position_bp) << "grid " << g;
    if (!e.valid) continue;
    ASSERT_EQ(e.max_omega, a.max_omega) << "grid " << g;
    ASSERT_EQ(e.best_a, a.best_a) << "grid " << g;
    ASSERT_EQ(e.best_b, a.best_b) << "grid " << g;
    ASSERT_EQ(e.evaluated, a.evaluated) << "grid " << g;
  }
}

// ------------------------------------------------------------ ISA dispatch --

TEST(PackedIsaDispatch, ScalarMatchesAutoBitwise) {
  for (const double missing : {0.0, 0.15}) {
    const Dataset d = random_dataset(48, 300, 71, missing);
    const SnpMatrix snps(d);
    const PackedLd auto_engine(snps);
    const PackedLd scalar_engine(snps, PackedBlocking{}, PackedIsa::Scalar);
    EXPECT_STREQ(scalar_engine.isa(), "scalar");
    std::vector<float> a(48 * 48), s(48 * 48);
    auto_engine.r2_block(0, 48, 0, 48, a.data(), 48);
    scalar_engine.r2_block(0, 48, 0, 48, s.data(), 48);
    EXPECT_EQ(a, s) << "missing rate " << missing;
  }
}

TEST(PackedIsaDispatch, ForcedAvx2OrThrows) {
  const Dataset d = random_dataset(20, 500, 73, 0.1);
  const SnpMatrix snps(d);
  if (omega::ld::packed_avx2_available()) {
    const PackedLd avx2_engine(snps, PackedBlocking{}, PackedIsa::Avx2);
    EXPECT_STREQ(avx2_engine.isa(), "avx2");
    const PackedLd scalar_engine(snps, PackedBlocking{}, PackedIsa::Scalar);
    std::vector<float> a(20 * 20), s(20 * 20);
    avx2_engine.r2_block(0, 20, 0, 20, a.data(), 20);
    scalar_engine.r2_block(0, 20, 0, 20, s.data(), 20);
    EXPECT_EQ(a, s);
  } else {
    EXPECT_THROW(PackedLd(snps, PackedBlocking{}, PackedIsa::Avx2),
                 std::runtime_error);
  }
}

TEST(PackedIsaDispatch, AutoNameMatchesAvailability) {
  const char* resolved = omega::ld::packed_isa_name(PackedIsa::Auto);
  if (omega::ld::packed_avx2_available()) {
    EXPECT_STREQ(resolved, "avx2");
  } else {
    EXPECT_STREQ(resolved, "scalar");
  }
  EXPECT_STREQ(omega::ld::packed_isa_name(PackedIsa::Scalar), "scalar");
}

TEST(PackedIsaDispatch, DeepSampleDimensionHitsHarleySeal) {
  // > 64 * 64 = 4096 sample bits per row pushes the AVX2 popcount into the
  // Harley-Seal carry-save loop; the scalar oracle must still match bitwise.
  const Dataset d = random_dataset(10, 4500, 79, 0.05);
  const SnpMatrix snps(d);
  const PackedLd auto_engine(snps);
  const PackedLd scalar_engine(snps, PackedBlocking{}, PackedIsa::Scalar);
  std::vector<float> a(10 * 10), s(10 * 10);
  auto_engine.r2_block(0, 10, 0, 10, a.data(), 10);
  scalar_engine.r2_block(0, 10, 0, 10, s.data(), 10);
  EXPECT_EQ(a, s);
}

// ------------------------------------------------------------- depth sweep --

/// The bit patterns of a block of r2 values: "bitwise" means equal bits, not
/// float ==.
std::vector<std::uint32_t> r2_bits(const omega::ld::LdEngine& engine,
                                   std::size_t i0, std::size_t i1,
                                   std::size_t j0, std::size_t j1) {
  const std::size_t n = j1 - j0;
  std::vector<float> r2((i1 - i0) * n, -1.0f);
  engine.r2_block(i0, i1, j0, j1, r2.data(), n);
  std::vector<std::uint32_t> bits(r2.size());
  std::memcpy(bits.data(), r2.data(), r2.size() * sizeof(float));
  return bits;
}

TEST(PackedDepthSweep, MatchesPopcountBitwiseAtEveryDepth) {
  // Sample counts on both sides of every row-depth edge: 1-3 words are the
  // unpadded shallow rows, 4 words is the first padded vector row, 5 words
  // pads to 8. Each is checked on a full square block and on an
  // extend-shaped rectangle (fewer rows than one mr sliver against more
  // columns than one nc tile).
  constexpr std::size_t kSites = 264;
  static_assert(kSites > PackedBlocking{}.nc);
  for (const std::size_t samples :
       {1u, 2u, 3u, 63u, 64u, 65u, 127u, 128u, 129u, 255u, 256u, 257u, 300u}) {
    for (const double missing : {0.0, 0.15}) {
      SCOPED_TRACE(testing::Message()
                   << samples << " samples, missing rate " << missing);
      const Dataset d = random_dataset(kSites, samples, 700 + samples, missing);
      const SnpMatrix snps(d);
      const PopcountLd oracle(snps);
      const PackedLd auto_engine(snps);
      const PackedLd scalar_engine(snps, PackedBlocking{}, PackedIsa::Scalar);
      const auto square = r2_bits(oracle, 0, 48, 0, 48);
      EXPECT_EQ(r2_bits(auto_engine, 0, 48, 0, 48), square);
      EXPECT_EQ(r2_bits(scalar_engine, 0, 48, 0, 48), square);
      static_assert(3 < PackedBlocking::mr);
      const auto rect = r2_bits(oracle, 100, 103, 0, kSites);
      EXPECT_EQ(r2_bits(auto_engine, 100, 103, 0, kSites), rect);
      EXPECT_EQ(r2_bits(scalar_engine, 100, 103, 0, kSites), rect);
    }
  }
}

TEST(PackedDepthSweep, MonomorphicBlockReadsZero) {
  // Every site fixed for one allele (alternating 0 and 1): p (1 - p) == 0 on
  // every row and column, so the denom <= 0 rule must zero the whole block.
  for (const std::size_t samples : {2u, 64u, 129u, 300u}) {
    for (const double missing : {0.0, 0.15}) {
      SCOPED_TRACE(testing::Message()
                   << samples << " samples, missing rate " << missing);
      omega::util::Xoshiro256 rng(samples);
      constexpr std::size_t kSites = 20;
      std::vector<std::int64_t> positions(kSites);
      std::vector<std::vector<std::uint8_t>> rows(kSites);
      for (std::size_t s = 0; s < kSites; ++s) {
        positions[s] = static_cast<std::int64_t>(s + 1) * 10;
        rows[s].assign(samples, static_cast<std::uint8_t>(s % 2));
        for (auto& allele : rows[s]) {
          if (missing > 0.0 && rng.uniform() < missing) {
            allele = Dataset::kMissing;
          }
        }
      }
      const Dataset d(std::move(positions), std::move(rows),
                      static_cast<std::int64_t>(kSites + 1) * 10);
      const SnpMatrix snps(d);
      const std::vector<std::uint32_t> zeros(kSites * kSites, 0u);
      EXPECT_EQ(r2_bits(PackedLd(snps), 0, kSites, 0, kSites), zeros);
      EXPECT_EQ(r2_bits(PackedLd(snps, PackedBlocking{}, PackedIsa::Scalar), 0,
                        kSites, 0, kSites),
                zeros);
    }
  }
}

// -------------------------------------------------------------- panel cache --

TEST(PackedPanelCache, PacksOnceThenHits) {
  const Dataset d = random_dataset(60, 100, 83);
  const SnpMatrix snps(d);
  PackedBlocking blocking;
  blocking.sites_per_panel = 8;  // 60 sites -> 8 panel blocks
  const PackedLd packed(snps, blocking);
  EXPECT_EQ(packed.panel_packs(), 0u);

  std::vector<float> first(60 * 60), second(60 * 60);
  packed.r2_block(0, 60, 0, 60, first.data(), 60);
  const std::uint64_t packs_after_first = packed.panel_packs();
  EXPECT_GT(packs_after_first, 0u);
  EXPECT_LE(packs_after_first, 8u);  // every block packed at most once
  const std::uint64_t hits_after_first = packed.panel_hits();

  packed.r2_block(0, 60, 0, 60, second.data(), 60);
  EXPECT_EQ(packed.panel_packs(), packs_after_first)
      << "second pass must be all cache hits";
  EXPECT_GT(packed.panel_hits(), hits_after_first);
  EXPECT_EQ(first, second);
}

TEST(PackedPanelCache, OverlappingRangesShareBlocks) {
  const Dataset d = random_dataset(64, 90, 89);
  const SnpMatrix snps(d);
  PackedBlocking blocking;
  blocking.sites_per_panel = 16;  // blocks [0,16) [16,32) [32,48) [48,64)
  const PackedLd packed(snps, blocking);

  std::vector<float> out(32 * 32);
  packed.r2_block(0, 16, 0, 16, out.data(), 16);
  EXPECT_EQ(packed.panel_packs(), 1u);
  // [8, 24) overlaps block 0 (hit) and block 1 (miss).
  packed.r2_block(8, 24, 8, 24, out.data(), 16);
  EXPECT_EQ(packed.panel_packs(), 2u);
  EXPECT_GT(packed.panel_hits(), 0u);
}

TEST(PackedPanelCache, ExtendRelocateResetReusesPanels) {
  // The DpMatrix access pattern of an overlapping-grid scan: every extend
  // against the same engine after the first position is cache hits, and the
  // DP cells must match a popcount-driven matrix bitwise (double equality).
  const Dataset d = random_dataset(80, 120, 97);
  const SnpMatrix snps(d);
  PackedBlocking blocking;
  blocking.sites_per_panel = 10;  // 8 blocks
  const PackedLd packed(snps, blocking);
  const PopcountLd popcount(snps);

  omega::core::DpMatrix packed_dp, pop_dp;
  packed_dp.reset(0);
  pop_dp.reset(0);
  packed_dp.extend(30, packed);
  pop_dp.extend(30, popcount);
  packed_dp.relocate(12);
  pop_dp.relocate(12);
  packed_dp.extend(56, packed);
  pop_dp.extend(56, popcount);
  packed_dp.reset(40);
  pop_dp.reset(40);
  packed_dp.extend(80, packed);
  pop_dp.extend(80, popcount);

  ASSERT_EQ(packed_dp.base(), pop_dp.base());
  ASSERT_EQ(packed_dp.end(), pop_dp.end());
  for (std::size_t i = packed_dp.base(); i < packed_dp.end(); ++i) {
    for (std::size_t j = packed_dp.base(); j <= i; ++j) {
      ASSERT_EQ(packed_dp.at(i, j), pop_dp.at(i, j)) << i << "," << j;
    }
  }

  // 80 sites / 10 per block: at most 8 packs no matter how many extends ran.
  EXPECT_LE(packed.panel_packs(), 8u);
  const std::uint64_t packs_settled = packed.panel_packs();
  omega::core::DpMatrix again;
  again.reset(0);
  again.extend(80, packed);
  EXPECT_EQ(packed.panel_packs(), packs_settled)
      << "re-walking the chunk must not repack";
}

TEST(PackedPanelCache, NewEngineStartsCold) {
  // A chunk switch constructs a fresh engine — the cache does not leak
  // across engines (and therefore not across chunks).
  const Dataset d = random_dataset(24, 70, 101);
  const SnpMatrix snps(d);
  PackedBlocking blocking;
  blocking.sites_per_panel = 8;
  const PackedLd first(snps, blocking);
  std::vector<float> out(24 * 24);
  first.r2_block(0, 24, 0, 24, out.data(), 24);
  EXPECT_EQ(first.panel_packs(), 3u);

  const PackedLd second(snps, blocking);
  EXPECT_EQ(second.panel_packs(), 0u);
  second.r2_block(0, 24, 0, 24, out.data(), 24);
  EXPECT_EQ(second.panel_packs(), 3u);
}

// --------------------------------------------------------- backend plumbing --

TEST(LdBackendNames, RoundTripAndResolve) {
  using omega::core::ld_backend_from_name;
  using omega::core::ld_backend_name;
  using omega::core::resolve_ld_backend;
  for (const auto kind :
       {LdBackendKind::Naive, LdBackendKind::Popcount, LdBackendKind::Packed,
        LdBackendKind::Auto}) {
    EXPECT_EQ(ld_backend_from_name(ld_backend_name(kind)), kind);
  }
  EXPECT_EQ(resolve_ld_backend(LdBackendKind::Auto), LdBackendKind::Packed);
  EXPECT_EQ(resolve_ld_backend(LdBackendKind::Popcount),
            LdBackendKind::Popcount);
  EXPECT_THROW((void)ld_backend_from_name("simd9000"), std::invalid_argument);
  EXPECT_THROW((void)ld_backend_from_name("gemm"), std::invalid_argument);
}

// ------------------------------------------------------- whole-scan identity --

class PackedScanIdentity : public ::testing::TestWithParam<double> {};

TEST_P(PackedScanIdentity, AllBackendsBitwise) {
  const Dataset d = scan_dataset(7, 150, GetParam());
  ScannerOptions options;
  options.config = small_config();
  options.ld = LdBackendKind::Popcount;
  const auto reference = omega::core::scan(d, options);

  for (const auto kind : {LdBackendKind::Packed, LdBackendKind::Auto}) {
    ScannerOptions other = options;
    other.ld = kind;
    const auto result = omega::core::scan(d, other);
    expect_bitwise_equal(reference, result);
  }

  // Naive computes r2 in double and narrows — agreement to float precision,
  // not bitwise.
  ScannerOptions naive_options = options;
  naive_options.ld = LdBackendKind::Naive;
  const auto naive = omega::core::scan(d, naive_options);
  ASSERT_EQ(naive.scores.size(), reference.scores.size());
  for (std::size_t g = 0; g < reference.scores.size(); ++g) {
    if (!reference.scores[g].valid) continue;
    EXPECT_NEAR(naive.scores[g].max_omega, reference.scores[g].max_omega,
                1e-3 * (1.0 + reference.scores[g].max_omega))
        << "grid " << g;
  }
}

INSTANTIATE_TEST_SUITE_P(MissingRates, PackedScanIdentity,
                         ::testing::Values(0.0, 0.1));

TEST(PackedScanIdentity, StreamingMatchesInMemory) {
  for (const double missing : {0.0, 0.1}) {
    const Dataset d = scan_dataset(11, 180, missing);
    ScannerOptions options;
    options.config = small_config();
    options.ld = LdBackendKind::Packed;
    const auto reference = omega::core::scan(d, options);

    for (const std::size_t chunk_sites : {1000u, 48u}) {
      DatasetChunkReader reader(d);
      StreamScanOptions stream_options;
      stream_options.chunk_sites = chunk_sites;
      const auto streamed =
          omega::core::stream_scan(reader, options, stream_options);
      expect_bitwise_equal(reference, streamed);
    }
  }
}

TEST(PackedScanIdentity, ProfileStampsResolvedEngine) {
  const Dataset d = scan_dataset(13, 120);
  ScannerOptions options;
  options.config = small_config();
  options.ld = LdBackendKind::Auto;
  const auto result = omega::core::scan(d, options);
  EXPECT_EQ(result.profile.ld_backend, "packed");
  EXPECT_EQ(result.profile.ld.requested, "auto");
  EXPECT_EQ(result.profile.ld.engine, "packed");
  EXPECT_EQ(result.profile.ld.isa,
            omega::ld::packed_isa_name(PackedIsa::Auto));

  // Streaming fills the same block.
  DatasetChunkReader reader(d);
  const auto streamed = omega::core::stream_scan(reader, options);
  EXPECT_EQ(streamed.profile.ld.engine, "packed");
  EXPECT_EQ(streamed.profile.ld.requested, "auto");

  // A non-packed engine leaves the packed-only fields empty.
  ScannerOptions pop_options = options;
  pop_options.ld = LdBackendKind::Popcount;
  const auto pop = omega::core::scan(d, pop_options);
  EXPECT_EQ(pop.profile.ld.engine, "popcount");
  EXPECT_EQ(pop.profile.ld.requested, "popcount");
  EXPECT_TRUE(pop.profile.ld.isa.empty());
}

}  // namespace
