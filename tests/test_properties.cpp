// Cross-cutting randomized property tests: invariants that must hold for
// arbitrary (seeded) inputs, exercising module interactions that the
// per-module suites cover only at fixed shapes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/dp_matrix.h"
#include "core/grid.h"
#include "core/omega_math.h"
#include "core/omega_search.h"
#include "core/scanner.h"
#include "ld/ld_engine.h"
#include "ld/snp_matrix.h"
#include "sim/dataset_factory.h"
#include "util/prng.h"

namespace {

class RandomizedDpChains : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomizedDpChains, ArbitraryRelocateExtendEqualsFreshBuild) {
  // Property: after ANY monotone sequence of relocate/extend operations, the
  // DP matrix equals one built fresh over its final range.
  const std::uint64_t seed = GetParam();
  const auto dataset = omega::sim::make_dataset({.snps = 120,
                                                 .samples = 24,
                                                 .locus_length_bp = 500'000,
                                                 .rho = 10.0,
                                                 .seed = seed});
  const omega::ld::SnpMatrix snps(dataset);
  const omega::ld::PopcountLd engine(snps);
  omega::util::Xoshiro256 rng(seed * 7 + 1);
  const std::size_t sites = dataset.num_sites();

  omega::core::DpMatrix chained;
  std::size_t base = rng.bounded(20);
  chained.reset(base);
  std::size_t end = base + 2 + rng.bounded(30);
  chained.extend(end, engine);

  for (int op = 0; op < 12; ++op) {
    // Random forward relocation within the covered range, then random
    // extension (possibly a no-op). Both stay inside the dataset: the base
    // at most two sites from its end, so `end = base + 2` below fits.
    const std::size_t new_base =
        std::min(base + rng.bounded(end - base + 4), sites - 2);
    if (new_base > base) {
      chained.relocate(new_base);
      base = new_base;
      end = std::max(end, base);
    }
    const std::size_t new_end =
        std::min(sites, std::max(end, base + 1) + rng.bounded(20));
    if (new_end > end && new_end > base) {
      chained.extend(new_end, engine);
      end = new_end;
    }
    if (end <= base) {
      end = base + 2;
      chained.extend(end, engine);
    }

    omega::core::DpMatrix fresh;
    fresh.reset(base);
    fresh.extend(end, engine);
    ASSERT_EQ(chained.base(), fresh.base());
    ASSERT_EQ(chained.end(), fresh.end());
    for (std::size_t i = base; i < end; ++i) {
      for (std::size_t j = base; j <= i; ++j) {
        ASSERT_DOUBLE_EQ(chained.at(i, j), fresh.at(i, j))
            << "op " << op << " entry " << i << "," << j;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedDpChains,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

class RandomizedConfigs : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomizedConfigs, GridGeometryInternallyConsistent) {
  const std::uint64_t seed = GetParam();
  omega::util::Xoshiro256 rng(seed);
  const auto dataset = omega::sim::make_dataset(
      {.snps = 60 + rng.bounded(150),
       .samples = 10 + rng.bounded(40),
       .locus_length_bp = 200'000 + static_cast<std::int64_t>(rng.bounded(800'000)),
       .rho = 5.0 + 50.0 * rng.uniform(),
       .seed = seed + 100});

  omega::core::OmegaConfig config;
  config.grid_size = 3 + rng.bounded(20);
  config.max_window = 50'000 + static_cast<std::int64_t>(rng.bounded(500'000));
  config.min_window =
      std::min<std::int64_t>(config.max_window, 2 + rng.bounded(40'000));
  if (rng.uniform() < 0.3) {
    config.window_unit = omega::core::WindowUnit::Snps;
    config.max_window = 20 + rng.bounded(200);
    config.min_window = 4 + rng.bounded(20);
    if (config.min_window > config.max_window) {
      std::swap(config.min_window, config.max_window);
    }
  }
  if (rng.uniform() < 0.5) {
    config.max_snps_per_side = 10 + rng.bounded(80);
  }

  const auto grid = omega::core::build_grid(dataset, config);
  ASSERT_EQ(grid.size(), config.grid_size);
  for (const auto& position : grid) {
    if (!position.valid) continue;
    // Structural invariants of the resolved geometry.
    ASSERT_LE(position.lo, position.a_max);
    ASSERT_LT(position.a_max, position.c);
    ASSERT_LE(position.c + 2, position.b_min);
    ASSERT_LE(position.b_min, position.hi);
    ASSERT_LT(position.hi, dataset.num_sites());
    ASSERT_EQ(position.combinations(),
              static_cast<std::uint64_t>(position.a_max - position.lo + 1) *
                  (position.hi - position.b_min + 1));
    if (config.max_snps_per_side > 0) {
      ASSERT_LE(position.left_snps(), config.max_snps_per_side);
      ASSERT_LE(position.right_snps(), config.max_snps_per_side);
    }
    // The split straddles the omega position.
    ASSERT_LE(dataset.position(position.c), position.position_bp);
    ASSERT_GT(dataset.position(position.c + 1), position.position_bp);
  }
}

TEST_P(RandomizedConfigs, ScanScoresAreFiniteAndNonNegative) {
  const std::uint64_t seed = GetParam();
  const auto dataset = omega::sim::make_dataset({.snps = 100,
                                                 .samples = 30,
                                                 .locus_length_bp = 500'000,
                                                 .rho = 30.0,
                                                 .seed = seed + 500});
  omega::core::ScannerOptions options;
  options.config.grid_size = 10;
  options.config.max_window = 200'000;
  options.config.min_window = 5'000;
  const auto result = omega::core::scan(dataset, options);
  for (const auto& score : result.scores) {
    if (!score.valid) continue;
    ASSERT_TRUE(std::isfinite(score.max_omega));
    ASSERT_GE(score.max_omega, 0.0);
    ASSERT_LE(score.best_a, score.best_b);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedConfigs,
                         ::testing::Values(21, 22, 23, 24, 25, 26, 27, 28));

TEST(OmegaSymmetry, SwappingSidesPreservesOmega) {
  // Eq. (2) is symmetric under exchanging the L and R sub-regions; the GPU
  // order-switch relies on this. Property over random sum tuples.
  omega::util::Xoshiro256 rng(99);
  for (int round = 0; round < 500; ++round) {
    const double ls = 10.0 * rng.uniform();
    const double rs = 10.0 * rng.uniform();
    const double cross = 5.0 * rng.uniform();
    const std::size_t l = 2 + rng.bounded(40);
    const std::size_t r = 2 + rng.bounded(40);
    const double forward = omega::core::omega_from_sums(ls, rs, cross, l, r);
    const double swapped = omega::core::omega_from_sums(rs, ls, cross, r, l);
    ASSERT_NEAR(forward, swapped, 1e-12 * std::max(1.0, forward));
  }
}

TEST(OmegaMonotonicity, OmegaGrowsAsCrossLdShrinks) {
  // With fixed within-region sums, omega must be strictly decreasing in the
  // cross-region sum — the core of the detection principle.
  double previous = std::numeric_limits<double>::infinity();
  for (double cross = 0.0; cross < 3.0; cross += 0.1) {
    const double value = omega::core::omega_from_sums(4.0, 3.0, cross, 10, 12);
    ASSERT_LT(value, previous);
    previous = value;
  }
}

}  // namespace
