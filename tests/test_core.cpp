// Tests for the core omega engine: the DP matrix (Eq. 3) against direct
// summation, relocation reuse equivalence, grid geometry, the nested-loop
// search against the brute-force oracle, buffer packing, and workload
// accounting.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "core/dp_matrix.h"
#include "core/grid.h"
#include "core/integer_method.h"
#include "core/omega_math.h"
#include "core/omega_search.h"
#include "core/reference.h"
#include "core/scanner.h"
#include "core/workload.h"
#include "io/dataset.h"
#include "ld/ld_engine.h"
#include "ld/r2.h"
#include "ld/snp_matrix.h"
#include "util/stats.h"
#include "sim/dataset_factory.h"

namespace {

using omega::core::DpMatrix;
using omega::core::GridPosition;
using omega::core::OmegaConfig;
using omega::io::Dataset;

Dataset test_dataset(std::size_t sites, std::size_t samples,
                     std::uint64_t seed) {
  return omega::sim::make_dataset({.snps = sites,
                                   .samples = samples,
                                   .locus_length_bp = 1'000'000,
                                   .rho = 15.0,
                                   .seed = seed});
}

double direct_range_sum(const Dataset& d, std::size_t lo, std::size_t hi) {
  double sum = 0.0;
  for (std::size_t i = lo; i <= hi; ++i) {
    for (std::size_t j = lo; j < i; ++j) {
      sum += omega::ld::r2_naive(d, i, j);
    }
  }
  return sum;
}

TEST(OmegaMath, Choose2) {
  EXPECT_DOUBLE_EQ(omega::core::choose2(0), 0.0);
  EXPECT_DOUBLE_EQ(omega::core::choose2(1), 0.0);
  EXPECT_DOUBLE_EQ(omega::core::choose2(2), 1.0);
  EXPECT_DOUBLE_EQ(omega::core::choose2(5), 10.0);
}

TEST(OmegaMath, HandComputedOmega) {
  // l = 2, r = 2: numerator = (LS + RS) / 2, denominator = TS/4 + eps.
  const double omega =
      omega::core::omega_from_sums(1.0, 0.6, 0.2, 2, 2);
  EXPECT_NEAR(omega, (1.6 / 2.0) / (0.05 + 1e-5), 1e-9);
}

TEST(OmegaMath, ZeroCrossSumStaysFinite) {
  const double omega = omega::core::omega_from_sums(2.0, 2.0, 0.0, 3, 3);
  EXPECT_TRUE(std::isfinite(omega));
  EXPECT_GT(omega, 1e4);  // strong signal, bounded by the epsilon
}

TEST(OmegaMath, FloatAndDoubleAgree) {
  for (int i = 0; i < 50; ++i) {
    const double ls = 0.1 * i, rs = 0.07 * i, ts = 0.05 * i + 0.01;
    const std::size_t l = 2 + i % 7, r = 2 + i % 5;
    const double d = omega::core::omega_from_sums(ls, rs, ts, l, r);
    const float f = omega::core::omega_from_sums_f(
        static_cast<float>(ls), static_cast<float>(rs), static_cast<float>(ts),
        static_cast<std::uint32_t>(l), static_cast<std::uint32_t>(r));
    EXPECT_NEAR(d, static_cast<double>(f), std::abs(d) * 1e-5 + 1e-7);
  }
}

TEST(DpMatrix, MatchesDirectSums) {
  const Dataset d = test_dataset(40, 30, 1);
  const omega::ld::SnpMatrix snps(d);
  const omega::ld::PopcountLd engine(snps);
  DpMatrix m;
  m.reset(0);
  m.extend(40, engine);
  for (std::size_t hi = 0; hi < 40; hi += 7) {
    for (std::size_t lo = 0; lo <= hi; lo += 5) {
      EXPECT_NEAR(m.range_sum(lo, hi), direct_range_sum(d, lo, hi),
                  1e-4 * (1.0 + direct_range_sum(d, lo, hi)))
          << lo << ".." << hi;
    }
  }
}

TEST(DpMatrix, DiagonalIsZero) {
  const Dataset d = test_dataset(10, 20, 2);
  const omega::ld::SnpMatrix snps(d);
  const omega::ld::PopcountLd engine(snps);
  DpMatrix m;
  m.reset(0);
  m.extend(10, engine);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(m.at(i, i), 0.0);
  }
}

TEST(DpMatrix, AdjacentEntryIsPairR2) {
  const Dataset d = test_dataset(12, 25, 3);
  const omega::ld::SnpMatrix snps(d);
  const omega::ld::PopcountLd engine(snps);
  DpMatrix m;
  m.reset(0);
  m.extend(12, engine);
  for (std::size_t i = 1; i < 12; ++i) {
    EXPECT_NEAR(m.at(i, i - 1), omega::ld::r2_naive(d, i, i - 1), 2e-6);
  }
}

TEST(DpMatrix, RelocationPreservesValues) {
  const Dataset d = test_dataset(50, 24, 4);
  const omega::ld::SnpMatrix snps(d);
  const omega::ld::PopcountLd engine(snps);
  DpMatrix moved;
  moved.reset(0);
  moved.extend(30, engine);
  moved.relocate(12);
  moved.extend(50, engine);

  DpMatrix fresh;
  fresh.reset(12);
  fresh.extend(50, engine);

  for (std::size_t i = 12; i < 50; ++i) {
    for (std::size_t j = 12; j <= i; ++j) {
      ASSERT_DOUBLE_EQ(moved.at(i, j), fresh.at(i, j)) << i << "," << j;
    }
  }
}

// A chain of small relocations, each followed by an extend: the stale prefix
// grows under the compaction threshold, then crosses it several times. After
// every step the lazily relocated matrix must match one built fresh at the
// same base bit for bit, through both at() and row_data().
TEST(DpMatrix, LazyRelocationChainMatchesFreshBitwise) {
  const Dataset d = test_dataset(400, 24, 14);
  const omega::ld::SnpMatrix snps(d);
  const omega::ld::PopcountLd engine(snps);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  // Storage holds at most a 1/8 stale prefix on top of the live rows.
  const auto bytes_bound = [](std::size_t count) {
    const std::size_t rows = count + count / 8 + 1;
    return sizeof(double) * rows * (rows - 1) / 2;
  };

  DpMatrix lazy;
  lazy.reset(0);
  lazy.extend(64, engine);
  std::size_t origin = 0;  // storage anchor, tracked from the stats
  const std::size_t deltas[] = {1, 2, 1, 3, 2, 1, 1, 3};
  for (std::size_t step = 0; step < 48; ++step) {
    const std::size_t delta = deltas[step % std::size(deltas)];
    const std::uint64_t compactions = lazy.stats().compactions;
    const std::size_t base = lazy.base() + delta;
    const std::size_t end = lazy.end() + delta + step % 2;
    lazy.relocate(base);
    if (lazy.stats().compactions != compactions) origin = base;
    ASSERT_LE(lazy.bytes(), bytes_bound(lazy.count())) << step;
    lazy.extend(end, engine);
    ASSERT_EQ(lazy.base(), base);
    ASSERT_EQ(lazy.end(), end);
    ASSERT_LE(lazy.bytes(), bytes_bound(lazy.count())) << step;

    DpMatrix fresh;
    fresh.reset(base);
    fresh.extend(end, engine);
    for (std::size_t i = base; i < end; ++i) {
      const double* lazy_row = lazy.row_data(i);
      const double* fresh_row = fresh.row_data(i);
      for (std::size_t j = base; j <= i; ++j) {
        ASSERT_EQ(bits(lazy.at(i, j)), bits(fresh.at(i, j)))
            << "step " << step << " M(" << i << "," << j << ")";
        if (j < i) {
          ASSERT_EQ(bits(lazy_row[j - base]), bits(fresh_row[j - base]))
              << "step " << step << " row " << i << " col " << j;
        }
      }
    }
    for (std::size_t g = origin; g < base; ++g) {
      EXPECT_THROW((void)lazy.at(g, g), std::out_of_range) << g;
      EXPECT_THROW((void)lazy.at(end - 1, g), std::out_of_range) << g;
    }
  }
  // Both relocation paths ran: most steps only advanced the base, and the
  // threshold was crossed several times.
  const omega::core::DpMatrixStats& stats = lazy.stats();
  EXPECT_EQ(stats.relocations, 48u);
  EXPECT_GE(stats.compactions, 3u);
  EXPECT_LT(stats.compactions, stats.relocations / 2);
}

TEST(DpMatrix, RelocationSavesFetches) {
  const Dataset d = test_dataset(60, 24, 5);
  const omega::ld::SnpMatrix snps(d);
  const omega::ld::PopcountLd engine(snps);
  DpMatrix reused;
  reused.reset(0);
  reused.extend(40, engine);
  const auto before = reused.r2_fetches();
  reused.relocate(10);
  reused.extend(50, engine);
  const auto incremental = reused.r2_fetches() - before;

  DpMatrix rebuilt;
  rebuilt.reset(10);
  rebuilt.extend(50, engine);
  EXPECT_LT(incremental, rebuilt.r2_fetches());
}

TEST(DpMatrix, RelocatePastEndResets) {
  const Dataset d = test_dataset(30, 24, 6);
  const omega::ld::SnpMatrix snps(d);
  const omega::ld::PopcountLd engine(snps);
  DpMatrix m;
  m.reset(0);
  m.extend(10, engine);
  m.relocate(20);
  EXPECT_EQ(m.base(), 20u);
  EXPECT_EQ(m.count(), 0u);
  m.extend(30, engine);
  EXPECT_NEAR(m.range_sum(20, 29), direct_range_sum(d, 20, 29), 1e-4);
}

TEST(DpMatrix, BackwardRelocationThrows) {
  DpMatrix m;
  m.reset(10);
  EXPECT_THROW(m.relocate(5), std::invalid_argument);
}

TEST(DpMatrix, OutOfRangeAccessThrows) {
  const Dataset d = test_dataset(10, 24, 7);
  const omega::ld::SnpMatrix snps(d);
  const omega::ld::PopcountLd engine(snps);
  DpMatrix m;
  m.reset(2);
  m.extend(8, engine);
  EXPECT_THROW((void)m.at(8, 2), std::out_of_range);
  EXPECT_THROW((void)m.at(7, 1), std::out_of_range);
  EXPECT_THROW((void)m.at(3, 5), std::out_of_range);  // j > i
}

// ---------------------------------------------------------------------------
// Grid geometry
// ---------------------------------------------------------------------------

TEST(Grid, CombinationCountMatchesEnumeration) {
  const Dataset d = test_dataset(80, 20, 8);
  OmegaConfig config;
  config.grid_size = 9;
  config.max_window = 400'000;
  config.min_window = 10'000;
  const auto grid = omega::core::build_grid(d, config);
  ASSERT_EQ(grid.size(), 9u);
  for (const auto& position : grid) {
    if (!position.valid) continue;
    std::uint64_t manual = 0;
    for (std::size_t a = position.lo; a <= position.a_max; ++a) {
      for (std::size_t b = position.b_min; b <= position.hi; ++b) {
        ++manual;
        ASSERT_GE(position.c - a + 1, 2u);  // l >= 2
        ASSERT_GE(b - position.c, 2u);      // r >= 2
      }
    }
    EXPECT_EQ(position.combinations(), manual);
  }
}

TEST(Grid, RespectsBpWindows) {
  const Dataset d = test_dataset(100, 20, 9);
  OmegaConfig config;
  config.grid_size = 5;
  config.max_window = 100'000;
  config.min_window = 20'000;
  for (const auto& position : omega::core::build_grid(d, config)) {
    if (!position.valid) continue;
    // Region bounded by max_window/2 per side.
    EXPECT_GE(d.position(position.lo), position.position_bp - 50'000);
    EXPECT_LE(d.position(position.hi), position.position_bp + 50'000);
    // Borders honour min_window/2.
    EXPECT_LE(d.position(position.a_max), position.position_bp - 10'000);
    EXPECT_GE(d.position(position.b_min), position.position_bp + 10'000);
  }
}

TEST(Grid, SnpWindowUnit) {
  const Dataset d = test_dataset(200, 20, 10);
  OmegaConfig config;
  config.grid_size = 3;
  config.window_unit = omega::core::WindowUnit::Snps;
  config.max_window = 60;  // 30 SNPs per side
  config.min_window = 10;  // 5 SNPs per side minimum
  for (const auto& position : omega::core::build_grid(d, config)) {
    if (!position.valid) continue;
    EXPECT_LE(position.left_snps(), 30u);
    EXPECT_LE(position.right_snps(), 30u);
    EXPECT_GE(position.c - position.a_max + 1, 5u);
    EXPECT_GE(position.b_min - position.c, 5u);
  }
}

TEST(Grid, SideCapLimitsRegion) {
  const Dataset d = test_dataset(150, 20, 11);
  OmegaConfig config;
  config.grid_size = 3;
  config.max_window = 2'000'000;
  config.min_window = 2;
  config.max_snps_per_side = 20;
  for (const auto& position : omega::core::build_grid(d, config)) {
    if (!position.valid) continue;
    EXPECT_LE(position.left_snps(), 20u);
    EXPECT_LE(position.right_snps(), 20u);
  }
}

TEST(Grid, InvalidWhenOffTheData) {
  const Dataset d = test_dataset(50, 20, 12);
  OmegaConfig config;
  const auto before_first = omega::core::resolve_position(
      d, config, d.positions().front() - 1000);
  EXPECT_FALSE(before_first.valid);
  const auto past_last =
      omega::core::resolve_position(d, config, d.positions().back() + 1);
  EXPECT_FALSE(past_last.valid);
}

TEST(Grid, TinyDatasetInvalid) {
  const Dataset d({10, 20, 30}, {{0, 1}, {1, 0}, {0, 1}}, 100);
  OmegaConfig config;
  const auto position = omega::core::resolve_position(d, config, 20);
  EXPECT_FALSE(position.valid);  // cannot satisfy l,r >= 2
}

TEST(Grid, ConfigValidation) {
  OmegaConfig config;
  config.grid_size = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.grid_size = 10;
  config.max_window = 5;
  config.min_window = 10;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Max-omega search vs brute force
// ---------------------------------------------------------------------------

struct SearchCase {
  std::size_t sites;
  std::size_t samples;
  std::int64_t max_window;
  std::int64_t min_window;
  std::uint64_t seed;
};

class SearchVsBrute : public ::testing::TestWithParam<SearchCase> {};

TEST_P(SearchVsBrute, MaxOmegaAgrees) {
  const auto param = GetParam();
  const Dataset d = test_dataset(param.sites, param.samples, param.seed);
  OmegaConfig config;
  config.grid_size = 5;
  config.max_window = param.max_window;
  config.min_window = param.min_window;
  const auto grid = omega::core::build_grid(d, config);

  const omega::ld::SnpMatrix snps(d);
  const omega::ld::PopcountLd engine(snps);

  for (const auto& position : grid) {
    if (!position.valid) continue;
    DpMatrix m;
    m.reset(position.lo);
    m.extend(position.hi + 1, engine);
    const auto fast = omega::core::max_omega_search(m, position);
    const auto brute = omega::core::brute_force_position(d, position);
    ASSERT_EQ(fast.evaluated, brute.evaluated);
    ASSERT_NEAR(fast.max_omega, brute.max_omega,
                1e-3 * (1.0 + brute.max_omega));
    // The winning window must score within noise of the brute-force optimum
    // (float r2 accumulation may swap exact argmax between near-ties).
    const double fast_window_score = omega::core::brute_force_omega(
        d, fast.best_a, position.c, fast.best_b);
    EXPECT_NEAR(fast_window_score, brute.max_omega,
                1e-3 * (1.0 + brute.max_omega));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SearchVsBrute,
    ::testing::Values(SearchCase{30, 20, 600'000, 2, 21},
                      SearchCase{40, 12, 300'000, 50'000, 22},
                      SearchCase{25, 40, 1'000'000, 2, 23},
                      SearchCase{50, 16, 200'000, 20'000, 24},
                      SearchCase{35, 30, 2'000'000, 100'000, 25}));

TEST(PackPosition, BuffersMatchMatrix) {
  const Dataset d = test_dataset(40, 20, 31);
  OmegaConfig config;
  config.grid_size = 3;
  config.max_window = 800'000;
  const auto grid = omega::core::build_grid(d, config);
  const omega::ld::SnpMatrix snps(d);
  const omega::ld::PopcountLd engine(snps);
  for (const auto& position : grid) {
    if (!position.valid) continue;
    DpMatrix m;
    m.reset(position.lo);
    m.extend(position.hi + 1, engine);
    const auto buffers = omega::core::pack_position(m, position);
    ASSERT_EQ(buffers.combinations(), position.combinations());
    for (std::size_t ai = 0; ai < buffers.num_left; ++ai) {
      const std::size_t a = position.lo + ai;
      ASSERT_FLOAT_EQ(buffers.ls[ai],
                      static_cast<float>(m.at(position.c, a)));
      ASSERT_EQ(buffers.l_counts[ai], position.c - a + 1);
    }
    for (std::size_t bi = 0; bi < buffers.num_right; ++bi) {
      const std::size_t b = position.b_min + bi;
      ASSERT_FLOAT_EQ(buffers.rs[bi],
                      static_cast<float>(m.at(b, position.c + 1)));
    }
    EXPECT_GT(buffers.payload_bytes(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Integer-method baseline
// ---------------------------------------------------------------------------

TEST(IntegerMethod, ScoresSameGridGeometry) {
  const Dataset d = test_dataset(120, 30, 51);
  OmegaConfig config;
  config.grid_size = 10;
  config.max_window = 300'000;
  config.min_window = 10'000;
  const auto integer = omega::core::integer_method_scan(d, config);
  omega::core::ScannerOptions options;
  options.config = config;
  const auto exact = omega::core::scan(d, options);
  ASSERT_EQ(integer.scores.size(), exact.scores.size());
  for (std::size_t g = 0; g < integer.scores.size(); ++g) {
    EXPECT_EQ(integer.scores[g].valid, exact.scores[g].valid);
    EXPECT_EQ(integer.scores[g].evaluated, exact.scores[g].evaluated);
    if (integer.scores[g].valid) {
      EXPECT_GE(integer.scores[g].max_omega, 0.0);
      EXPECT_TRUE(std::isfinite(integer.scores[g].max_omega));
    }
  }
}

TEST(IntegerMethod, CorrelatesWithOmegaLandscape) {
  const Dataset d = test_dataset(200, 40, 52);
  OmegaConfig config;
  config.grid_size = 20;
  config.max_window = 250'000;
  config.min_window = 20'000;
  const auto integer = omega::core::integer_method_scan(d, config);
  omega::core::ScannerOptions options;
  options.config = config;
  const auto exact = omega::core::scan(d, options);
  std::vector<double> a, b;
  for (std::size_t g = 0; g < exact.scores.size(); ++g) {
    if (!exact.scores[g].valid) continue;
    a.push_back(exact.scores[g].max_omega);
    b.push_back(integer.scores[g].max_omega);
  }
  ASSERT_GT(a.size(), 5u);
  // Related but distinct statistics: positive correlation, not identity.
  EXPECT_GT(omega::util::spearman(a, b), 0.2);
}

TEST(Spearman, HandCases) {
  EXPECT_DOUBLE_EQ(omega::util::spearman({1, 2, 3, 4}, {10, 20, 30, 40}), 1.0);
  EXPECT_DOUBLE_EQ(omega::util::spearman({1, 2, 3, 4}, {8, 6, 4, 2}), -1.0);
  // Monotone but nonlinear is still rank-perfect.
  EXPECT_DOUBLE_EQ(omega::util::spearman({1, 2, 3, 4}, {1, 10, 100, 1000}), 1.0);
  // Ties get averaged ranks.
  const double tied = omega::util::spearman({1, 2, 2, 3}, {1, 2, 3, 4});
  EXPECT_GT(tied, 0.8);
  EXPECT_LT(tied, 1.0);
}

// ---------------------------------------------------------------------------
// Workload accounting
// ---------------------------------------------------------------------------

TEST(Workload, MatchesGridCombinations) {
  const Dataset d = test_dataset(120, 20, 41);
  OmegaConfig config;
  config.grid_size = 12;
  config.max_window = 300'000;
  config.min_window = 10'000;
  const auto workload = omega::core::analyze_workload(d, config);
  const auto grid = omega::core::build_grid(d, config);
  ASSERT_EQ(workload.positions.size(), grid.size());
  std::uint64_t total = 0;
  for (std::size_t g = 0; g < grid.size(); ++g) {
    EXPECT_EQ(workload.positions[g].combinations, grid[g].combinations());
    total += grid[g].combinations();
  }
  EXPECT_EQ(workload.total_combinations, total);
  EXPECT_LE(workload.total_r2_with_reuse, workload.total_r2_without_reuse);
}

TEST(Workload, ReuseAccountingMatchesDpMatrix) {
  const Dataset d = test_dataset(100, 20, 42);
  OmegaConfig config;
  config.grid_size = 8;
  config.max_window = 250'000;
  config.min_window = 5'000;
  const auto workload = omega::core::analyze_workload(d, config);

  // Replay the scanner's relocate/extend sequence and compare fetch counts.
  const omega::ld::SnpMatrix snps(d);
  const omega::ld::PopcountLd engine(snps);
  DpMatrix m;
  bool live = false;
  std::uint64_t previous = 0;
  for (const auto& item : workload.positions) {
    if (!item.geometry.valid) continue;
    if (!live) {
      m.reset(item.geometry.lo);
      live = true;
    } else {
      m.relocate(item.geometry.lo);
    }
    m.extend(item.geometry.hi + 1, engine);
    EXPECT_EQ(m.r2_fetches() - previous, item.r2_with_reuse);
    previous = m.r2_fetches();
  }
  EXPECT_EQ(m.r2_fetches(), workload.total_r2_with_reuse);
}

}  // namespace
