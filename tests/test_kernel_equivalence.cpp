// Kernel-equivalence property tests for the dispatched CPU omega kernels
// (core/omega_kernel_cpu.h): the portable and AVX2 fp64 bodies must reproduce
// the scalar reference argmax exactly and its scores within ulp-scaled
// tolerance. AVX2 cases skip cleanly on hosts (or builds) that cannot run the
// AVX2 translation unit.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/dp_matrix.h"
#include "core/grid.h"
#include "core/metrics_json.h"
#include "core/omega_kernel_cpu.h"
#include "core/omega_math.h"
#include "core/omega_search.h"
#include "core/scanner.h"
#include "io/dataset.h"
#include "ld/ld_engine.h"
#include "ld/snp_matrix.h"
#include "par/thread_pool.h"
#include "sim/dataset_factory.h"
#include "util/prng.h"

namespace {

using omega::core::CpuKernelKind;
using omega::core::DpMatrix;
using omega::core::GridPosition;
using omega::core::OmegaConfig;
using omega::core::OmegaKernelScratch;
using omega::core::OmegaResult;
using omega::io::Dataset;

Dataset kernel_dataset(std::uint64_t seed, std::size_t sites = 120,
                       std::size_t samples = 40) {
  return omega::sim::make_dataset({.snps = sites,
                                   .samples = samples,
                                   .locus_length_bp = 1'000'000,
                                   .rho = 30.0,
                                   .seed = seed});
}

Dataset missing_dataset(std::uint64_t seed, std::size_t sites = 90,
                        double missing_rate = 0.12) {
  Dataset base = kernel_dataset(seed, sites, 36);
  omega::util::Xoshiro256 rng(seed ^ 0xfeed);
  std::vector<std::int64_t> positions(base.positions());
  std::vector<std::vector<std::uint8_t>> rows(sites);
  for (std::size_t s = 0; s < sites; ++s) {
    rows[s] = base.site(s);
    for (auto& allele : rows[s]) {
      if (rng.uniform() < missing_rate) allele = Dataset::kMissing;
    }
  }
  return Dataset(std::move(positions), std::move(rows),
                 base.locus_length_bp());
}

OmegaConfig kernel_config() {
  OmegaConfig config;
  config.grid_size = 10;
  config.max_window = 300'000;
  config.min_window = 10'000;
  return config;
}

/// Dataset + LD engine + a DP matrix rebuilt per position.
struct KernelFixture {
  explicit KernelFixture(Dataset data)
      : dataset(std::move(data)), snps(dataset), engine(snps) {}

  void build(const GridPosition& position) {
    m.reset(position.lo);
    m.extend(position.hi + 1, engine);
  }

  Dataset dataset;
  omega::ld::SnpMatrix snps;
  omega::ld::PopcountLd engine;
  DpMatrix m;
};

/// Reference vs candidate: identical work and argmax, scores within a
/// relative tolerance (the fused-divide kernels differ from the 3-divide
/// reference only in rounding).
void expect_equivalent(const OmegaResult& ref, const OmegaResult& got,
                       const char* label) {
  EXPECT_EQ(got.evaluated, ref.evaluated) << label;
  EXPECT_NEAR(got.max_omega, ref.max_omega, 1e-9 * (1.0 + ref.max_omega))
      << label;
  EXPECT_EQ(got.best_a, ref.best_a) << label;
  EXPECT_EQ(got.best_b, ref.best_b) << label;
}

void check_kernel_on_dataset(Dataset dataset, CpuKernelKind kind) {
  KernelFixture fx(std::move(dataset));
  const auto grid = omega::core::build_grid(fx.dataset, kernel_config());
  OmegaKernelScratch scratch;
  std::size_t checked = 0;
  for (const auto& position : grid) {
    if (!position.valid) continue;
    fx.build(position);
    const OmegaResult ref = omega::core::max_omega_search(fx.m, position);
    const OmegaResult got =
        omega::core::omega_kernel_search(fx.m, position, kind, scratch);
    expect_equivalent(ref, got, omega::core::cpu_kernel_name(kind));
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST(KernelEquivalence, PortableMatchesScalarOnRandomGrids) {
  for (std::uint64_t seed : {1u, 7u, 23u}) {
    check_kernel_on_dataset(kernel_dataset(seed), CpuKernelKind::Portable);
  }
}

TEST(KernelEquivalence, Avx2MatchesScalarOnRandomGrids) {
  if (!omega::core::cpu_kernel_avx2_available()) {
    GTEST_SKIP() << "AVX2 kernel unavailable on this binary/host";
  }
  for (std::uint64_t seed : {1u, 7u, 23u}) {
    check_kernel_on_dataset(kernel_dataset(seed), CpuKernelKind::Avx2);
  }
}

TEST(KernelEquivalence, PortableMatchesScalarWithMissingData) {
  check_kernel_on_dataset(missing_dataset(11), CpuKernelKind::Portable);
}

TEST(KernelEquivalence, Avx2MatchesScalarWithMissingData) {
  if (!omega::core::cpu_kernel_avx2_available()) {
    GTEST_SKIP() << "AVX2 kernel unavailable on this binary/host";
  }
  check_kernel_on_dataset(missing_dataset(11), CpuKernelKind::Avx2);
}

// Degenerate geometry: positions allowing l == 1 and r == 1 windows
// (pairs == 0 must score omega = 0, not NaN) and odd left-region widths that
// exercise every vector-tail length.
TEST(KernelEquivalence, DegenerateWindowsAndTails) {
  KernelFixture fx(kernel_dataset(5, 40, 24));
  GridPosition position;
  position.valid = true;
  position.position_bp = 0;
  for (std::size_t c = 1; c + 2 < 40; c += 3) {
    position.lo = c >= 8 ? c - 8 : 0;
    position.c = c;
    position.a_max = c;      // allows a == c -> l == 1
    position.b_min = c + 1;  // allows b == c+1 -> r == 1
    position.hi = std::min<std::size_t>(c + 9, 39);
    fx.build(position);
    OmegaKernelScratch scratch;
    const OmegaResult ref = omega::core::max_omega_search(fx.m, position);
    expect_equivalent(ref,
                      omega::core::omega_kernel_search(
                          fx.m, position, CpuKernelKind::Portable, scratch),
                      "portable-degenerate");
    expect_equivalent(ref,
                      omega::core::omega_kernel_search(
                          fx.m, position, CpuKernelKind::Scalar, scratch),
                      "scalar-degenerate");
    if (omega::core::cpu_kernel_avx2_available()) {
      expect_equivalent(ref,
                        omega::core::omega_kernel_search(
                            fx.m, position, CpuKernelKind::Avx2, scratch),
                        "avx2-degenerate");
    }
  }
}

// Zero cross-sum: left sites carry one haplotype pattern, right sites an
// uncorrelated one, so every cross-region r2 is exactly 0 and the Eq. (2)
// denominator collapses to the eps guard — the pole-adjacent regime where
// the fused-divide algebra is most stressed.
TEST(KernelEquivalence, ZeroCrossSumRegion) {
  std::vector<std::vector<std::uint8_t>> rows;
  std::vector<std::int64_t> positions;
  for (int s = 0; s < 4; ++s) {
    rows.push_back({1, 1, 0, 0});  // left block: mutually identical
    positions.push_back(100 * (s + 1));
  }
  for (int s = 0; s < 4; ++s) {
    rows.push_back({1, 0, 1, 0});  // right block: r2 vs left block == 0
    positions.push_back(100 * (s + 5));
  }
  KernelFixture fx(Dataset(std::move(positions), std::move(rows), 1'000));

  GridPosition position;
  position.valid = true;
  position.lo = 0;
  position.c = 3;
  position.a_max = 2;
  position.b_min = 5;
  position.hi = 7;
  fx.build(position);
  // Sanity: the best window's cross-sum really is zero.
  EXPECT_DOUBLE_EQ(fx.m.at_fast(7, 0) - fx.m.at_fast(3, 0) -
                       fx.m.at_fast(7, 4),
                   0.0);

  OmegaKernelScratch scratch;
  const OmegaResult ref = omega::core::max_omega_search(fx.m, position);
  EXPECT_GT(ref.max_omega, 0.0);

  // This construction makes several windows score exactly 1/eps, so the
  // argmax is a multi-way tie that the fused-divide kernels may break at a
  // different ulp than the 3-divide reference. Require the same max (within
  // tolerance) and that the reported window is a co-maximizer under the
  // reference arithmetic — not a specific tie winner.
  const auto check_comaximal = [&](const OmegaResult& got, const char* label) {
    EXPECT_EQ(got.evaluated, ref.evaluated) << label;
    EXPECT_NEAR(got.max_omega, ref.max_omega, 1e-9 * (1.0 + ref.max_omega))
        << label;
    const std::size_t a = got.best_a, b = got.best_b;
    const double ls = fx.m.at_fast(position.c, a);
    const double rs = fx.m.at_fast(b, position.c + 1);
    const double cross = fx.m.at_fast(b, a) - ls - rs;
    const double w = omega::core::omega_from_sums(
        ls, rs, cross, position.c - a + 1, b - position.c);
    EXPECT_NEAR(w, ref.max_omega, 1e-9 * (1.0 + ref.max_omega)) << label;
  };
  check_comaximal(omega::core::omega_kernel_search(
                      fx.m, position, CpuKernelKind::Portable, scratch),
                  "portable-zero-cross");
  if (omega::core::cpu_kernel_avx2_available()) {
    check_comaximal(omega::core::omega_kernel_search(
                        fx.m, position, CpuKernelKind::Avx2, scratch),
                    "avx2-zero-cross");
  }
}

TEST(KernelEquivalence, ParallelMatchesSequentialPerKind) {
  KernelFixture fx(kernel_dataset(17));
  const auto grid = omega::core::build_grid(fx.dataset, kernel_config());
  omega::par::ThreadPool pool(3);
  std::vector<OmegaKernelScratch> lane_scratch;
  OmegaKernelScratch scratch;
  std::vector<CpuKernelKind> kinds = {CpuKernelKind::Scalar,
                                      CpuKernelKind::Portable};
  if (omega::core::cpu_kernel_avx2_available()) {
    kinds.push_back(CpuKernelKind::Avx2);
  }
  for (const auto& position : grid) {
    if (!position.valid) continue;
    fx.build(position);
    for (CpuKernelKind kind : kinds) {
      const OmegaResult seq =
          omega::core::omega_kernel_search(fx.m, position, kind, scratch);
      const OmegaResult par = omega::core::omega_kernel_search_parallel(
          pool, fx.m, position, kind, lane_scratch);
      EXPECT_EQ(par.evaluated, seq.evaluated);
      // Same kernel kind: the b-chunked reduce is bit-identical, including
      // tie-breaking.
      EXPECT_DOUBLE_EQ(par.max_omega, seq.max_omega)
          << omega::core::cpu_kernel_name(kind);
      EXPECT_EQ(par.best_a, seq.best_a);
      EXPECT_EQ(par.best_b, seq.best_b);
    }
  }
}

TEST(KernelDispatch, ResolveSemantics) {
  using omega::core::resolve_cpu_kernel;
  EXPECT_EQ(resolve_cpu_kernel(CpuKernelKind::Scalar), CpuKernelKind::Scalar);
  EXPECT_EQ(resolve_cpu_kernel(CpuKernelKind::Portable),
            CpuKernelKind::Portable);
  const CpuKernelKind autod = resolve_cpu_kernel(CpuKernelKind::Auto);
  EXPECT_NE(autod, CpuKernelKind::Auto);
  EXPECT_NE(autod, CpuKernelKind::Scalar);  // scalar is opt-in only
  if (omega::core::cpu_kernel_avx2_available()) {
    EXPECT_EQ(autod, CpuKernelKind::Avx2);
    EXPECT_EQ(resolve_cpu_kernel(CpuKernelKind::Avx2), CpuKernelKind::Avx2);
  } else {
    EXPECT_EQ(autod, CpuKernelKind::Portable);
    EXPECT_THROW((void)resolve_cpu_kernel(CpuKernelKind::Avx2),
                 std::runtime_error);
  }
}

TEST(KernelDispatch, NameRoundTrip) {
  using omega::core::cpu_kernel_from_name;
  using omega::core::cpu_kernel_name;
  for (CpuKernelKind kind : {CpuKernelKind::Auto, CpuKernelKind::Scalar,
                             CpuKernelKind::Portable, CpuKernelKind::Avx2}) {
    EXPECT_EQ(cpu_kernel_from_name(cpu_kernel_name(kind)), kind);
  }
  EXPECT_THROW((void)cpu_kernel_from_name("sse9"), std::invalid_argument);
  EXPECT_THROW((void)cpu_kernel_from_name(""), std::invalid_argument);
}

TEST(DpMatrixExtend, PoolMatchesSerialBitwise) {
  // 100 new rows crosses the pool-tiling threshold; the suffix-scan order is
  // fixed per row, so pool and serial extends must agree bit-for-bit.
  const Dataset d = kernel_dataset(29, 100, 30);
  const omega::ld::SnpMatrix snps(d);
  const omega::ld::PopcountLd engine(snps);
  omega::par::ThreadPool pool(3);

  DpMatrix serial, pooled;
  serial.reset(0);
  serial.extend(100, engine);
  pooled.reset(0);
  pooled.extend(100, engine, &pool);
  ASSERT_EQ(serial.end(), pooled.end());
  for (std::size_t i = 0; i < 100; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      ASSERT_EQ(serial.at(i, j), pooled.at(i, j)) << i << "," << j;
    }
  }

  // Incremental growth (the relocate-then-extend scan pattern) agrees too.
  DpMatrix stepped;
  stepped.reset(0);
  stepped.extend(40, engine, &pool);
  stepped.extend(100, engine, &pool);
  for (std::size_t i = 0; i < 100; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      ASSERT_EQ(serial.at(i, j), stepped.at(i, j)) << i << "," << j;
    }
  }
}

TEST(DpMatrixExtend, NoNewRowsSkipsEngineCall) {
  const Dataset d = kernel_dataset(31, 30, 20);
  const omega::ld::SnpMatrix snps(d);
  const omega::ld::PopcountLd engine(snps);
  DpMatrix m;
  m.reset(0);
  m.extend(30, engine);
  const auto fetches = m.r2_fetches();
  const auto recomputed = m.stats().cells_recomputed;
  m.extend(30, engine);  // same end: no work
  m.extend(12, engine);  // shrink request: no work
  EXPECT_EQ(m.r2_fetches(), fetches);
  EXPECT_EQ(m.stats().cells_recomputed, recomputed);
  EXPECT_EQ(m.end(), 30u);
}

TEST(DpMatrixAt, ErrorMessageCarriesIndicesAndRange) {
  DpMatrix m;
  m.reset(5);
  try {
    (void)m.at(7, 3);
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("DpMatrix::at(7, 3)"), std::string::npos) << what;
    EXPECT_NE(what.find("[5, 5)"), std::string::npos) << what;
  }
}

TEST(ScanKernelOptions, KernelsProduceEquivalentScansAndMetrics) {
  const Dataset d = kernel_dataset(37, 150, 30);
  omega::core::ScannerOptions scalar_options;
  scalar_options.config = kernel_config();
  scalar_options.cpu_kernel = CpuKernelKind::Scalar;
  const auto scalar = omega::core::scan(d, scalar_options);
  EXPECT_EQ(scalar.profile.kernel.requested, "scalar");
  EXPECT_EQ(scalar.profile.kernel.selected, "scalar");
  EXPECT_GT(scalar.profile.kernel.positions, 0u);
  EXPECT_EQ(scalar.profile.kernel.scalar_evaluations,
            scalar.profile.omega_evaluations);
  EXPECT_EQ(scalar.profile.kernel.portable_evaluations, 0u);
  EXPECT_EQ(scalar.profile.kernel.avx2_evaluations, 0u);

  omega::core::ScannerOptions auto_options = scalar_options;
  auto_options.cpu_kernel = CpuKernelKind::Auto;
  const auto dispatched = omega::core::scan(d, auto_options);
  EXPECT_EQ(dispatched.profile.kernel.requested, "auto");
  EXPECT_NE(dispatched.profile.kernel.selected, "scalar");
  EXPECT_EQ(dispatched.profile.kernel.scalar_evaluations, 0u);
  EXPECT_EQ(dispatched.profile.kernel.portable_evaluations +
                dispatched.profile.kernel.avx2_evaluations,
            dispatched.profile.omega_evaluations);

  ASSERT_EQ(scalar.scores.size(), dispatched.scores.size());
  for (std::size_t g = 0; g < scalar.scores.size(); ++g) {
    EXPECT_EQ(scalar.scores[g].valid, dispatched.scores[g].valid);
    if (!scalar.scores[g].valid) continue;
    EXPECT_EQ(scalar.scores[g].best_a, dispatched.scores[g].best_a);
    EXPECT_EQ(scalar.scores[g].best_b, dispatched.scores[g].best_b);
    EXPECT_NEAR(scalar.scores[g].max_omega, dispatched.scores[g].max_omega,
                1e-9 * (1.0 + scalar.scores[g].max_omega));
  }

  // The metrics document carries the v4 kernel block.
  const auto doc =
      omega::core::metrics::scan_metrics("kernel-test", dispatched.profile);
  EXPECT_EQ(doc.at("schema_version").as_int(),
            omega::core::metrics::kSchemaVersion);
  const auto& kernel = doc.at("kernel");
  EXPECT_EQ(kernel.at("requested").as_string(), "auto");
  EXPECT_EQ(kernel.at("selected").as_string(),
            dispatched.profile.kernel.selected);
  EXPECT_EQ(kernel.at("avx2_supported").as_bool(),
            omega::core::cpu_kernel_avx2_available());
  EXPECT_EQ(kernel.at("positions").as_uint(),
            dispatched.profile.kernel.positions);
}

TEST(ScanKernelOptions, InnerPositionStrategyRecordsKernelCounters) {
  const Dataset d = kernel_dataset(41, 120, 24);
  omega::core::ScannerOptions options;
  options.config = kernel_config();
  options.threads = 3;
  options.mt_strategy = omega::core::ScannerOptions::MtStrategy::InnerPosition;
  const auto result = omega::core::scan(d, options);
  EXPECT_GT(result.profile.kernel.positions, 0u);
  EXPECT_EQ(result.profile.kernel.scalar_evaluations +
                result.profile.kernel.portable_evaluations +
                result.profile.kernel.avx2_evaluations,
            result.profile.omega_evaluations);
}

TEST(ScanKernelOptions, ForcedAvx2ThrowsCleanlyWhenUnavailable) {
  if (omega::core::cpu_kernel_avx2_available()) {
    GTEST_SKIP() << "AVX2 available; the forced path is exercised elsewhere";
  }
  const Dataset d = kernel_dataset(43, 60, 20);
  omega::core::ScannerOptions options;
  options.config = kernel_config();
  options.cpu_kernel = CpuKernelKind::Avx2;
  EXPECT_THROW((void)omega::core::scan(d, options), std::runtime_error);
}

}  // namespace
