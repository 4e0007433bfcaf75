// Work-stealing parallel scan engine tests: the StealScheduler claim
// protocol, valid-position span budgeting (the static-split regression), the
// thread-count resolution convention, MT↔serial bitwise identity across
// backends (clean and under fault injection), multithreaded streaming, the
// schema v7 "sched" accounting, and concurrent ProgressReporter use from
// pool workers. Built with OMEGA_SANITIZE in the sanitized_parallel_scan
// ctest entry to catch data races in the steal path.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "core/scan_executor.h"
#include "core/scanner.h"
#include "core/stream_scanner.h"
#include "core/workload.h"
#include "hw/device_specs.h"
#include "hw/fpga/fpga_backend.h"
#include "hw/gpu/gpu_backend.h"
#include "io/chunk_reader.h"
#include "par/thread_pool.h"
#include "sim/dataset_factory.h"
#include "util/fault.h"
#include "util/progress.h"

namespace {

using omega::core::GridPosition;
using omega::core::ScannerOptions;
using omega::core::ScanResult;
using omega::core::detail::build_scan_spans;
using omega::core::detail::ScanSpan;
using omega::par::StealScheduler;
using omega::util::fault::FaultMode;
using omega::util::fault::FaultPlan;

// ---------------------------------------------------------------------------
// StealScheduler
// ---------------------------------------------------------------------------

TEST(StealScheduler, OwnerClaimsInOrderFromFront) {
  StealScheduler scheduler(2);
  scheduler.assign(0, {10, 11, 12});
  for (const std::size_t expected : {10u, 11u, 12u}) {
    const auto claim = scheduler.claim(0);
    ASSERT_TRUE(claim.has_value());
    EXPECT_EQ(claim->item, expected);
    EXPECT_FALSE(claim->stolen);
  }
  EXPECT_FALSE(scheduler.claim(0).has_value());
}

TEST(StealScheduler, ThiefStealsFromBackAndMarksClaim) {
  StealScheduler scheduler(2);
  scheduler.assign(0, {1, 2, 3});
  // Worker 1's own queue is empty; it steals the item farthest from the
  // victim's locality (the back).
  const auto stolen = scheduler.claim(1);
  ASSERT_TRUE(stolen.has_value());
  EXPECT_EQ(stolen->item, 3u);
  EXPECT_TRUE(stolen->stolen);
  // The victim still walks its remaining run in order.
  EXPECT_EQ(scheduler.claim(0)->item, 1u);
  EXPECT_EQ(scheduler.claim(0)->item, 2u);
  EXPECT_FALSE(scheduler.claim(0).has_value());
  EXPECT_FALSE(scheduler.claim(1).has_value());
}

TEST(StealScheduler, EveryItemClaimedExactlyOnceUnderContention) {
  constexpr std::size_t kWorkers = 8;
  constexpr std::size_t kItems = 2'000;
  StealScheduler scheduler(kWorkers);
  // Deliberately unbalanced: all items seeded to worker 0.
  std::vector<std::size_t> items(kItems);
  for (std::size_t i = 0; i < kItems; ++i) items[i] = i;
  scheduler.assign(0, std::move(items));

  std::vector<std::vector<std::size_t>> claimed(kWorkers);
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&scheduler, &claimed, w] {
      while (const auto claim = scheduler.claim(w)) {
        claimed[w].push_back(claim->item);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  std::set<std::size_t> all;
  std::size_t total = 0;
  for (const auto& list : claimed) {
    total += list.size();
    all.insert(list.begin(), list.end());
  }
  EXPECT_EQ(total, kItems);        // nothing claimed twice...
  EXPECT_EQ(all.size(), kItems);   // ...and nothing dropped
}

// ---------------------------------------------------------------------------
// Span construction: budget by VALID positions (the static-split regression)
// ---------------------------------------------------------------------------

std::vector<GridPosition> skewed_grid(std::size_t invalid_count,
                                      std::size_t valid_count) {
  // Invalid positions clustered at the front — the layout that broke the old
  // grid.size()/workers split (half the workers owned zero real work).
  std::vector<GridPosition> grid;
  for (std::size_t i = 0; i < invalid_count; ++i) {
    GridPosition p;
    p.position_bp = static_cast<std::int64_t>(i);
    grid.push_back(p);  // valid = false
  }
  for (std::size_t i = 0; i < valid_count; ++i) {
    GridPosition p;
    p.position_bp = static_cast<std::int64_t>(invalid_count + i);
    p.lo = i * 10;
    p.hi = p.lo + 20;
    p.c = p.lo + 10;
    p.a_max = p.lo + 8;
    p.b_min = p.lo + 12;
    p.valid = true;
    grid.push_back(p);
  }
  return grid;
}

TEST(ScanSpans, BudgetsByValidPositionsNotGridSize) {
  const auto grid = skewed_grid(/*invalid_count=*/60, /*valid_count=*/20);
  const std::size_t workers = 4;
  const auto spans = build_scan_spans(grid, 0, grid.size(), workers);

  ASSERT_FALSE(spans.empty());
  // Spans exactly tile [0, grid.size()).
  EXPECT_EQ(spans.front().begin, 0u);
  EXPECT_EQ(spans.back().end, grid.size());
  for (std::size_t s = 1; s < spans.size(); ++s) {
    EXPECT_EQ(spans[s].begin, spans[s - 1].end);
  }
  // Every span carries real work and the valid-position budget split them —
  // a grid.size()-based split at 4 workers would put all 20 valid positions
  // (indices 60..79) into the last quarter.
  std::uint64_t total_valid = 0;
  for (const ScanSpan& span : spans) {
    EXPECT_GE(span.valid_positions, 1u);
    EXPECT_GT(span.cost, 0u);
    total_valid += span.valid_positions;
  }
  EXPECT_EQ(total_valid, 20u);
  EXPECT_GE(spans.size(), workers);
  // Balance: no span carries more than ~2x the average cost share.
  std::uint64_t total_cost = 0;
  for (const ScanSpan& span : spans) total_cost += span.cost;
  for (const ScanSpan& span : spans) {
    EXPECT_LE(span.cost, 2 * total_cost / spans.size() + total_cost / 10);
  }
}

TEST(ScanSpans, AllInvalidRangeYieldsNoSpans) {
  const auto grid = skewed_grid(/*invalid_count=*/30, /*valid_count=*/5);
  EXPECT_TRUE(build_scan_spans(grid, 0, 30, 4).empty());
  EXPECT_TRUE(build_scan_spans(grid, 0, 0, 4).empty());
}

TEST(ScanSpans, PerPositionCostIsZeroOnlyForInvalid) {
  const auto grid = skewed_grid(3, 3);
  EXPECT_EQ(omega::core::estimate_position_cost(grid[0]), 0u);
  EXPECT_GT(omega::core::estimate_position_cost(grid[3]), 0u);
}

// ---------------------------------------------------------------------------
// Thread-count resolution (the --threads 0 bugfix)
// ---------------------------------------------------------------------------

TEST(ResolveScanThreads, ZeroMeansHardwareConcurrency) {
  const std::size_t resolved = omega::core::resolve_scan_threads(0);
  EXPECT_GE(resolved, 1u);
  EXPECT_EQ(resolved, std::max<std::size_t>(
                          1, std::thread::hardware_concurrency()));
  EXPECT_EQ(omega::core::resolve_scan_threads(1), 1u);
  EXPECT_EQ(omega::core::resolve_scan_threads(7), 7u);
}

omega::io::Dataset parallel_dataset(std::uint64_t seed = 4242) {
  return omega::sim::make_dataset({.snps = 320,
                                   .samples = 24,
                                   .locus_length_bp = 320'000,
                                   .rho = 40.0,
                                   .seed = seed});
}

ScannerOptions parallel_options() {
  ScannerOptions options;
  options.config.grid_size = 48;
  options.config.window_unit = omega::core::WindowUnit::Snps;
  options.config.max_window = 260;
  options.config.min_window = 30;
  return options;
}

TEST(ResolveScanThreads, ScanWithThreadsZeroAutoDetectsAndStampsProfile) {
  const auto dataset = parallel_dataset();
  auto options = parallel_options();
  options.threads = 0;
  const auto result = omega::core::scan(dataset, options);
  EXPECT_EQ(result.profile.sched.requested_threads, 0u);
  EXPECT_EQ(result.profile.sched.workers,
            omega::core::resolve_scan_threads(0));
  EXPECT_TRUE(result.has_valid());
}

// ---------------------------------------------------------------------------
// MT ↔ serial bitwise identity across backends
// ---------------------------------------------------------------------------

void expect_identical(const ScanResult& mt, const ScanResult& serial) {
  ASSERT_EQ(mt.scores.size(), serial.scores.size());
  for (std::size_t i = 0; i < mt.scores.size(); ++i) {
    EXPECT_EQ(mt.scores[i].position_bp, serial.scores[i].position_bp) << i;
    EXPECT_EQ(mt.scores[i].valid, serial.scores[i].valid) << i;
    EXPECT_EQ(mt.scores[i].quarantined, serial.scores[i].quarantined) << i;
    if (!mt.scores[i].valid) continue;
    // Bit-for-bit: span boundaries and steal order must not change results.
    EXPECT_EQ(mt.scores[i].max_omega, serial.scores[i].max_omega) << i;
    EXPECT_EQ(mt.scores[i].best_a, serial.scores[i].best_a) << i;
    EXPECT_EQ(mt.scores[i].best_b, serial.scores[i].best_b) << i;
    EXPECT_EQ(mt.scores[i].evaluated, serial.scores[i].evaluated) << i;
  }
  EXPECT_EQ(mt.profile.positions_scanned, serial.profile.positions_scanned);
  EXPECT_EQ(mt.profile.omega_evaluations, serial.profile.omega_evaluations);
}

ScanResult gpu_sim_scan(const omega::io::Dataset& dataset,
                        const ScannerOptions& options,
                        const FaultPlan& plan = {}) {
  omega::par::ThreadPool pool(2);
  const auto spec = omega::hw::tesla_k80();
  return omega::core::scan(dataset, options, [&] {
    omega::hw::gpu::GpuBackendOptions backend_options;
    backend_options.fault_plan = plan;
    return std::make_unique<omega::hw::gpu::GpuOmegaBackend>(spec, pool,
                                                             backend_options);
  });
}

ScanResult fpga_sim_scan(const omega::io::Dataset& dataset,
                         const ScannerOptions& options,
                         const FaultPlan& plan = {}) {
  return omega::core::scan(dataset, options, [&] {
    omega::hw::fpga::FpgaBackendOptions backend_options;
    backend_options.fault_plan = plan;
    return std::make_unique<omega::hw::fpga::FpgaOmegaBackend>(
        omega::hw::alveo_u200(), backend_options);
  });
}

TEST(ParallelScanIdentity, CpuMatchesSerialBitwise) {
  const auto dataset = parallel_dataset();
  auto options = parallel_options();
  const auto serial = omega::core::scan(dataset, options);
  for (const std::size_t threads : {2u, 3u, 5u, 8u}) {
    options.threads = threads;
    const auto mt = omega::core::scan(dataset, options);
    expect_identical(mt, serial);
    EXPECT_EQ(mt.profile.sched.workers, threads);
    EXPECT_GT(mt.profile.sched.spans, 0u);
  }
}

TEST(ParallelScanIdentity, GpuSimMatchesSerialBitwise) {
  const auto dataset = parallel_dataset();
  auto options = parallel_options();
  const auto serial = gpu_sim_scan(dataset, options);
  options.threads = 4;
  const auto mt = gpu_sim_scan(dataset, options);
  expect_identical(mt, serial);
}

TEST(ParallelScanIdentity, FpgaSimMatchesSerialBitwise) {
  const auto dataset = parallel_dataset();
  auto options = parallel_options();
  const auto serial = fpga_sim_scan(dataset, options);
  options.threads = 4;
  const auto mt = fpga_sim_scan(dataset, options);
  expect_identical(mt, serial);
}

// ---------------------------------------------------------------------------
// MT ↔ serial identity under fault injection
// ---------------------------------------------------------------------------

TEST(ParallelScanFaults, CertainKernelFailureQuarantinesIdentically) {
  // rate = 1.0: every backend call fails regardless of PRNG consumption
  // order, so the outcome is schedule-independent — every valid position is
  // quarantined and the merged counters match serial exactly.
  const auto dataset = parallel_dataset();
  auto options = parallel_options();
  options.recovery.fallback_to_cpu = false;
  FaultPlan plan;
  plan.mode = FaultMode::KernelLaunch;
  plan.rate = 1.0;
  plan.seed = 7;

  const auto serial = gpu_sim_scan(dataset, options, plan);
  options.threads = 4;
  const auto mt = gpu_sim_scan(dataset, options, plan);

  expect_identical(mt, serial);
  EXPECT_FALSE(mt.has_valid());
  EXPECT_EQ(mt.profile.faults.errors_caught,
            serial.profile.faults.errors_caught);
  EXPECT_EQ(mt.profile.faults.retries, serial.profile.faults.retries);
  EXPECT_EQ(mt.profile.faults.quarantined_positions,
            serial.profile.faults.quarantined_positions);
}

TEST(ParallelScanFaults, FlakyNanRetriesConvergeToCleanScores) {
  // Transient NaNs at 50% with generous retries: every position eventually
  // produces the clean result (validate_results rejects the NaNs), so the MT
  // scores are bitwise equal to a fault-free scan even though each worker's
  // injector consumes a schedule-dependent PRNG sequence.
  const auto dataset = parallel_dataset();
  auto options = parallel_options();
  options.recovery.max_retries = 64;
  const auto clean = gpu_sim_scan(dataset, options);

  FaultPlan plan;
  plan.mode = FaultMode::TransientNan;
  plan.rate = 0.5;
  plan.seed = 21;
  options.threads = 4;
  const auto mt = gpu_sim_scan(dataset, options, plan);

  ASSERT_EQ(mt.scores.size(), clean.scores.size());
  for (std::size_t i = 0; i < mt.scores.size(); ++i) {
    EXPECT_EQ(mt.scores[i].valid, clean.scores[i].valid) << i;
    if (!mt.scores[i].valid) continue;
    EXPECT_EQ(mt.scores[i].max_omega, clean.scores[i].max_omega) << i;
    EXPECT_EQ(mt.scores[i].best_a, clean.scores[i].best_a) << i;
    EXPECT_EQ(mt.scores[i].best_b, clean.scores[i].best_b) << i;
  }
  EXPECT_EQ(mt.profile.faults.quarantined_positions, 0u);
  EXPECT_GT(mt.profile.faults.invalid_results, 0u);
}

// ---------------------------------------------------------------------------
// Sched accounting
// ---------------------------------------------------------------------------

TEST(SchedStats, WorkerDetailAddsUpAndBusyTimeIsPositive) {
  const auto dataset = parallel_dataset();
  auto options = parallel_options();
  options.threads = 4;
  const auto result = omega::core::scan(dataset, options);

  const auto& sched = result.profile.sched;
  EXPECT_EQ(sched.requested_threads, 4u);
  EXPECT_EQ(sched.workers, 4u);
  ASSERT_EQ(sched.workers_detail.size(), 4u);

  std::uint64_t spans = 0, steals = 0, positions = 0;
  double busy = 0.0;
  for (const auto& worker : sched.workers_detail) {
    spans += worker.spans;
    steals += worker.steals;
    positions += worker.positions;
    busy += worker.busy_seconds;
  }
  EXPECT_EQ(spans, sched.spans);
  EXPECT_EQ(steals, sched.steals);
  EXPECT_EQ(positions, result.profile.positions_scanned);
  EXPECT_GT(busy, 0.0);
  EXPECT_GE(sched.active_workers(), 1u);
  EXPECT_LE(sched.active_workers(), 4u);
  // Telemetry mirrors the profile: the span histogram and counters were
  // recorded during this scan.
  EXPECT_GE(result.profile.telemetry.counter_value("sched.spans_total"),
            sched.spans);
}

TEST(SchedStats, SerialScanReportsOneWorkerNoSpans) {
  const auto dataset = parallel_dataset();
  const auto options = parallel_options();
  const auto result = omega::core::scan(dataset, options);
  // The serial scan is the executor's one-worker layout: the same sched
  // block as any other, with one worker that never steals.
  const auto& sched = result.profile.sched;
  EXPECT_EQ(sched.requested_threads, 1u);
  EXPECT_EQ(sched.workers, 1u);
  EXPECT_EQ(sched.steals, 0u);
  ASSERT_EQ(sched.workers_detail.size(), 1u);
  EXPECT_EQ(sched.workers_detail[0].positions,
            result.profile.positions_scanned);
  EXPECT_EQ(sched.workers_detail[0].spans, sched.spans);
}

// ---------------------------------------------------------------------------
// Multithreaded streaming
// ---------------------------------------------------------------------------

TEST(ParallelStream, ChunkedMtMatchesSerialStreamBitwise) {
  const auto dataset = parallel_dataset(1717);
  auto options = parallel_options();

  omega::io::DatasetChunkReader serial_reader(dataset);
  const auto serial = omega::core::stream_scan(serial_reader, options);

  for (const std::size_t chunk_sites : {1000u, 90u}) {
    omega::core::StreamScanOptions stream_options;
    stream_options.chunk_sites = chunk_sites;
    options.threads = 4;
    omega::io::DatasetChunkReader reader(dataset);
    const auto mt = omega::core::stream_scan(reader, options, stream_options);
    expect_identical(mt, serial);
    EXPECT_EQ(mt.profile.sched.workers, 4u);
    // Each worker carries its own matrix over the seams it crosses; a
    // one-chunk stream has none.
    const std::uint64_t seams = mt.profile.stream.chunks - 1;
    EXPECT_EQ(mt.profile.stream.seam_carryovers > 0, seams > 0);
    EXPECT_LE(mt.profile.stream.seam_carryovers, 4u * seams);
  }
}

TEST(ParallelStream, InnerPositionMatchesSerialStreamBitwise) {
  const auto dataset = parallel_dataset(1717);
  auto options = parallel_options();
  omega::io::DatasetChunkReader serial_reader(dataset);
  omega::core::StreamScanOptions stream_options;
  stream_options.chunk_sites = 90;
  const auto serial =
      omega::core::stream_scan(serial_reader, options, stream_options);

  options.threads = 4;
  options.mt_strategy = omega::core::ScannerOptions::MtStrategy::InnerPosition;
  omega::io::DatasetChunkReader reader(dataset);
  const auto inner = omega::core::stream_scan(reader, options, stream_options);
  expect_identical(inner, serial);
  // One DP walker: the same matrix chain, seams and relocations as serial.
  EXPECT_EQ(inner.profile.sched.workers, 1u);
  EXPECT_EQ(inner.profile.stream.seam_carryovers,
            serial.profile.stream.seam_carryovers);
  EXPECT_EQ(inner.profile.relocation.relocations,
            serial.profile.relocation.relocations);
}

TEST(ParallelStream, InnerPositionRejectsNonCpuBackend) {
  const auto dataset = parallel_dataset(1717);
  auto options = parallel_options();
  options.threads = 2;
  options.mt_strategy = omega::core::ScannerOptions::MtStrategy::InnerPosition;
  omega::io::DatasetChunkReader reader(dataset);
  EXPECT_THROW(
      (void)omega::core::stream_scan(
          reader, options, {},
          [] { return std::make_unique<omega::core::CpuOmegaBackend>(); }),
      std::invalid_argument);
}

TEST(ParallelStream, ThreadsZeroAutoDetects) {
  const auto dataset = parallel_dataset(99);
  auto options = parallel_options();
  options.threads = 0;
  omega::io::DatasetChunkReader reader(dataset);
  const auto result = omega::core::stream_scan(reader, options);
  EXPECT_EQ(result.profile.sched.workers,
            omega::core::resolve_scan_threads(0));
  EXPECT_TRUE(result.has_valid());
}

// ---------------------------------------------------------------------------
// ProgressReporter under concurrent pool workers
// ---------------------------------------------------------------------------

TEST(ParallelProgress, ConcurrentAdvanceFromPoolWorkersLosesNothing) {
  std::atomic<std::uint64_t> sink_calls{0};
  omega::util::ProgressReporter reporter(
      [&sink_calls](const omega::util::ProgressUpdate&) { ++sink_calls; },
      /*interval_seconds=*/0.0);
  constexpr std::uint64_t kWorkers = 8;
  constexpr std::uint64_t kPerWorker = 5'000;
  reporter.begin(kWorkers * kPerWorker);

  omega::par::ThreadPool pool(kWorkers - 1);
  std::vector<std::function<void()>> tasks;
  for (std::uint64_t w = 0; w < kWorkers; ++w) {
    tasks.emplace_back([&reporter] {
      for (std::uint64_t i = 0; i < kPerWorker; ++i) {
        omega::util::ProgressReporter::Delta delta;
        delta.positions = 1;
        delta.faults = i % 3 == 0 ? 1 : 0;
        reporter.advance(delta);
      }
    });
  }
  pool.run_blocking(std::move(tasks));
  reporter.finish();

  const auto last = reporter.last_update();
  EXPECT_EQ(last.positions_done, kWorkers * kPerWorker);
  EXPECT_EQ(last.faults, kWorkers * ((kPerWorker + 2) / 3));
  EXPECT_TRUE(last.final);
  EXPECT_GT(sink_calls.load(), 0u);
}

TEST(ParallelProgress, MtScanReportsEveryValidPosition) {
  const auto dataset = parallel_dataset();
  auto options = parallel_options();
  options.threads = 4;
  omega::util::ProgressReporter reporter(
      [](const omega::util::ProgressUpdate&) {}, /*interval_seconds=*/1e9);
  options.progress = &reporter;
  const auto result = omega::core::scan(dataset, options);
  const auto last = reporter.last_update();
  EXPECT_EQ(last.positions_done,
            result.profile.positions_scanned +
                result.profile.faults.quarantined_positions);
  EXPECT_TRUE(last.final);
}

}  // namespace
