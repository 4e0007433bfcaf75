#include "core/scan_executor.h"

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "core/resilience.h"
#include "core/workload.h"
#include "util/cancel.h"
#include "util/telemetry.h"
#include "util/timer.h"
#include "util/trace.h"

namespace omega::core::detail {

namespace {

/// Adapter presenting the intra-position parallel search as an OmegaBackend
/// so the InnerPosition layout shares the recovery engine. Routes through the
/// dispatched kernel layer like CpuOmegaBackend and accounts evaluations the
/// same way.
class InnerPositionBackend final : public OmegaBackend {
 public:
  InnerPositionBackend(par::ThreadPool& pool, CpuKernelKind kind)
      : pool_(pool), kind_(kind) {}
  [[nodiscard]] std::string name() const override { return "cpu"; }
  OmegaResult max_omega(const DpMatrix& m,
                        const GridPosition& position) override {
    OmegaResult result =
        omega_kernel_search_parallel(pool_, m, position, kind_, lane_scratch_);
    counters_.add(kind_, result.evaluated);
    ++positions_;
    return result;
  }
  void contribute(ScanProfile& profile) const override {
    profile.kernel.positions += positions_;
    profile.kernel.scalar_evaluations += counters_.scalar_evaluations;
    profile.kernel.portable_evaluations += counters_.portable_evaluations;
    profile.kernel.avx2_evaluations += counters_.avx2_evaluations;
  }

 private:
  par::ThreadPool& pool_;
  CpuKernelKind kind_;
  std::vector<OmegaKernelScratch> lane_scratch_;
  CpuKernelCounters counters_;
  std::uint64_t positions_ = 0;
};

/// Seeds each worker with a contiguous run of spans, balanced by estimated
/// cost, preserving grid order within each run (owner claims pop the front,
/// so a worker walks its run left to right — maximal relocation reuse).
void seed_spans(par::StealScheduler& scheduler,
                const std::vector<ScanSpan>& spans) {
  const std::size_t workers = scheduler.workers();
  std::uint64_t total_cost = 0;
  for (const ScanSpan& span : spans) total_cost += span.cost;
  // Zero-total-cost spans (degenerate grids): weigh each span equally so the
  // seeding still spreads runs across workers instead of piling everything
  // on worker 0.
  const bool equal_fallback = total_cost == 0;
  const std::uint64_t budget_total =
      equal_fallback ? static_cast<std::uint64_t>(spans.size()) : total_cost;
  std::vector<std::size_t> run;
  std::size_t worker = 0;
  std::uint64_t cum = 0;
  for (std::size_t s = 0; s < spans.size(); ++s) {
    run.push_back(s);
    cum += equal_fallback ? 1 : spans[s].cost;
    if (worker + 1 < workers &&
        cum * workers >=
            (static_cast<std::uint64_t>(worker) + 1) * budget_total) {
      scheduler.assign(worker, std::move(run));
      run = {};
      ++worker;
    }
  }
  scheduler.assign(std::min(worker, workers - 1), std::move(run));
}

}  // namespace

std::vector<ScanSpan> build_scan_spans(const std::vector<GridPosition>& grid,
                                       std::size_t begin, std::size_t end,
                                       std::size_t workers,
                                       std::size_t spans_per_worker) {
  end = std::min(end, grid.size());
  if (begin >= end) return {};
  if (workers == 0) workers = 1;
  if (spans_per_worker == 0) spans_per_worker = 1;

  std::uint64_t total_cost = 0;
  std::size_t total_valid = 0;
  for (std::size_t g = begin; g < end; ++g) {
    total_cost += estimate_position_cost(grid[g]);
    if (grid[g].valid) ++total_valid;
  }
  if (total_valid == 0) return {};

  // More spans than workers so the steal scheduler has slack to rebalance;
  // never more spans than valid positions (a span needs real work).
  const std::uint64_t target_spans = static_cast<std::uint64_t>(
      std::min<std::size_t>(workers * spans_per_worker, total_valid));

  // Degenerate grid: every valid position estimates to zero cost (e.g. all
  // windows collapse to a single SNP). The proportional boundary below would
  // divide work by total cost, so fall back to budgeting one unit per valid
  // position — deterministic equal-count spans.
  const bool equal_fallback = total_cost == 0;
  const std::uint64_t budget_total =
      equal_fallback ? static_cast<std::uint64_t>(total_valid) : total_cost;

  static util::telemetry::Histogram& span_positions_hist =
      util::telemetry::histogram("sched.span_positions", 1.0);

  std::vector<ScanSpan> spans;
  spans.reserve(target_spans);
  ScanSpan current;
  current.begin = begin;
  std::uint64_t cum = 0;
  for (std::size_t g = begin; g < end; ++g) {
    const GridPosition& position = grid[g];
    if (!position.valid) continue;  // absorbed at zero cost
    const std::uint64_t cost =
        equal_fallback ? 1 : estimate_position_cost(position);
    cum += cost;
    current.cost += cost;
    ++current.valid_positions;
    current.end = g + 1;
    // Proportional boundary: close the span once the running cost crosses
    // the next 1/target_spans share of the total. Invalid tails attach to
    // whatever span encloses them.
    const std::uint64_t closed = static_cast<std::uint64_t>(spans.size());
    if (closed + 1 < target_spans &&
        cum * target_spans >= (closed + 1) * budget_total) {
      spans.push_back(current);
      span_positions_hist.record(
          static_cast<double>(current.valid_positions));
      current = ScanSpan{};
      current.begin = g + 1;
    }
  }
  // Final span absorbs any trailing invalid positions so spans tile the
  // whole range.
  current.end = end;
  spans.push_back(current);
  span_positions_hist.record(static_cast<double>(current.valid_positions));
  return spans;
}

/// State of one run() call shared by its workers.
struct ScanExecutor::Run {
  Run(const std::vector<GridPosition>& grid_in, const ld::LdEngine& engine_in,
      std::vector<PositionScore>& scores_in, SchedStats& sched_in,
      util::ProgressReporter* progress_in, const CancelState* cancel_in,
      std::size_t cpu_workers)
      : grid(grid_in),
        engine(engine_in),
        scores(scores_in),
        sched(sched_in),
        progress(progress_in),
        cancel(cancel_in),
        scheduler(cpu_workers) {}

  [[nodiscard]] bool stopped() const {
    return cancel != nullptr && cancel->should_stop();
  }
  std::optional<ScanSpan> pop_redispatch() {
    const std::lock_guard<std::mutex> lock(redispatch_mutex);
    if (redispatch.empty()) return std::nullopt;
    const ScanSpan span = redispatch.back();
    redispatch.pop_back();
    return span;
  }

  const std::vector<GridPosition>& grid;
  const ld::LdEngine& engine;
  std::vector<PositionScore>& scores;
  SchedStats& sched;
  util::ProgressReporter* progress;
  const CancelState* cancel;
  /// CPU spans, claimed through the steal scheduler.
  std::vector<ScanSpan> cpu_spans;
  par::StealScheduler scheduler;
  /// Accelerator p's ordered launch queue (hetero only).
  std::vector<std::vector<ScanSpan>> accel_spans;
  /// Unsettled accelerator remainders the CPU workers take over; the mutex
  /// also guards the executor's re-dispatch counters.
  std::mutex redispatch_mutex;
  std::vector<ScanSpan> redispatch;
};

ScanExecutor::ScanExecutor(const ScannerOptions& options, CpuKernelKind kernel,
                           std::size_t threads,
                           const BackendFactory& backend_factory)
    : recovery_(options.recovery), reuse_(options.reuse) {
  const bool inner =
      options.hetero == nullptr && threads > 1 &&
      options.mt_strategy == ScannerOptions::MtStrategy::InnerPosition;
  if (inner && backend_factory) {
    throw std::invalid_argument(
        "scan: InnerPosition multithreading requires the CPU backend");
  }
  std::size_t accelerators = 0;
  if (options.hetero != nullptr) {
    hetero_ = *options.hetero;
    hetero_->validate();
    accelerators = hetero_->accelerators.size();
    // Each accelerator partition consumes one worker slot; the CPU partition
    // gets whatever the thread budget leaves, but always at least one worker
    // — it is the re-dispatch target of last resort.
    cpu_workers_ = threads > accelerators ? threads - accelerators : 1;
  } else {
    cpu_workers_ = inner ? 1 : threads;
  }
  const std::size_t total = cpu_workers_ + accelerators;
  // A single worker runs inline on the caller; InnerPosition's pool only
  // serves its one worker. ThreadPool(0) would mean hardware concurrency.
  const std::size_t pool_threads = inner ? threads - 1 : total - 1;
  if (pool_threads > 0) pool_.emplace(pool_threads);
  if (inner) extend_pool_ = &*pool_;

  auto with_fallback = [&](std::unique_ptr<OmegaBackend> backend) {
    // Graceful degradation: a device-lost error demotes this worker's
    // backend to the CPU loop instead of quarantining the rest of its work.
    if (recovery_.fallback_to_cpu) {
      backend = std::make_unique<FallbackBackend>(std::move(backend), kernel);
    }
    return backend;
  };
  workers_.resize(total);
  for (std::size_t w = 0; w < cpu_workers_; ++w) {
    if (inner) {
      workers_[w].backend =
          std::make_unique<InnerPositionBackend>(*pool_, kernel);
    } else if (backend_factory && !hetero_) {
      workers_[w].backend = with_fallback(backend_factory());
    } else {
      workers_[w].backend = std::make_unique<CpuOmegaBackend>(kernel);
    }
  }
  for (std::size_t p = 0; p < accelerators; ++p) {
    Worker& worker = workers_[cpu_workers_ + p];
    worker.backend = with_fallback(hetero_->accelerators[p].backend_factory());
    worker.partition = p + 1;
  }
  if (hetero_) {
    rates_.resize(1 + accelerators);
    stats_.enabled = true;
    stats_.split = hetero_->split.name();
    stats_.partitions.resize(1 + accelerators);
    stats_.partitions[0].backend = "cpu";
    for (std::size_t p = 0; p < accelerators; ++p) {
      stats_.partitions[p + 1].backend = hetero_->accelerators[p].name;
    }
  }
}

std::string ScanExecutor::config_backend_name() const {
  return hetero_ ? "cpu" : workers_.front().backend->name();
}

void ScanExecutor::invalidate() noexcept {
  for (Worker& worker : workers_) worker.state.live = false;
}

void ScanExecutor::run(const std::vector<GridPosition>& grid,
                       std::size_t begin, std::size_t end,
                       const ld::LdEngine& engine,
                       std::vector<PositionScore>& scores, SchedStats& sched,
                       util::ProgressReporter* progress,
                       const CancelState* cancel) {
  static util::telemetry::Counter& spans_total =
      util::telemetry::counter("sched.spans_total");
  static util::telemetry::Counter& plans_total =
      util::telemetry::counter("hetero.plans_total");
  const std::size_t total = workers_.size();
  if (sched.workers_detail.size() < total) sched.workers_detail.resize(total);
  Run run(grid, engine, scores, sched, progress, cancel, cpu_workers_);

  // The CPU workers span the whole range unless the hetero planner carves
  // accelerator segments out of it.
  std::size_t cpu_begin = begin;
  std::size_t cpu_end = end;
  if (hetero_) {
    const HeteroPlan plan = plan_hetero_split(grid, begin, end, *hetero_);
    ++stats_.plans;
    plans_total.add(1);
    cpu_begin = plan.segments[0].begin;
    cpu_end = plan.segments[0].end;
    run.accel_spans.resize(plan.segments.size() - 1);
    for (std::size_t p = 0; p < plan.segments.size(); ++p) {
      const HeteroSegmentPlan& segment = plan.segments[p];
      HeteroPartitionStats& part = stats_.partitions[p];
      part.weight = segment.weight;
      part.planned_positions += segment.planned_positions;
      part.modeled_seconds += segment.modeled_seconds;
      if (p == 0) continue;
      // One ordered launch queue per accelerator, split into a few spans so
      // the straggler deadline has useful granularity.
      run.accel_spans[p - 1] =
          build_scan_spans(grid, segment.begin, segment.end, 1);
      part.spans += run.accel_spans[p - 1].size();
    }
  }
  run.cpu_spans = build_scan_spans(grid, cpu_begin, cpu_end, cpu_workers_);
  if (hetero_) stats_.partitions[0].spans += run.cpu_spans.size();
  spans_total.add(run.cpu_spans.size());
  seed_spans(run.scheduler, run.cpu_spans);

  const std::vector<SchedWorkerStats> before = sched.workers_detail;
  for (Worker& worker : workers_) worker.first_in_run = true;
  launch(total, run);
  // Mop-up wave: remainders the accelerators pushed after the CPU workers'
  // own drain returned. The accelerators are done, so one pass settles the
  // queue; a cancelled scan leaves it unscored (drain semantics).
  if (!run.redispatch.empty() && !run.stopped()) launch(cpu_workers_, run);
  if (hetero_) account_partitions(before, sched);

  // Totals are recomputed from the per-worker detail (not incremented), so
  // the repeated per-chunk calls of the streaming driver stay consistent.
  sched.spans = 0;
  sched.steals = 0;
  for (const SchedWorkerStats& w : sched.workers_detail) {
    sched.spans += w.spans;
    sched.steals += w.steals;
  }
}

void ScanExecutor::launch(std::size_t worker_count, Run& run) {
  if (worker_count == 1) {
    work(0, run);
    return;
  }
  std::vector<std::function<void()>> tasks;
  tasks.reserve(worker_count);
  for (std::size_t w = 0; w < worker_count; ++w) {
    tasks.emplace_back([this, w, &run] { work(w, run); });
  }
  pool_->run_blocking(std::move(tasks));
}

void ScanExecutor::work(std::size_t w, Run& run) {
  const util::trace::Span worker_span("scan.worker");
  try {
    const std::size_t partition = workers_[w].partition;
    if (partition > 0) {
      for (const ScanSpan& span : run.accel_spans[partition - 1]) {
        if (!scan_span(w, span, /*stolen=*/false, run)) return;
      }
      return;
    }
    while (const auto claim = run.scheduler.claim(w)) {
      if (!scan_span(w, run.cpu_spans[claim->item], claim->stolen, run)) {
        return;
      }
    }
    // Own spans are dry: absorb whatever the accelerators have re-dispatched
    // so far (the mop-up wave in run() takes the rest).
    while (const auto span = run.pop_redispatch()) {
      if (!scan_span(w, *span, /*stolen=*/false, run)) return;
    }
  } catch (const util::CancelledError&) {
    // A simulator backend observed the cancel mid-launch: this worker's
    // position in flight stays unscored (neither valid nor quarantined) and
    // it stops claiming; the others drain through their own polls.
  }
}

bool ScanExecutor::scan_span(std::size_t w, const ScanSpan& span, bool stolen,
                             Run& run) {
  static util::telemetry::Counter& steals_total =
      util::telemetry::counter("sched.steals_total");
  static util::telemetry::Histogram& busy_hist =
      util::telemetry::histogram("sched.worker_busy_seconds");
  if (run.stopped()) return false;
  Worker& worker = workers_[w];
  SchedWorkerStats& wstats = run.sched.workers_detail[w];
  ++wstats.spans;
  if (stolen) {
    ++wstats.steals;
    steals_total.add(1);
  }
  // Accelerator spans carry a modeled straggler deadline: the launch-queue
  // analogue of the per-position modeled watchdog.
  const bool accelerator = worker.partition > 0;
  double deadline = 0.0;
  if (accelerator) {
    const HeteroCostModel& model =
        hetero_->accelerators[worker.partition - 1].modeled_seconds;
    double modeled = 0.0;
    for (std::size_t g = span.begin; g < span.end; ++g) {
      if (run.grid[g].valid) modeled += model(run.grid[g]);
    }
    deadline = hetero_->straggler_multiplier * modeled +
               hetero_->straggler_min_seconds;
  }
  const util::Timer busy;
  const std::uint64_t positions_before = wstats.positions;
  bool keep_going = true;
  for (std::size_t g = span.begin; g < span.end; ++g) {
    // Cooperative drain: the position in flight always completes, so a
    // cancelled scan never leaves a half-scored position behind.
    if (run.stopped()) {
      keep_going = false;
      break;
    }
    const GridPosition& position = run.grid[g];
    PositionScore& score = run.scores[g];
    if (!position.valid || score.valid || score.quarantined) continue;
    if (accelerator && busy.seconds() > deadline) {
      redispatch(run, g, span.end, /*straggler=*/true);
      break;
    }
    const bool relocated =
        advance_matrix(worker.state.matrix, worker.state.live, reuse_,
                       position, run.engine, worker.profile.stages,
                       extend_pool_);
    if (worker.first_in_run) {
      // The matrix this worker held from its previous run (the previous
      // stream chunk) survived the seam.
      if (relocated) ++worker.profile.stream.seam_carryovers;
      worker.first_in_run = false;
    }
    // An accelerator hands exhausted positions to the bit-identical CPU
    // partition instead of quarantining them.
    if (!score_position(*worker.backend, worker.state.matrix, position,
                        recovery_, worker.profile, score, run.progress,
                        /*quarantine=*/!accelerator) &&
        accelerator) {
      redispatch(run, g, span.end, /*straggler=*/false);
      break;
    }
    ++wstats.positions;
  }
  const double elapsed = busy.seconds();
  wstats.busy_seconds += elapsed;
  busy_hist.record(elapsed);
  // Measured-rate EWMA, one observation per span. Exported as a gauge only
  // (metrics_diff skips the telemetry subtree): the per-span signal is far
  // too noisy to gate benchmarks on. Hetero publishes per-partition rates.
  worker.state.rate.observe(wstats.positions - positions_before, elapsed);
  if (!hetero_ && worker.state.rate.observations() > 0) {
    util::telemetry::gauge("sched.worker" + std::to_string(w) + ".rate_per_s")
        .set(worker.state.rate.rate_per_s());
  }
  return keep_going;
}

void ScanExecutor::redispatch(Run& run, std::size_t begin, std::size_t end,
                              bool straggler) {
  // Settled positions are skipped on re-scan, so the handoff is idempotent.
  ScanSpan remainder;
  remainder.begin = begin;
  remainder.end = end;
  for (std::size_t g = begin; g < end; ++g) {
    const PositionScore& score = run.scores[g];
    if (run.grid[g].valid && !score.valid && !score.quarantined) {
      ++remainder.valid_positions;
      remainder.cost += estimate_position_cost(run.grid[g]);
    }
  }
  const std::lock_guard<std::mutex> lock(run.redispatch_mutex);
  run.redispatch.push_back(remainder);
  ++stats_.redispatched_spans;
  stats_.redispatched_positions += remainder.valid_positions;
  if (straggler) {
    ++stats_.straggler_spans;
  } else {
    ++stats_.faulted_spans;
  }
}

void ScanExecutor::account_partitions(
    const std::vector<SchedWorkerStats>& before, const SchedStats& sched) {
  // A partition's measured time this run is its slowest worker (its
  // wall-clock critical path); its settled positions add up.
  const std::size_t parts = stats_.partitions.size();
  std::vector<double> busy(parts, 0.0);
  std::vector<std::uint64_t> settled(parts, 0);
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    const std::size_t p = workers_[w].partition;
    const SchedWorkerStats& now = sched.workers_detail[w];
    busy[p] = std::max(busy[p], now.busy_seconds - before[w].busy_seconds);
    settled[p] += now.positions - before[w].positions;
  }
  // Measured-rate EWMAs, one observation per partition per run; they persist
  // across stream chunks, so the stamped values are whole-scan EWMAs. The
  // gauges mirror them for live exposition (never a bench diff gate).
  for (std::size_t p = 0; p < parts; ++p) {
    HeteroPartitionStats& part = stats_.partitions[p];
    part.measured_seconds += busy[p];
    part.actual_positions += settled[p];
    rates_[p].observe(settled[p], busy[p]);
    part.measured_rate_per_s = rates_[p].rate_per_s();
    part.rate_observations = rates_[p].observations();
    if (rates_[p].observations() > 0) {
      util::telemetry::gauge("hetero." + part.backend + ".rate_per_s")
          .set(rates_[p].rate_per_s());
    }
  }
}

void ScanExecutor::finalize(ScanProfile& profile) const {
  // Finalizes *copies*: the matrices are read-only here and
  // OmegaBackend::contribute is const, so this is repeat-safe.
  for (const Worker& worker : workers_) {
    ScanProfile finalized = worker.profile;
    finalized.ld_seconds = finalized.stages.ld_total();
    finalized.omega_seconds = finalized.stages.omega_search_seconds;
    const DpMatrix& matrix = worker.state.matrix;
    const DpMatrixStats& stats = matrix.stats();
    finalized.relocation = {stats.resets, stats.relocations,
                            stats.cells_reused, stats.cells_recomputed};
    finalized.r2_fetched = matrix.r2_fetches();
    worker.backend->contribute(finalized);
    finalized.omega_backend = worker.backend->name();
    merge_profile(profile, finalized);
  }
  if (hetero_) {
    profile.omega_backend = "hetero";
    merge_hetero_stats(profile.hetero, stats_);
  }
}

}  // namespace omega::core::detail
