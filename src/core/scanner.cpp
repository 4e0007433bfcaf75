#include "core/scanner.h"

#include <algorithm>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "core/hetero_scheduler.h"
#include "core/resilience.h"
#include "core/scan_driver.h"
#include "core/scan_executor.h"
#include "ld/packed.h"
#include "util/flight_recorder.h"
#include "util/perf_counters.h"
#include "util/progress.h"
#include "util/stage.h"
#include "util/telemetry.h"
#include "util/timer.h"
#include "util/trace.h"

namespace omega::core {

std::size_t resolve_scan_threads(std::size_t requested) noexcept {
  if (requested != 0) return requested;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

LdBackendKind resolve_ld_backend(LdBackendKind kind) noexcept {
  // Auto always resolves to the packed engine: it carries its own AVX2 vs
  // scalar microkernel dispatch, so it is the best available choice on every
  // host, and all engines produce bitwise-identical r2 anyway.
  return kind == LdBackendKind::Auto ? LdBackendKind::Packed : kind;
}

const char* ld_backend_name(LdBackendKind kind) noexcept {
  switch (kind) {
    case LdBackendKind::Naive:
      return "naive";
    case LdBackendKind::Popcount:
      return "popcount";
    case LdBackendKind::Packed:
      return "packed";
    case LdBackendKind::Auto:
      return "auto";
  }
  return "unknown";
}

LdBackendKind ld_backend_from_name(std::string_view name) {
  if (name == "naive") return LdBackendKind::Naive;
  if (name == "popcount") return LdBackendKind::Popcount;
  if (name == "packed") return LdBackendKind::Packed;
  if (name == "auto") return LdBackendKind::Auto;
  throw std::invalid_argument("unknown LD engine: " + std::string(name) +
                              " (expected auto | naive | popcount | packed)");
}

std::unique_ptr<ld::LdEngine> make_ld_engine(LdBackendKind kind,
                                             const io::Dataset& dataset,
                                             const ld::SnpMatrix& snps) {
  switch (resolve_ld_backend(kind)) {
    case LdBackendKind::Naive:
      return std::make_unique<ld::NaiveLd>(dataset);
    case LdBackendKind::Popcount:
      return std::make_unique<ld::PopcountLd>(snps);
    case LdBackendKind::Packed:
      return std::make_unique<ld::PackedLd>(snps);
    case LdBackendKind::Auto:
      break;  // resolved above; unreachable
  }
  throw std::logic_error("unknown LD backend");
}

namespace detail {

bool advance_matrix(DpMatrix& m, bool& m_live, bool reuse,
                    const GridPosition& position, const ld::LdEngine& engine,
                    StageTimes& stages, par::ThreadPool* pool) {
  static const util::Stage& reset_stage = util::stage("scan.reset");
  static const util::Stage& relocate_stage = util::stage("scan.relocate");
  static const util::Stage& extend_stage = util::stage("scan.extend");
  const bool relocate = reuse && m_live && position.lo >= m.base();
  if (!relocate) {
    const util::StageScope scope(reset_stage, &stages.ld_reset_seconds);
    m.reset(position.lo);
  } else {
    const util::StageScope scope(relocate_stage, &stages.ld_relocate_seconds);
    m.relocate(position.lo);
  }
  {
    const util::StageScope scope(extend_stage, &stages.ld_extend_seconds);
    m.extend(position.hi + 1, engine, pool);
  }
  m_live = true;
  return relocate;
}

ScanSetup::ScanSetup(const ScannerOptions& options_in) : options(options_in) {
  options.config.validate();
  options.recovery.validate();
  kernel = resolve_cpu_kernel(options.cpu_kernel);
  threads = resolve_scan_threads(options.threads);
  telemetry_begin = util::telemetry::snapshot();
  if (options.cancel != nullptr) {
    cancel_state.token = options.cancel;
  } else if (options.deadline_seconds > 0.0) {
    cancel_state.token = &internal_token;
  }
  if (cancel_state.token != nullptr && options.deadline_seconds > 0.0) {
    cancel_state.deadline =
        util::Deadline(options.deadline_seconds, options.deadline_clock);
  }
}

ScanResult ScanSetup::seed_result(const std::vector<GridPosition>& grid) const {
  ScanResult result;
  result.scores.resize(grid.size());
  for (std::size_t g = 0; g < grid.size(); ++g) {
    result.scores[g].position_bp = grid[g].position_bp;
  }
  result.profile.kernel.requested = cpu_kernel_name(options.cpu_kernel);
  result.profile.kernel.selected = cpu_kernel_name(kernel);
  result.profile.kernel.avx2_supported = cpu_kernel_avx2_available();
  result.profile.sched.requested_threads = options.threads;
  return result;
}

std::uint64_t count_valid_positions(
    const std::vector<GridPosition>& grid) noexcept {
  return static_cast<std::uint64_t>(std::count_if(
      grid.begin(), grid.end(),
      [](const GridPosition& position) { return position.valid; }));
}

namespace {

void finalize_runtime(ScanProfile& profile, const CancelState& cancel,
                      double deadline_seconds,
                      const std::vector<GridPosition>& grid,
                      const std::vector<PositionScore>& scores) {
  RuntimeStats& runtime = profile.runtime;
  runtime.deadline_seconds = deadline_seconds > 0.0 ? deadline_seconds : 0.0;
  for (std::size_t g = 0; g < grid.size() && g < scores.size(); ++g) {
    if (grid[g].valid && !scores[g].valid && !scores[g].quarantined) {
      ++runtime.positions_skipped;
    }
  }
  runtime.partial = runtime.positions_skipped > 0;
  const bool cancelled =
      cancel.token != nullptr && cancel.token->cancelled();
  if (cancelled) {
    runtime.cancelled = true;
    runtime.cancel_reason = util::cancel_reason_name(cancel.token->reason());
    if (cancel.observed.load(std::memory_order_acquire)) {
      runtime.cancel_latency_seconds =
          cancel.since_start.seconds() -
          cancel.observed_seconds.load(std::memory_order_acquire);
      static util::telemetry::Histogram& latency_hist =
          util::telemetry::histogram("runtime.cancel_latency_seconds");
      if (!cancel.latency_recorded.exchange(true,
                                            std::memory_order_acq_rel)) {
        latency_hist.record(runtime.cancel_latency_seconds);
      }
    }
  }
  if (deadline_seconds > 0.0) {
    if (cancelled &&
        cancel.token->reason() == util::CancelReason::Deadline) {
      runtime.deadline_outcome = "expired";
    } else if (cancelled) {
      // Cancelled for another reason before the deadline resolved.
      runtime.deadline_outcome = "preempted";
    } else {
      runtime.deadline_outcome = "met";
    }
  } else {
    runtime.deadline_outcome = "none";
  }
}

void finalize_ld_stats(ScanProfile& profile, const ScannerOptions& options) {
  LdStats& ld = profile.ld;
  ld.requested =
      options.ld_factory ? "custom" : ld_backend_name(options.ld);
  ld.engine = profile.ld_backend;
  // make_ld_engine builds PackedLd with PackedIsa::Auto, so the resolved
  // microkernel body is reproducible from the build/host alone.
  ld.isa = profile.ld_backend == "packed"
               ? ld::packed_isa_name(ld::PackedIsa::Auto)
               : "";
  // Derived from the scan-attributed telemetry delta (must already be set):
  // this accumulates correctly across per-chunk engines in streamed scans
  // and across runs on checkpoint resume, with no extra plumbing.
  ld.panel_packs = profile.telemetry.counter_value("ld.panel_cache.misses");
  ld.panel_hits = profile.telemetry.counter_value("ld.panel_cache.hits");
  ld.pack_seconds = util::stage("ld.pack").seconds_in(profile.telemetry);
  ld.kernel_seconds = util::stage("ld.kernel").seconds_in(profile.telemetry);
}

void finalize_perf_stats(ScanProfile& profile) {
  PerfStats& perf = profile.perf;
  perf.enabled = util::perf::enabled();
  perf.source = perf.enabled ? util::perf::source() : "";
  perf.stages.clear();
  if (!perf.enabled) return;
  // util::stages() is name-sorted, the documented PerfStats order.
  for (const util::Stage* stage : util::stages()) {
    const util::perf::StageTotals totals =
        util::perf::read_stage(profile.telemetry, stage->name);
    if (totals.scopes == 0) continue;  // stage never entered during this scan
    perf.stages.push_back(
        {stage->name, totals.scopes, totals.cycles, totals.instructions,
         totals.cache_misses, totals.branch_misses,
         static_cast<double>(totals.task_clock_ns) * 1e-9});
  }
}

}  // namespace

void finish_profile(ScanProfile& profile, const CancelState& cancel,
                    const ScannerOptions& options,
                    const std::vector<GridPosition>& grid,
                    const std::vector<PositionScore>& scores,
                    double total_seconds,
                    const util::telemetry::RegistrySnapshot& telemetry_begin,
                    const util::telemetry::RegistrySnapshot& resumed_telemetry) {
  finalize_runtime(profile, cancel, options.deadline_seconds, grid, scores);
  profile.total_seconds = total_seconds;
  profile.telemetry = util::telemetry::snapshot()
                          .delta_since(telemetry_begin)
                          .merged_with(resumed_telemetry);
  finalize_ld_stats(profile, options);
  finalize_perf_stats(profile);
}

bool score_position(OmegaBackend& backend, const DpMatrix& m,
                    const GridPosition& position,
                    const RecoveryPolicy& recovery, ScanProfile& profile,
                    PositionScore& score, util::ProgressReporter* progress,
                    bool quarantine) {
  const std::uint64_t faults_before =
      profile.faults.errors_caught + profile.faults.invalid_results;
  RecoveryOutcome outcome;
  {
    static const util::Stage& search_stage = util::stage("scan.omega_search");
    const util::StageScope scope(search_stage,
                                 &profile.stages.omega_search_seconds);
    outcome = recover_max_omega(backend, m, position, recovery, profile.faults);
  }
  const bool settled = outcome.ok || quarantine;
  // recover_max_omega charged a quarantine; a re-dispatched position is not
  // one.
  if (!settled) --profile.faults.quarantined_positions;
  if (progress != nullptr) {
    util::ProgressReporter::Delta delta;
    delta.positions = settled ? 1 : 0;
    delta.faults = profile.faults.errors_caught +
                   profile.faults.invalid_results - faults_before;
    delta.quarantined = !outcome.ok && quarantine ? 1 : 0;
    progress->advance(delta);
  }
  if (!outcome.ok) {
    if (!quarantine) return false;
    score.quarantined = true;
    // Exhausted recovery is a flight-recorder trigger: the first quarantine
    // since arm() dumps the black box (later ones only bump the counter).
    util::flight::note_fault_exhausted();
    return false;
  }
  score.max_omega = outcome.result.max_omega;
  score.best_a = outcome.result.best_a;
  score.best_b = outcome.result.best_b;
  score.evaluated = outcome.result.evaluated;
  score.valid = true;
  profile.omega_evaluations += outcome.result.evaluated;
  ++profile.positions_scanned;
  return true;
}

}  // namespace detail

void merge_profile(ScanProfile& into, const ScanProfile& from) {
  using detail::merge_fields;
  merge_fields(into, from, kProfileRootFields);
  merge_fields(into, from, kProfileStageFields);
  merge_fields(into, from, kProfileCounterFields);
  merge_fields(into.stages, from.stages, kStageFields);
  merge_fields(into.relocation, from.relocation, kRelocationFields);
  merge_fields(into.gpu, from.gpu, kGpuFields);
  merge_fields(into.fpga, from.fpga, kFpgaFields);
  merge_fields(into.faults, from.faults, kFaultFields);
  merge_fields(into.kernel, from.kernel, kKernelFields);
  merge_fields(into.stream, from.stream, kStreamFields);
  SchedStats& sched = into.sched;
  if (sched.workers_detail.size() < from.sched.workers_detail.size()) {
    sched.workers_detail.resize(from.sched.workers_detail.size());
  }
  for (std::size_t w = 0; w < from.sched.workers_detail.size(); ++w) {
    merge_fields(sched.workers_detail[w], from.sched.workers_detail[w],
                 kSchedWorkerFields);
  }
  sched.spans = 0;
  sched.steals = 0;
  for (const SchedWorkerStats& worker : sched.workers_detail) {
    sched.spans += worker.spans;
    sched.steals += worker.steals;
  }
  merge_hetero_stats(into.hetero, from.hetero);
  if (into.omega_backend.empty()) into.omega_backend = from.omega_backend;
}

// ---------------------------------------------------------------------------
// CpuOmegaBackend
// ---------------------------------------------------------------------------

CpuOmegaBackend::CpuOmegaBackend()
    : kind_(resolve_cpu_kernel(CpuKernelKind::Auto)) {}

CpuOmegaBackend::CpuOmegaBackend(CpuKernelKind kind)
    : kind_(resolve_cpu_kernel(kind)) {}

OmegaResult CpuOmegaBackend::max_omega(const DpMatrix& m,
                                       const GridPosition& position) {
  OmegaResult result = omega_kernel_search(m, position, kind_, scratch_);
  counters_.add(kind_, result.evaluated);
  ++positions_;
  return result;
}

void CpuOmegaBackend::contribute(ScanProfile& profile) const {
  profile.kernel.positions += positions_;
  profile.kernel.scalar_evaluations += counters_.scalar_evaluations;
  profile.kernel.portable_evaluations += counters_.portable_evaluations;
  profile.kernel.avx2_evaluations += counters_.avx2_evaluations;
}

const PositionScore& ScanResult::best() const {
  const PositionScore* best = nullptr;
  for (const PositionScore& score : scores) {
    if (!score.valid) continue;
    if (best == nullptr || score.max_omega > best->max_omega) best = &score;
  }
  if (best == nullptr) {
    throw std::logic_error("scan result contains no valid score");
  }
  return *best;
}

bool ScanResult::has_valid() const noexcept {
  return std::any_of(scores.begin(), scores.end(),
                     [](const PositionScore& score) { return score.valid; });
}

std::vector<PositionScore> ScanResult::top(std::size_t k) const {
  std::vector<PositionScore> sorted;
  sorted.reserve(scores.size());
  std::copy_if(scores.begin(), scores.end(), std::back_inserter(sorted),
               [](const PositionScore& score) { return score.valid; });
  std::sort(sorted.begin(), sorted.end(),
            [](const PositionScore& a, const PositionScore& b) {
              return a.max_omega > b.max_omega;
            });
  if (sorted.size() > k) sorted.resize(k);
  return sorted;
}

ScanResult scan(const io::Dataset& dataset, const ScannerOptions& options,
                const std::function<std::unique_ptr<OmegaBackend>()>&
                    backend_factory) {
  const util::trace::Span scan_span("scan");
  const util::Timer total;
  const detail::ScanSetup setup(options);
  const detail::CancelState* cancel = setup.cancel();

  const ld::SnpMatrix snps(dataset);
  const auto engine = options.ld_factory
                          ? options.ld_factory(snps)
                          : make_ld_engine(options.ld, dataset, snps);
  const auto grid = build_grid(dataset, options.config);

  ScanResult result = setup.seed_result(grid);
  result.profile.ld_backend = engine->name();
  if (options.progress != nullptr) {
    options.progress->begin(detail::count_valid_positions(grid),
                            /*chunks_total=*/0);
  }
  {
    // Scoped so the worker matrices are freed inside the timed scan.
    detail::ScanExecutor executor(options, setup.kernel, setup.threads,
                                  backend_factory);
    result.profile.sched.workers = executor.workers();
    executor.run(grid, 0, grid.size(), *engine, result.scores,
                 result.profile.sched, options.progress, cancel);
    // Per-bucket times are summed across workers (CPU-seconds); use
    // total_seconds (wall clock) with the bucket shares for elapsed-time
    // throughput, as ScanProfile documents.
    executor.finalize(result.profile);
  }
  detail::finish_profile(result.profile, setup.cancel_state, options, grid,
                         result.scores, total.seconds(),
                         setup.telemetry_begin);
  if (options.progress != nullptr) options.progress->finish();
  return result;
}

}  // namespace omega::core
