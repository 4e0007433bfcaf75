#pragma once
// The one scan executor behind the in-memory scan (scanner.cpp) and the
// streaming chunked scan (stream_scanner.cpp): paper Fig. 3's position loop —
// relocate M, extend it with fresh r2, run ω on a pluggable backend — written
// once. Every scan runs it through a *worker layout*; the layouts differ only
// in their workers, never in the loop:
//
//   Serial         one CPU worker, run inline on the caller (no pool).
//   Multithreaded  N CPU workers stealing spans (selscan-style per-locus
//                  partition; par::StealScheduler).
//   InnerPosition  one worker whose backend fans each position's ω search out
//                  over the pool, which large extends also borrow.
//   Hetero         the CPU workers plus one worker per accelerator partition
//                  over plan_hetero_split segments (core/hetero_scheduler.h).
//
// The grid range is cut into relocation-coherent spans (contiguous grid runs,
// so each keeps the DpMatrix M-reuse chain intact), budgeted by *valid*
// positions via the core/workload per-position ω estimate. CPU workers claim
// spans in grid order from their own cost-seeded run first, then steal.
//
// Bitwise guarantee: M(i, j) values are independent of the matrix's
// relocation history (DpMatrix::extend computes each row with the same
// fixed-order accumulation whatever the base), so span boundaries, steal
// order and layout cannot change scores or quarantine decisions vs. the
// serial scan.
//
// Not installed API; include only from src/core/*.cpp and tests.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/dp_matrix.h"
#include "core/grid.h"
#include "core/hetero_scheduler.h"
#include "core/rate_estimator.h"
#include "core/scan_driver.h"
#include "core/scanner.h"
#include "ld/ld_engine.h"
#include "par/thread_pool.h"

namespace omega::util {
class ProgressReporter;
}

namespace omega::core::detail {

/// One contiguous run of grid indices; the unit of work-stealing.
struct ScanSpan {
  std::size_t begin = 0;  // grid index, inclusive
  std::size_t end = 0;    // grid index, exclusive
  std::uint64_t cost = 0;  // summed estimate_position_cost over [begin, end)
  std::uint64_t valid_positions = 0;
};

/// Partitions grid range [begin, end) into up to workers * spans_per_worker
/// contiguous spans of roughly equal estimated cost. Only *valid* positions
/// carry cost (estimate_position_cost), so a grid whose invalid positions
/// cluster at one end still splits the real work evenly — the bug the static
/// grid.size()/workers split had. Invalid positions are absorbed into the
/// enclosing span at zero cost; the spans exactly tile [begin, end). Returns
/// an empty vector when the range holds no valid position.
[[nodiscard]] std::vector<ScanSpan> build_scan_spans(
    const std::vector<GridPosition>& grid, std::size_t begin, std::size_t end,
    std::size_t workers, std::size_t spans_per_worker = 4);

/// Per-worker DP state that outlives one ScanExecutor::run call, so the
/// streaming driver's per-chunk runs carry each worker's matrix over chunk
/// seams. The rate estimator EWMAs the worker's measured positions/sec, one
/// observation per claimed span; it feeds the "sched.worker<w>.rate_per_s"
/// telemetry gauge only — deliberately not SchedWorkerStats — so bench diff
/// gates never see this noisy signal.
struct SpanWorkerState {
  DpMatrix matrix;
  bool live = false;
  RateEstimator rate;
};

class ScanExecutor {
 public:
  using BackendFactory = std::function<std::unique_ptr<OmegaBackend>()>;

  /// Picks the worker layout from `options` and the resolved `threads`:
  /// Hetero when options.hetero is set, else Serial for one thread, else
  /// InnerPosition or Multithreaded by options.mt_strategy. Builds every
  /// worker's backend once for the whole scan, so degradation state and
  /// fault-injection sequences persist across stream chunks. Throws
  /// std::invalid_argument for InnerPosition with a `backend_factory`.
  ScanExecutor(const ScannerOptions& options, CpuKernelKind kernel,
               std::size_t threads, const BackendFactory& backend_factory);
  ScanExecutor(const ScanExecutor&) = delete;
  ScanExecutor& operator=(const ScanExecutor&) = delete;

  /// DP walkers (SchedStats::workers): InnerPosition counts as one worker —
  /// its pool threads help inside each position.
  [[nodiscard]] std::size_t workers() const noexcept {
    return workers_.size();
  }

  /// Backend name the checkpoint config hash records. Hetero reports "cpu":
  /// its results are bitwise-identical to the CPU scan, so checkpoints
  /// resume across hetero <-> cpu runs both ways (the split, like the
  /// thread count, never changes scores).
  [[nodiscard]] std::string config_backend_name() const;

  /// Scans grid range [begin, end); `scores` spans the whole grid. Skips
  /// invalid positions and positions already scored or quarantined (the
  /// streaming chunk-retry contract), so repeated calls over disjoint or
  /// retried ranges are idempotent. Scheduler accounting accumulates into
  /// `sched` (workers_detail grows to workers(); spans/steals recomputed from
  /// it). Exceptions escaping a worker rethrow out of here after the batch
  /// drains; call invalidate() before reusing the executor.
  ///
  /// `cancel` (optional) is polled before every span and every position:
  /// once it fires, workers finish the position in flight and return,
  /// leaving unvisited positions neither valid nor quarantined.
  void run(const std::vector<GridPosition>& grid, std::size_t begin,
           std::size_t end, const ld::LdEngine& engine,
           std::vector<PositionScore>& scores, SchedStats& sched,
           util::ProgressReporter* progress, const CancelState* cancel);

  /// Marks every worker matrix dead (after an exception escaped run()).
  void invalidate() noexcept;

  /// Folds finalized *copies* of every worker profile (stage buckets,
  /// matrix relocation counters, backend accounting, seam carryovers) into
  /// `profile`, plus the hetero accounting when that layout ran. Repeat-safe:
  /// the streaming driver calls it per checkpoint on a totals copy and once
  /// at stream end on the real profile.
  void finalize(ScanProfile& profile) const;

 private:
  struct Worker {
    std::unique_ptr<OmegaBackend> backend;
    SpanWorkerState state;
    ScanProfile profile;
    /// Hetero partition index: 0 for CPU workers, p + 1 for accelerator p.
    std::size_t partition = 0;
    /// No position advanced yet in the current run(): the next advance
    /// decides whether this worker carried its matrix over a chunk seam.
    bool first_in_run = true;
  };
  struct Run;

  void launch(std::size_t worker_count, Run& run);
  void work(std::size_t w, Run& run);
  bool scan_span(std::size_t w, const ScanSpan& span, bool stolen, Run& run);
  void redispatch(Run& run, std::size_t begin, std::size_t end,
                  bool straggler);
  /// Folds one run's per-partition busy time, settled positions and rate
  /// observation into the hetero accounting; `before` is workers_detail at
  /// the start of the run.
  void account_partitions(const std::vector<SchedWorkerStats>& before,
                          const SchedStats& sched);

  RecoveryPolicy recovery_;
  bool reuse_ = true;
  std::optional<HeteroConfig> hetero_;
  std::size_t cpu_workers_ = 1;
  /// Declared before workers_: InnerPositionBackend holds a reference to it.
  std::optional<par::ThreadPool> pool_;
  /// The pool large extends borrow (InnerPosition only).
  par::ThreadPool* extend_pool_ = nullptr;
  std::vector<Worker> workers_;
  HeteroStats stats_;
  /// One measured-throughput EWMA per hetero partition (CPU first), observed
  /// once per run() — the empirical counterpart of the planner's modeled
  /// rates, stamped into HeteroPartitionStats::measured_rate_per_s.
  std::vector<RateEstimator> rates_;
};

}  // namespace omega::core::detail
