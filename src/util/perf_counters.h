#pragma once
// Hardware performance-counter sampling for the scan hot paths
// (docs/OBSERVABILITY.md § Hardware counters).
//
// perf::enable() arms process-wide collection; each thread lazily opens its
// own perf_event_open(2) counter group — cycles (leader), instructions,
// cache-misses, branch-misses, read together via PERF_FORMAT_GROUP — the
// first time it enters a StageScope. When the kernel refuses (ENOSYS or
// EACCES: unprivileged containers, perf_event_paranoid, seccomp, non-Linux
// builds) the thread degrades to a clock-only fallback: the task clock comes
// from CLOCK_THREAD_CPUTIME_ID and the hardware counts read as zero. The
// process-wide source() reports which path is live, and the same value is
// stamped into the metrics schema v11 "perf" block so consumers can tell
// measured cycles from a degraded run without guessing from zeros.
//
// Samples land in the telemetry registry as plain counters under
//   perf.<stage>.{scopes,cycles,instructions,cache_misses,branch_misses,
//                 task_clock_ns}
// so the per-scan snapshot delta, streaming accumulation, and checkpoint
// resume work unchanged (the same derivation path the v9 "ld" block uses).
// A disabled StageScope costs one relaxed atomic load, mirroring
// util/trace.h; stage handles are resolved once (function-local static) so
// the armed path touches only atomics plus two counter reads.

#include <cstdint>
#include <string_view>

namespace omega::util::telemetry {
struct RegistrySnapshot;
}  // namespace omega::util::telemetry

namespace omega::util::perf {

/// One point-in-time reading of the calling thread's counters.
struct Sample {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t branch_misses = 0;
  std::uint64_t task_clock_ns = 0;
  bool hardware = false;  ///< true when read from a perf_event group
};

/// The telemetry counters one instrumented stage feeds. Resolve once with
/// stage() (function-local static at the call site) and pass to StageScope.
struct StageCounters;

/// Registers (or finds) the counter set for `stage`; the reference is valid
/// for the process lifetime, like every telemetry metric.
[[nodiscard]] StageCounters& stage(const char* name);

/// One stage's perf.<stage>.* counter values inside a telemetry snapshot
/// (typically a scan's delta); zero for counters the snapshot lacks.
struct StageTotals {
  std::uint64_t scopes = 0;
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t branch_misses = 0;
  std::uint64_t task_clock_ns = 0;
};
[[nodiscard]] StageTotals read_stage(
    const telemetry::RegistrySnapshot& snapshot, std::string_view stage);

/// Arms process-wide collection. Threads open their counter groups lazily on
/// first scoped use; enable() itself probes the calling thread so source()
/// is meaningful immediately after the call.
void enable();
void disable();
[[nodiscard]] bool enabled() noexcept;

/// "off" before enable(); "perf_event" once any thread opened a hardware
/// group; "fallback" while every attempt so far has been refused.
[[nodiscard]] const char* source() noexcept;

/// Reads the calling thread's counters now, opening its group on first use
/// (no-op zero sample while disabled).
[[nodiscard]] Sample read_thread_sample();

/// RAII per-thread counter scope: reads at construction and destruction and
/// adds the deltas to the stage's telemetry counters.
class StageScope {
 public:
  explicit StageScope(StageCounters& counters) noexcept;
  ~StageScope();
  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

 private:
  StageCounters* counters_;
  Sample begin_;
  bool active_ = false;
};

/// Testing hook: replaces the perf_event_open syscall with `fn` (return the
/// fd, or a negative errno such as -EACCES/-ENOSYS). Pass nullptr to restore
/// the real syscall. Combine with reset_thread_for_testing() so the calling
/// thread re-probes under the stub.
using OpenFn = long (*)(std::uint32_t type, std::uint64_t config,
                        int group_fd);
void set_open_fn_for_testing(OpenFn fn);

/// Closes the calling thread's counter group (if any) and forgets the probe
/// result, so the next scope re-opens from scratch. Also resets the
/// process-wide source to the pre-probe state when `reset_source` is true.
void reset_thread_for_testing(bool reset_source = true);

}  // namespace omega::util::perf
