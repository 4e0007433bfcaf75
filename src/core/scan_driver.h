#pragma once
// Internal glue shared by the two scan drivers — the in-memory scan
// (scanner.cpp) and the streaming chunked scan (stream_scanner.cpp) — and
// their one position loop (core/scan_executor.h): the start-up, DP-matrix
// advance, the recovery-wrapped backend search, profile merging, and the
// end-of-scan tail. Any divergence here would silently break the
// streamed-equals-in-memory bitwise guarantee the streaming subsystem is
// tested against.
//
// Not installed API; include only from src/core/*.cpp.

#include <atomic>
#include <cstdint>
#include <type_traits>
#include <variant>
#include <vector>

#include "core/dp_matrix.h"
#include "core/grid.h"
#include "core/scanner.h"
#include "ld/ld_engine.h"
#include "par/thread_pool.h"
#include "util/cancel.h"
#include "util/telemetry.h"
#include "util/timer.h"

namespace omega::core::detail {

/// Shared cancellation view of one scan: the caller's token (or the driver's
/// internal one when only a deadline was set) plus the scan deadline. The
/// drivers and span workers poll should_stop() between positions; deadline
/// expiry is converted into a token request so every layer — including the
/// simulator backends holding only the token — observes a single flag, and
/// signals and deadlines share the drain path. The first poll that observes
/// the request stamps `observed_seconds` (against `since_start`), which the
/// runtime finalizer turns into the drain latency.
struct CancelState {
  util::CancelToken* token = nullptr;
  util::Deadline deadline;
  /// Started at driver entry; the latency reference.
  util::Timer since_start;
  mutable std::atomic<bool> observed{false};
  mutable std::atomic<double> observed_seconds{0.0};
  /// The drain latency reaches its histogram once per scan, however many
  /// times finish_profile runs (checkpoint snapshots included).
  mutable std::atomic<bool> latency_recorded{false};

  [[nodiscard]] bool enabled() const noexcept { return token != nullptr; }

  /// True once the scan should stop. Thread-safe: token access is atomic and
  /// the deadline clock must tolerate concurrent calls (the steady clock and
  /// the tests' virtual clocks do).
  [[nodiscard]] bool should_stop() const {
    if (token == nullptr) return false;
    bool stop = token->cancelled();
    if (!stop && deadline.enabled() && deadline.expired()) {
      token->request(util::CancelReason::Deadline);
      stop = true;
    }
    if (stop) {
      bool expected = false;
      if (observed.compare_exchange_strong(expected, true,
                                           std::memory_order_acq_rel)) {
        observed_seconds.store(since_start.seconds(),
                               std::memory_order_release);
      }
    }
    return stop;
  }
};

/// Start-up shared by scan() and stream_scan(): validates the config and the
/// recovery policy, resolves the CPU kernel (a forced-but-unavailable Avx2
/// throws std::runtime_error here, before any work) and the thread-count
/// convention once, takes the registry snapshot the end-of-scan telemetry
/// delta is measured from (ScanProfile::telemetry), and arms cancellation:
/// the caller's token, or an internal one when only a deadline was set.
/// Constructed in place: CancelState holds atomics.
struct ScanSetup {
  explicit ScanSetup(const ScannerOptions& options);

  /// Scores seeded with every grid position's bp coordinate, and a profile
  /// carrying the start-up decisions (kernel dispatch, requested threads).
  [[nodiscard]] ScanResult seed_result(
      const std::vector<GridPosition>& grid) const;
  /// Null when no token and no deadline were given: no polling at all.
  [[nodiscard]] const CancelState* cancel() const noexcept {
    return cancel_state.enabled() ? &cancel_state : nullptr;
  }

  const ScannerOptions& options;
  CpuKernelKind kernel = CpuKernelKind::Auto;  // resolved, never Auto
  std::size_t threads = 1;                     // resolved, never 0
  util::telemetry::RegistrySnapshot telemetry_begin;
  util::CancelToken internal_token;
  CancelState cancel_state;
};

/// Valid positions of `grid`: the progress reporter's total.
[[nodiscard]] std::uint64_t count_valid_positions(
    const std::vector<GridPosition>& grid) noexcept;

/// End-of-scan tail shared by scan() and stream_scan() — the end of a
/// scan, the empty-plan stream, every checkpoint totals snapshot, and the end
/// of a stream: runtime accounting (cancellation flags/reason/latency,
/// deadline outcome, the skipped-position census that defines `partial`),
/// the wall clock, the scan-attributed telemetry delta (merged with the
/// telemetry a resumed checkpoint carried), and the ld (schema v9) and perf
/// (schema v11) blocks derived from that delta.
void finish_profile(ScanProfile& profile, const CancelState& cancel,
                    const ScannerOptions& options,
                    const std::vector<GridPosition>& grid,
                    const std::vector<PositionScore>& scores,
                    double total_seconds,
                    const util::telemetry::RegistrySnapshot& telemetry_begin,
                    const util::telemetry::RegistrySnapshot& resumed_telemetry =
                        {});

/// Advances the DP matrix to `position`: the single home of the
/// reset-vs-relocate policy. Stage wall time is accumulated into `stages`;
/// `pool` (optional) helps with large extends. Returns true when the live
/// matrix was relocated rather than rebuilt.
bool advance_matrix(DpMatrix& m, bool& m_live, bool reuse,
                    const GridPosition& position, const ld::LdEngine& engine,
                    StageTimes& stages, par::ThreadPool* pool = nullptr);

/// Folds `from` into `into` field by field, by each entry's merge rule
/// (FieldMerge): Sum adds, Latest assigns, Plan fields and derived values are
/// left alone.
template <class Block, std::size_t N>
void merge_fields(Block& into, const Block& from,
                  const ProfileField<Block> (&fields)[N]) {
  for (const ProfileField<Block>& field : fields) {
    if (field.merge == FieldMerge::Plan) continue;
    std::visit(
        [&](auto member) {
          if constexpr (std::is_member_object_pointer_v<decltype(member)>) {
            auto& value = into.*member;
            using Value = std::remove_reference_t<decltype(value)>;
            if constexpr (std::is_arithmetic_v<Value> &&
                          !std::is_same_v<Value, bool>) {
              if (field.merge == FieldMerge::Sum) {
                value += from.*member;
                return;
              }
            }
            value = from.*member;
          }
        },
        field.member);
  }
}

/// Runs the recovery-wrapped omega search for one valid grid position and
/// records the outcome into `score` (valid on success) and `profile`
/// (omega_search_seconds, evaluations, positions_scanned, fault counters).
/// Exhausted recovery quarantines the position when `quarantine` is set;
/// otherwise (an accelerator whose remainder the CPU re-scores) the score
/// stays unsettled and the quarantine charge is undone. When `progress` is
/// non-null, reports the settled position (plus fault/quarantine deltas) to
/// it. Returns score.valid.
bool score_position(OmegaBackend& backend, const DpMatrix& m,
                    const GridPosition& position,
                    const RecoveryPolicy& recovery, ScanProfile& profile,
                    PositionScore& score, util::ProgressReporter* progress,
                    bool quarantine = true);

}  // namespace omega::core::detail
