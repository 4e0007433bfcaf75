#pragma once
// Versioned scan checkpoints for the crash-safe streaming runtime
// (docs/ROBUSTNESS.md "Checkpoint, cancellation, and deadlines"). The
// streaming driver writes one after every committed chunk — dataset
// fingerprint, grid/config hash, chunk cursor, every settled per-position
// score (including the quarantine set), and the accumulated profile totals
// with a telemetry snapshot — via an atomic temp-file-plus-rename, so the
// file on disk is always a complete, parseable checkpoint no matter where
// the process died.
//
// Resume contract: scores are stored as raw IEEE-754 bit patterns and the
// interrupted chunk is recomputed from scratch (checkpoints only ever cover
// fully committed chunks), so a resumed scan is bitwise identical to an
// uninterrupted one for every backend. Fault-injection *schedules* are not
// replayed — backends restart with fresh PRNG streams — but transient faults
// converge to the same scores through the retry engine, so the identity
// guarantee covers fault-injected runs too (only the fault counters differ).

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/metrics_json.h"
#include "core/scanner.h"
#include "io/fingerprint.h"

namespace omega::core {

struct StreamScanOptions;

/// Thrown when --resume finds a checkpoint that does not match the current
/// run (different dataset fingerprint, scan config, or chunk/grid geometry).
/// Also thrown for a checkpoint of another schema_version. A distinct type so
/// the CLI can map it to a usage-error exit code instead of a generic failure.
class ResumeMismatchError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct ScanCheckpoint {
  /// Bump when the on-disk layout changes; load_checkpoint rejects others
  /// with ResumeMismatchError.
  /// v2: hetero partitions carry measured_rate_per_s / rate_observations
  /// (schema v11 measured-rate estimation).
  /// v3: `totals` is written by the metrics writer (write_profile_blocks):
  /// the metrics document's block and key names, sched workers_detail as
  /// objects, the hetero block always present.
  static constexpr int kVersion = 3;

  io::StreamFingerprint fingerprint;
  /// scan_config_hash of the producing run; resume refuses a mismatch.
  std::uint64_t config_hash = 0;
  /// The human-readable config the hash covers, for mismatch diagnostics.
  std::string config_summary;

  std::uint64_t chunks_total = 0;
  /// Chunks fully committed; the resume cursor. The chunk that was in
  /// flight when the run died is recomputed from scratch.
  std::uint64_t chunks_completed = 0;
  std::uint64_t grid_size = 0;
  /// Scores for grid positions [0, grid_committed) are settled (valid,
  /// quarantined, or grid-invalid); everything at or past it is recomputed.
  std::uint64_t grid_committed = 0;
  /// Exactly grid_committed entries; max_omega round-trips bitwise.
  std::vector<PositionScore> scores;
  /// Accumulated profile of all runs so far: every Sum and Latest field of
  /// the profile tables (core/scanner.h) plus the telemetry snapshot. Plan
  /// fields (runtime, ld, perf, plan geometry, backend/kernel names) are
  /// per-run: written for inspection, never read back.
  ScanProfile totals;
};

/// Hash + summary of every scan setting that could change the scores or the
/// chunk decomposition: grid/window config, LD engine kind ("custom" when an
/// ld_factory overrides it), reuse, the recovery knobs that decide
/// quarantine, chunk_sites, and the backend name. Thread count is
/// deliberately excluded — serial and span-engine scans are bitwise
/// identical, so resuming with a different worker count is legal.
[[nodiscard]] std::string scan_config_summary(const ScannerOptions& options,
                                              std::size_t chunk_sites,
                                              const std::string& backend_name);
[[nodiscard]] std::uint64_t scan_config_hash(const ScannerOptions& options,
                                             std::size_t chunk_sites,
                                             const std::string& backend_name);

[[nodiscard]] metrics::JsonValue checkpoint_to_json(const ScanCheckpoint& ckpt);
/// Throws ResumeMismatchError on another schema_version, std::runtime_error
/// (or std::out_of_range / std::logic_error from JsonValue) when malformed.
[[nodiscard]] ScanCheckpoint checkpoint_from_json(
    const metrics::JsonValue& doc);

/// Atomically replaces `path`: serializes to `path + ".tmp"` and renames it
/// over `path`, so a crash mid-write can never leave a truncated checkpoint
/// behind (at worst a stale .tmp next to the previous good file). Returns
/// the byte size written. Throws on I/O failure.
std::uint64_t write_checkpoint(const std::string& path,
                               const ScanCheckpoint& ckpt);

/// Loads and structurally validates a checkpoint file. Throws
/// std::runtime_error when the file is missing or unparseable, and
/// ResumeMismatchError when it has a different version.
[[nodiscard]] ScanCheckpoint load_checkpoint(const std::string& path);

}  // namespace omega::core
