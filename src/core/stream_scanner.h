#pragma once
// Streaming chunked scan driver: runs the OmegaPlus whole-genome scan over a
// ChunkReader instead of a resident Dataset, bounding genotype memory to
// roughly two chunks (current + prefetched) while producing output that is
// bitwise identical to scan() on the same data — scores, argmax windows,
// evaluation counts, even the fault-injection PRNG sequence.
//
// Why identical (docs/STREAMING.md expands on this):
//   * the omega grid is built from the reader's position index, which holds
//     exactly the coordinates an in-memory load would produce;
//   * the DP matrix and every backend already address SNPs by global index;
//     a per-chunk LD engine is wrapped in ld::OffsetLd so global requests
//     land on chunk-local data. Nothing downstream can tell the difference;
//   * chunks overlap by the window extent, and each grid position is scored
//     from the one chunk that fully contains its [lo, hi] range, so the DP
//     recurrence sees the same r2 values in the same order;
//   * each worker's matrix persists across chunk seams: the usual
//     relocation carries the overlapping sub-triangle into the next chunk.
//
// Pipeline: a 1-thread IO pool materializes chunk k+1 while compute scans
// chunk k (double buffering). The compute side runs the same scan executor
// layout as scan() (core/scan_executor.h) *within* the resident chunk —
// workers share the one materialized chunk, so the memory bound holds, and
// prefetch still overlaps. A chunk whose scan throws a
// non-BackendError exception is retried, then its unscored positions are
// quarantined and the stream continues — same never-abort contract as the
// per-position recovery engine.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/grid.h"
#include "core/omega_config.h"
#include "core/scanner.h"
#include "io/chunk_reader.h"

namespace omega::core {

struct StreamScanOptions {
  /// Target sites per chunk (the memory bound). A single grid position whose
  /// window spans more sites gets a chunk of exactly its window — windows
  /// are never split.
  std::size_t chunk_sites = 100'000;
  /// Prefetch the next chunk on the IO thread while scanning the current one.
  /// Off: chunks are fetched inline (halves resident memory, serializes IO).
  bool double_buffer = true;
  /// Whole-chunk re-scan attempts after a non-BackendError failure before
  /// the chunk's unscored positions are quarantined.
  std::size_t chunk_retries = 1;
  /// Checkpoint file for the crash-safe runtime (core/checkpoint.h); empty
  /// disables checkpointing. Written atomically (temp + rename) once at
  /// stream start and again after every committed chunk, flushed on a
  /// cancelled drain, and left in place on completion.
  std::string checkpoint_path;
  /// Resume from `checkpoint_path`: validate the dataset fingerprint and
  /// config hash, preload every committed score, and continue at the first
  /// uncommitted chunk. Throws std::runtime_error when the checkpoint is
  /// missing, malformed, or belongs to a different dataset/config. Requires
  /// checkpoint_path.
  bool resume = false;
  /// Source file recorded in the checkpoint fingerprint (path + size);
  /// empty for in-memory readers.
  std::string source_path;

  /// Throws std::invalid_argument on nonsensical settings.
  void validate() const;
};

/// One pipeline step: the site range to materialize and the contiguous grid
/// positions scored from it. Every valid position g in [grid_begin, grid_end)
/// satisfies sites.begin <= lo(g) and hi(g) < sites.end.
struct StreamChunkPlan {
  io::SiteRange sites;
  std::size_t grid_begin = 0;
  std::size_t grid_end = 0;
};

/// The full stream schedule: the grid (identical to the in-memory scan's)
/// plus the chunk decomposition covering it.
struct StreamPlan {
  std::vector<GridPosition> grid;
  std::vector<StreamChunkPlan> chunks;

  /// Site ranges in pipeline order — the argument to ChunkReader::plan().
  [[nodiscard]] std::vector<io::SiteRange> site_ranges() const;
  /// Sites materialized twice because consecutive chunks overlap.
  [[nodiscard]] std::uint64_t overlap_sites() const;
};

/// Greedy chunk planner: walks the grid in order, packing consecutive valid
/// positions into a chunk while the covering site span stays within
/// `chunk_sites`; a position whose own window exceeds the target gets a
/// dedicated chunk. Invalid positions are carried along with the chunk
/// ranges (they consume no sites). Works for bp-unit windows too — per-
/// position extents come from the positions index, not from a fixed stride.
StreamPlan plan_stream_chunks(const std::vector<std::int64_t>& positions_bp,
                              const OmegaConfig& config,
                              std::size_t chunk_sites);

/// Runs the streaming scan. options.threads, mt_strategy and hetero pick the
/// worker layout exactly as in scan(), applied to the resident chunk's grid
/// positions (the IO thread is always extra).
///
/// `backend_factory` matches scan()'s: nullptr means the CPU nested loop.
/// One backend instance per compute worker is created for the whole stream,
/// so accelerator degradation (FallbackBackend) persists across chunks just
/// as it persists across positions in-memory. Serial streams are bitwise
/// identical to serial scan(); multithreaded streams are bitwise identical
/// to the multithreaded scan (same per-position guarantee, per-worker fault
/// PRNG sequences depend on the schedule).
ScanResult stream_scan(io::ChunkReader& reader, const ScannerOptions& options,
                       const StreamScanOptions& stream_options = {},
                       const std::function<std::unique_ptr<OmegaBackend>()>&
                           backend_factory = {});

}  // namespace omega::core
