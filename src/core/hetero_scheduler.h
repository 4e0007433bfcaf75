#pragma once
// Heterogeneous co-scheduler (ROADMAP item 3): one scan split across the CPU
// workers and the simulated accelerator backends at the same time, sized by
// each backend's modeled throughput for the actual per-position workload.
// This header holds the split and its planner; the ScanExecutor's Hetero
// worker layout (core/scan_executor.h) runs the plan.
//
// The planner walks the grid's estimated cost vector (core/workload) and
// cuts it into one contiguous, relocation-coherent segment per partition —
// CPU first, then each accelerator in config order — proportionally to the
// partition weights (auto: modeled throughput from the hw timing/cycle
// models; fixed: --hetero-split=cpu:gpu:fpga). Each segment is sub-split
// into spans (core/scan_executor.h), and all partitions execute concurrently
// on one shared ThreadPool: the CPU segment under the work-stealing
// scheduler, each accelerator as a single ordered launch queue.
//
// Straggler / fault re-dispatch: an accelerator span that quarantine-exhausts
// a position, or whose wall time exceeds its modeled deadline, pushes its
// unsettled remainder onto a re-dispatch queue that the CPU workers drain —
// first opportunistically while the batch is still running, then in a
// mop-up wave after it. Settled positions are never rescored (the streaming
// chunk-retry "skip settled" contract), so re-dispatch is idempotent.
//
// Bitwise guarantee: accelerator partitions run their simulator backends
// with functional_cap = 0, which routes every scoring decision through
// core::max_omega_search — the double-precision reference that every CPU
// kernel body is EXPECT_EQ-identical to — while the device cost models,
// fault injection, and accounting still accrue. A hetero scan is therefore
// bitwise-identical to the serial CPU scan for any split, with or without
// re-dispatch.
//
// Not installed API; include from src/core/*.cpp, sweep/, the CLI, tests.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/grid.h"
#include "core/scanner.h"

namespace omega::core {

/// Partition weights. Auto sizes partitions by modeled throughput over the
/// actual grid; fixed weights are normalized shares of the estimated cost.
struct HeteroSplit {
  bool auto_split = true;
  double cpu = 1.0;
  double gpu = 1.0;
  double fpga = 1.0;

  /// Parses "auto" or "CPU:GPU:FPGA" weight triples ("2:1:1", "1:0:0", ...).
  /// Throws std::invalid_argument on malformed or negative input, or when
  /// every weight is zero.
  static HeteroSplit parse(std::string_view text);

  /// Canonical display name: "auto" or the normalized "c:g:f" triple.
  [[nodiscard]] std::string name() const;
};

/// Modeled seconds one partition's backend would spend on one grid position.
/// Invalid positions must cost 0.
using HeteroCostModel = std::function<double(const GridPosition&)>;

/// One accelerator partition: a display name, the device cost model that
/// sizes its grid share (and arms the straggler deadline), and a factory for
/// its backend instance. The factory MUST configure the backend for exact
/// scoring (functional_cap = 0 on the simulators) or hetero results diverge
/// from the CPU scan.
struct HeteroPartitionSpec {
  std::string name;
  HeteroCostModel modeled_seconds;
  std::function<std::unique_ptr<OmegaBackend>()> backend_factory;
};

struct HeteroConfig {
  HeteroSplit split;
  /// Modeled CPU seconds per position (weights the CPU partition under
  /// auto_split; a simple evaluations/rate model is fine).
  HeteroCostModel cpu_modeled_seconds;
  /// Accelerator partitions in grid order after the CPU segment. May be
  /// empty, in which case hetero degenerates to the multithreaded layout.
  std::vector<HeteroPartitionSpec> accelerators;
  /// Straggler deadline per accelerator span: wall seconds beyond
  /// multiplier * modeled-span-seconds + min re-dispatch the unsettled
  /// remainder to the CPU. The generous defaults only fire on real stalls,
  /// not model noise.
  double straggler_multiplier = 8.0;
  double straggler_min_seconds = 0.25;

  /// Throws std::invalid_argument on missing models/factories or a
  /// nonsensical straggler policy.
  void validate() const;
};

/// One partition's contiguous slice of the planned range.
struct HeteroSegmentPlan {
  std::string backend;  // "cpu" or HeteroPartitionSpec::name
  std::size_t begin = 0;  // grid index, inclusive
  std::size_t end = 0;    // grid index, exclusive
  double weight = 0.0;    // normalized planned share
  std::uint64_t planned_positions = 0;  // valid positions in [begin, end)
  double modeled_seconds = 0.0;  // partition model summed over the segment
};

struct HeteroPlan {
  /// CPU segment first, then one per accelerator, tiling [begin, end) in
  /// grid order. A zero-weight partition gets an empty segment.
  std::vector<HeteroSegmentPlan> segments;
  /// Every valid position estimated to zero cost: the planner fell back to
  /// deterministic equal-position-count segments.
  bool equal_fallback = false;
};

/// Deterministically partitions grid range [begin, end) for `config`: auto
/// weights from modeled throughput (estimated cost over modeled seconds per
/// partition), fixed weights normalized as given, then contiguous segments
/// by cumulative estimated cost (valid-position count when the grid's total
/// cost is zero — the degenerate-grid guard).
[[nodiscard]] HeteroPlan plan_hetero_split(
    const std::vector<GridPosition>& grid, std::size_t begin, std::size_t end,
    const HeteroConfig& config);

/// Folds one HeteroStats accumulation into another by the kHeteroFields and
/// kHeteroPartitionFields merge rules (core/scanner.h): counters add, the
/// split and each partition's weight take the latest plan's; partitions
/// match by backend name, and a partition's measured rate keeps its resumed
/// estimate unless the newer run observed one. Used by ScanExecutor::finalize
/// and, through merge_profile, by checkpoint resume. No-op when `from` is
/// disabled.
void merge_hetero_stats(HeteroStats& into, const HeteroStats& from);

}  // namespace omega::core
