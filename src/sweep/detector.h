#pragma once
// Top-level convenience API: one call from a dataset to ranked sweep
// candidates, selecting the compute backend by enum. This is the entry point
// the examples and downstream users consume; everything underneath is the
// composable layer (core::scan + backends).

#include <cstdint>
#include <string>
#include <vector>

#include "core/scanner.h"
#include "core/stream_scanner.h"
#include "io/chunk_reader.h"
#include "io/dataset.h"
#include "util/cancel.h"
#include "util/fault.h"

namespace omega::sweep {

enum class Backend {
  Cpu,          // OmegaPlus nested loop, double precision
  CpuThreaded,  // chunked multithreaded scan (Table IV scheme)
  GpuSim,       // simulated GPU (Tesla K80 profile), dynamic two-kernel
  FpgaSim,      // simulated FPGA (Alveo U200 profile)
  Hetero,       // CPU + GPU-sim + FPGA-sim co-scheduled on one scan
};

struct DetectorOptions {
  core::OmegaConfig config;
  Backend backend = Backend::Cpu;
  std::size_t threads = 4;  // CpuThreaded and Hetero (total worker budget)
  /// Backend::Hetero grid split: "auto" (modeled throughput) or a fixed
  /// "cpu:gpu:fpga" weight triple (core::HeteroSplit::parse syntax). The
  /// split never changes results — only which partition scores what.
  std::string hetero_split = "auto";
  /// LD engine for the CPU backends (core::resolve_ld_backend semantics:
  /// Auto runs the bit-packed engine with runtime AVX2/scalar dispatch).
  /// Every kind produces bitwise-identical r2 and hence identical
  /// candidates; the accelerator backends install their own ld_factory.
  core::LdBackendKind ld = core::LdBackendKind::Auto;
  /// Fault-recovery policy forwarded to the scan driver.
  core::RecoveryPolicy recovery;
  /// Deterministic fault injection applied to the simulated accelerator
  /// backends (GpuSim / FpgaSim); ignored by the CPU backends.
  util::fault::FaultPlan fault_plan;
  /// Optional cooperative-cancellation token. Polled between positions (and
  /// inside the simulated accelerators) — a request drains the scan cleanly
  /// and the report comes back with partial = true. Not owned; must outlive
  /// the call.
  util::CancelToken* cancel = nullptr;
  /// When > 0: the scan's wall-clock budget in seconds. Expiry converts to a
  /// cancellation (reason Deadline) and a partial report.
  double deadline_seconds = 0.0;
  /// Injectable clock for the deadline (tests); defaults to steady_clock.
  util::Deadline::Clock deadline_clock;
};

struct Candidate {
  std::int64_t position_bp = 0;
  double omega = 0.0;
  /// Window achieving the maximum (bp bounds of the best a..b SNP range).
  std::int64_t window_start_bp = 0;
  std::int64_t window_end_bp = 0;
};

struct DetectionReport {
  std::vector<Candidate> candidates;  // descending omega
  core::ScanProfile profile;
  std::string backend_name;
  /// True when the scan was cancelled (signal, API, or deadline) before every
  /// grid position settled; mirrors profile.runtime.partial.
  bool partial = false;

  /// Candidates with omega at least `threshold`.
  [[nodiscard]] std::vector<Candidate> above(double threshold) const;

  /// The scan's metrics document (core::metrics "omega.scan.metrics"
  /// schema), serialized as pretty JSON.
  [[nodiscard]] std::string metrics_json(
      const std::string& run_name = "detect_sweeps") const;
  /// Writes metrics_json(run_name) to `path`.
  void write_metrics_json(const std::string& path,
                          const std::string& run_name = "detect_sweeps") const;
};

/// Scans and returns the top `max_candidates` scoring positions.
DetectionReport detect_sweeps(const io::Dataset& dataset,
                              const DetectorOptions& options = {},
                              std::size_t max_candidates = 10);

/// Streaming counterpart: scans through a ChunkReader under the bounded-
/// memory pipeline (core::stream_scan) and produces a report identical to
/// detect_sweeps on the same data. Candidate window coordinates come from
/// the reader's position index. Backend::CpuThreaded runs the multithreaded
/// executor layout per chunk (options.threads workers). Checkpoint/resume is
/// controlled through stream_options (checkpoint_path / resume).
DetectionReport detect_sweeps_stream(
    io::ChunkReader& reader, const DetectorOptions& options = {},
    const core::StreamScanOptions& stream_options = {},
    std::size_t max_candidates = 10);

}  // namespace omega::sweep
