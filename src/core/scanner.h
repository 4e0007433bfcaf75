#pragma once
// Full OmegaPlus workflow (paper Fig. 3): for every grid position, relocate
// the DP matrix over the overlapping SNP range (data-reuse optimization),
// compute r2 for fresh pairs through an LD engine, update M with the Eq. (3)
// recurrence, and run the omega maximization on the selected backend.
//
// Backends plug in through OmegaBackend, so the identical scan driver runs
// on the CPU nested loop, the GPU execution-model simulator, or the FPGA
// pipeline simulator, and results can be compared bit-for-bit at the level
// of reported max-omega windows.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/dp_matrix.h"
#include "core/grid.h"
#include "core/omega_config.h"
#include "core/omega_kernel_cpu.h"
#include "core/omega_search.h"
#include "io/dataset.h"
#include "ld/ld_engine.h"
#include "ld/snp_matrix.h"
#include "util/cancel.h"
#include "util/telemetry.h"

namespace omega::util {
class ProgressReporter;
}

namespace omega::core {

struct ScanProfile;
struct HeteroConfig;

/// omega-maximization backend for one grid position.
class OmegaBackend {
 public:
  virtual ~OmegaBackend() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  virtual OmegaResult max_omega(const DpMatrix& m,
                                const GridPosition& position) = 0;
  /// Merges backend-internal accounting (accelerator counters, modeled
  /// device time) into the scan profile. The scan driver calls this once per
  /// backend instance after its last max_omega call.
  virtual void contribute(ScanProfile& profile) const { (void)profile; }
};

/// The CPU omega loop, routed through the dispatched kernel layer
/// (core/omega_kernel_cpu.h): Auto resolves to the AVX2 body when the binary
/// and host support it, the portable fused loop otherwise, and the scalar
/// reference only on explicit request. Evaluation counts per kernel body are
/// merged into ScanProfile::kernel via contribute().
class CpuOmegaBackend final : public OmegaBackend {
 public:
  /// Resolves Auto against this binary/host.
  CpuOmegaBackend();
  /// Resolves `kind`; throws std::runtime_error when Avx2 is forced on a
  /// host that cannot run it.
  explicit CpuOmegaBackend(CpuKernelKind kind);

  [[nodiscard]] std::string name() const override { return "cpu"; }
  OmegaResult max_omega(const DpMatrix& m,
                        const GridPosition& position) override;
  void contribute(ScanProfile& profile) const override;

  /// The concrete kernel this backend runs (never Auto).
  [[nodiscard]] CpuKernelKind kernel() const noexcept { return kind_; }

 private:
  CpuKernelKind kind_;
  OmegaKernelScratch scratch_;
  CpuKernelCounters counters_;
  std::uint64_t positions_ = 0;
};

/// Adapter delegating to a caller-owned backend. scan() destroys the
/// backends its factory produces when it returns; callers that want to
/// inspect backend state afterwards (accelerator accounting) own the real
/// backend and hand scan() borrowed views:
///
///   GpuOmegaBackend backend(spec, pool);
///   scan(dataset, options, [&] { return borrow_backend(backend); });
///   backend.accounting();  // safe
///
/// Only for single-threaded scans (options.threads == 1) unless the inner
/// backend is thread-safe: a multithreaded scan invokes the factory per
/// worker and every borrowed view would alias the same object.
class BorrowedBackend final : public OmegaBackend {
 public:
  explicit BorrowedBackend(OmegaBackend& inner) : inner_(inner) {}
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  OmegaResult max_omega(const DpMatrix& m,
                        const GridPosition& position) override {
    return inner_.max_omega(m, position);
  }
  void contribute(ScanProfile& profile) const override {
    inner_.contribute(profile);
  }

 private:
  OmegaBackend& inner_;
};

inline std::unique_ptr<OmegaBackend> borrow_backend(OmegaBackend& backend) {
  return std::make_unique<BorrowedBackend>(backend);
}

/// LD engine selector. Auto resolves (via resolve_ld_backend) to Packed —
/// the bit-packed blocked engine with runtime AVX2/scalar microkernel
/// dispatch (ld/packed.h). Every kind produces bitwise-identical r2, so the
/// choice affects throughput only; Naive is the unpacked test oracle. The
/// float GEMM engine (ld::GemmLd) is no CPU choice — it never wins on the
/// host — and is reachable only through ScannerOptions::ld_factory.
enum class LdBackendKind { Naive, Popcount, Packed, Auto };

/// Resolves Auto to the concrete engine kind this build prefers (Packed; the
/// engine itself dispatches AVX2 vs scalar per host). Concrete kinds pass
/// through.
[[nodiscard]] LdBackendKind resolve_ld_backend(LdBackendKind kind) noexcept;

/// Stable engine-kind names ("naive" | "popcount" | "packed" | "auto") —
/// used by the CLI, the checkpoint config hash, and the report.
[[nodiscard]] const char* ld_backend_name(LdBackendKind kind) noexcept;

/// Inverse of ld_backend_name; throws std::invalid_argument on unknown
/// names.
[[nodiscard]] LdBackendKind ld_backend_from_name(std::string_view name);

/// Recovery policy for backend failures (core/resilience.h has the engine).
/// Backoff is accounted against a virtual clock — the scan never wall-sleeps,
/// so fault-heavy tests stay fast while the metrics still report how long a
/// real deployment would have waited.
struct RecoveryPolicy {
  /// Retries per position after the first failed attempt; exhaustion
  /// quarantines the position (valid = false, quarantined = true).
  std::size_t max_retries = 3;
  double backoff_initial_seconds = 1e-3;
  double backoff_multiplier = 2.0;
  /// Treat non-finite omega results (NaN/Inf from a flaky datapath) as
  /// transient failures subject to the same retry/quarantine path.
  bool validate_results = true;
  /// After a device-lost error, demote the backend to the CPU nested loop
  /// for the rest of its chunk instead of quarantining everything.
  bool fallback_to_cpu = true;

  /// Throws std::invalid_argument on nonsensical settings.
  void validate() const;
};

struct ScannerOptions {
  OmegaConfig config;
  /// The same default as the CLI and the detector.
  LdBackendKind ld = LdBackendKind::Auto;
  /// Optional custom LD engine overriding `ld` — e.g. the simulated-GPU GEMM
  /// engine for the complete GPU-accelerated OmegaPlus configuration. The
  /// factory receives the scan's bit-packed matrix (alive for the scan).
  std::function<std::unique_ptr<ld::LdEngine>(const ld::SnpMatrix&)> ld_factory;
  /// Worker-thread count. THE thread-count convention (CLI, scan(), and
  /// stream_scan() all defer here): 1 = serial, > 1 = the work-stealing
  /// multithreaded scan (grid partitioned into relocation-coherent spans,
  /// one DP matrix + backend instance per worker) — the generic
  /// parallelization scheme of the multithreaded OmegaPlus evaluated in
  /// Table IV — and 0 = auto-detect: resolved to
  /// std::thread::hardware_concurrency() once, up front, by
  /// resolve_scan_threads(); the *resolved* count is what the worker layout
  /// and the backend name use.
  std::size_t threads = 1;
  /// Multithreading strategy (Alachiotis & Pavlidis 2016 performance guide):
  /// GridChunks scales with many grid positions; InnerPosition parallelizes
  /// the per-position omega loop instead (one shared DP matrix; profitable
  /// for few positions with large windows). Both are worker layouts of the
  /// one scan executor, in memory and streamed. InnerPosition requires the
  /// CPU backend: scan() and stream_scan() throw std::invalid_argument when
  /// it meets a backend_factory.
  enum class MtStrategy { GridChunks, InnerPosition };
  MtStrategy mt_strategy = MtStrategy::GridChunks;
  /// Disables M relocation between positions (ablation switch; OmegaPlus
  /// always reuses).
  bool reuse = true;
  /// Fault-recovery behaviour of the scan driver (retry/backoff, result
  /// validation, quarantine, CPU degradation). Default-on and free when the
  /// backend never fails.
  RecoveryPolicy recovery;
  /// Which CPU omega-kernel body evaluates grid positions (and serves as the
  /// degradation target of accelerator backends). Auto resolves at scan
  /// setup; forcing Avx2 on an unsupported binary/host makes scan() throw
  /// std::runtime_error before any position is evaluated.
  CpuKernelKind cpu_kernel = CpuKernelKind::Auto;
  /// Optional live progress reporter (util/progress.h). The scan drivers call
  /// begin()/advance()/finish() on it: one advance per scored position (with
  /// retry/quarantine deltas) plus one per streamed chunk. Not owned; must
  /// outlive the scan. The reporter rate-limits internally, so the per-
  /// position overhead is a mutex-guarded accumulate.
  util::ProgressReporter* progress = nullptr;
  /// Optional cooperative-cancellation token (util/cancel.h). Not owned; must
  /// outlive the scan. The drivers poll it between positions (and the
  /// simulator backends poll it around kernel launches), so a request drains
  /// cleanly: workers finish their current position, the partial result is
  /// returned with profile.runtime describing what was skipped, and nothing
  /// throws out of scan()/stream_scan().
  util::CancelToken* cancel = nullptr;
  /// Wall-clock budget for the scan; <= 0 disables. Expiry is converted into
  /// a cancellation (reason Deadline) on `cancel` — or on an internal token
  /// when none was supplied — so deadlines and signals share one drain path.
  double deadline_seconds = 0.0;
  /// Clock the deadline measures against (seconds, monotonic). Defaults to
  /// the steady clock; injectable so deadline expiry is testable without
  /// sleeping, mirroring the retry engine's virtual clock.
  util::Deadline::Clock deadline_clock;
  /// Heterogeneous co-scheduling (core/hetero_scheduler.h): when non-null,
  /// the scan splits the grid across the CPU workers and the configured
  /// accelerator partitions concurrently, sized by modeled throughput, with
  /// straggler/fault re-dispatch back to the CPU. Results stay bitwise-
  /// identical to the plain CPU scan. Overrides mt_strategy and
  /// backend_factory; `threads` still bounds the total worker count. Not
  /// owned; must outlive the scan.
  const HeteroConfig* hetero = nullptr;
};

struct PositionScore {
  std::int64_t position_bp = 0;
  double max_omega = 0.0;
  std::size_t best_a = 0;
  std::size_t best_b = 0;
  std::uint64_t evaluated = 0;
  bool valid = false;
  /// Recovery gave up on this position (retries exhausted or device lost
  /// with fallback disabled); always paired with valid == false, so best()
  /// and top() skip it via the PR-1 invalid-score machinery.
  bool quarantined = false;
};

/// How a profile field folds across workers, stream chunks and checkpoint
/// resumes (merge_profile), and whether a checkpoint carries it.
enum class FieldMerge {
  Sum,     // into += from; carried by checkpoints
  Latest,  // into = from; carried by checkpoints
  Plan,    // this run's plan, per-run state, or derived: written only
};

/// One profile field as every sink sees it: its JSON key (the metrics block
/// and the checkpoint's totals use the same one), where it lives in its
/// block struct, and its merge rule (Sum unless stated). A derived value
/// names the const member function computing it and is always Plan. Each
/// block declares its fields once, in a table next to its struct; the
/// metrics writer, the checkpoint reader and merge_profile all walk those
/// tables, so adding a counter means adding one table entry.
template <class Block>
struct ProfileField {
  using Member = std::variant<std::uint64_t Block::*, double Block::*,
                              bool Block::*, std::string Block::*,
                              std::uint64_t (Block::*)() const noexcept,
                              double (Block::*)() const noexcept>;
  const char* key;
  Member member;
  FieldMerge merge = FieldMerge::Sum;
};

/// Per-stage time buckets (profile v2). The three DP-matrix stages add up to
/// the legacy LD bucket; omega_search is the backend max-omega loop.
/// dispatch_seconds is an *informational sub-bucket of omega_search* — the
/// accelerator backends' host-side packing + kernel-selection overhead — and
/// is therefore excluded from sum().
struct StageTimes {
  double ld_reset_seconds = 0.0;     // full DP-matrix rebuilds
  double ld_relocate_seconds = 0.0;  // base advance plus amortized compaction
  double ld_extend_seconds = 0.0;    // r2 fetches + Eq. (3) recurrence
  double omega_search_seconds = 0.0; // backend omega maximization
  double dispatch_seconds = 0.0;     // accelerator pack + kernel dispatch
  [[nodiscard]] double ld_total() const noexcept {
    return ld_reset_seconds + ld_relocate_seconds + ld_extend_seconds;
  }
  [[nodiscard]] double sum() const noexcept {
    return ld_total() + omega_search_seconds;
  }
};

inline constexpr ProfileField<StageTimes> kStageFields[] = {
    {"ld_reset_seconds", &StageTimes::ld_reset_seconds},
    {"ld_relocate_seconds", &StageTimes::ld_relocate_seconds},
    {"ld_extend_seconds", &StageTimes::ld_extend_seconds},
    {"omega_search_seconds", &StageTimes::omega_search_seconds},
    {"dispatch_seconds", &StageTimes::dispatch_seconds},
};

/// DP-matrix relocation effectiveness (the paper's data-reuse optimization):
/// how often consecutive grid positions reused the overlapping sub-triangle
/// and how many M cells that reuse saved.
struct RelocationStats {
  std::uint64_t resets = 0;       // positions that rebuilt M from scratch
  std::uint64_t relocations = 0;  // positions that kept the overlap (hits)
  std::uint64_t cells_reused = 0;      // M entries carried over by relocation
  std::uint64_t cells_recomputed = 0;  // M entries computed by extend()
};

inline constexpr ProfileField<RelocationStats> kRelocationFields[] = {
    {"resets", &RelocationStats::resets},
    {"relocations", &RelocationStats::relocations},
    {"cells_reused", &RelocationStats::cells_reused},
    {"cells_recomputed", &RelocationStats::cells_recomputed},
};

/// Simulated-GPU counters: the Eq. (4) two-kernel dispatch and the modeled
/// device timeline.
struct GpuProfile {
  std::uint64_t kernel1_launches = 0;
  std::uint64_t kernel2_launches = 0;
  std::uint64_t kernel1_omegas = 0;  // omegas dispatched to Kernel I
  std::uint64_t kernel2_omegas = 0;  // omegas dispatched to Kernel II
  double modeled_kernel_seconds = 0.0;
  double modeled_prep_seconds = 0.0;
  double modeled_transfer_seconds = 0.0;
  double modeled_total_seconds = 0.0;
  std::uint64_t bytes_moved = 0;
};

inline constexpr ProfileField<GpuProfile> kGpuFields[] = {
    {"kernel1_launches", &GpuProfile::kernel1_launches},
    {"kernel2_launches", &GpuProfile::kernel2_launches},
    {"kernel1_omegas", &GpuProfile::kernel1_omegas},
    {"kernel2_omegas", &GpuProfile::kernel2_omegas},
    {"modeled_kernel_seconds", &GpuProfile::modeled_kernel_seconds},
    {"modeled_prep_seconds", &GpuProfile::modeled_prep_seconds},
    {"modeled_transfer_seconds", &GpuProfile::modeled_transfer_seconds},
    {"modeled_total_seconds", &GpuProfile::modeled_total_seconds},
    {"bytes_moved", &GpuProfile::bytes_moved},
};

/// Fault-tolerance counters (profile v3): what the injectors produced and
/// what the recovery engine did about it. All-zero in a healthy scan.
struct FaultRecoveryStats {
  std::uint64_t faults_injected = 0;  // total from backend fault injectors
  std::uint64_t injected_kernel_launch = 0;
  std::uint64_t injected_timeout = 0;
  std::uint64_t injected_nan = 0;
  std::uint64_t injected_device_lost = 0;
  /// BackendError exceptions the recovery engine caught (injected or real).
  std::uint64_t errors_caught = 0;
  /// Non-finite omega results rejected by result validation.
  std::uint64_t invalid_results = 0;
  std::uint64_t retries = 0;
  std::uint64_t quarantined_positions = 0;
  /// Device-lost events that demoted a backend instance to the CPU loop.
  std::uint64_t degradations = 0;
  /// Exponential-backoff wait accounted against the virtual clock (the scan
  /// never wall-sleeps).
  double backoff_virtual_seconds = 0.0;
};

inline constexpr ProfileField<FaultRecoveryStats> kFaultFields[] = {
    {"injected", &FaultRecoveryStats::faults_injected},
    {"injected_kernel_launch", &FaultRecoveryStats::injected_kernel_launch},
    {"injected_timeout", &FaultRecoveryStats::injected_timeout},
    {"injected_nan", &FaultRecoveryStats::injected_nan},
    {"injected_device_lost", &FaultRecoveryStats::injected_device_lost},
    {"errors_caught", &FaultRecoveryStats::errors_caught},
    {"invalid_results", &FaultRecoveryStats::invalid_results},
    {"retries", &FaultRecoveryStats::retries},
    {"quarantined_positions", &FaultRecoveryStats::quarantined_positions},
    {"degradations", &FaultRecoveryStats::degradations},
    {"backoff_virtual_seconds", &FaultRecoveryStats::backoff_virtual_seconds},
};

/// CPU omega-kernel dispatch record (profile/metrics schema v4): which kernel
/// was requested, what the dispatcher selected for this binary/host, and how
/// many Eq. (2) evaluations each kernel body performed. Evaluation counters
/// stay zero when an accelerator backend handled every position (they count
/// the CPU kernel layer only, including fault-degradation work).
struct CpuKernelStats {
  std::string requested;  // "auto" | "scalar" | "portable" | "avx2"
  std::string selected;   // concrete kernel Auto resolved to
  bool avx2_supported = false;  // binary + host can run the AVX2 body
  std::uint64_t positions = 0;  // grid positions evaluated by the CPU kernel
  std::uint64_t scalar_evaluations = 0;
  std::uint64_t portable_evaluations = 0;
  std::uint64_t avx2_evaluations = 0;
};

inline constexpr ProfileField<CpuKernelStats> kKernelFields[] = {
    {"requested", &CpuKernelStats::requested, FieldMerge::Plan},
    {"selected", &CpuKernelStats::selected, FieldMerge::Plan},
    {"avx2_supported", &CpuKernelStats::avx2_supported, FieldMerge::Plan},
    {"positions", &CpuKernelStats::positions},
    {"scalar_evaluations", &CpuKernelStats::scalar_evaluations},
    {"portable_evaluations", &CpuKernelStats::portable_evaluations},
    {"avx2_evaluations", &CpuKernelStats::avx2_evaluations},
};

/// Streaming-scan accounting (profile/metrics schema v5): chunk geometry of
/// the bounded-memory pipeline and how well chunk IO overlapped compute.
/// All-zero when the scan ran in-memory.
struct StreamStats {
  std::uint64_t chunks = 0;             // chunks the stream plan produced
  std::uint64_t chunk_sites_target = 0; // requested sites-per-chunk bound
  std::uint64_t total_sites = 0;        // filtered sites across the stream
  /// Sites materialized more than once because consecutive chunks share the
  /// window-overlap region.
  std::uint64_t overlap_sites = 0;
  /// Max sites resident at once: current chunk + the prefetched next chunk
  /// under double buffering. The memory bound the subsystem exists for.
  std::uint64_t peak_resident_sites = 0;
  /// Chunk seams crossed with a DP matrix relocated rather than rebuilt:
  /// per worker, each chunk whose first position relocated the live matrix
  /// the worker carried over, so at most workers * (chunks - 1).
  std::uint64_t seam_carryovers = 0;
  /// Chunks whose scan failed even after the chunk-level retry; their grid
  /// positions are quarantined and the stream continues.
  std::uint64_t failed_chunks = 0;
  double io_seconds = 0.0;        // chunk read/materialize time (IO thread)
  double io_stall_seconds = 0.0;  // compute thread blocked waiting on IO
  double compute_seconds = 0.0;   // per-chunk scan time (compute thread)

  /// Fraction of IO time hidden behind compute (1 = fully overlapped,
  /// 0 = fully serialized).
  [[nodiscard]] double io_overlap_ratio() const noexcept {
    if (io_seconds <= 0.0) return 0.0;
    const double hidden = io_seconds - io_stall_seconds;
    return hidden > 0.0 ? hidden / io_seconds : 0.0;
  }
};

inline constexpr ProfileField<StreamStats> kStreamFields[] = {
    {"chunks", &StreamStats::chunks, FieldMerge::Plan},
    {"chunk_sites_target", &StreamStats::chunk_sites_target, FieldMerge::Plan},
    {"total_sites", &StreamStats::total_sites, FieldMerge::Plan},
    {"overlap_sites", &StreamStats::overlap_sites, FieldMerge::Plan},
    {"peak_resident_sites", &StreamStats::peak_resident_sites,
     FieldMerge::Plan},
    {"seam_carryovers", &StreamStats::seam_carryovers},
    {"failed_chunks", &StreamStats::failed_chunks},
    {"io_seconds", &StreamStats::io_seconds},
    {"io_stall_seconds", &StreamStats::io_stall_seconds},
    {"compute_seconds", &StreamStats::compute_seconds},
    {"io_overlap_ratio", &StreamStats::io_overlap_ratio, FieldMerge::Plan},
};

/// Per-worker accounting of the scan executor (schema v7).
struct SchedWorkerStats {
  std::uint64_t spans = 0;      // spans this worker claimed (own + stolen)
  std::uint64_t steals = 0;     // claims served from another worker's queue
  std::uint64_t positions = 0;  // valid positions this worker scored
  double busy_seconds = 0.0;    // wall time inside claimed spans
};

/// Merged per worker index.
inline constexpr ProfileField<SchedWorkerStats> kSchedWorkerFields[] = {
    {"spans", &SchedWorkerStats::spans},
    {"steals", &SchedWorkerStats::steals},
    {"positions", &SchedWorkerStats::positions},
    {"busy_seconds", &SchedWorkerStats::busy_seconds},
};

/// Scan-executor accounting (profile/metrics schema v7): how the grid was
/// partitioned into relocation-coherent spans and how evenly the workers
/// shared them. Every worker layout fills it the same way — a serial scan
/// reports workers == 1, steals == 0 and one workers_detail entry whose
/// positions equal positions_scanned; streaming scans accumulate across
/// chunks.
struct SchedStats {
  /// ScannerOptions::threads as the caller set it (0 = auto requested).
  std::uint64_t requested_threads = 0;
  /// Executor workers (DP walkers) the scan ran with; InnerPosition counts
  /// one, its pool threads help inside each position.
  std::uint64_t workers = 0;
  std::uint64_t spans = 0;   // spans built across the scan
  std::uint64_t steals = 0;  // cross-queue claims
  /// Per-worker detail, indexed by worker id.
  std::vector<SchedWorkerStats> workers_detail;

  /// Workers that claimed at least one span. Under stealing a worker can be
  /// fully robbed before its first claim, so this may be < workers.
  [[nodiscard]] std::uint64_t active_workers() const noexcept {
    std::uint64_t active = 0;
    for (const SchedWorkerStats& w : workers_detail) {
      if (w.spans > 0) ++active;
    }
    return active;
  }
};

/// spans/steals are totals of workers_detail; merge_profile recomputes them.
inline constexpr ProfileField<SchedStats> kSchedFields[] = {
    {"requested_threads", &SchedStats::requested_threads, FieldMerge::Plan},
    {"workers", &SchedStats::workers, FieldMerge::Plan},
    {"spans", &SchedStats::spans, FieldMerge::Plan},
    {"steals", &SchedStats::steals, FieldMerge::Plan},
    {"active_workers", &SchedStats::active_workers, FieldMerge::Plan},
};

/// Crash-safe runtime accounting (profile/metrics schema v8): cancellation,
/// deadline, and checkpoint/resume activity of one run. Deliberately NOT
/// accumulated across a resume (unlike every other profile block): each run
/// reports its own runtime behaviour, with resume_validations/chunks_resumed
/// describing how the run started.
struct RuntimeStats {
  /// The scan stopped before scoring every valid grid position (cancellation
  /// or deadline); skipped positions are neither valid nor quarantined.
  bool partial = false;
  bool cancelled = false;
  /// util::cancel_reason_name of the observed request; "" when !cancelled.
  std::string cancel_reason;
  /// "none" (no deadline set), "met", "expired", or "preempted" (a deadline
  /// was set but a different cancel reason fired first).
  std::string deadline_outcome = "none";
  double deadline_seconds = 0.0;
  /// Drain latency: first observation of the cancel request inside the scan
  /// driver until the partial result was assembled. 0 when !cancelled.
  double cancel_latency_seconds = 0.0;
  /// Valid grid positions left unscored by an early stop.
  std::uint64_t positions_skipped = 0;
  std::uint64_t checkpoints_written = 0;
  std::uint64_t checkpoint_bytes = 0;  // summed over all writes this run
  /// Fingerprint + config-hash validations passed while loading a checkpoint
  /// (1 for a resumed run, 0 otherwise).
  std::uint64_t resume_validations = 0;
  /// Committed chunks preloaded from the checkpoint instead of rescanned.
  std::uint64_t chunks_resumed = 0;
};

inline constexpr ProfileField<RuntimeStats> kRuntimeFields[] = {
    {"partial", &RuntimeStats::partial, FieldMerge::Plan},
    {"cancelled", &RuntimeStats::cancelled, FieldMerge::Plan},
    {"cancel_reason", &RuntimeStats::cancel_reason, FieldMerge::Plan},
    {"deadline_seconds", &RuntimeStats::deadline_seconds, FieldMerge::Plan},
    {"deadline_outcome", &RuntimeStats::deadline_outcome, FieldMerge::Plan},
    {"cancel_latency_seconds", &RuntimeStats::cancel_latency_seconds,
     FieldMerge::Plan},
    {"positions_skipped", &RuntimeStats::positions_skipped, FieldMerge::Plan},
    {"checkpoints_written", &RuntimeStats::checkpoints_written,
     FieldMerge::Plan},
    {"checkpoint_bytes", &RuntimeStats::checkpoint_bytes, FieldMerge::Plan},
    {"resume_validations", &RuntimeStats::resume_validations,
     FieldMerge::Plan},
    {"chunks_resumed", &RuntimeStats::chunks_resumed, FieldMerge::Plan},
};

/// LD-engine accounting (profile/metrics schema v9): which engine (and which
/// requested kind) served the scan's r2 fetches, the packed engine's
/// microkernel ISA and panel-cache effectiveness, and how the LD time splits
/// between packing panels and running the count kernels. Derived from the
/// scan's telemetry delta (ld.panel_cache.* counters, ld.pack_seconds /
/// ld.kernel_seconds histograms), so streamed scans accumulate across
/// per-chunk engines and resumes accumulate across runs. pack/kernel seconds
/// stay zero for engines without a pack phase (popcount/naive).
struct LdStats {
  std::string requested;  // options.ld as asked ("auto", ...; "custom")
  std::string engine;     // resolved engine name (== ld_backend)
  std::string isa;        // packed microkernel body: "avx2" | "scalar" | ""
  std::uint64_t panel_packs = 0;  // panel-cache misses (blocks packed)
  std::uint64_t panel_hits = 0;   // panel-cache hits (blocks reused)
  double pack_seconds = 0.0;      // time packing bit panels
  double kernel_seconds = 0.0;    // time in the count microkernels
};

/// Derived from the telemetry delta at finalize, so never merged or carried.
inline constexpr ProfileField<LdStats> kLdFields[] = {
    {"requested", &LdStats::requested, FieldMerge::Plan},
    {"engine", &LdStats::engine, FieldMerge::Plan},
    {"isa", &LdStats::isa, FieldMerge::Plan},
    {"panel_packs", &LdStats::panel_packs, FieldMerge::Plan},
    {"panel_hits", &LdStats::panel_hits, FieldMerge::Plan},
    {"pack_seconds", &LdStats::pack_seconds, FieldMerge::Plan},
    {"kernel_seconds", &LdStats::kernel_seconds, FieldMerge::Plan},
};

/// Per-stage hardware-counter totals (profile/metrics schema v11). Filled at
/// scan finish for each registered util::stage (util/stage.h) from the
/// scan's telemetry delta over its perf.<stage>.{scopes,cycles,...}
/// counters, so — exactly like the v9 "ld" block — streamed scans
/// accumulate across chunks and resumes accumulate across runs. One
/// util::StageScope feeds a stage's perf group and its <stage>_seconds
/// histogram, so each entry's `scopes` equals that histogram's count.
struct PerfStageStats {
  std::string stage;
  std::uint64_t scopes = 0;        // StageScopes entered (== histogram count)
  std::uint64_t cycles = 0;        // 0 under the clock-only fallback
  std::uint64_t instructions = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t branch_misses = 0;
  double task_clock_seconds = 0.0;  // thread CPU time inside the scopes

  /// Instructions per cycle; 0 when no hardware counts were read.
  [[nodiscard]] double ipc() const noexcept {
    return cycles > 0 ? static_cast<double>(instructions) /
                            static_cast<double>(cycles)
                      : 0.0;
  }
  /// Cache misses per thousand instructions (MPKI).
  [[nodiscard]] double cache_mpki() const noexcept {
    return instructions > 0 ? 1000.0 * static_cast<double>(cache_misses) /
                                  static_cast<double>(instructions)
                            : 0.0;
  }
  /// Branch misses per thousand instructions.
  [[nodiscard]] double branch_mpki() const noexcept {
    return instructions > 0 ? 1000.0 * static_cast<double>(branch_misses) /
                                  static_cast<double>(instructions)
                            : 0.0;
  }
};

/// Derived from the telemetry delta at finalize, like kLdFields.
inline constexpr ProfileField<PerfStageStats> kPerfStageFields[] = {
    {"stage", &PerfStageStats::stage, FieldMerge::Plan},
    {"scopes", &PerfStageStats::scopes, FieldMerge::Plan},
    {"cycles", &PerfStageStats::cycles, FieldMerge::Plan},
    {"instructions", &PerfStageStats::instructions, FieldMerge::Plan},
    {"cache_misses", &PerfStageStats::cache_misses, FieldMerge::Plan},
    {"branch_misses", &PerfStageStats::branch_misses, FieldMerge::Plan},
    {"task_clock_seconds", &PerfStageStats::task_clock_seconds,
     FieldMerge::Plan},
    {"ipc", &PerfStageStats::ipc, FieldMerge::Plan},
    {"cache_mpki", &PerfStageStats::cache_mpki, FieldMerge::Plan},
    {"branch_mpki", &PerfStageStats::branch_mpki, FieldMerge::Plan},
};

/// Hardware-counter profile of the scan (profile/metrics schema v11):
/// disabled (empty) unless util::perf::enable() — the CLI's --perf-counters
/// — was armed. `source` distinguishes real perf_event groups from the
/// rusage/steady-clock fallback a denied host degrades to.
struct PerfStats {
  bool enabled = false;
  std::string source;  // "perf_event" | "fallback" | "" when disabled
  /// Stage-name-sorted entries; only stages that recorded scopes appear.
  std::vector<PerfStageStats> stages;

  [[nodiscard]] const PerfStageStats* find(
      std::string_view stage_name) const noexcept {
    for (const PerfStageStats& entry : stages) {
      if (entry.stage == stage_name) return &entry;
    }
    return nullptr;
  }
};

inline constexpr ProfileField<PerfStats> kPerfFields[] = {
    {"enabled", &PerfStats::enabled, FieldMerge::Plan},
    {"source", &PerfStats::source, FieldMerge::Plan},
};

/// Per-partition accounting of the heterogeneous co-scheduler (schema v10):
/// what the planner promised each backend and what it actually delivered.
struct HeteroPartitionStats {
  std::string backend;  // "cpu" or the accelerator partition name
  /// Normalized planned share of the estimated grid cost.
  double weight = 0.0;
  /// Valid positions the plan assigned to this partition (accumulated over
  /// planner invocations — one per stream chunk).
  std::uint64_t planned_positions = 0;
  /// Positions this partition actually settled (the CPU partition also
  /// counts re-dispatched positions it absorbed).
  std::uint64_t actual_positions = 0;
  std::uint64_t spans = 0;  // spans built for this partition's segments
  /// Cost model's prediction for the planned segments vs. the partition's
  /// measured busy wall time (max over its workers, summed across runs).
  double modeled_seconds = 0.0;
  double measured_seconds = 0.0;
  /// EWMA of measured throughput (core/rate_estimator.h), folded in once per
  /// planner run — the measured-vs-modeled error signal next to
  /// modeled_seconds (v11). Latest estimate wins across chunk merges and
  /// checkpoint resumes; 0 until the partition settles its first positions.
  double measured_rate_per_s = 0.0;
  std::uint64_t rate_observations = 0;
};

/// Merged by backend name (merge_hetero_stats), which also keeps a resumed
/// measured_rate_per_s when the newer run made no observation.
inline constexpr ProfileField<HeteroPartitionStats> kHeteroPartitionFields[] = {
    {"backend", &HeteroPartitionStats::backend, FieldMerge::Latest},
    {"weight", &HeteroPartitionStats::weight, FieldMerge::Latest},
    {"planned_positions", &HeteroPartitionStats::planned_positions},
    {"actual_positions", &HeteroPartitionStats::actual_positions},
    {"spans", &HeteroPartitionStats::spans},
    {"modeled_seconds", &HeteroPartitionStats::modeled_seconds},
    {"measured_seconds", &HeteroPartitionStats::measured_seconds},
    {"measured_rate_per_s", &HeteroPartitionStats::measured_rate_per_s,
     FieldMerge::Latest},
    {"rate_observations", &HeteroPartitionStats::rate_observations},
};

/// Heterogeneous co-scheduler accounting (profile/metrics schema v10):
/// all-zero/disabled unless the scan ran with --backend=hetero.
struct HeteroStats {
  bool enabled = false;
  std::string split;  // HeteroSplit::name(): "auto" or "c:g:f"
  std::uint64_t plans = 0;  // planner invocations (per chunk when streaming)
  /// Accelerator spans whose unsettled remainder went back to the CPU, and
  /// the positions those remainders carried.
  std::uint64_t redispatched_spans = 0;
  std::uint64_t redispatched_positions = 0;
  std::uint64_t straggler_spans = 0;  // re-dispatch cause: modeled deadline
  std::uint64_t faulted_spans = 0;    // re-dispatch cause: recovery gave up
  /// CPU partition first, then each accelerator in configuration order.
  std::vector<HeteroPartitionStats> partitions;
};

inline constexpr ProfileField<HeteroStats> kHeteroFields[] = {
    {"enabled", &HeteroStats::enabled, FieldMerge::Latest},
    {"split", &HeteroStats::split, FieldMerge::Latest},
    {"plans", &HeteroStats::plans},
    {"redispatched_spans", &HeteroStats::redispatched_spans},
    {"redispatched_positions", &HeteroStats::redispatched_positions},
    {"straggler_spans", &HeteroStats::straggler_spans},
    {"faulted_spans", &HeteroStats::faulted_spans},
};

/// Simulated-FPGA counters: pipeline occupancy of the §V design.
struct FpgaProfile {
  std::uint64_t pipeline_cycles = 0;  // total accelerator cycles
  std::uint64_t stall_cycles = 0;     // cycles lost to DRAM throttling
  std::uint64_t hw_omegas = 0;        // scores produced in hardware
  std::uint64_t sw_omegas = 0;        // unroll-remainder scores on the host
  double modeled_seconds = 0.0;
};

inline constexpr ProfileField<FpgaProfile> kFpgaFields[] = {
    {"pipeline_cycles", &FpgaProfile::pipeline_cycles},
    {"stall_cycles", &FpgaProfile::stall_cycles},
    {"hw_omegas", &FpgaProfile::hw_omegas},
    {"sw_omegas", &FpgaProfile::sw_omegas},
    {"modeled_seconds", &FpgaProfile::modeled_seconds},
};

struct ScanProfile {
  /// Bucket times. Single-threaded scans: wall clock. Multithreaded scans:
  /// CPU-seconds summed across workers — combine with total_seconds (always
  /// wall clock) and the bucket shares for elapsed-time rates.
  double ld_seconds = 0.0;     // r2 computation + Eq. (3) update of M
  double omega_seconds = 0.0;  // omega maximization (backend)
  double total_seconds = 0.0;  // whole scan, wall clock
  std::uint64_t omega_evaluations = 0;
  std::uint64_t r2_fetched = 0;

  // --- v2 observability ---------------------------------------------------
  /// Per-stage breakdown; stages.ld_total() == ld_seconds and
  /// stages.omega_search_seconds == omega_seconds by construction.
  StageTimes stages;
  RelocationStats relocation;
  /// Accelerator counters; all-zero unless the corresponding simulated
  /// backend ran (merged via OmegaBackend::contribute).
  GpuProfile gpu;
  FpgaProfile fpga;
  /// Fault-injection and recovery accounting (v3).
  FaultRecoveryStats faults;
  /// CPU kernel dispatch decision and per-body evaluation counts (v4).
  CpuKernelStats kernel;
  /// Streaming chunk pipeline accounting (v5); all-zero for in-memory scans.
  StreamStats stream;
  /// Scan-executor accounting (v7).
  SchedStats sched;
  /// Cancellation/deadline/checkpoint accounting (v8); defaults describe an
  /// uninterrupted, checkpoint-free run.
  RuntimeStats runtime;
  /// LD engine + packed-panel-cache accounting (v9), filled by the drivers
  /// from the scan's telemetry delta at finalize.
  LdStats ld;
  /// Heterogeneous co-scheduler accounting (v10); disabled unless the scan
  /// ran with a HeteroConfig.
  HeteroStats hetero;
  /// Hardware-counter per-stage profile (v11); disabled unless
  /// util::perf::enable() was armed (CLI --perf-counters).
  PerfStats perf;
  /// Distributional telemetry attributed to this scan (v6): the delta of the
  /// process-wide util/telemetry registry between scan start and end —
  /// queue-depth, task/chunk/retry-latency histograms, overlap-ratio gauges
  /// (docs/OBSERVABILITY.md). Gauges carry end-of-scan values. Deltas from
  /// concurrent scans in one process overlap; single-scan processes (the CLI,
  /// the benches) attribute exactly.
  util::telemetry::RegistrySnapshot telemetry;
  /// Grid positions actually evaluated (valid positions).
  std::uint64_t positions_scanned = 0;
  /// Names recorded by the scan driver: the LD engine serving r2 fetches and
  /// the omega backend. Multi-worker scans record the first worker's backend
  /// (all workers use identically configured instances).
  std::string ld_backend;
  std::string omega_backend;

  /// Fraction of compute time spent in the omega bucket.
  [[nodiscard]] double omega_share() const noexcept {
    const double compute = ld_seconds + omega_seconds;
    return compute > 0.0 ? omega_seconds / compute : 0.0;
  }
  /// Elapsed-time omega throughput: evaluations over the omega share of the
  /// wall clock (exact for single-threaded scans, the honest estimate for
  /// multithreaded ones).
  [[nodiscard]] double omega_throughput() const noexcept {
    const double wall = total_seconds * omega_share();
    return wall > 0.0 ? static_cast<double>(omega_evaluations) / wall : 0.0;
  }
  [[nodiscard]] double ld_throughput() const noexcept {
    const double wall = total_seconds * (1.0 - omega_share());
    return wall > 0.0 ? static_cast<double>(r2_fetched) / wall : 0.0;
  }
};

/// ScanProfile's own fields, grouped by the metrics block they appear in:
/// the document root, "stages" (after StageTimes) and "counters".
inline constexpr ProfileField<ScanProfile> kProfileRootFields[] = {
    {"backend", &ScanProfile::omega_backend, FieldMerge::Plan},
    {"ld_backend", &ScanProfile::ld_backend, FieldMerge::Plan},
    {"total_seconds", &ScanProfile::total_seconds},
};
inline constexpr ProfileField<ScanProfile> kProfileStageFields[] = {
    {"ld_seconds", &ScanProfile::ld_seconds},
    {"omega_seconds", &ScanProfile::omega_seconds},
};
inline constexpr ProfileField<ScanProfile> kProfileCounterFields[] = {
    {"positions_scanned", &ScanProfile::positions_scanned},
    {"omega_evaluations", &ScanProfile::omega_evaluations},
    {"r2_fetched", &ScanProfile::r2_fetched},
    {"omega_throughput_per_s", &ScanProfile::omega_throughput,
     FieldMerge::Plan},
    {"ld_throughput_per_s", &ScanProfile::ld_throughput, FieldMerge::Plan},
};

/// Every field table of a profile, in metrics-document order (telemetry, a
/// registry snapshot, is not table-declared). Calls
///   visit(object, block_of, fields)
/// for the fields of one struct, written into JSON object `object` ("" is
/// the document root; an object may be visited more than once), and
///   visit(object, array, elements_of, fields)
/// for a vector member written as array `array` inside `object`.
/// block_of/elements_of map a const or mutable ScanProfile to the struct or
/// vector, so one list serves the metrics writer, the checkpoint reader and
/// the tests.
template <class Visit>
void for_each_profile_block(Visit&& visit) {
  const auto self = [](auto& p) -> auto& { return p; };
  visit("", self, kProfileRootFields);
  visit("stages", [](auto& p) -> auto& { return p.stages; }, kStageFields);
  visit("stages", self, kProfileStageFields);
  visit("counters", self, kProfileCounterFields);
  visit("relocation", [](auto& p) -> auto& { return p.relocation; },
        kRelocationFields);
  visit("gpu", [](auto& p) -> auto& { return p.gpu; }, kGpuFields);
  visit("fpga", [](auto& p) -> auto& { return p.fpga; }, kFpgaFields);
  visit("faults", [](auto& p) -> auto& { return p.faults; }, kFaultFields);
  visit("kernel", [](auto& p) -> auto& { return p.kernel; }, kKernelFields);
  visit("stream", [](auto& p) -> auto& { return p.stream; }, kStreamFields);
  visit("sched", [](auto& p) -> auto& { return p.sched; }, kSchedFields);
  visit("sched", "workers_detail",
        [](auto& p) -> auto& { return p.sched.workers_detail; },
        kSchedWorkerFields);
  visit("runtime", [](auto& p) -> auto& { return p.runtime; }, kRuntimeFields);
  visit("ld", [](auto& p) -> auto& { return p.ld; }, kLdFields);
  visit("hetero", [](auto& p) -> auto& { return p.hetero; }, kHeteroFields);
  visit("hetero", "partitions",
        [](auto& p) -> auto& { return p.hetero.partitions; },
        kHeteroPartitionFields);
  visit("perf", [](auto& p) -> auto& { return p.perf; }, kPerfFields);
  visit("perf", "stages", [](auto& p) -> auto& { return p.perf.stages; },
        kPerfStageFields);
}

/// Folds `from` into `into` by every table's merge rule: the executor folds
/// each worker's profile into the scan's, and a resumed stream folds the
/// checkpoint's totals into its fresh profile. Worker profiles carry zeros
/// in the stream-IO, wall-clock and per-worker detail fields, so the one sum
/// serves both. sched workers_detail adds per worker index (its spans/steals
/// totals are recomputed), hetero goes through merge_hetero_stats, and the
/// omega backend name keeps the first one seen. Telemetry is not merged: the
/// drivers fold a resumed snapshot in at scan end (finish_profile).
void merge_profile(ScanProfile& into, const ScanProfile& from);

struct ScanResult {
  std::vector<PositionScore> scores;
  ScanProfile profile;

  /// Highest-scoring position (throws on empty scan).
  [[nodiscard]] const PositionScore& best() const;
  /// Scores sorted by descending omega, truncated to k.
  [[nodiscard]] std::vector<PositionScore> top(std::size_t k) const;
  /// True when at least one position holds a valid score — false for empty
  /// scans and for fault-heavy scans where every position was quarantined;
  /// callers should check this before best().
  [[nodiscard]] bool has_valid() const noexcept;
};

/// Runs a scan. `backend_factory` supplies one backend per worker thread
/// (nullptr: CPU nested loop). With options.threads > 1 the factory is
/// invoked once per worker.
ScanResult scan(const io::Dataset& dataset, const ScannerOptions& options,
                const std::function<std::unique_ptr<OmegaBackend>()>&
                    backend_factory = {});

/// Resolves the ScannerOptions::threads convention (documented there):
/// 0 -> std::thread::hardware_concurrency() (minimum 1), anything else
/// passes through. scan(), stream_scan(), and the CLI all call this exactly
/// once so profiles and backend names always carry the resolved count.
[[nodiscard]] std::size_t resolve_scan_threads(std::size_t requested) noexcept;

/// Resolves ScannerOptions::ld to a concrete engine over `snps` (or the
/// Dataset for the naive oracle). Shared with the streaming driver, which
/// builds one engine per chunk.
std::unique_ptr<ld::LdEngine> make_ld_engine(LdBackendKind kind,
                                             const io::Dataset& dataset,
                                             const ld::SnpMatrix& snps);

}  // namespace omega::core
