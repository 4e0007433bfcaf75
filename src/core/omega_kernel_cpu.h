#pragma once
// Vectorized CPU omega kernel with runtime dispatch — the CPU-side analogue
// of the paper's accelerator datapaths. The scalar reference
// (max_omega_search) burns three divides per Eq. (2) evaluation and reloads
// LS/C(l,2) from the matrix on every inner iteration; this module
// restructures the search into a structure-of-arrays kernel:
//
//   * per-position coefficient tables (LS(a), C(l,2), l as double) are built
//     once and reused across every right border b;
//   * the inner loop walks a contiguous slice of row b of the packed
//     triangle (the Fig. 9 "two columns per iteration" layout observation)
//     and evaluates the algebraically fused form
//
//       omega = (sum * l*r) / (pairs * (cross + eps * l*r)),
//       sum = LS + RS, pairs = C(l,2) + C(r,2), cross = M(b,a) - sum
//
//     — one divide per omega instead of three;
//   * three interchangeable bodies: Scalar (the untouched reference loop,
//     kept for bit-exact comparisons), Portable (autovectorizable fused
//     loop), and Avx2 (explicit AVX2+FMA lanes in a separately compiled
//     translation unit, selected only after runtime CPUID detection).
//
// All kernels reproduce the reference argmax semantics exactly: strict
// greater-than in b-major / a-ascending scan order, so ties resolve to the
// lowest (b, a) — the property every backend-equivalence test keys on.

#include <cstdint>
#include <string>
#include <vector>

#include "core/dp_matrix.h"
#include "core/grid.h"
#include "core/omega_search.h"
#include "par/thread_pool.h"

namespace omega::core {

/// Which omega-kernel body the CPU scan path runs. Auto resolves at scan
/// setup: Avx2 when the binary carries the AVX2 TU and the host supports
/// AVX2+FMA, Portable otherwise. Scalar is never auto-selected — it is the
/// reference loop, reachable only by explicit request (--cpu-kernel=scalar).
enum class CpuKernelKind { Auto, Scalar, Portable, Avx2 };

[[nodiscard]] const char* cpu_kernel_name(CpuKernelKind kind) noexcept;
/// Parses "auto" | "scalar" | "portable" | "avx2"; throws
/// std::invalid_argument on anything else.
[[nodiscard]] CpuKernelKind cpu_kernel_from_name(const std::string& name);

/// True when the running binary can execute the Avx2 kernel (compiled in AND
/// supported by this host's CPU).
[[nodiscard]] bool cpu_kernel_avx2_available() noexcept;

/// Resolves Auto to a concrete kernel for this binary/host. Forcing Avx2 on
/// a host that cannot run it throws std::runtime_error (the CLI surfaces
/// this as a configuration error instead of crashing on SIGILL).
[[nodiscard]] CpuKernelKind resolve_cpu_kernel(CpuKernelKind requested);

/// Per-kernel evaluation accounting, merged into ScanProfile::kernel.
struct CpuKernelCounters {
  std::uint64_t scalar_evaluations = 0;
  std::uint64_t portable_evaluations = 0;
  std::uint64_t avx2_evaluations = 0;

  void add(CpuKernelKind kind, std::uint64_t evaluations) noexcept;
};

/// Reusable per-thread scratch: the SoA coefficient tables of one grid
/// position plus the omega row buffer the portable two-pass body writes.
/// Buffers grow monotonically, so a scan allocates once and reuses.
class OmegaKernelScratch {
 public:
  /// Rebuilds the per-left-border tables for `position` (indexed by
  /// ai = a - position.lo).
  void prepare(const DpMatrix& m, const GridPosition& position);

  std::vector<double> ls;     // LS(a) = M(c, a)
  std::vector<double> kl;     // C(l, 2)
  std::vector<double> l_d;    // l as double
  std::vector<double> omega;  // per-b omega row (portable body)
};

/// Evaluates one grid position with the selected kernel body. `kind` must be
/// concrete (not Auto — call resolve_cpu_kernel first).
OmegaResult omega_kernel_search(const DpMatrix& m, const GridPosition& position,
                                CpuKernelKind kind, OmegaKernelScratch& scratch);

/// Same, restricted to right borders [b_begin, b_end] (both clamped to the
/// position's range by the caller). Building block of the parallel search.
OmegaResult omega_kernel_search_range(const DpMatrix& m,
                                      const GridPosition& position,
                                      std::size_t b_begin, std::size_t b_end,
                                      CpuKernelKind kind,
                                      OmegaKernelScratch& scratch);

/// Intra-position parallel kernel search: right borders split into
/// contiguous chunks across the pool, reduced in lane order so tie-breaking
/// is bit-identical to the sequential kernel of the same kind. Each lane
/// needs its own scratch; `lane_scratch` is grown as needed and reused
/// across calls.
OmegaResult omega_kernel_search_parallel(
    par::ThreadPool& pool, const DpMatrix& m, const GridPosition& position,
    CpuKernelKind kind, std::vector<OmegaKernelScratch>& lane_scratch);

namespace detail {
// Entry points of the separately compiled AVX2+FMA translation unit
// (omega_kernel_avx2.cpp, built with per-file -mavx2 -mfma). Defined only
// when CMake detects compiler support (OMEGA_HAVE_AVX2_TU); callers in
// omega_kernel_cpu.cpp additionally gate on runtime CPUID.
OmegaResult omega_search_avx2_f64(const DpMatrix& m,
                                  const GridPosition& position,
                                  std::size_t b_begin, std::size_t b_end,
                                  const OmegaKernelScratch& scratch);
}  // namespace detail

}  // namespace omega::core
