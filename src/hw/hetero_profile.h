#pragma once
// Default heterogeneous partition set for the co-scheduler
// (core/hetero_scheduler.h): the CPU workers plus the paper's two
// simulated accelerators — Tesla K80 GPU (dynamic two-kernel timing model)
// and Alveo U200 FPGA (cycle model) — each sized by its own modeled
// throughput over the actual per-position workload.
//
// The accelerator backends are configured with functional_cap = 0 and a
// host_scorer that runs the scan's dispatched CPU kernel (the same body the
// CPU partition and a plain CPU scan execute — the kernel bodies agree only
// up to summation-order ULPs, so sharing one body is required, not just
// convenient) while the device cost models, fault injection, and accounting
// still accrue. That is what makes a hetero scan bitwise-identical to the
// plain CPU scan for any split.

#include "core/hetero_scheduler.h"
#include "hw/device_specs.h"
#include "par/thread_pool.h"
#include "util/cancel.h"
#include "util/fault.h"

namespace omega::hw {

struct HeteroProfileOptions {
  core::HeteroSplit split;
  /// Deterministic fault injection applied to both accelerator backends.
  util::fault::FaultPlan fault_plan;
  /// Cooperative-cancellation token forwarded to the accelerator backends.
  /// Not owned; must outlive every scan using the config.
  const util::CancelToken* cancel = nullptr;
  /// Host omega rate (scores/s) for the CPU partition's cost model and the
  /// FPGA unroll-remainder software share; the measured 1-core OmegaPlus
  /// rate is the right value (FpgaBackendOptions::software_omega_rate).
  double cpu_omega_rate = 70e6;
  /// The CPU omega kernel the scan runs (ScannerOptions::cpu_kernel). The
  /// accelerator backends score through this exact body so every partition
  /// is bitwise-identical to the serial CPU scan it replaces.
  core::CpuKernelKind cpu_kernel = core::CpuKernelKind::Auto;
};

/// Builds the CPU + tesla_k80 GPU-sim + alveo_u200 FPGA-sim configuration.
/// `gpu_pool` backs the GPU backend instances and must outlive every scan
/// that uses the returned config (the config itself must too — the scanner
/// holds it by pointer).
core::HeteroConfig default_hetero_config(const HeteroProfileOptions& options,
                                         par::ThreadPool& gpu_pool);

}  // namespace omega::hw
