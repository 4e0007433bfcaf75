#include "hw/gpu/gpu_backend.h"

#include <limits>
#include <utility>
#include <vector>

#include "core/resilience.h"
#include "util/stage.h"
#include "util/telemetry.h"
#include "util/trace.h"

namespace omega::hw::gpu {
namespace {

/// Sub-region order switch: exchanges the L and R roles inside the packed
/// buffers (transposing TS) so that the inner loop runs over the SNP-richer
/// side. Value-neutral by the symmetry of Eq. (2).
core::PositionBuffers swap_sides(const core::PositionBuffers& buffers) {
  core::PositionBuffers swapped;
  swapped.num_left = buffers.num_right;
  swapped.num_right = buffers.num_left;
  swapped.ls = buffers.rs;
  swapped.rs = buffers.ls;
  swapped.k = buffers.m_binom;
  swapped.m_binom = buffers.k;
  swapped.l_counts = buffers.r_counts;
  swapped.r_counts = buffers.l_counts;
  swapped.total.resize(buffers.total.size());
  for (std::size_t ai = 0; ai < buffers.num_left; ++ai) {
    for (std::size_t bi = 0; bi < buffers.num_right; ++bi) {
      swapped.total[bi * swapped.num_right + ai] =
          buffers.total[ai * buffers.num_right + bi];
    }
  }
  return swapped;
}

}  // namespace

GpuOmegaBackend::GpuOmegaBackend(const GpuDeviceSpec& spec,
                                 par::ThreadPool& pool,
                                 GpuBackendOptions options)
    : spec_(spec),
      pool_(pool),
      options_(options),
      injector_(options.fault_plan) {}

std::string GpuOmegaBackend::name() const { return "gpu-sim:" + spec_.name; }

core::OmegaResult GpuOmegaBackend::max_omega(
    const core::DpMatrix& m, const core::GridPosition& position) {
  core::OmegaResult result;
  if (!position.valid) return result;

  // Cancel poll before committing any host work: the analogue of a host
  // checking its abort flag before enqueueing. CancelledError is not a
  // BackendError, so the recovery engine lets it propagate to the drain.
  if (options_.cancel != nullptr && options_.cancel->cancelled()) {
    throw util::CancelledError(options_.cancel->reason());
  }

  // Fault hook: injected failures fire before any work or accounting, the
  // way a failed clEnqueueNDRangeKernel would. TransientNan instead lets the
  // position run and poisons the returned score.
  bool poison_result = false;
  switch (injector_.next()) {
    case util::fault::FaultMode::KernelLaunch:
      throw core::BackendError(core::BackendErrorKind::KernelLaunch, name(),
                               "injected kernel-launch failure");
    case util::fault::FaultMode::Timeout:
      throw core::BackendError(core::BackendErrorKind::Timeout, name(),
                               "injected device timeout");
    case util::fault::FaultMode::DeviceLost:
      throw core::BackendError(core::BackendErrorKind::DeviceLost, name(),
                               "injected device loss");
    case util::fault::FaultMode::TransientNan:
      poison_result = true;
      break;
    default:
      break;
  }

  core::PositionBuffers buffers;
  std::uint64_t combos = 0;
  bool swapped = false;
  KernelChoice choice = KernelChoice::Kernel1;
  {
    // Host-side packing + Eq. (4) kernel selection: the "dispatch" stage.
    // Pack time is charged even for zero-combination positions — the host
    // pays for packing before it can know the position is empty.
    static const util::Stage& dispatch_stage = util::stage("gpu.dispatch");
    const util::StageScope scope(dispatch_stage, &accounting_.dispatch_seconds);
    buffers = core::pack_position(m, position);
    combos = buffers.combinations();
    if (combos != 0) {
      swapped = options_.order_switch && buffers.num_left > buffers.num_right;
      if (swapped) buffers = swap_sides(buffers);

      switch (options_.policy) {
        case KernelPolicy::ForceKernel1:
          choice = KernelChoice::Kernel1;
          break;
        case KernelPolicy::ForceKernel2:
          choice = KernelChoice::Kernel2;
          break;
        case KernelPolicy::Dynamic:
        default:
          choice = dispatch(spec_, combos);
          break;
      }
    }
  }
  if (combos == 0) return result;

  // Second poll between dispatch and the kernel run: the last moment a real
  // host could abandon the position before paying for the launch.
  if (options_.cancel != nullptr && options_.cancel->cancelled()) {
    throw util::CancelledError(options_.cancel->reason());
  }

  // Functional execution (exact float arithmetic); guarded by the cap so a
  // paper-scale workload falls back to the CPU loop (identical values up to
  // float/double rounding) instead of running for hours.
  std::uint64_t flat = 0;
  if (combos <= options_.functional_cap) {
    KernelResult kernel_result;
    if (choice == KernelChoice::Kernel1) {
      const util::trace::Span span("gpu.kernel1");
      kernel_result = run_kernel1(pool_, buffers, spec_.workgroup_size);
    } else {
      const util::trace::Span span("gpu.kernel2");
      kernel_result = run_kernel2(
          pool_, buffers, spec_.workgroup_size,
          default_kernel2_work_items(spec_.compute_units, spec_.warp_size));
    }
    result.max_omega = static_cast<double>(kernel_result.max_omega);
    flat = kernel_result.flat_index;
    result.evaluated = kernel_result.evaluated;
    std::size_t ai = static_cast<std::size_t>(flat / buffers.num_right);
    std::size_t bi = static_cast<std::size_t>(flat % buffers.num_right);
    if (swapped) std::swap(ai, bi);
    result.best_a = position.lo + ai;
    result.best_b = position.b_min + bi;
  } else {
    result = options_.host_scorer ? options_.host_scorer(m, position)
                                  : core::max_omega_search(m, position);
  }

  const CompleteCost cost = complete_position_cost(
      spec_, choice, combos, buffers.payload_bytes());
  // Modeled watchdog: a position whose device time blows the budget is
  // treated as a failed launch — no result, no accounting — matching a
  // runtime that kills and reaps the kernel.
  if (options_.modeled_timeout_seconds > 0.0 &&
      cost.total_s > options_.modeled_timeout_seconds) {
    throw core::BackendError(core::BackendErrorKind::Timeout, name(),
                             "modeled device time exceeded budget");
  }
  if (poison_result) {
    result.max_omega = std::numeric_limits<double>::quiet_NaN();
  }

  // Device-model accounting. The histogram records one sample per completed
  // launch, so its count reconciles against kernel1_launches +
  // kernel2_launches (watchdog-killed launches are accounted in neither).
  static util::telemetry::Histogram& launch_hist =
      util::telemetry::histogram("gpu.launch_modeled_seconds");
  launch_hist.record(cost.total_s);
  if (choice == KernelChoice::Kernel1) {
    ++accounting_.positions_kernel1;
    accounting_.omegas_kernel1 += combos;
  } else {
    ++accounting_.positions_kernel2;
    accounting_.omegas_kernel2 += combos;
  }
  accounting_.modeled_kernel_seconds += cost.kernel_s;
  accounting_.modeled_prep_seconds += cost.prep_s;
  accounting_.modeled_transfer_seconds += cost.transfer_s;
  accounting_.modeled_total_seconds += cost.total_s;
  accounting_.omega_evaluations += combos;
  accounting_.bytes_moved += padded_bytes(spec_, buffers.payload_bytes());
  return result;
}

void GpuOmegaBackend::contribute(core::ScanProfile& profile) const {
  profile.gpu.kernel1_launches += accounting_.positions_kernel1;
  profile.gpu.kernel2_launches += accounting_.positions_kernel2;
  profile.gpu.kernel1_omegas += accounting_.omegas_kernel1;
  profile.gpu.kernel2_omegas += accounting_.omegas_kernel2;
  profile.gpu.modeled_kernel_seconds += accounting_.modeled_kernel_seconds;
  profile.gpu.modeled_prep_seconds += accounting_.modeled_prep_seconds;
  profile.gpu.modeled_transfer_seconds += accounting_.modeled_transfer_seconds;
  profile.gpu.modeled_total_seconds += accounting_.modeled_total_seconds;
  profile.gpu.bytes_moved += accounting_.bytes_moved;
  profile.stages.dispatch_seconds += accounting_.dispatch_seconds;
  const auto& faults = injector_.counters();
  profile.faults.faults_injected += faults.total_injected();
  profile.faults.injected_kernel_launch += faults.injected_kernel_launch;
  profile.faults.injected_timeout += faults.injected_timeout;
  profile.faults.injected_nan += faults.injected_nan;
  profile.faults.injected_device_lost += faults.injected_device_lost;
}

}  // namespace omega::hw::gpu
