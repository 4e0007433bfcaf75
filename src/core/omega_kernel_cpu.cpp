#include "core/omega_kernel_cpu.h"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "core/omega_math.h"
#include "util/cpu_features.h"

namespace omega::core {

const char* cpu_kernel_name(CpuKernelKind kind) noexcept {
  switch (kind) {
    case CpuKernelKind::Auto: return "auto";
    case CpuKernelKind::Scalar: return "scalar";
    case CpuKernelKind::Portable: return "portable";
    case CpuKernelKind::Avx2: return "avx2";
  }
  return "unknown";
}

CpuKernelKind cpu_kernel_from_name(const std::string& name) {
  if (name == "auto") return CpuKernelKind::Auto;
  if (name == "scalar") return CpuKernelKind::Scalar;
  if (name == "portable") return CpuKernelKind::Portable;
  if (name == "avx2") return CpuKernelKind::Avx2;
  throw std::invalid_argument("unknown cpu kernel '" + name +
                              "' (expected auto | scalar | portable | avx2)");
}

bool cpu_kernel_avx2_available() noexcept {
#if defined(OMEGA_HAVE_AVX2_TU)
  return util::cpu_has_avx2_fma();
#else
  return false;
#endif
}

CpuKernelKind resolve_cpu_kernel(CpuKernelKind requested) {
  switch (requested) {
    case CpuKernelKind::Auto:
      return cpu_kernel_avx2_available() ? CpuKernelKind::Avx2
                                         : CpuKernelKind::Portable;
    case CpuKernelKind::Avx2:
      if (!cpu_kernel_avx2_available()) {
        throw std::runtime_error(
            "cpu kernel 'avx2' requested but unavailable (" +
            std::string(
#if defined(OMEGA_HAVE_AVX2_TU)
                "host CPU lacks AVX2+FMA"
#else
                "binary built without AVX2 support"
#endif
                ) +
            "); use --cpu-kernel=auto");
      }
      return CpuKernelKind::Avx2;
    case CpuKernelKind::Scalar:
    case CpuKernelKind::Portable:
      return requested;
  }
  throw std::logic_error("resolve_cpu_kernel: unknown kind");
}

void CpuKernelCounters::add(CpuKernelKind kind,
                            std::uint64_t evaluations) noexcept {
  switch (kind) {
    case CpuKernelKind::Scalar: scalar_evaluations += evaluations; break;
    case CpuKernelKind::Portable: portable_evaluations += evaluations; break;
    case CpuKernelKind::Avx2: avx2_evaluations += evaluations; break;
    case CpuKernelKind::Auto: break;  // unresolved kinds never run
  }
}

void OmegaKernelScratch::prepare(const DpMatrix& m,
                                 const GridPosition& position) {
  const std::size_t n_left = position.a_max - position.lo + 1;
  ls.resize(n_left);
  kl.resize(n_left);
  l_d.resize(n_left);
  const std::size_t c = position.c;
  for (std::size_t ai = 0; ai < n_left; ++ai) {
    const std::size_t a = position.lo + ai;
    const std::size_t l = c - a + 1;
    // at_fast (not a raw row read): degenerate hand-built positions allow
    // a == c, where LS is the implicit zero diagonal entry.
    ls[ai] = m.at_fast(c, a);
    kl[ai] = choose2(l);
    l_d[ai] = static_cast<double>(l);
  }
}

namespace {

/// Portable fused-divide body: two passes per right border — a branch-free
/// omega computation into the scratch row (autovectorizable: every operation
/// is a lane-wise add/mul/div over the SoA tables and the contiguous row-b
/// slice), then a scalar argmax scan preserving the reference tie-break.
OmegaResult portable_search_range(const DpMatrix& m,
                                  const GridPosition& position,
                                  std::size_t b_begin, std::size_t b_end,
                                  OmegaKernelScratch& scratch) {
  OmegaResult result;
  const std::size_t c = position.c;
  const std::size_t n_left = position.a_max - position.lo + 1;
  const double eps = OmegaConfig::denominator_offset;
  scratch.omega.resize(n_left);
  double* buf = scratch.omega.data();
  const double* ls = scratch.ls.data();
  const double* kl = scratch.kl.data();
  const double* l_d = scratch.l_d.data();

  for (std::size_t b = b_begin; b <= b_end; ++b) {
    const double rs = m.at_fast(b, c + 1);
    const double r_d = static_cast<double>(b - c);
    const double kr = choose2(b - c);
    // a < b always (a <= c < b), so the row-b slice never touches the
    // implicit diagonal and a raw contiguous read is safe.
    const double* row_b = m.row_data(b) + (position.lo - m.base());
    for (std::size_t ai = 0; ai < n_left; ++ai) {
      const double lr = l_d[ai] * r_d;
      const double sum = ls[ai] + rs;
      const double cross = row_b[ai] - sum;
      const double pairs = kl[ai] + kr;
      // Fused form of Eq. (2): one divide per omega. pairs == 0 only for
      // degenerate l == r == 1 windows, where the reference scores 0.
      buf[ai] = pairs > 0.0 ? (sum * lr) / (pairs * (cross + eps * lr)) : 0.0;
    }
    result.evaluated += n_left;
    for (std::size_t ai = 0; ai < n_left; ++ai) {
      if (buf[ai] > result.max_omega) {
        result.max_omega = buf[ai];
        result.best_a = position.lo + ai;
        result.best_b = b;
      }
    }
  }
  return result;
}

}  // namespace

OmegaResult omega_kernel_search_range(const DpMatrix& m,
                                      const GridPosition& position,
                                      std::size_t b_begin, std::size_t b_end,
                                      CpuKernelKind kind,
                                      OmegaKernelScratch& scratch) {
  if (!position.valid || b_begin > b_end) return {};
  switch (kind) {
    case CpuKernelKind::Scalar:
      return max_omega_search_range(m, position, b_begin, b_end);
    case CpuKernelKind::Portable:
      scratch.prepare(m, position);
      return portable_search_range(m, position, b_begin, b_end, scratch);
    case CpuKernelKind::Avx2:
#if defined(OMEGA_HAVE_AVX2_TU)
      scratch.prepare(m, position);
      return detail::omega_search_avx2_f64(m, position, b_begin, b_end,
                                           scratch);
#else
      throw std::logic_error(
          "omega_kernel_search_range: avx2 kernel not compiled in");
#endif
    case CpuKernelKind::Auto:
      break;
  }
  throw std::logic_error(
      "omega_kernel_search_range: kind must be resolved before dispatch");
}

OmegaResult omega_kernel_search(const DpMatrix& m, const GridPosition& position,
                                CpuKernelKind kind,
                                OmegaKernelScratch& scratch) {
  if (!position.valid) return {};
  return omega_kernel_search_range(m, position, position.b_min, position.hi,
                                   kind, scratch);
}

OmegaResult omega_kernel_search_parallel(
    par::ThreadPool& pool, const DpMatrix& m, const GridPosition& position,
    CpuKernelKind kind, std::vector<OmegaKernelScratch>& lane_scratch) {
  OmegaResult result;
  if (!position.valid) return result;
  const std::size_t b_count = position.hi - position.b_min + 1;
  const std::size_t lanes = pool.size() + 1;
  const std::size_t chunk = (b_count + lanes - 1) / lanes;
  if (lane_scratch.size() < lanes) lane_scratch.resize(lanes);

  std::vector<OmegaResult> partials(lanes);
  std::vector<std::function<void()>> tasks;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const std::size_t begin = position.b_min + lane * chunk;
    if (begin > position.hi) break;
    const std::size_t end = std::min(position.hi, begin + chunk - 1);
    tasks.emplace_back([&, lane, begin, end] {
      partials[lane] = omega_kernel_search_range(m, position, begin, end, kind,
                                                 lane_scratch[lane]);
    });
  }
  pool.run_blocking(std::move(tasks));

  // Lane-order reduce: lower b ranges first, so ties resolve exactly as in
  // the sequential b-major scan of the same kernel kind.
  for (const auto& partial : partials) {
    result.evaluated += partial.evaluated;
    if (partial.evaluated > 0 && partial.max_omega > result.max_omega) {
      result.max_omega = partial.max_omega;
      result.best_a = partial.best_a;
      result.best_b = partial.best_b;
    }
  }
  return result;
}

}  // namespace omega::core
