#include "core/hetero_scheduler.h"

#include <algorithm>
#include <stdexcept>

#include "core/scan_driver.h"
#include "core/workload.h"

namespace omega::core {

// ---------------------------------------------------------------------------
// HeteroSplit
// ---------------------------------------------------------------------------

HeteroSplit HeteroSplit::parse(std::string_view text) {
  HeteroSplit split;
  if (text == "auto" || text.empty()) return split;
  split.auto_split = false;

  double values[3] = {0.0, 0.0, 0.0};
  std::size_t field = 0;
  std::size_t start = 0;
  const std::string owned(text);
  for (std::size_t i = 0; i <= owned.size(); ++i) {
    if (i < owned.size() && owned[i] != ':') continue;
    if (field >= 3) {
      throw std::invalid_argument("hetero split: expected cpu:gpu:fpga, got '" +
                                  owned + "'");
    }
    const std::string token = owned.substr(start, i - start);
    try {
      std::size_t consumed = 0;
      values[field] = std::stod(token, &consumed);
      if (consumed != token.size()) throw std::invalid_argument(token);
    } catch (const std::exception&) {
      throw std::invalid_argument("hetero split: bad weight '" + token +
                                  "' in '" + owned + "'");
    }
    if (values[field] < 0.0) {
      throw std::invalid_argument("hetero split: negative weight in '" +
                                  owned + "'");
    }
    ++field;
    start = i + 1;
  }
  if (field != 3) {
    throw std::invalid_argument("hetero split: expected cpu:gpu:fpga, got '" +
                                owned + "'");
  }
  split.cpu = values[0];
  split.gpu = values[1];
  split.fpga = values[2];
  if (split.cpu + split.gpu + split.fpga <= 0.0) {
    throw std::invalid_argument("hetero split: all weights are zero in '" +
                                owned + "'");
  }
  return split;
}

std::string HeteroSplit::name() const {
  if (auto_split) return "auto";
  auto fmt = [](double value) {
    std::string text = std::to_string(value);
    // Trim trailing zeros (and a bare '.') so "2.000000" reads as "2".
    while (!text.empty() && text.back() == '0') text.pop_back();
    if (!text.empty() && text.back() == '.') text.pop_back();
    return text;
  };
  return fmt(cpu) + ":" + fmt(gpu) + ":" + fmt(fpga);
}

void HeteroConfig::validate() const {
  if (!cpu_modeled_seconds) {
    throw std::invalid_argument("hetero: cpu_modeled_seconds model missing");
  }
  for (const HeteroPartitionSpec& spec : accelerators) {
    if (spec.name.empty()) {
      throw std::invalid_argument("hetero: accelerator partition needs a name");
    }
    if (!spec.modeled_seconds) {
      throw std::invalid_argument("hetero: partition '" + spec.name +
                                  "' has no cost model");
    }
    if (!spec.backend_factory) {
      throw std::invalid_argument("hetero: partition '" + spec.name +
                                  "' has no backend factory");
    }
  }
  if (straggler_multiplier <= 0.0 || straggler_min_seconds < 0.0) {
    throw std::invalid_argument("hetero: nonsensical straggler policy");
  }
}

// ---------------------------------------------------------------------------
// Planner
// ---------------------------------------------------------------------------

HeteroPlan plan_hetero_split(const std::vector<GridPosition>& grid,
                             std::size_t begin, std::size_t end,
                             const HeteroConfig& config) {
  end = std::min(end, grid.size());
  begin = std::min(begin, end);
  const std::size_t parts = 1 + config.accelerators.size();

  HeteroPlan plan;
  plan.segments.resize(parts);
  plan.segments[0].backend = "cpu";
  for (std::size_t p = 0; p + 1 < parts; ++p) {
    plan.segments[p + 1].backend = config.accelerators[p].name;
  }
  for (HeteroSegmentPlan& segment : plan.segments) {
    segment.begin = begin;
    segment.end = begin;
  }
  if (begin >= end) return plan;

  std::uint64_t total_cost = 0;
  std::uint64_t total_valid = 0;
  for (std::size_t g = begin; g < end; ++g) {
    total_cost += estimate_position_cost(grid[g]);
    if (grid[g].valid) ++total_valid;
  }
  // Degenerate-grid guard: all-invalid or all-zero-cost ranges cannot be
  // split proportionally to cost, so budget one unit per valid position.
  plan.equal_fallback = total_cost == 0;
  const auto budget_total = static_cast<double>(
      plan.equal_fallback ? total_valid : total_cost);

  // Partition weights. Auto: the per-partition modeled time for this exact
  // range — throughput is work/time and the work numerator is common, so
  // weight ∝ 1 / modeled seconds. Fixed: the user's cpu:gpu:fpga triple,
  // mapped to [cpu, accelerators[0], accelerators[1]].
  std::vector<double> weights(parts, 0.0);
  if (config.split.auto_split) {
    std::vector<double> modeled(parts, 0.0);
    for (std::size_t g = begin; g < end; ++g) {
      if (!grid[g].valid) continue;
      modeled[0] += config.cpu_modeled_seconds(grid[g]);
      for (std::size_t p = 0; p + 1 < parts; ++p) {
        modeled[p + 1] += config.accelerators[p].modeled_seconds(grid[g]);
      }
    }
    for (std::size_t p = 0; p < parts; ++p) {
      weights[p] = modeled[p] > 0.0 ? 1.0 / modeled[p] : 0.0;
    }
  } else {
    weights[0] = config.split.cpu;
    if (parts > 1) weights[1] = config.split.gpu;
    if (parts > 2) weights[2] = config.split.fpga;
  }
  double weight_sum = 0.0;
  for (const double w : weights) weight_sum += w;
  if (weight_sum <= 0.0) {
    // No model produced a finite time (degenerate grid): split equally.
    std::fill(weights.begin(), weights.end(), 1.0);
    weight_sum = static_cast<double>(parts);
  }
  for (double& w : weights) w /= weight_sum;

  // Contiguous segments in partition order, cut where the cumulative budget
  // crosses each partition's prefix share. Zero-weight partitions close
  // immediately as empty segments.
  std::size_t seg = 0;
  double prefix = weights[0];
  double cum = 0.0;
  plan.segments[0].begin = begin;
  for (std::size_t g = begin; g < end; ++g) {
    while (seg + 1 < parts && cum >= prefix * budget_total) {
      plan.segments[seg].end = g;
      ++seg;
      prefix += weights[seg];
      plan.segments[seg].begin = g;
    }
    cum += static_cast<double>(
        plan.equal_fallback ? (grid[g].valid ? 1 : 0)
                            : estimate_position_cost(grid[g]));
  }
  plan.segments[seg].end = end;
  for (std::size_t p = seg + 1; p < parts; ++p) {
    plan.segments[p].begin = end;
    plan.segments[p].end = end;
  }

  for (std::size_t p = 0; p < parts; ++p) {
    HeteroSegmentPlan& segment = plan.segments[p];
    segment.weight = weights[p];
    const HeteroCostModel& model =
        p == 0 ? config.cpu_modeled_seconds
               : config.accelerators[p - 1].modeled_seconds;
    for (std::size_t g = segment.begin; g < segment.end; ++g) {
      if (!grid[g].valid) continue;
      ++segment.planned_positions;
      segment.modeled_seconds += model(grid[g]);
    }
  }
  return plan;
}

void merge_hetero_stats(HeteroStats& into, const HeteroStats& from) {
  if (!from.enabled) return;
  detail::merge_fields(into, from, kHeteroFields);
  for (const HeteroPartitionStats& part : from.partitions) {
    const auto match = std::find_if(
        into.partitions.begin(), into.partitions.end(),
        [&](const HeteroPartitionStats& candidate) {
          return candidate.backend == part.backend;
        });
    HeteroPartitionStats& dst = match != into.partitions.end()
                                    ? *match
                                    : into.partitions.emplace_back();
    const double resumed_rate = dst.measured_rate_per_s;
    detail::merge_fields(dst, part, kHeteroPartitionFields);
    // Latest estimate wins (HeteroPartitionStats contract) only from a run
    // that made observations: a run that never settled anything keeps the
    // resumed estimate.
    if (part.rate_observations == 0) dst.measured_rate_per_s = resumed_rate;
  }
}

}  // namespace omega::core
