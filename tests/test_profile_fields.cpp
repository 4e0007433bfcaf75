// The profile field tables (core/scanner.h) and the sinks that walk them.
//
// MetricsKeyPaths pins the "omega.scan.metrics" v11 document: the set of leaf
// key paths a real scan emits (a serial streamed CPU scan, and a hetero scan
// with the hardware-counter profile armed), and the exact leaf values written
// for one fully populated synthetic profile. Any change to a block, a key
// name, the key order or a derived value shows up as a diff of "path=value"
// lines.
//
// ProfileFieldTable fills every table field of every block with a distinct
// non-zero value and checks the checkpoint round trip and merge_profile
// against each field's merge rule; CheckpointVersion checks that a checkpoint
// of another schema_version is refused as a resume mismatch.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "core/checkpoint.h"
#include "core/hetero_scheduler.h"
#include "core/metrics_json.h"
#include "core/scanner.h"
#include "core/stream_scanner.h"
#include "hw/hetero_profile.h"
#include "io/chunk_reader.h"
#include "par/thread_pool.h"
#include "sim/dataset_factory.h"
#include "util/perf_counters.h"

namespace {

using omega::core::FieldMerge;
using omega::core::ProfileField;
using omega::core::ScannerOptions;
using omega::core::ScanProfile;
using omega::core::metrics::JsonValue;

/// Leaf paths of `value` ("a.b", arrays as "a[]" when `wildcard`, "a[3]"
/// otherwise), each paired with its compact serialized value. Empty objects
/// and arrays contribute no leaf.
void flatten(const JsonValue& value, const std::string& path, bool wildcard,
             std::vector<std::string>& out, bool with_values) {
  if (value.is_object()) {
    for (const auto& [key, member] : value.members()) {
      if (path.empty() && key == "telemetry") continue;
      flatten(member, path.empty() ? key : path + "." + key, wildcard, out,
              with_values);
    }
    return;
  }
  if (value.is_array()) {
    for (std::size_t i = 0; i < value.items().size(); ++i) {
      const std::string index = wildcard ? "[]" : "[" + std::to_string(i) + "]";
      flatten(value.items()[i], path + index, wildcard, out, with_values);
    }
    return;
  }
  out.push_back(with_values ? path + "=" + value.dump(0) : path);
}

std::set<std::string> key_paths(const JsonValue& doc) {
  std::vector<std::string> paths;
  flatten(doc, "", /*wildcard=*/true, paths, /*with_values=*/false);
  return {paths.begin(), paths.end()};
}

std::string joined(const std::set<std::string>& paths) {
  std::ostringstream out;
  for (const std::string& path : paths) out << path << '\n';
  return out.str();
}

omega::io::Dataset pin_dataset() {
  return omega::sim::make_dataset({.snps = 240,
                                   .samples = 24,
                                   .locus_length_bp = 240'000,
                                   .rho = 40.0,
                                   .seed = 1515});
}

ScannerOptions pin_options() {
  ScannerOptions options;
  options.config.grid_size = 24;
  options.config.window_unit = omega::core::WindowUnit::Snps;
  options.config.max_window = 120;
  options.config.min_window = 20;
  return options;
}

/// Every block's leaf set shared by both scans; the hetero/perf scan adds the
/// per-partition and per-stage entries.
const char* const kCommonPaths[] = {
    "backend",
    "counters.ld_throughput_per_s",
    "counters.omega_evaluations",
    "counters.omega_throughput_per_s",
    "counters.positions_scanned",
    "counters.r2_fetched",
    "faults.backoff_virtual_seconds",
    "faults.degradations",
    "faults.errors_caught",
    "faults.injected",
    "faults.injected_device_lost",
    "faults.injected_kernel_launch",
    "faults.injected_nan",
    "faults.injected_timeout",
    "faults.invalid_results",
    "faults.quarantined_positions",
    "faults.retries",
    "fpga.hw_omegas",
    "fpga.modeled_seconds",
    "fpga.pipeline_cycles",
    "fpga.stall_cycles",
    "fpga.sw_omegas",
    "gpu.bytes_moved",
    "gpu.kernel1_launches",
    "gpu.kernel1_omegas",
    "gpu.kernel2_launches",
    "gpu.kernel2_omegas",
    "gpu.modeled_kernel_seconds",
    "gpu.modeled_prep_seconds",
    "gpu.modeled_total_seconds",
    "gpu.modeled_transfer_seconds",
    "hetero.enabled",
    "hetero.faulted_spans",
    "hetero.plans",
    "hetero.redispatched_positions",
    "hetero.redispatched_spans",
    "hetero.split",
    "hetero.straggler_spans",
    "kernel.avx2_evaluations",
    "kernel.avx2_supported",
    "kernel.portable_evaluations",
    "kernel.positions",
    "kernel.requested",
    "kernel.scalar_evaluations",
    "kernel.selected",
    "ld.engine",
    "ld.isa",
    "ld.kernel_seconds",
    "ld.pack_seconds",
    "ld.panel_hits",
    "ld.panel_packs",
    "ld.requested",
    "ld_backend",
    "name",
    "perf.enabled",
    "perf.source",
    "relocation.cells_recomputed",
    "relocation.cells_reused",
    "relocation.relocations",
    "relocation.resets",
    "runtime.cancel_latency_seconds",
    "runtime.cancel_reason",
    "runtime.cancelled",
    "runtime.checkpoint_bytes",
    "runtime.checkpoints_written",
    "runtime.chunks_resumed",
    "runtime.deadline_outcome",
    "runtime.deadline_seconds",
    "runtime.partial",
    "runtime.positions_skipped",
    "runtime.resume_validations",
    "sched.active_workers",
    "sched.requested_threads",
    "sched.spans",
    "sched.steals",
    "sched.workers",
    "sched.workers_detail[].busy_seconds",
    "sched.workers_detail[].positions",
    "sched.workers_detail[].spans",
    "sched.workers_detail[].steals",
    "schema",
    "schema_version",
    "stages.dispatch_seconds",
    "stages.ld_extend_seconds",
    "stages.ld_relocate_seconds",
    "stages.ld_reset_seconds",
    "stages.ld_seconds",
    "stages.omega_search_seconds",
    "stages.omega_seconds",
    "stream.chunk_sites_target",
    "stream.chunks",
    "stream.compute_seconds",
    "stream.failed_chunks",
    "stream.io_overlap_ratio",
    "stream.io_seconds",
    "stream.io_stall_seconds",
    "stream.overlap_sites",
    "stream.peak_resident_sites",
    "stream.seam_carryovers",
    "stream.total_sites",
    "total_seconds",
};

const char* const kHeteroPerfPaths[] = {
    "hetero.partitions[].actual_positions",
    "hetero.partitions[].backend",
    "hetero.partitions[].measured_rate_per_s",
    "hetero.partitions[].measured_seconds",
    "hetero.partitions[].modeled_seconds",
    "hetero.partitions[].planned_positions",
    "hetero.partitions[].rate_observations",
    "hetero.partitions[].spans",
    "hetero.partitions[].weight",
    "perf.stages[].branch_misses",
    "perf.stages[].branch_mpki",
    "perf.stages[].cache_misses",
    "perf.stages[].cache_mpki",
    "perf.stages[].cycles",
    "perf.stages[].instructions",
    "perf.stages[].ipc",
    "perf.stages[].scopes",
    "perf.stages[].stage",
    "perf.stages[].task_clock_seconds",
};

TEST(MetricsKeyPaths, SerialStreamedCpuScanEmitsThePinnedSet) {
  const auto dataset = pin_dataset();
  omega::io::DatasetChunkReader reader(dataset);
  omega::core::StreamScanOptions stream_options;
  stream_options.chunk_sites = 80;
  const auto result =
      omega::core::stream_scan(reader, pin_options(), stream_options);
  ASSERT_GT(result.profile.stream.chunks, 1u);

  const auto doc = omega::core::metrics::scan_metrics("pin", result.profile);
  EXPECT_EQ(doc.at("schema_version").as_int(), 11);
  const std::set<std::string> expected(std::begin(kCommonPaths),
                                       std::end(kCommonPaths));
  EXPECT_EQ(expected.size(), 101u);
  EXPECT_EQ(joined(key_paths(doc)), joined(expected));
}

TEST(MetricsKeyPaths, HeteroScanWithPerfCountersEmitsThePinnedSet) {
  namespace perf = omega::util::perf;
  static omega::par::ThreadPool gpu_pool(2);
  omega::hw::HeteroProfileOptions profile_options;
  profile_options.split = omega::core::HeteroSplit::parse("1:1:1");
  const omega::core::HeteroConfig config =
      omega::hw::default_hetero_config(profile_options, gpu_pool);
  ScannerOptions options = pin_options();
  options.threads = 4;
  options.hetero = &config;

  const auto dataset = pin_dataset();
  perf::enable();
  const auto result = omega::core::scan(dataset, options);
  perf::disable();
  ASSERT_TRUE(result.profile.hetero.enabled);
  ASSERT_FALSE(result.profile.hetero.partitions.empty());
  ASSERT_FALSE(result.profile.perf.stages.empty());

  const auto doc = omega::core::metrics::scan_metrics("pin", result.profile);
  std::set<std::string> expected(std::begin(kCommonPaths),
                                 std::end(kCommonPaths));
  expected.insert(std::begin(kHeteroPerfPaths), std::end(kHeteroPerfPaths));
  EXPECT_EQ(joined(key_paths(doc)), joined(expected));
}

/// A profile with a distinct value in every field scan_metrics reads, so a
/// writer that swaps, drops or re-derives a field changes the pinned text.
ScanProfile populated_profile() {
  ScanProfile p;
  double d = 0.5;
  std::uint64_t u = 1;
  auto next_d = [&] { return d += 1.25; };
  auto next_u = [&] { return u += 3; };
  p.ld_seconds = next_d();
  p.omega_seconds = next_d();
  p.total_seconds = next_d();
  p.omega_evaluations = next_u();
  p.r2_fetched = next_u();
  p.positions_scanned = next_u();
  p.ld_backend = "packed";
  p.omega_backend = "hetero";

  p.stages.ld_reset_seconds = next_d();
  p.stages.ld_relocate_seconds = next_d();
  p.stages.ld_extend_seconds = next_d();
  p.stages.omega_search_seconds = next_d();
  p.stages.dispatch_seconds = next_d();

  p.relocation.resets = next_u();
  p.relocation.relocations = next_u();
  p.relocation.cells_reused = next_u();
  p.relocation.cells_recomputed = next_u();

  p.gpu.kernel1_launches = next_u();
  p.gpu.kernel2_launches = next_u();
  p.gpu.kernel1_omegas = next_u();
  p.gpu.kernel2_omegas = next_u();
  p.gpu.modeled_kernel_seconds = next_d();
  p.gpu.modeled_prep_seconds = next_d();
  p.gpu.modeled_transfer_seconds = next_d();
  p.gpu.modeled_total_seconds = next_d();
  p.gpu.bytes_moved = next_u();

  p.fpga.pipeline_cycles = next_u();
  p.fpga.stall_cycles = next_u();
  p.fpga.hw_omegas = next_u();
  p.fpga.sw_omegas = next_u();
  p.fpga.modeled_seconds = next_d();

  p.faults.faults_injected = next_u();
  p.faults.injected_kernel_launch = next_u();
  p.faults.injected_timeout = next_u();
  p.faults.injected_nan = next_u();
  p.faults.injected_device_lost = next_u();
  p.faults.errors_caught = next_u();
  p.faults.invalid_results = next_u();
  p.faults.retries = next_u();
  p.faults.quarantined_positions = next_u();
  p.faults.degradations = next_u();
  p.faults.backoff_virtual_seconds = next_d();

  p.kernel.requested = "auto";
  p.kernel.selected = "avx2";
  p.kernel.avx2_supported = true;
  p.kernel.positions = next_u();
  p.kernel.scalar_evaluations = next_u();
  p.kernel.portable_evaluations = next_u();
  p.kernel.avx2_evaluations = next_u();

  p.stream.chunks = next_u();
  p.stream.chunk_sites_target = next_u();
  p.stream.total_sites = next_u();
  p.stream.overlap_sites = next_u();
  p.stream.peak_resident_sites = next_u();
  p.stream.seam_carryovers = next_u();
  p.stream.failed_chunks = next_u();
  p.stream.io_seconds = next_d();
  p.stream.io_stall_seconds = next_d() - 3.0;
  p.stream.compute_seconds = next_d();

  p.sched.requested_threads = next_u();
  p.sched.workers = next_u();
  p.sched.spans = next_u();
  p.sched.steals = next_u();
  p.sched.workers_detail.resize(2);
  for (auto& w : p.sched.workers_detail) {
    w.spans = next_u();
    w.steals = next_u();
    w.positions = next_u();
    w.busy_seconds = next_d();
  }

  p.runtime.partial = true;
  p.runtime.cancelled = true;
  p.runtime.cancel_reason = "signal";
  p.runtime.deadline_outcome = "preempted";
  p.runtime.deadline_seconds = next_d();
  p.runtime.cancel_latency_seconds = next_d();
  p.runtime.positions_skipped = next_u();
  p.runtime.checkpoints_written = next_u();
  p.runtime.checkpoint_bytes = next_u();
  p.runtime.resume_validations = next_u();
  p.runtime.chunks_resumed = next_u();

  p.ld.requested = "auto";
  p.ld.engine = "packed";
  p.ld.isa = "avx2";
  p.ld.panel_packs = next_u();
  p.ld.panel_hits = next_u();
  p.ld.pack_seconds = next_d();
  p.ld.kernel_seconds = next_d();

  p.hetero.enabled = true;
  p.hetero.split = "1:2:3";
  p.hetero.plans = next_u();
  p.hetero.redispatched_spans = next_u();
  p.hetero.redispatched_positions = next_u();
  p.hetero.straggler_spans = next_u();
  p.hetero.faulted_spans = next_u();
  p.hetero.partitions.resize(2);
  p.hetero.partitions[0].backend = "cpu";
  p.hetero.partitions[1].backend = "gpu-sim:k80";
  for (auto& part : p.hetero.partitions) {
    part.weight = next_d();
    part.planned_positions = next_u();
    part.actual_positions = next_u();
    part.spans = next_u();
    part.modeled_seconds = next_d();
    part.measured_seconds = next_d();
    part.measured_rate_per_s = next_d();
    part.rate_observations = next_u();
  }

  p.perf.enabled = true;
  p.perf.source = "fallback";
  p.perf.stages.resize(1);
  omega::core::PerfStageStats& stage = p.perf.stages[0];
  stage.stage = "scan.extend";
  stage.scopes = next_u();
  stage.cycles = next_u();
  stage.instructions = next_u();
  stage.cache_misses = next_u();
  stage.branch_misses = next_u();
  stage.task_clock_seconds = next_d();
  return p;
}

/// scan_metrics(populated_profile()) as written by the v11 writer.
const char* const kPinnedValues = R"(schema="omega.scan.metrics"
schema_version=11
name="pin"
backend="hetero"
ld_backend="packed"
total_seconds=4.25
stages.ld_reset_seconds=5.5
stages.ld_relocate_seconds=6.75
stages.ld_extend_seconds=8.0
stages.omega_search_seconds=9.25
stages.dispatch_seconds=10.5
stages.ld_seconds=1.75
stages.omega_seconds=3.0
counters.positions_scanned=10
counters.omega_evaluations=4
counters.r2_fetched=7
counters.omega_throughput_per_s=1.4901960784313726
counters.ld_throughput_per_s=4.4705882352941178
relocation.resets=13
relocation.relocations=16
relocation.cells_reused=19
relocation.cells_recomputed=22
gpu.kernel1_launches=25
gpu.kernel2_launches=28
gpu.kernel1_omegas=31
gpu.kernel2_omegas=34
gpu.modeled_kernel_seconds=11.75
gpu.modeled_prep_seconds=13.0
gpu.modeled_transfer_seconds=14.25
gpu.modeled_total_seconds=15.5
gpu.bytes_moved=37
fpga.pipeline_cycles=40
fpga.stall_cycles=43
fpga.hw_omegas=46
fpga.sw_omegas=49
fpga.modeled_seconds=16.75
faults.injected=52
faults.injected_kernel_launch=55
faults.injected_timeout=58
faults.injected_nan=61
faults.injected_device_lost=64
faults.errors_caught=67
faults.invalid_results=70
faults.retries=73
faults.quarantined_positions=76
faults.degradations=79
faults.backoff_virtual_seconds=18.0
kernel.requested="auto"
kernel.selected="avx2"
kernel.avx2_supported=true
kernel.positions=82
kernel.scalar_evaluations=85
kernel.portable_evaluations=88
kernel.avx2_evaluations=91
stream.chunks=94
stream.chunk_sites_target=97
stream.total_sites=100
stream.overlap_sites=103
stream.peak_resident_sites=106
stream.seam_carryovers=109
stream.failed_chunks=112
stream.io_seconds=19.25
stream.io_stall_seconds=17.5
stream.compute_seconds=21.75
stream.io_overlap_ratio=0.090909090909090912
sched.requested_threads=115
sched.workers=118
sched.spans=121
sched.steals=124
sched.active_workers=2
sched.workers_detail[0].spans=127
sched.workers_detail[0].steals=130
sched.workers_detail[0].positions=133
sched.workers_detail[0].busy_seconds=23.0
sched.workers_detail[1].spans=136
sched.workers_detail[1].steals=139
sched.workers_detail[1].positions=142
sched.workers_detail[1].busy_seconds=24.25
runtime.partial=true
runtime.cancelled=true
runtime.cancel_reason="signal"
runtime.deadline_seconds=25.5
runtime.deadline_outcome="preempted"
runtime.cancel_latency_seconds=26.75
runtime.positions_skipped=145
runtime.checkpoints_written=148
runtime.checkpoint_bytes=151
runtime.resume_validations=154
runtime.chunks_resumed=157
ld.requested="auto"
ld.engine="packed"
ld.isa="avx2"
ld.panel_packs=160
ld.panel_hits=163
ld.pack_seconds=28.0
ld.kernel_seconds=29.25
hetero.enabled=true
hetero.split="1:2:3"
hetero.plans=166
hetero.redispatched_spans=169
hetero.redispatched_positions=172
hetero.straggler_spans=175
hetero.faulted_spans=178
hetero.partitions[0].backend="cpu"
hetero.partitions[0].weight=30.5
hetero.partitions[0].planned_positions=181
hetero.partitions[0].actual_positions=184
hetero.partitions[0].spans=187
hetero.partitions[0].modeled_seconds=31.75
hetero.partitions[0].measured_seconds=33.0
hetero.partitions[0].measured_rate_per_s=34.25
hetero.partitions[0].rate_observations=190
hetero.partitions[1].backend="gpu-sim:k80"
hetero.partitions[1].weight=35.5
hetero.partitions[1].planned_positions=193
hetero.partitions[1].actual_positions=196
hetero.partitions[1].spans=199
hetero.partitions[1].modeled_seconds=36.75
hetero.partitions[1].measured_seconds=38.0
hetero.partitions[1].measured_rate_per_s=39.25
hetero.partitions[1].rate_observations=202
perf.enabled=true
perf.source="fallback"
perf.stages[0].stage="scan.extend"
perf.stages[0].scopes=205
perf.stages[0].cycles=208
perf.stages[0].instructions=211
perf.stages[0].cache_misses=214
perf.stages[0].branch_misses=217
perf.stages[0].task_clock_seconds=40.5
perf.stages[0].ipc=1.0144230769230769
perf.stages[0].cache_mpki=1014.218009478673
perf.stages[0].branch_mpki=1028.4360189573461
)";

TEST(MetricsKeyPaths, PopulatedProfileWritesThePinnedValues) {
  const auto doc =
      omega::core::metrics::scan_metrics("pin", populated_profile());
  std::vector<std::string> lines;
  flatten(doc, "", /*wildcard=*/false, lines, /*with_values=*/true);
  std::ostringstream actual;
  for (const std::string& line : lines) actual << line << '\n';
  EXPECT_EQ(actual.str(), kPinnedValues);
}

// ---------------------------------------------------------------------------
// ProfileFieldTable: every table field through the checkpoint and the merge
// ---------------------------------------------------------------------------

template <class... Visitors>
struct overloaded : Visitors... {
  using Visitors::operator()...;
};

template <class Block, std::size_t N>
bool carried(const ProfileField<Block> (&fields)[N]) {
  for (const ProfileField<Block>& field : fields) {
    if (field.merge != FieldMerge::Plan) return true;
  }
  return false;
}

/// Sets every stored field of every table to a value no other field has:
/// counters n, seconds n + 0.5, flags true, names "v<n>". Arrays get two
/// elements.
ScanProfile every_field_profile() {
  ScanProfile profile;
  std::uint64_t next = 0;
  const auto fill = [&next](auto& block, const auto& fields) {
    for (const auto& field : fields) {
      std::visit(
          [&](auto member) {
            if constexpr (std::is_member_object_pointer_v<decltype(member)>) {
              auto& value = block.*member;
              using Value = std::remove_reference_t<decltype(value)>;
              ++next;
              if constexpr (std::is_same_v<Value, std::uint64_t>) {
                value = next;
              } else if constexpr (std::is_same_v<Value, double>) {
                value = static_cast<double>(next) + 0.5;
              } else if constexpr (std::is_same_v<Value, bool>) {
                value = true;
              } else {
                value = "v" + std::to_string(next);
              }
            }
          },
          field.member);
    }
  };
  omega::core::for_each_profile_block(overloaded{
      [&](const char*, auto block_of, const auto& fields) {
        fill(block_of(profile), fields);
      },
      [&](const char*, const char*, auto elements_of, const auto& fields) {
        auto& elements = elements_of(profile);
        elements.resize(2);
        for (auto& element : elements) fill(element, fields);
      }});
  return profile;
}

/// Calls check(path, merge, expected_value, actual_value) for every Sum and
/// Latest field of `expected` and `actual` (the fields a checkpoint carries
/// and merge_profile folds).
template <class Check>
void for_each_carried_field(const ScanProfile& expected,
                            const ScanProfile& actual, Check&& check) {
  const auto compare = [&check](const std::string& path, const auto& e,
                                const auto& a, const auto& fields) {
    for (const auto& field : fields) {
      if (field.merge == FieldMerge::Plan) continue;
      std::visit(
          [&](auto member) {
            if constexpr (std::is_member_object_pointer_v<decltype(member)>) {
              check(path + field.key, field.merge, e.*member, a.*member);
            }
          },
          field.member);
    }
  };
  omega::core::for_each_profile_block(overloaded{
      [&](const char* object, auto block_of, const auto& fields) {
        const std::string path = *object ? std::string(object) + "." : "";
        compare(path, block_of(expected), block_of(actual), fields);
      },
      [&](const char* object, const char* array, auto elements_of,
          const auto& fields) {
        if (!carried(fields)) return;
        const auto& e = elements_of(expected);
        const auto& a = elements_of(actual);
        ASSERT_EQ(e.size(), a.size()) << object << "." << array;
        for (std::size_t i = 0; i < e.size(); ++i) {
          compare(std::string(object) + "." + array + "[" +
                      std::to_string(i) + "].",
                  e[i], a[i], fields);
        }
      }});
}

TEST(ProfileFieldTable, CheckpointRoundTripReturnsEveryCarriedField) {
  omega::core::ScanCheckpoint ckpt;
  ckpt.totals = every_field_profile();
  const auto text = omega::core::checkpoint_to_json(ckpt).dump();
  const auto back = omega::core::checkpoint_from_json(JsonValue::parse(text));
  std::size_t checked = 0;
  for_each_carried_field(ckpt.totals, back.totals,
                         [&](const std::string& path, FieldMerge,
                             const auto& expected, const auto& actual) {
                           EXPECT_EQ(actual, expected) << path;
                           ++checked;
                         });
  EXPECT_GT(checked, 60u);
}

TEST(ProfileFieldTable, MergeIntoEmptyProfileCopiesEveryCarriedField) {
  const ScanProfile p = every_field_profile();
  ScanProfile merged;
  omega::core::merge_profile(merged, p);
  for_each_carried_field(p, merged,
                         [](const std::string& path, FieldMerge,
                            const auto& expected, const auto& actual) {
                           EXPECT_EQ(actual, expected) << path;
                         });
}

TEST(ProfileFieldTable, MergingTwiceDoublesSumsAndKeepsLatest) {
  const ScanProfile p = every_field_profile();
  ScanProfile twice;
  omega::core::merge_profile(twice, p);
  omega::core::merge_profile(twice, p);
  for_each_carried_field(
      p, twice,
      [](const std::string& path, FieldMerge merge, const auto& once,
         const auto& actual) {
        using Value = std::remove_cvref_t<decltype(once)>;
        if constexpr (std::is_same_v<Value, std::uint64_t> ||
                      std::is_same_v<Value, double>) {
          if (merge == FieldMerge::Sum) {
            EXPECT_EQ(actual, once + once) << path;
            return;
          }
        }
        EXPECT_EQ(merge, FieldMerge::Latest) << path;
        EXPECT_EQ(actual, once) << path;
      });
  // The sched totals are recomputed from the per-worker detail.
  ASSERT_EQ(twice.sched.workers_detail.size(), 2u);
  EXPECT_EQ(twice.sched.spans, twice.sched.workers_detail[0].spans +
                                   twice.sched.workers_detail[1].spans);
  EXPECT_EQ(twice.sched.steals, twice.sched.workers_detail[0].steals +
                                    twice.sched.workers_detail[1].steals);
}

TEST(ProfileFieldTable, PlanFieldsAreWrittenButNotReadBack) {
  omega::core::ScanCheckpoint ckpt;
  ckpt.totals = every_field_profile();
  const auto doc = omega::core::checkpoint_to_json(ckpt);
  const auto& totals = doc.at("totals");
  EXPECT_EQ(totals.at("runtime").at("chunks_resumed").as_uint(),
            ckpt.totals.runtime.chunks_resumed);
  EXPECT_EQ(totals.at("sched").at("workers_detail").items().size(), 2u);
  EXPECT_TRUE(totals.at("sched").at("workers_detail").items()[0].is_object());

  const auto back = omega::core::checkpoint_from_json(doc);
  EXPECT_EQ(back.totals.runtime.chunks_resumed, 0u);
  EXPECT_EQ(back.totals.stream.chunks, 0u);
  EXPECT_TRUE(back.totals.kernel.requested.empty());
  EXPECT_TRUE(back.totals.perf.stages.empty());
}

// ---------------------------------------------------------------------------
// CheckpointVersion: another schema_version is a resume mismatch
// ---------------------------------------------------------------------------

TEST(CheckpointVersion, OtherVersionIsRefusedNamingBothVersions) {
  auto doc = omega::core::checkpoint_to_json(omega::core::ScanCheckpoint{});
  const int current = omega::core::ScanCheckpoint::kVersion;
  doc.set("schema_version", current - 1);
  try {
    (void)omega::core::checkpoint_from_json(doc);
    FAIL() << "expected ResumeMismatchError";
  } catch (const omega::core::ResumeMismatchError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("version " + std::to_string(current - 1)),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("version " + std::to_string(current)),
              std::string::npos)
        << message;
  }
}

TEST(CheckpointVersion, ResumeFromV2CheckpointThrowsResumeMismatch) {
  ASSERT_EQ(omega::core::ScanCheckpoint::kVersion, 3);
  const auto dataset = pin_dataset();
  const std::string path =
      (std::filesystem::temp_directory_path() / "omega_ckpt_version_v2.ckpt")
          .string();
  omega::core::StreamScanOptions stream_options;
  stream_options.chunk_sites = 80;
  stream_options.checkpoint_path = path;
  {
    omega::io::DatasetChunkReader reader(dataset);
    (void)omega::core::stream_scan(reader, pin_options(), stream_options);
  }
  auto doc = omega::core::checkpoint_to_json(
      omega::core::load_checkpoint(path));
  doc.set("schema_version", 2);
  std::ofstream(path) << doc.dump();

  stream_options.resume = true;
  omega::io::DatasetChunkReader reader(dataset);
  EXPECT_THROW(
      (void)omega::core::stream_scan(reader, pin_options(), stream_options),
      omega::core::ResumeMismatchError);
  std::filesystem::remove(path);
}

}  // namespace
