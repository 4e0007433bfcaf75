// Tests for the scan observability layer: the JsonValue document model
// (serialize + parse round-trips), the util/trace.h span recorder, the
// "omega.scan.metrics" schema builder, and — end to end — detect_sweeps on
// every backend with the per-stage / per-backend counters validated against
// the exact workload analysis (ground truth computed from SNP positions
// alone, independently of the scan path).

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "core/metrics_json.h"
#include "core/scanner.h"
#include "core/workload.h"
#include "hw/device_specs.h"
#include "hw/gpu/timing_model.h"
#include "io/dataset.h"
#include "sim/dataset_factory.h"
#include "sweep/detector.h"
#include "util/trace.h"

namespace {

using omega::core::metrics::JsonValue;

omega::io::Dataset metrics_dataset() {
  return omega::sim::make_dataset({.snps = 600,
                                   .samples = 40,
                                   .locus_length_bp = 500'000,
                                   .rho = 60.0,
                                   .seed = 4321});
}

omega::core::OmegaConfig metrics_config() {
  omega::core::OmegaConfig config;
  config.grid_size = 24;
  config.window_unit = omega::core::WindowUnit::Snps;
  config.max_window = 400;
  config.min_window = 60;
  return config;
}

// ---------------------------------------------------------------------------
// JsonValue document model
// ---------------------------------------------------------------------------

TEST(MetricsJson, ScalarKindsAreDistinct) {
  EXPECT_EQ(JsonValue(std::int64_t{7}).kind(), JsonValue::Kind::Int);
  EXPECT_EQ(JsonValue(7.0).kind(), JsonValue::Kind::Double);
  EXPECT_EQ(JsonValue(true).kind(), JsonValue::Kind::Bool);
  EXPECT_EQ(JsonValue("x").kind(), JsonValue::Kind::String);
  EXPECT_EQ(JsonValue().kind(), JsonValue::Kind::Null);

  // Kinds survive the wire: integers must not come back as doubles.
  EXPECT_EQ(JsonValue::parse("7").kind(), JsonValue::Kind::Int);
  EXPECT_EQ(JsonValue::parse("7.0").kind(), JsonValue::Kind::Double);
  EXPECT_EQ(JsonValue(7.0).dump(0), "7.0");
}

TEST(MetricsJson, DumpParseRoundTripsExactly) {
  auto doc = JsonValue::object();
  doc.set("name", "scan-1")
      .set("count", std::uint64_t{9'007'199'254'740'993ull})  // > 2^53
      .set("negative", std::int64_t{-42})
      .set("pi", 3.141592653589793)
      .set("tiny", 4.9406564584124654e-324)
      .set("flag", true)
      .set("nothing", JsonValue())
      .set("escaped", std::string("line\nbreak \"quoted\" tab\t\x01 end"));
  auto inner = JsonValue::array();
  inner.push_back(1);
  inner.push_back(2.5);
  inner.push_back(JsonValue::object().set("k", "v"));
  doc.set("items", std::move(inner));

  for (const int indent : {0, 2, 4}) {
    const auto reparsed = JsonValue::parse(doc.dump(indent));
    EXPECT_EQ(reparsed, doc) << "indent " << indent;
  }
  // Round-trip is idempotent at the text level too.
  EXPECT_EQ(JsonValue::parse(doc.dump()).dump(), doc.dump());
}

TEST(MetricsJson, ParserRejectsMalformedInput) {
  EXPECT_THROW((void)JsonValue::parse(""), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse("{"), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse("[1,]"), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse("{\"a\":1,}"), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse("{\"a\" 1}"), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse("nul"), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse("1 2"), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse("\"unterminated"), std::runtime_error);
}

TEST(MetricsJson, UnicodeEscapesDecode) {
  const auto value = JsonValue::parse("\"a\\u00e9\\u4e2d\"");
  EXPECT_EQ(value.as_string(), "a\xc3\xa9\xe4\xb8\xad");  // é + U+4E2D
}

// ---------------------------------------------------------------------------
// Trace spans
// ---------------------------------------------------------------------------

TEST(Trace, DisabledSpansRecordNothing) {
  omega::util::trace::disable();
  const auto before = omega::util::trace::recorded();
  {
    const omega::util::trace::Span span("test.disabled");
  }
  EXPECT_EQ(omega::util::trace::recorded(), before);
}

TEST(Trace, EnabledSpansRecordAndRingWraps) {
  omega::util::trace::enable(/*capacity=*/4);
  EXPECT_TRUE(omega::util::trace::enabled());
  for (int i = 0; i < 6; ++i) {
    const omega::util::trace::Span span("test.span");
  }
  EXPECT_EQ(omega::util::trace::recorded(), 6u);
  const auto events = omega::util::trace::snapshot();
  ASSERT_EQ(events.size(), 4u);  // ring capacity bounds memory
  for (const auto& event : events) {
    EXPECT_STREQ(event.name, "test.span");
    EXPECT_GE(event.start_s, 0.0);
    EXPECT_GE(event.duration_s, 0.0);
  }
  omega::util::trace::disable();
  EXPECT_FALSE(omega::util::trace::enabled());
}

TEST(Trace, ScanEmitsStageSpans) {
  omega::util::trace::enable();
  omega::core::ScannerOptions options;
  options.config = metrics_config();
  (void)omega::core::scan(metrics_dataset(), options);
  omega::util::trace::disable();

  bool saw_scan = false, saw_extend = false, saw_search = false, saw_ld = false;
  for (const auto& event : omega::util::trace::snapshot()) {
    const std::string name = event.name;
    saw_scan |= name == "scan";
    saw_extend |= name == "scan.extend";
    saw_search |= name == "scan.omega_search";
    saw_ld |= name == "ld.packed.r2_block";  // the default LD engine
  }
  EXPECT_TRUE(saw_scan);
  EXPECT_TRUE(saw_extend);
  EXPECT_TRUE(saw_search);
  EXPECT_TRUE(saw_ld);
}

// ---------------------------------------------------------------------------
// Scan metrics schema + end-to-end per-backend validation
// ---------------------------------------------------------------------------

TEST(ScanMetrics, SchemaDocumentRoundTrips) {
  omega::core::ScannerOptions options;
  options.config = metrics_config();
  const auto result = omega::core::scan(metrics_dataset(), options);

  const auto doc = omega::core::metrics::scan_metrics("unit", result.profile);
  EXPECT_EQ(doc.at("schema").as_string(), omega::core::metrics::kScanSchema);
  EXPECT_EQ(doc.at("schema_version").as_int(),
            omega::core::metrics::kSchemaVersion);
  EXPECT_EQ(doc.at("name").as_string(), "unit");
  EXPECT_EQ(doc.at("ld_backend").as_string(), "packed");
  EXPECT_EQ(doc.at("backend").as_string(), "cpu");

  // Counters round-trip exactly (Int kind, not Double).
  const auto& counters = doc.at("counters");
  EXPECT_EQ(counters.at("omega_evaluations").as_uint(),
            result.profile.omega_evaluations);
  EXPECT_EQ(counters.at("r2_fetched").as_uint(), result.profile.r2_fetched);
  EXPECT_EQ(counters.at("positions_scanned").as_uint(),
            result.profile.positions_scanned);

  // A healthy scan reports an all-zero fault-recovery block (schema v3).
  const auto& faults = doc.at("faults");
  EXPECT_EQ(faults.at("injected").as_uint(), 0u);
  EXPECT_EQ(faults.at("errors_caught").as_uint(), 0u);
  EXPECT_EQ(faults.at("retries").as_uint(), 0u);
  EXPECT_EQ(faults.at("quarantined_positions").as_uint(), 0u);
  EXPECT_EQ(faults.at("degradations").as_uint(), 0u);
  EXPECT_EQ(faults.at("backoff_virtual_seconds").as_double(), 0.0);

  // Schema v7: a serial scan is the one-worker layout of the executor — one
  // active worker that never steals and scored every position.
  const auto& sched = doc.at("sched");
  EXPECT_EQ(sched.at("requested_threads").as_uint(), 1u);
  EXPECT_EQ(sched.at("workers").as_uint(), 1u);
  EXPECT_EQ(sched.at("spans").as_uint(), result.profile.sched.spans);
  EXPECT_EQ(sched.at("steals").as_uint(), 0u);
  EXPECT_EQ(sched.at("active_workers").as_uint(), 1u);
  const auto& detail = sched.at("workers_detail").items();
  ASSERT_EQ(detail.size(), 1u);
  EXPECT_EQ(detail[0].at("positions").as_uint(),
            result.profile.positions_scanned);

  const auto reparsed = JsonValue::parse(doc.dump());
  EXPECT_EQ(reparsed, doc);
  EXPECT_EQ(reparsed.at("counters").at("omega_evaluations").as_uint(),
            result.profile.omega_evaluations);
}

TEST(ScanMetrics, SchedBlockSerializesPerWorkerDetail) {
  omega::core::ScannerOptions options;
  options.config = metrics_config();
  options.threads = 3;
  const auto result = omega::core::scan(metrics_dataset(), options);

  const auto doc = omega::core::metrics::scan_metrics("unit", result.profile);
  const auto& sched = doc.at("sched");
  EXPECT_EQ(sched.at("requested_threads").as_uint(), 3u);
  EXPECT_EQ(sched.at("workers").as_uint(), 3u);
  EXPECT_EQ(sched.at("spans").as_uint(), result.profile.sched.spans);
  const auto& detail = sched.at("workers_detail").items();
  ASSERT_EQ(detail.size(), 3u);
  std::uint64_t spans = 0;
  for (const auto& worker : detail) {
    spans += worker.at("spans").as_uint();
    EXPECT_GE(worker.at("busy_seconds").as_double(), 0.0);
  }
  EXPECT_EQ(spans, result.profile.sched.spans);
  EXPECT_EQ(JsonValue::parse(doc.dump()), doc);
}

struct BackendCase {
  omega::sweep::Backend backend;
  const char* label;
  bool single_worker;
};

class DetectSweepsMetrics : public ::testing::TestWithParam<BackendCase> {};

TEST_P(DetectSweepsMetrics, CountersMatchWorkloadGroundTruth) {
  const auto& param = GetParam();
  const auto dataset = metrics_dataset();
  const auto config = metrics_config();

  omega::sweep::DetectorOptions options;
  options.config = config;
  options.backend = param.backend;
  options.threads = 3;
  const auto report = omega::sweep::detect_sweeps(dataset, options);
  const auto& profile = report.profile;

  // Ground truth from position analysis alone (never touches the scan path).
  const auto workload = omega::core::analyze_workload(dataset, config);
  std::uint64_t valid_positions = 0;
  for (const auto& position : workload.positions) {
    if (position.geometry.valid) ++valid_positions;
  }

  EXPECT_EQ(profile.omega_evaluations, workload.total_combinations)
      << param.label;
  EXPECT_EQ(profile.positions_scanned, valid_positions) << param.label;
  // Every evaluated position either reset or relocated M — exactly once.
  EXPECT_EQ(profile.relocation.resets + profile.relocation.relocations,
            profile.positions_scanned)
      << param.label;
  EXPECT_GT(profile.relocation.relocations, 0u) << param.label;

  if (param.single_worker) {
    // One DP matrix walking the grid start to end: the r2 fetch count is
    // exactly the workload's with-reuse prediction.
    EXPECT_EQ(profile.r2_fetched, workload.total_r2_with_reuse) << param.label;
  } else {
    // Chunked workers each rebuild M at their chunk start: never fewer
    // fetches than the single-matrix walk, never more than no-reuse.
    EXPECT_GE(profile.r2_fetched, workload.total_r2_with_reuse) << param.label;
    EXPECT_LE(profile.r2_fetched, workload.total_r2_without_reuse)
        << param.label;
  }

  // Stage times: the v2 buckets are the legacy buckets, refined.
  const auto& stages = profile.stages;
  EXPECT_NEAR(stages.ld_total(), profile.ld_seconds, 1e-12) << param.label;
  EXPECT_NEAR(stages.omega_search_seconds, profile.omega_seconds, 1e-12)
      << param.label;
  EXPECT_GT(stages.sum(), 0.0) << param.label;
  EXPECT_LE(stages.dispatch_seconds, stages.omega_search_seconds + 1e-9)
      << param.label;
  if (param.single_worker) {
    // Single worker: bucket times are wall-clock slices of the scan, so they
    // can't exceed (and should dominate) the total.
    EXPECT_LE(stages.sum(), profile.total_seconds + 1e-6) << param.label;
  }

  // Backend-specific accelerator counters.
  if (param.backend == omega::sweep::Backend::GpuSim) {
    const auto spec = omega::hw::tesla_k80();
    std::uint64_t expect_k1 = 0, expect_k2 = 0;
    std::uint64_t expect_k1_omegas = 0, expect_k2_omegas = 0;
    for (const auto& position : workload.positions) {
      if (position.combinations == 0) continue;
      if (omega::hw::gpu::dispatch(spec, position.combinations) ==
          omega::hw::gpu::KernelChoice::Kernel1) {
        ++expect_k1;
        expect_k1_omegas += position.combinations;
      } else {
        ++expect_k2;
        expect_k2_omegas += position.combinations;
      }
    }
    EXPECT_EQ(profile.gpu.kernel1_launches, expect_k1);
    EXPECT_EQ(profile.gpu.kernel2_launches, expect_k2);
    EXPECT_EQ(profile.gpu.kernel1_omegas, expect_k1_omegas);
    EXPECT_EQ(profile.gpu.kernel2_omegas, expect_k2_omegas);
    EXPECT_EQ(profile.gpu.kernel1_omegas + profile.gpu.kernel2_omegas,
              profile.omega_evaluations);
    EXPECT_GT(profile.gpu.modeled_total_seconds, 0.0);
    EXPECT_GT(profile.gpu.bytes_moved, 0u);
    EXPECT_GT(profile.stages.dispatch_seconds, 0.0);
  } else {
    EXPECT_EQ(profile.gpu.kernel1_launches + profile.gpu.kernel2_launches, 0u)
        << param.label;
  }
  if (param.backend == omega::sweep::Backend::FpgaSim) {
    EXPECT_EQ(profile.fpga.hw_omegas + profile.fpga.sw_omegas,
              profile.omega_evaluations);
    EXPECT_GT(profile.fpga.pipeline_cycles, 0u);
    EXPECT_GT(profile.fpga.modeled_seconds, 0.0);
  } else {
    EXPECT_EQ(profile.fpga.hw_omegas + profile.fpga.sw_omegas, 0u)
        << param.label;
  }

  // The report's JSON document reflects the same counters and round-trips.
  const auto doc = JsonValue::parse(report.metrics_json(param.label));
  EXPECT_EQ(doc.at("schema").as_string(), omega::core::metrics::kScanSchema);
  EXPECT_EQ(doc.at("counters").at("omega_evaluations").as_uint(),
            profile.omega_evaluations);
  EXPECT_EQ(doc.at("relocation").at("resets").as_uint(),
            profile.relocation.resets);
  EXPECT_EQ(doc.at("gpu").at("kernel1_omegas").as_uint(),
            profile.gpu.kernel1_omegas);
  EXPECT_EQ(doc.at("fpga").at("hw_omegas").as_uint(), profile.fpga.hw_omegas);
  EXPECT_EQ(JsonValue::parse(doc.dump()), doc);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, DetectSweepsMetrics,
    ::testing::Values(
        BackendCase{omega::sweep::Backend::Cpu, "cpu", true},
        BackendCase{omega::sweep::Backend::CpuThreaded, "cpu-mt", false},
        BackendCase{omega::sweep::Backend::GpuSim, "gpu-sim", true},
        BackendCase{omega::sweep::Backend::FpgaSim, "fpga-sim", true}),
    [](const ::testing::TestParamInfo<BackendCase>& info) {
      std::string name = info.param.label;
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(ScanMetrics, WriteMetricsJsonProducesParseableFile) {
  omega::sweep::DetectorOptions options;
  options.config = metrics_config();
  const auto report = omega::sweep::detect_sweeps(metrics_dataset(), options);

  const auto path =
      std::filesystem::temp_directory_path() / "omega_metrics_test.json";
  report.write_metrics_json(path.string(), "file-test");

  std::string text;
  {
    std::FILE* file = std::fopen(path.string().c_str(), "rb");
    ASSERT_NE(file, nullptr);
    char buffer[4096];
    std::size_t n = 0;
    while ((n = std::fread(buffer, 1, sizeof buffer, file)) > 0) {
      text.append(buffer, n);
    }
    std::fclose(file);
  }
  std::filesystem::remove(path);

  const auto doc = JsonValue::parse(text);
  EXPECT_EQ(doc.at("name").as_string(), "file-test");
  EXPECT_EQ(doc.at("counters").at("omega_evaluations").as_uint(),
            report.profile.omega_evaluations);
}

}  // namespace
