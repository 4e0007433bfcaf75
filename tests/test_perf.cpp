// Hardware-counter profiling, measured-rate estimation, and the crash
// flight recorder: the perf_event_open wrapper's graceful degradation when
// the kernel refuses counters (stubbed syscall returning -EACCES), the
// schema v11 "perf" block derivation and its scopes==histogram-count
// reconciliation against the stage timers, the agreement of every stage's
// trace, histogram, perf and profile sinks, the RateEstimator EWMA math and
// its span-engine / hetero wiring, and the flight recorder's dump
// round-trip under manual, fault-exhaustion, and in-process SIGTERM
// triggers.

#include <gtest/gtest.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/hetero_scheduler.h"
#include "core/metrics_json.h"
#include "core/rate_estimator.h"
#include "core/scanner.h"
#include "core/stream_scanner.h"
#include "hw/device_specs.h"
#include "hw/gpu/gpu_backend.h"
#include "hw/hetero_profile.h"
#include "io/chunk_reader.h"
#include "par/thread_pool.h"
#include "sim/dataset_factory.h"
#include "util/cancel.h"
#include "util/fault.h"
#include "util/flight_recorder.h"
#include "util/perf_counters.h"
#include "util/stage.h"
#include "util/telemetry.h"
#include "util/trace.h"

namespace {

namespace perf = omega::util::perf;
namespace flight = omega::util::flight;
using omega::core::RateEstimator;
using omega::core::metrics::JsonValue;

// ---------------------------------------------------------------------------
// Fixtures / helpers
// ---------------------------------------------------------------------------

long refuse_open(std::uint32_t, std::uint64_t, int) { return -EACCES; }

/// Forces the clock-only fallback deterministically (the real syscall may or
/// may not be permitted in the test environment) and restores the real
/// syscall + disabled state afterwards.
class ForcedFallbackPerf : public ::testing::Test {
 protected:
  void SetUp() override {
    perf::set_open_fn_for_testing(&refuse_open);
    perf::reset_thread_for_testing();
    perf::enable();
  }
  void TearDown() override {
    perf::disable();
    perf::set_open_fn_for_testing(nullptr);
    perf::reset_thread_for_testing();
  }
};

omega::io::Dataset perf_dataset(std::uint64_t seed = 4242) {
  return omega::sim::make_dataset({.snps = 300,
                                   .samples = 24,
                                   .locus_length_bp = 300'000,
                                   .rho = 40.0,
                                   .seed = seed});
}

omega::core::ScannerOptions perf_options() {
  omega::core::ScannerOptions options;
  options.config.grid_size = 40;
  options.config.window_unit = omega::core::WindowUnit::Snps;
  options.config.max_window = 240;
  options.config.min_window = 30;
  return options;
}

std::uint64_t histogram_count(
    const omega::util::telemetry::RegistrySnapshot& snapshot,
    const std::string& name) {
  for (const auto& [hist_name, hist] : snapshot.histograms) {
    if (hist_name == name) return hist.count;
  }
  return 0;
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

JsonValue parse_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return JsonValue::parse(text);
}

// ---------------------------------------------------------------------------
// Counter plumbing: disabled cost, forced fallback, source reporting
// ---------------------------------------------------------------------------

TEST(PerfCounters, DisabledScopeRecordsNothing) {
  ASSERT_FALSE(perf::enabled());
  EXPECT_STREQ(perf::source(), "off");
  const auto before = omega::util::telemetry::snapshot();
  {
    static perf::StageCounters& counters = perf::stage("test.disabled_stage");
    const perf::StageScope scope(counters);
  }
  const auto delta = omega::util::telemetry::snapshot().delta_since(before);
  for (const auto& [name, value] : delta.counters) {
    if (name.rfind("perf.test.disabled_stage", 0) == 0) {
      EXPECT_EQ(value, 0u) << name;
    }
  }
  const perf::Sample sample = perf::read_thread_sample();
  EXPECT_FALSE(sample.hardware);
  EXPECT_EQ(sample.task_clock_ns, 0u);
}

TEST_F(ForcedFallbackPerf, RefusedOpenDegradesToClockFallback) {
  ASSERT_TRUE(perf::enabled());
  // The stub refused the group: fallback, not an error.
  EXPECT_STREQ(perf::source(), "fallback");

  const auto before = omega::util::telemetry::snapshot();
  volatile double sink = 0.0;
  {
    static perf::StageCounters& counters = perf::stage("test.fallback_stage");
    const perf::StageScope scope(counters);
    for (int i = 0; i < 2'000'000; ++i) sink = sink + 1.0;
  }
  const auto delta = omega::util::telemetry::snapshot().delta_since(before);

  std::uint64_t scopes = 0, cycles = 0, clock_ns = 0;
  for (const auto& [name, value] : delta.counters) {
    if (name == "perf.test.fallback_stage.scopes") scopes = value;
    if (name == "perf.test.fallback_stage.cycles") cycles = value;
    if (name == "perf.test.fallback_stage.task_clock_ns") clock_ns = value;
  }
  EXPECT_EQ(scopes, 1u);
  EXPECT_EQ(cycles, 0u);  // no hardware group under the fallback
  EXPECT_GT(clock_ns, 0u);  // but thread CPU time still accrues
}

TEST_F(ForcedFallbackPerf, SampleReportsSoftwareSource) {
  const perf::Sample sample = perf::read_thread_sample();
  EXPECT_FALSE(sample.hardware);
}

// ---------------------------------------------------------------------------
// Scan integration: the v11 "perf" block and its histogram reconciliation
// ---------------------------------------------------------------------------

TEST_F(ForcedFallbackPerf, ScanStampsPerfBlockAndReconcilesWithStageTimers) {
  const auto dataset = perf_dataset();
  const auto result = omega::core::scan(dataset, perf_options());
  const auto& perf_stats = result.profile.perf;

  ASSERT_TRUE(perf_stats.enabled);
  EXPECT_EQ(perf_stats.source, "fallback");
  ASSERT_FALSE(perf_stats.stages.empty());

  // One util::StageScope feeds each stage's perf group and its seconds
  // histogram, so in the same scan-attributed telemetry delta every
  // registered stage's scope count equals its histogram count.
  std::size_t reconciled = 0;
  for (const omega::util::Stage* stage : omega::util::stages()) {
    const std::uint64_t count =
        histogram_count(result.profile.telemetry, stage->histogram_name);
    const auto* entry = perf_stats.find(stage->name);
    if (count == 0) {  // stage never ran in this configuration
      EXPECT_EQ(entry, nullptr) << stage->name;
      continue;
    }
    ASSERT_NE(entry, nullptr) << stage->name;
    EXPECT_EQ(entry->scopes, count) << stage->name;
    EXPECT_GT(entry->task_clock_seconds, 0.0) << stage->name;
    EXPECT_EQ(entry->cycles, 0u) << stage->name;  // fallback: no hardware
    ++reconciled;
  }
  EXPECT_GE(reconciled, 5u);
  // One search per scanned position here.
  const auto* search = perf_stats.find("scan.omega_search");
  ASSERT_NE(search, nullptr);
  EXPECT_EQ(search->scopes, result.profile.positions_scanned);

  // Stages are name-sorted for stable JSON output.
  for (std::size_t i = 1; i < perf_stats.stages.size(); ++i) {
    EXPECT_LT(perf_stats.stages[i - 1].stage, perf_stats.stages[i].stage);
  }
}

// ---------------------------------------------------------------------------
// StageProbe: every stage's sinks agree, with all of them armed
// ---------------------------------------------------------------------------

class StageProbe : public ForcedFallbackPerf {
 protected:
  /// Runs `scan` with tracing armed and checks, for every registered stage,
  /// trace events == histogram samples == perf scopes in the scan's
  /// telemetry delta. Returns the stages that ran.
  template <typename Scan>
  std::set<std::string> check_sinks(const char* label, Scan&& scan) {
    namespace trace = omega::util::trace;
    trace::enable(1 << 18);
    const omega::core::ScanResult result = scan();
    trace::disable();
    const trace::TraceSnapshot events = trace::take_snapshot();
    EXPECT_EQ(events.dropped, 0u) << label;
    std::map<std::string, std::uint64_t> traced;
    for (const trace::TraceEvent& event : events.events) ++traced[event.name];

    std::set<std::string> ran;
    for (const omega::util::Stage* stage : omega::util::stages()) {
      const std::uint64_t samples =
          histogram_count(result.profile.telemetry, stage->histogram_name);
      const auto* perf_entry = result.profile.perf.find(stage->name);
      const std::uint64_t scopes = perf_entry ? perf_entry->scopes : 0;
      EXPECT_EQ(traced[stage->name], samples) << label << ' ' << stage->name;
      EXPECT_EQ(scopes, samples) << label << ' ' << stage->name;
      if (samples > 0) ran.insert(stage->name);
    }
    profile_ = result.profile;
    return ran;
  }

  /// Histogram sum of `stage` in the last checked scan.
  double seconds(const char* stage) const {
    return omega::util::stage(stage).seconds_in(profile_.telemetry);
  }

  omega::core::ScanProfile profile_;
};

TEST_F(StageProbe, SinksAgree) {
  const auto dataset = perf_dataset();
  constexpr double kTolerance = 1e-9;

  const auto streamed = check_sinks("stream", [&] {
    omega::io::DatasetChunkReader reader(dataset);
    omega::core::StreamScanOptions stream_options;
    stream_options.chunk_sites = 100;
    return omega::core::stream_scan(reader, perf_options(), stream_options);
  });
  for (const char* stage :
       {"scan.reset", "scan.extend", "scan.omega_search", "ld.pack",
        "ld.kernel", "stream.chunk_fetch", "stream.io_stall",
        "stream.chunk_scan"}) {
    EXPECT_EQ(streamed.count(stage), 1u) << stage;
  }
  const auto& stages = profile_.stages;
  const auto& stream = profile_.stream;
  ASSERT_GT(stream.chunks, 1u);
  EXPECT_NEAR(seconds("scan.reset"), stages.ld_reset_seconds, kTolerance);
  EXPECT_NEAR(seconds("scan.relocate"), stages.ld_relocate_seconds,
              kTolerance);
  EXPECT_NEAR(seconds("scan.extend"), stages.ld_extend_seconds, kTolerance);
  EXPECT_NEAR(seconds("scan.omega_search"), stages.omega_search_seconds,
              kTolerance);
  EXPECT_NEAR(seconds("stream.chunk_fetch"), stream.io_seconds, kTolerance);
  EXPECT_NEAR(seconds("stream.io_stall"), stream.io_stall_seconds, kTolerance);
  EXPECT_NEAR(seconds("stream.chunk_scan"), stream.compute_seconds,
              kTolerance);

  static omega::par::ThreadPool gpu_pool(2);
  omega::hw::HeteroProfileOptions profile_options;
  profile_options.split = omega::core::HeteroSplit::parse("1:1:1");
  const omega::core::HeteroConfig config =
      omega::hw::default_hetero_config(profile_options, gpu_pool);
  omega::core::ScannerOptions options = perf_options();
  options.threads = 4;
  options.hetero = &config;
  const auto hetero = check_sinks(
      "hetero", [&] { return omega::core::scan(dataset, options); });
  for (const char* stage : {"scan.extend", "scan.omega_search", "gpu.dispatch",
                            "fpga.dispatch"}) {
    EXPECT_EQ(hetero.count(stage), 1u) << stage;
  }
  EXPECT_NEAR(seconds("scan.reset"), profile_.stages.ld_reset_seconds,
              kTolerance);
  EXPECT_NEAR(seconds("scan.relocate"), profile_.stages.ld_relocate_seconds,
              kTolerance);
  EXPECT_NEAR(seconds("scan.extend"), profile_.stages.ld_extend_seconds,
              kTolerance);
  EXPECT_NEAR(seconds("scan.omega_search"),
              profile_.stages.omega_search_seconds, kTolerance);
  // Both accelerator backends charge the one dispatch bucket.
  EXPECT_NEAR(seconds("gpu.dispatch") + seconds("fpga.dispatch"),
              profile_.stages.dispatch_seconds, kTolerance);
}

TEST_F(ForcedFallbackPerf, MetricsDocumentCarriesPerfBlock) {
  const auto dataset = perf_dataset();
  const auto result = omega::core::scan(dataset, perf_options());
  const auto doc =
      omega::core::metrics::scan_metrics("perf-metrics", result.profile);
  const auto parsed = JsonValue::parse(doc.dump());

  EXPECT_EQ(parsed.at("schema_version").as_int(),
            omega::core::metrics::kSchemaVersion);
  const auto& perf_block = parsed.at("perf");
  EXPECT_TRUE(perf_block.at("enabled").as_bool());
  EXPECT_EQ(perf_block.at("source").as_string(), "fallback");
  const auto& stages = perf_block.at("stages").items();
  ASSERT_FALSE(stages.empty());
  for (const auto& stage : stages) {
    EXPECT_GT(stage.at("scopes").as_uint(), 0u);
    EXPECT_GE(stage.at("task_clock_seconds").as_double(), 0.0);
    // Derived ratios are present (zero under the fallback's zero counts).
    EXPECT_EQ(stage.at("ipc").as_double(), 0.0);
    EXPECT_EQ(stage.at("cache_mpki").as_double(), 0.0);
  }
}

TEST(PerfCounters, DisabledScanLeavesPerfBlockEmpty) {
  ASSERT_FALSE(perf::enabled());
  const auto dataset = perf_dataset();
  const auto result = omega::core::scan(dataset, perf_options());
  EXPECT_FALSE(result.profile.perf.enabled);
  EXPECT_TRUE(result.profile.perf.stages.empty());
  const auto doc =
      omega::core::metrics::scan_metrics("perf-off", result.profile);
  EXPECT_FALSE(doc.at("perf").at("enabled").as_bool());
  EXPECT_TRUE(doc.at("perf").at("stages").items().empty());
}

// ---------------------------------------------------------------------------
// RateEstimator: EWMA math and scheduler wiring
// ---------------------------------------------------------------------------

TEST(RateEstimator, FirstObservationSeedsThenEwmaBlends) {
  RateEstimator rate;  // alpha = 0.3
  EXPECT_EQ(rate.rate_per_s(), 0.0);
  EXPECT_EQ(rate.observations(), 0u);
  rate.observe(100, 1.0);
  EXPECT_DOUBLE_EQ(rate.rate_per_s(), 100.0);
  rate.observe(50, 1.0);
  EXPECT_DOUBLE_EQ(rate.rate_per_s(), 0.3 * 50.0 + 0.7 * 100.0);
  EXPECT_EQ(rate.observations(), 2u);
}

TEST(RateEstimator, IgnoresObservationsWithoutRateSignal) {
  RateEstimator rate;
  rate.observe(0, 1.0);      // no positions
  rate.observe(100, 0.0);    // no elapsed time
  rate.observe(100, -1.0);   // clock went backwards
  EXPECT_EQ(rate.observations(), 0u);
  EXPECT_EQ(rate.rate_per_s(), 0.0);
  rate.observe(10, 2.0);
  EXPECT_DOUBLE_EQ(rate.rate_per_s(), 5.0);
  rate.reset();
  EXPECT_EQ(rate.observations(), 0u);
  EXPECT_EQ(rate.rate_per_s(), 0.0);
}

TEST(RateEstimator, SpanEngineWorkersExposeRateGauges) {
  const auto dataset = perf_dataset(5151);
  auto options = perf_options();
  options.threads = 2;
  (void)omega::core::scan(dataset, options);
  const auto snapshot = omega::util::telemetry::snapshot();
  bool found = false;
  for (const auto& [name, value] : snapshot.gauges) {
    if (name.rfind("sched.worker", 0) == 0 &&
        name.find(".rate_per_s") != std::string::npos && value > 0.0) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << "no span-engine worker published a measured rate";
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

TEST(FlightRecorder, ManualDumpRoundTrips) {
  const std::string path = temp_path("omega_flight_manual.json");
  std::filesystem::remove(path);
  omega::util::telemetry::counter("flight.test_marker").add(7);

  flight::arm({.path = path, .max_events = 64});
  ASSERT_TRUE(flight::armed());
  EXPECT_TRUE(flight::dump("unit-test"));
  flight::disarm();
  EXPECT_FALSE(flight::armed());

  const JsonValue doc = parse_file(path);
  EXPECT_EQ(doc.at("schema").as_string(), "omega.flight");
  EXPECT_EQ(doc.at("schema_version").as_int(), 1);
  EXPECT_EQ(doc.at("reason").as_string(), "unit-test");
  EXPECT_EQ(doc.at("fault_exhaustions").as_uint(), 0u);
  // Structural blocks all present and parseable.
  EXPECT_TRUE(doc.at("trace").at("events").is_array());
  EXPECT_TRUE(doc.at("perf").at("stages").is_object());
  EXPECT_GE(doc.at("telemetry").at("counters").at("flight.test_marker")
                .as_uint(),
            7u);
  // Atomic write: no temp file left behind.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove(path);
}

TEST(FlightRecorder, DisarmedDumpRefusesQuietly) {
  ASSERT_FALSE(flight::armed());
  EXPECT_FALSE(flight::dump("nobody-listening"));
  flight::note_fault_exhausted();  // must be a no-op, not a crash
}

TEST(FlightRecorder, FaultExhaustionDumpsOnceWithScanState) {
  const std::string path = temp_path("omega_flight_exhaustion.json");
  std::filesystem::remove(path);

  // Every accelerator call fails: retries exhaust and every position
  // quarantines, so the scan driver's note_fault_exhausted() must fire.
  omega::util::fault::FaultPlan plan;
  plan.mode = omega::util::fault::FaultMode::KernelLaunch;
  plan.rate = 1.0;
  plan.seed = 99;
  omega::par::ThreadPool pool(2);
  const auto spec = omega::hw::tesla_k80();

  flight::arm({.path = path});
  const std::uint64_t dumps_before = flight::dumps_written();
  const auto result =
      omega::core::scan(perf_dataset(), perf_options(), [&] {
        omega::hw::gpu::GpuBackendOptions backend_options;
        backend_options.fault_plan = plan;
        return std::make_unique<omega::hw::gpu::GpuOmegaBackend>(
            spec, pool, backend_options);
      });
  flight::disarm();

  ASSERT_GT(result.profile.faults.quarantined_positions, 0u);
  // Exactly one dump: the first exhaustion triggers, later ones only count.
  EXPECT_EQ(flight::dumps_written(), dumps_before + 1);
  const JsonValue doc = parse_file(path);
  EXPECT_EQ(doc.at("reason").as_string(), "fault-exhaustion");
  EXPECT_GE(doc.at("fault_exhaustions").as_uint(), 1u);
  std::filesystem::remove(path);
}

TEST(FlightRecorder, SigtermDumpsThenChainsToCancelHandler) {
  // CLI ordering: cancel handlers first, then arm — so the flight handler
  // dumps and chains into the cancel token, same as a real SIGTERM drain.
  ASSERT_TRUE(omega::util::install_cancel_signal_handlers());
  omega::util::process_cancel_token().reset();

  const std::string path = temp_path("omega_flight_sigterm.json");
  std::filesystem::remove(path);
  flight::arm({.path = path});
  const std::uint64_t dumps_before = flight::dumps_written();
  std::raise(SIGTERM);
  flight::disarm();

  EXPECT_EQ(flight::dumps_written(), dumps_before + 1);
  const JsonValue doc = parse_file(path);
  EXPECT_EQ(doc.at("reason").as_string(), "signal:SIGTERM");
  // The chained cancel handler still ran: the process token is cancelled.
  EXPECT_TRUE(omega::util::process_cancel_token().cancelled());
  EXPECT_EQ(omega::util::process_cancel_token().reason(),
            omega::util::CancelReason::Signal);
  omega::util::process_cancel_token().reset();
  std::filesystem::remove(path);
}

TEST(FlightRecorder, RearmReplacesPathAndResetsExhaustionLatch) {
  const std::string first = temp_path("omega_flight_first.json");
  const std::string second = temp_path("omega_flight_second.json");
  std::filesystem::remove(first);
  std::filesystem::remove(second);

  flight::arm({.path = first});
  flight::note_fault_exhausted();  // dumps to `first`
  EXPECT_TRUE(std::filesystem::exists(first));

  flight::arm({.path = second});   // re-arm: new path, latch reset
  flight::note_fault_exhausted();  // first exhaustion since re-arm: dumps
  flight::disarm();
  EXPECT_TRUE(std::filesystem::exists(second));

  std::filesystem::remove(first);
  std::filesystem::remove(second);
}

}  // namespace
