// perfbench_probe: the C++ half of the end-to-end benchmark (README.md).
//
//   --mode host     host stamp as JSON (CPU model, LLC, ISA, perf_event)
//   --mode gen      writes a seeded ms file simulated with omega::sim
//   --mode golden   reference report: core::scan at 1 thread, in memory,
//                   popcount LD; plus brute-force spot checks of argmax
//                   windows against core::brute_force_omega
//   --mode trace    one traced run of a workload shape (serial | stream |
//                   hetero): per-layer times from the decorators in layers.h
//
// Every mode prints one JSON object on stdout. The program under test is the
// omegaplus_scan CLI; this probe only makes its inputs, its reference output
// and the per-layer attribution.

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/grid.h"
#include "core/metrics_json.h"
#include "core/omega_kernel_cpu.h"
#include "core/reference.h"
#include "core/report.h"
#include "core/scanner.h"
#include "core/stream_scanner.h"
#include "hw/hetero_profile.h"
#include "io/chunk_reader.h"
#include "io/ms_format.h"
#include "layers.h"
#include "ld/packed.h"
#include "ld/snp_matrix.h"
#include "par/thread_pool.h"
#include "sim/dataset_factory.h"
#include "util/cli.h"
#include "util/cpu_features.h"
#include "util/perf_counters.h"
#include "util/prng.h"

namespace {

using omega::core::metrics::JsonValue;
using perfbench::Clock;
using perfbench::seconds_since;

struct Shape {
  std::string input;
  std::int64_t length_bp = 0;
  omega::core::OmegaConfig config;
  std::size_t threads = 1;
  std::string work_dir;
};

Shape read_shape(const omega::util::Cli& cli) {
  Shape shape;
  shape.input = cli.get("input", "");
  if (shape.input.empty()) throw std::invalid_argument("--input is required");
  shape.length_bp = cli.get_int("length", 1'000'000);
  shape.config.grid_size = static_cast<std::size_t>(cli.get_int("grid", 1'000));
  shape.config.max_window = cli.get_int("maxwin", 200'000);
  shape.config.min_window = cli.get_int("minwin", 10'000);
  shape.threads = static_cast<std::size_t>(cli.get_int("threads", 1));
  shape.work_dir = cli.get("work-dir", ".");
  return shape;
}

omega::io::MsReadOptions ms_options(const Shape& shape) {
  omega::io::MsReadOptions options;
  options.locus_length_bp = shape.length_bp;
  return options;
}

omega::io::Dataset load_ms(const Shape& shape) {
  auto replicates = omega::io::read_ms_file(shape.input, ms_options(shape));
  if (replicates.empty()) throw std::runtime_error("ms: no replicates");
  return std::move(replicates.front());
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_scores(const std::vector<omega::core::PositionScore>& a,
                 const std::vector<omega::core::PositionScore>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t g = 0; g < a.size(); ++g) {
    if (a[g].position_bp != b[g].position_bp || a[g].valid != b[g].valid ||
        !same_bits(a[g].max_omega, b[g].max_omega) ||
        a[g].best_a != b[g].best_a || a[g].best_b != b[g].best_b ||
        a[g].evaluated != b[g].evaluated) {
      return false;
    }
  }
  return true;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Relative agreement of the spot checks with the brute-force oracle
// (DESIGN.md §5).
constexpr double kSpotCheckTolerance = 1e-4;

// Seed of every input's SNP positions; --seed varies only the genotypes.
constexpr std::uint64_t kLayoutSeed = 1;

// ---------------------------------------------------------------------------
// host / gen / golden
// ---------------------------------------------------------------------------

int run_host() {
  omega::util::perf::enable();
  const std::string perf_source = omega::util::perf::source();
  omega::util::perf::disable();
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  JsonValue host = JsonValue::object();
  host.set("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .set("cpu_model", omega::util::cpu_model())
      .set("llc_bytes", static_cast<std::int64_t>(llc > 0 ? llc : 0))
      .set("avx2_fma", omega::util::cpu_has_avx2_fma())
      .set("omega_kernel_avx2", omega::core::cpu_kernel_avx2_available())
      .set("expected_kernel",
           omega::core::cpu_kernel_name(omega::core::resolve_cpu_kernel(
               omega::core::CpuKernelKind::Auto)))
      .set("packed_ld_isa",
           omega::ld::packed_isa_name(omega::ld::PackedIsa::Auto))
      .set("perf_event", perf_source == "perf_event"
                             ? "available"
                             : "refused (thread-clock fallback)");
  std::printf("%s\n", host.dump(0).c_str());
  return 0;
}

int run_gen(const omega::util::Cli& cli) {
  omega::sim::DatasetSpec spec;
  spec.samples = static_cast<std::size_t>(cli.get_int("samples", 128));
  spec.snps = static_cast<std::size_t>(cli.get_int("snps", 1'000));
  spec.locus_length_bp = cli.get_int("length", 1'000'000);
  spec.rho = cli.get_double("rho", 50.0);
  spec.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const std::string out = cli.get("out", "");
  if (out.empty()) throw std::invalid_argument("--out is required");
  const omega::io::Dataset simulated = omega::sim::make_dataset(spec);
  // The SNP layout comes from kLayoutSeed, the genotypes from --seed. Grid
  // geometry, and with it every work count of the scan, depends only on the
  // positions, so it is the same for every seed.
  omega::sim::DatasetSpec layout_spec = spec;
  layout_spec.seed = kLayoutSeed;
  std::vector<std::vector<std::uint8_t>> sites;
  sites.reserve(simulated.num_sites());
  for (std::size_t s = 0; s < simulated.num_sites(); ++s) {
    sites.push_back(simulated.site(s));
  }
  const omega::io::Dataset dataset(
      omega::sim::make_dataset(layout_spec).positions(), std::move(sites),
      spec.locus_length_bp);
  const std::string tmp = out + ".tmp";
  omega::io::write_ms_file(tmp, {dataset}, "perfbench seed " +
                                               std::to_string(spec.seed));
  std::filesystem::rename(tmp, out);
  JsonValue doc = JsonValue::object();
  doc.set("sites", static_cast<std::uint64_t>(dataset.num_sites()))
      .set("samples", static_cast<std::uint64_t>(dataset.num_samples()))
      .set("bytes", static_cast<std::uint64_t>(std::filesystem::file_size(out)));
  std::printf("%s\n", doc.dump(0).c_str());
  return 0;
}

int run_golden(const omega::util::Cli& cli) {
  const Shape shape = read_shape(cli);
  const std::string out = cli.get("out", "");
  if (out.empty()) throw std::invalid_argument("--out is required");
  const auto spot_checks =
      static_cast<std::size_t>(cli.get_int("spot-checks", 0));

  const omega::io::Dataset dataset = load_ms(shape);
  omega::core::ScannerOptions options;
  options.config = shape.config;
  options.threads = 1;
  options.ld = omega::core::LdBackendKind::Popcount;
  const omega::core::ScanResult result = omega::core::scan(dataset, options);
  {
    const std::string tmp = out + ".tmp";
    std::ofstream file(tmp);
    omega::core::write_report(file, result);
    file.close();
    if (!file) throw std::runtime_error("cannot write " + tmp);
    std::filesystem::rename(tmp, out);
  }

  // Seeded sample of argmax windows, re-scored by the double-precision
  // brute-force oracle.
  const auto grid = omega::core::build_grid(dataset, options.config);
  std::vector<std::size_t> valid;
  for (std::size_t g = 0; g < result.scores.size(); ++g) {
    if (result.scores[g].valid) valid.push_back(g);
  }
  omega::util::Xoshiro256 rng(
      static_cast<std::uint64_t>(cli.get_int("seed", 1)) * 0x9e3779b97f4a7c15ull + 7);
  JsonValue checks = JsonValue::array();
  bool ok = !valid.empty();
  double worst = 0.0;
  for (std::size_t k = 0; k < spot_checks && !valid.empty(); ++k) {
    const std::size_t g = valid[rng.bounded(valid.size())];
    const omega::core::PositionScore& score = result.scores[g];
    const double brute = omega::core::brute_force_omega(
        dataset, score.best_a, grid[g].c, score.best_b);
    const double rel = std::abs(brute - score.max_omega) /
                       std::max(std::abs(brute), 1e-12);
    worst = std::max(worst, rel);
    ok = ok && rel <= kSpotCheckTolerance;
    JsonValue check = JsonValue::object();
    check.set("position_bp", score.position_bp)
        .set("omega", score.max_omega)
        .set("brute_force", brute)
        .set("rel_err", rel);
    checks.push_back(std::move(check));
  }
  JsonValue doc = JsonValue::object();
  doc.set("ok", ok)
      .set("valid_positions", static_cast<std::uint64_t>(valid.size()))
      .set("spot_checks", std::move(checks))
      .set("max_rel_err", worst)
      .set("tolerance", kSpotCheckTolerance);
  std::printf("%s\n", doc.dump(0).c_str());
  return ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// trace
// ---------------------------------------------------------------------------

/// Per-layer numbers of one traced run. Fields a shape cannot observe from
/// outside the program stay 0 and are named in `not_measured`.
struct LayerReport {
  double parse_s = 0.0;
  double parse_bytes = 0.0;
  std::uint64_t chunks = 0;
  double snp_pack_s = 0.0;
  double r2_block_s = 0.0;
  std::uint64_t r2_pairs = 0;
  double panel_hit_ratio = 0.0;
  double relocate_s = 0.0;
  double extend_self_s = 0.0;
  std::uint64_t cells_reused = 0;
  std::uint64_t cells_recomputed = 0;
  std::uint64_t peak_dp_bytes = 0;
  double omega_search_s = 0.0;
  std::uint64_t omega_evals = 0;
  double busy_s = 0.0;
  double idle_share = 0.0;
  std::uint64_t spans = 0;
  std::uint64_t steals = 0;
  double chunk_next_s = 0.0;
  std::uint64_t overlap_sites = 0;
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t checkpoint_writes = 0;
  double gpu_max_omega_s = 0.0;
  double fpga_max_omega_s = 0.0;
  double cpu_share = 0.0;
  std::uint64_t redispatched_positions = 0;
  double traced_wall_s = 0.0;
  double untraced_wall_s = 0.0;
  double unattributed_s = 0.0;
  std::vector<std::string> not_measured;
  JsonValue checks = JsonValue::object();
  bool ok = true;

  void check(const char* name, bool passed) {
    checks.set(name, passed);
    ok = ok && passed;
  }
};

JsonValue to_json(const LayerReport& r) {
  JsonValue m = JsonValue::object();
  m.set("io.parse_s", r.parse_s)
      .set("io.parse_mb_per_s", ratio(r.parse_bytes / 1e6, r.parse_s))
      .set("io.chunks", r.chunks)
      .set("ld.snp_pack_s", r.snp_pack_s)
      .set("ld.r2_block_s", r.r2_block_s)
      .set("ld.r2_pairs", r.r2_pairs)
      .set("ld.r2_pairs_per_s",
           ratio(static_cast<double>(r.r2_pairs), r.r2_block_s))
      .set("ld.panel_hit_ratio", r.panel_hit_ratio)
      .set("dp.relocate_s", r.relocate_s)
      .set("dp.extend_self_s", r.extend_self_s)
      .set("dp.cells_reused", r.cells_reused)
      .set("dp.cells_recomputed", r.cells_recomputed)
      .set("dp.peak_bytes", r.peak_dp_bytes)
      .set("omega.search_s", r.omega_search_s)
      .set("omega.evals", r.omega_evals)
      .set("omega.evals_per_s",
           ratio(static_cast<double>(r.omega_evals), r.omega_search_s))
      .set("sched.busy_s", r.busy_s)
      .set("sched.idle_share", r.idle_share)
      .set("sched.spans", r.spans)
      .set("sched.steals", r.steals)
      .set("stream.chunk_next_s", r.chunk_next_s)
      .set("stream.overlap_sites", r.overlap_sites)
      .set("checkpoint.bytes", r.checkpoint_bytes)
      .set("checkpoint.writes", r.checkpoint_writes)
      .set("hetero.gpu.max_omega_s", r.gpu_max_omega_s)
      .set("hetero.fpga.max_omega_s", r.fpga_max_omega_s)
      .set("hetero.cpu_share", r.cpu_share)
      .set("hetero.redispatched_positions", r.redispatched_positions)
      .set("unattributed_s", r.unattributed_s)
      .set("trace_overhead", ratio(r.traced_wall_s, r.untraced_wall_s) - 1.0);
  JsonValue not_measured = JsonValue::array();
  for (const std::string& name : r.not_measured) not_measured.push_back(name);
  JsonValue doc = JsonValue::object();
  doc.set("ok", r.ok)
      .set("checks", r.checks)
      .set("traced_wall_s", r.traced_wall_s)
      .set("untraced_wall_s", r.untraced_wall_s)
      .set("not_measured", std::move(not_measured))
      .set("metrics", std::move(m));
  return doc;
}

omega::core::ScannerOptions default_options(const Shape& shape) {
  omega::core::ScannerOptions options;
  options.config = shape.config;
  options.threads = shape.threads;
  // The CLI default: auto resolves to the packed engine.
  options.ld = omega::core::LdBackendKind::Auto;
  return options;
}

/// Times an untraced core::scan with the CLI's default options.
omega::core::ScanResult untraced_scan(const omega::io::Dataset& dataset,
                                      const omega::core::ScannerOptions& options,
                                      double& wall) {
  const Clock::time_point start = Clock::now();
  omega::core::ScanResult result = omega::core::scan(dataset, options);
  wall = seconds_since(start);
  return result;
}

/// 1-thread shapes: a replay of core::scan's 1-thread loop that calls the
/// layers directly — SnpMatrix, build_grid, DpMatrix::reset/relocate/extend
/// over a decorated PackedLd, and a decorated CpuOmegaBackend. It must score
/// bitwise like core::scan, which proves it measures the same program.
LayerReport trace_serial(const Shape& shape, bool untraced_first) {
  perfbench::Ledgers ledgers;
  LayerReport report;
  const Clock::time_point parse_start = Clock::now();
  const omega::io::Dataset dataset = load_ms(shape);
  report.parse_s = seconds_since(parse_start);
  report.parse_bytes =
      static_cast<double>(std::filesystem::file_size(shape.input));
  report.chunks = 1;

  const omega::core::ScannerOptions options = default_options(shape);
  omega::core::ScanResult reference;
  if (untraced_first) {
    reference = untraced_scan(dataset, options, report.untraced_wall_s);
  }

  std::vector<omega::core::PositionScore> scores;
  omega::core::DpMatrixStats stats;
  std::uint64_t panel_hits = 0;
  std::uint64_t panel_packs = 0;
  {
    const Clock::time_point scan_start = Clock::now();
    const omega::ld::SnpMatrix snps(dataset);
    report.snp_pack_s = seconds_since(scan_start);
    auto owned = std::make_unique<omega::ld::PackedLd>(snps);
    const omega::ld::PackedLd& packed = *owned;
    const perfbench::TimedLd engine(std::move(owned), ledgers);
    const auto grid = omega::core::build_grid(dataset, options.config);
    perfbench::TimedBackend backend(
        std::make_unique<omega::core::CpuOmegaBackend>(options.cpu_kernel),
        perfbench::kCpu, ledgers);
    perfbench::ThreadLedger& ledger = ledgers.mine();

    scores.resize(grid.size());
    omega::core::DpMatrix m;
    bool live = false;
    for (std::size_t g = 0; g < grid.size(); ++g) {
      const omega::core::GridPosition& position = grid[g];
      omega::core::PositionScore& score = scores[g];
      score.position_bp = position.position_bp;
      if (!position.valid) continue;
      Clock::time_point start = Clock::now();
      if (!live || position.lo < m.base()) {
        m.reset(position.lo);
      } else {
        m.relocate(position.lo);
      }
      report.relocate_s += seconds_since(start);
      live = true;
      const double r2_before = ledger.r2_seconds;
      start = Clock::now();
      m.extend(position.hi + 1, engine);
      report.extend_self_s +=
          seconds_since(start) - (ledger.r2_seconds - r2_before);
      const omega::core::OmegaResult result = backend.max_omega(m, position);
      score.max_omega = result.max_omega;
      score.best_a = result.best_a;
      score.best_b = result.best_b;
      score.evaluated = result.evaluated;
      score.valid = true;
    }
    report.traced_wall_s = seconds_since(scan_start);
    stats = m.stats();
    panel_hits = packed.panel_hits();
    panel_packs = packed.panel_packs();
  }
  if (!untraced_first) {
    reference = untraced_scan(dataset, options, report.untraced_wall_s);
  }

  const perfbench::ThreadLedger ledger = ledgers.snapshot().front();
  report.r2_block_s = ledger.r2_seconds;
  report.r2_pairs = ledger.r2_pairs;
  report.panel_hit_ratio = ratio(static_cast<double>(panel_hits),
                                 static_cast<double>(panel_hits + panel_packs));
  report.omega_search_s = ledger.omega_seconds[perfbench::kCpu];
  report.omega_evals = ledger.omega_evals;
  report.peak_dp_bytes = ledger.peak_dp_bytes;
  report.cells_reused = stats.cells_reused;
  report.cells_recomputed = stats.cells_recomputed;
  report.busy_s = report.snp_pack_s + report.relocate_s +
                  report.extend_self_s + report.r2_block_s +
                  report.omega_search_s;
  report.unattributed_s = report.traced_wall_s - report.busy_s;
  report.idle_share = ratio(report.unattributed_s, report.traced_wall_s);

  const omega::core::RelocationStats& reloc = reference.profile.relocation;
  report.check("replay_scores_bitwise_equal_scan",
               same_scores(scores, reference.scores));
  report.check("replay_cells_equal_scan",
               stats.cells_reused == reloc.cells_reused &&
                   stats.cells_recomputed == reloc.cells_recomputed &&
                   stats.resets == reloc.resets &&
                   stats.relocations == reloc.relocations);
  report.check("replay_evals_equal_scan",
               report.omega_evals == reference.profile.omega_evaluations);
  report.check("packed_engine",
               reference.profile.ld_backend == std::string("packed"));
  report.not_measured = {"stream.chunk_next_s", "stream.overlap_sites",
                         "checkpoint.bytes", "checkpoint.writes",
                         "hetero.gpu.max_omega_s", "hetero.fpga.max_omega_s",
                         "hetero.cpu_share", "hetero.redispatched_positions"};
  return report;
}

/// Multi-thread shapes: the thread-CPU clock of each scan worker, read by the
/// decorators at the end of its last r2/ω call, is that worker's busy time
/// (DP work between decorated calls included; blocked waits excluded).
void account_workers(const perfbench::Ledgers& ledgers,
                     const omega::core::ScanProfile& profile,
                     LayerReport& report) {
  double busiest = 0.0;
  for (const perfbench::ThreadLedger& ledger : ledgers.snapshot()) {
    report.r2_block_s += ledger.r2_seconds;
    report.r2_pairs += ledger.r2_pairs;
    report.omega_search_s += ledger.omega_seconds[perfbench::kCpu];
    report.gpu_max_omega_s += ledger.omega_seconds[perfbench::kGpu];
    report.fpga_max_omega_s += ledger.omega_seconds[perfbench::kFpga];
    report.chunk_next_s += ledger.next_seconds;
    report.chunks += ledger.next_calls;
    report.peak_dp_bytes =
        std::max<std::uint64_t>(report.peak_dp_bytes, ledger.peak_dp_bytes);
    if (!ledger.worker) continue;
    const double busy = ledger.cpu_last - ledger.cpu_baseline;
    report.busy_s += busy;
    busiest = std::max(busiest, busy);
  }
  const double workers = static_cast<double>(profile.sched.workers);
  report.idle_share = 1.0 - ratio(report.busy_s, workers * report.traced_wall_s);
  report.unattributed_s = report.traced_wall_s - busiest;
  report.spans = profile.sched.spans;
  report.steals = profile.sched.steals;
  report.cells_reused = profile.relocation.cells_reused;
  report.cells_recomputed = profile.relocation.cells_recomputed;
  report.omega_evals = profile.omega_evaluations;
  report.panel_hit_ratio =
      ratio(static_cast<double>(profile.ld.panel_hits),
            static_cast<double>(profile.ld.panel_hits + profile.ld.panel_packs));
}

decltype(omega::core::ScannerOptions::ld_factory) timed_ld_factory(
    perfbench::Ledgers& ledgers) {
  return [&ledgers](const omega::ld::SnpMatrix& snps) {
    return std::unique_ptr<omega::ld::LdEngine>(
        std::make_unique<perfbench::TimedLd>(
            std::make_unique<omega::ld::PackedLd>(snps), ledgers));
  };
}

LayerReport trace_stream(const Shape& shape, bool untraced_first) {
  perfbench::Ledgers ledgers;
  LayerReport report;
  report.parse_bytes =
      static_cast<double>(std::filesystem::file_size(shape.input));
  const omega::core::ScannerOptions options = default_options(shape);
  // chunk_sites keeps its default, the CLI's --chunk-sites default.
  omega::core::StreamScanOptions stream_options;
  stream_options.checkpoint_path = shape.work_dir + "/trace.ckpt";
  stream_options.source_path = shape.input;

  omega::core::ScanResult reference;
  const auto run_untraced = [&] {
    omega::io::MsChunkReader reader(shape.input, ms_options(shape));
    std::filesystem::remove(stream_options.checkpoint_path);
    const Clock::time_point start = Clock::now();
    reference = omega::core::stream_scan(reader, options, stream_options);
    report.untraced_wall_s = seconds_since(start);
  };
  if (untraced_first) run_untraced();

  const Clock::time_point index_start = Clock::now();
  omega::io::MsChunkReader reader(shape.input, ms_options(shape));
  const double index_s = seconds_since(index_start);
  perfbench::TimedChunkReader timed_reader(reader, ledgers);
  omega::core::ScannerOptions traced = options;
  traced.ld_factory = timed_ld_factory(ledgers);
  // The decorator is the only wrapper: with a backend factory, stream_scan
  // would otherwise add a CPU-fallback shell the default path does not have.
  traced.recovery.fallback_to_cpu = false;
  std::filesystem::remove(stream_options.checkpoint_path);
  ledgers.mine().cpu_baseline = perfbench::thread_cpu_seconds();
  const Clock::time_point start = Clock::now();
  const omega::core::ScanResult result = omega::core::stream_scan(
      timed_reader, traced, stream_options, [&ledgers] {
        return std::unique_ptr<omega::core::OmegaBackend>(
            std::make_unique<perfbench::TimedBackend>(
                std::make_unique<omega::core::CpuOmegaBackend>(),
                perfbench::kCpu, ledgers));
      });
  report.traced_wall_s = seconds_since(start);
  account_workers(ledgers, result.profile, report);
  report.parse_s = index_s + report.chunk_next_s;
  report.overlap_sites = result.profile.stream.overlap_sites;
  report.checkpoint_bytes = result.profile.runtime.checkpoint_bytes;
  report.checkpoint_writes = result.profile.runtime.checkpoints_written;

  if (!untraced_first) run_untraced();

  // SnpMatrix is built per chunk inside stream_scan; time the same
  // constructor over the same chunks, outside the traced wall.
  {
    omega::io::MsChunkReader replay(shape.input, ms_options(shape));
    const omega::core::StreamPlan plan = omega::core::plan_stream_chunks(
        replay.index().positions_bp, options.config,
        stream_options.chunk_sites);
    replay.plan(plan.site_ranges());
    while (auto chunk = replay.next()) {
      const Clock::time_point pack_start = Clock::now();
      const omega::ld::SnpMatrix snps(chunk->dataset);
      report.snp_pack_s += seconds_since(pack_start);
    }
  }

  report.check("traced_scores_bitwise_equal_untraced",
               same_scores(result.scores, reference.scores));
  report.check("packed_engine", result.profile.ld_backend == "packed" &&
                                    reference.profile.ld_backend == "packed");
  report.check("chunks_read_equal_plan",
               report.chunks == result.profile.stream.chunks);
  report.not_measured = {"dp.relocate_s", "dp.extend_self_s",
                         "hetero.gpu.max_omega_s", "hetero.fpga.max_omega_s",
                         "hetero.cpu_share", "hetero.redispatched_positions"};
  return report;
}

LayerReport trace_hetero(const Shape& shape, bool untraced_first) {
  perfbench::Ledgers ledgers;
  LayerReport report;
  const Clock::time_point parse_start = Clock::now();
  const omega::io::Dataset dataset = load_ms(shape);
  report.parse_s = seconds_since(parse_start);
  report.parse_bytes =
      static_cast<double>(std::filesystem::file_size(shape.input));
  report.chunks = 1;

  // The CLI's --backend hetero setup: default split (auto), a pool for the
  // GPU simulator, the default CPU kernel.
  omega::par::ThreadPool gpu_pool;
  omega::hw::HeteroProfileOptions profile_options;
  const omega::core::HeteroConfig plain =
      omega::hw::default_hetero_config(profile_options, gpu_pool);
  omega::core::HeteroConfig decorated = plain;
  for (omega::core::HeteroPartitionSpec& part : decorated.accelerators) {
    const perfbench::Slot slot =
        part.name.rfind("gpu", 0) == 0 ? perfbench::kGpu : perfbench::kFpga;
    part.backend_factory = [inner = part.backend_factory, slot, &ledgers] {
      return std::unique_ptr<omega::core::OmegaBackend>(
          std::make_unique<perfbench::TimedBackend>(inner(), slot, ledgers));
    };
  }

  omega::core::ScannerOptions options = default_options(shape);
  options.hetero = &plain;
  omega::core::ScanResult reference;
  const auto run_untraced = [&] {
    reference = untraced_scan(dataset, options, report.untraced_wall_s);
  };
  if (untraced_first) run_untraced();

  omega::core::ScannerOptions traced = options;
  traced.hetero = &decorated;
  traced.ld_factory = timed_ld_factory(ledgers);
  ledgers.mine().cpu_baseline = perfbench::thread_cpu_seconds();
  const Clock::time_point start = Clock::now();
  const omega::core::ScanResult result = omega::core::scan(dataset, traced);
  report.traced_wall_s = seconds_since(start);
  account_workers(ledgers, result.profile, report);
  if (!untraced_first) run_untraced();

  // scan() builds its SnpMatrix internally; time the same constructor on the
  // same dataset, outside the traced wall.
  {
    const Clock::time_point pack_start = Clock::now();
    const omega::ld::SnpMatrix snps(dataset);
    report.snp_pack_s = seconds_since(pack_start);
  }

  const omega::core::HeteroStats& hetero = result.profile.hetero;
  if (!hetero.partitions.empty()) {
    report.cpu_share =
        ratio(static_cast<double>(hetero.partitions.front().actual_positions),
              static_cast<double>(result.profile.positions_scanned));
  }
  report.redispatched_positions = hetero.redispatched_positions;

  report.check("traced_scores_bitwise_equal_untraced",
               same_scores(result.scores, reference.scores));
  report.check("packed_engine", result.profile.ld_backend == "packed" &&
                                    reference.profile.ld_backend == "packed");
  report.check("hetero_enabled", hetero.enabled && hetero.partitions.size() == 3);
  // The CPU partition's backends are built inside the hetero executor, with
  // no factory to decorate: its ω time is part of sched.busy_s only.
  report.not_measured = {"dp.relocate_s", "dp.extend_self_s",
                         "omega.search_s", "omega.evals_per_s",
                         "stream.chunk_next_s", "stream.overlap_sites",
                         "checkpoint.bytes", "checkpoint.writes"};
  return report;
}

int run_trace(const omega::util::Cli& cli) {
  const Shape shape = read_shape(cli);
  const std::string kind = cli.get("shape", "serial");
  const bool untraced_first = cli.get_bool("untraced-first", true);
  LayerReport report;
  if (kind == "serial") {
    report = trace_serial(shape, untraced_first);
  } else if (kind == "stream") {
    report = trace_stream(shape, untraced_first);
  } else if (kind == "hetero") {
    report = trace_hetero(shape, untraced_first);
  } else {
    throw std::invalid_argument("unknown --shape " + kind);
  }
  std::printf("%s\n", to_json(report).dump(0).c_str());
  return report.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  omega::util::Cli cli(argc, argv);
  cli.describe("mode", "host | gen | golden | trace")
      .describe("samples", "gen: haplotypes")
      .describe("snps", "gen: segregating sites")
      .describe("rho", "gen: recombination intensity")
      .describe("seed", "gen/golden: workload seed")
      .describe("out", "gen: ms file; golden: report file")
      .describe("input", "golden/trace: ms file")
      .describe("length", "locus length in bp")
      .describe("grid", "grid positions")
      .describe("maxwin", "maximum window in bp")
      .describe("minwin", "minimum window in bp")
      .describe("threads", "trace: scan worker threads")
      .describe("work-dir", "trace: directory for the checkpoint file")
      .describe("shape", "trace: serial | stream | hetero")
      .describe("untraced-first", "trace: run the untraced scan first")
      .describe("spot-checks", "golden: argmax windows to brute-force");
  if (cli.wants_help()) {
    std::printf("%s", cli.help_text("perfbench_probe").c_str());
    return 0;
  }
  try {
    cli.reject_unknown();
    const std::string mode = cli.get("mode", "");
    if (mode == "host") return run_host();
    if (mode == "gen") return run_gen(cli);
    if (mode == "golden") return run_golden(cli);
    if (mode == "trace") return run_trace(cli);
    throw std::invalid_argument("unknown --mode '" + mode + "'");
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_probe: %s\n", error.what());
    return 2;
  }
}
