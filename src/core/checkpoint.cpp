#include "core/checkpoint.h"

#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/hetero_scheduler.h"
#include "core/scan_driver.h"
#include "core/stream_scanner.h"

namespace omega::core {

namespace {

constexpr const char* kCheckpointSchema = "omega.scan.checkpoint";

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv1a(const std::string& text) noexcept {
  std::uint64_t hash = kFnvOffset;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kFnvPrime;
  }
  return hash;
}

/// The LD name hashed into the config summary. Auto is resolved first: a
/// checkpoint written with --ld-engine=auto must resume under an explicit
/// --ld-engine=packed (and vice versa) because they run the same engine and
/// the scores are bitwise identical either way.
const char* ld_kind_name(LdBackendKind kind) noexcept {
  return ld_backend_name(resolve_ld_backend(kind));
}

/// Doubles round-trip through the checkpoint as bit patterns (JSON doubles
/// would lose NaN payloads and the parser rejects "nan"), signed via
/// bit_cast so JsonValue's int64 carries them.
std::int64_t double_bits(double value) noexcept {
  return std::bit_cast<std::int64_t>(value);
}

double bits_double(std::int64_t bits) noexcept {
  return std::bit_cast<double>(bits);
}

metrics::JsonValue profile_totals_json(const ScanProfile& p) {
  using metrics::JsonValue;
  JsonValue totals = JsonValue::object();
  totals.set("ld_seconds", p.ld_seconds);
  totals.set("omega_seconds", p.omega_seconds);
  totals.set("total_seconds", p.total_seconds);
  totals.set("omega_evaluations", p.omega_evaluations);
  totals.set("r2_fetched", p.r2_fetched);
  totals.set("positions_scanned", p.positions_scanned);

  JsonValue stages = JsonValue::object();
  stages.set("ld_reset_seconds", p.stages.ld_reset_seconds);
  stages.set("ld_relocate_seconds", p.stages.ld_relocate_seconds);
  stages.set("ld_extend_seconds", p.stages.ld_extend_seconds);
  stages.set("omega_search_seconds", p.stages.omega_search_seconds);
  stages.set("dispatch_seconds", p.stages.dispatch_seconds);
  totals.set("stages", std::move(stages));

  JsonValue relocation = JsonValue::object();
  relocation.set("resets", p.relocation.resets);
  relocation.set("relocations", p.relocation.relocations);
  relocation.set("cells_reused", p.relocation.cells_reused);
  relocation.set("cells_recomputed", p.relocation.cells_recomputed);
  totals.set("relocation", std::move(relocation));

  JsonValue gpu = JsonValue::object();
  gpu.set("kernel1_launches", p.gpu.kernel1_launches);
  gpu.set("kernel2_launches", p.gpu.kernel2_launches);
  gpu.set("kernel1_omegas", p.gpu.kernel1_omegas);
  gpu.set("kernel2_omegas", p.gpu.kernel2_omegas);
  gpu.set("modeled_kernel_seconds", p.gpu.modeled_kernel_seconds);
  gpu.set("modeled_prep_seconds", p.gpu.modeled_prep_seconds);
  gpu.set("modeled_transfer_seconds", p.gpu.modeled_transfer_seconds);
  gpu.set("modeled_total_seconds", p.gpu.modeled_total_seconds);
  gpu.set("bytes_moved", p.gpu.bytes_moved);
  totals.set("gpu", std::move(gpu));

  JsonValue fpga = JsonValue::object();
  fpga.set("pipeline_cycles", p.fpga.pipeline_cycles);
  fpga.set("stall_cycles", p.fpga.stall_cycles);
  fpga.set("hw_omegas", p.fpga.hw_omegas);
  fpga.set("sw_omegas", p.fpga.sw_omegas);
  fpga.set("modeled_seconds", p.fpga.modeled_seconds);
  totals.set("fpga", std::move(fpga));

  JsonValue faults = JsonValue::object();
  faults.set("faults_injected", p.faults.faults_injected);
  faults.set("injected_kernel_launch", p.faults.injected_kernel_launch);
  faults.set("injected_timeout", p.faults.injected_timeout);
  faults.set("injected_nan", p.faults.injected_nan);
  faults.set("injected_device_lost", p.faults.injected_device_lost);
  faults.set("errors_caught", p.faults.errors_caught);
  faults.set("invalid_results", p.faults.invalid_results);
  faults.set("retries", p.faults.retries);
  faults.set("quarantined_positions", p.faults.quarantined_positions);
  faults.set("degradations", p.faults.degradations);
  faults.set("backoff_virtual_seconds", p.faults.backoff_virtual_seconds);
  totals.set("faults", std::move(faults));

  JsonValue kernel = JsonValue::object();
  kernel.set("positions", p.kernel.positions);
  kernel.set("scalar_evaluations", p.kernel.scalar_evaluations);
  kernel.set("portable_evaluations", p.kernel.portable_evaluations);
  kernel.set("avx2_evaluations", p.kernel.avx2_evaluations);
  totals.set("kernel", std::move(kernel));

  JsonValue stream = JsonValue::object();
  stream.set("io_seconds", p.stream.io_seconds);
  stream.set("io_stall_seconds", p.stream.io_stall_seconds);
  stream.set("compute_seconds", p.stream.compute_seconds);
  stream.set("seam_carryovers", p.stream.seam_carryovers);
  stream.set("failed_chunks", p.stream.failed_chunks);
  totals.set("stream", std::move(stream));

  JsonValue sched_detail = JsonValue::array();
  for (const SchedWorkerStats& w : p.sched.workers_detail) {
    JsonValue entry = JsonValue::array();
    entry.push_back(JsonValue(w.spans));
    entry.push_back(JsonValue(w.steals));
    entry.push_back(JsonValue(w.positions));
    entry.push_back(JsonValue(w.busy_seconds));
    sched_detail.push_back(std::move(entry));
  }
  totals.set("sched_workers", std::move(sched_detail));

  // v10: heterogeneous co-scheduler accounting. Only written when the scan
  // actually ran hetero, so cpu/mt checkpoints stay byte-compatible with the
  // pre-v10 reader.
  if (p.hetero.enabled) {
    JsonValue hetero = JsonValue::object();
    hetero.set("split", p.hetero.split);
    hetero.set("plans", p.hetero.plans);
    hetero.set("redispatched_spans", p.hetero.redispatched_spans);
    hetero.set("redispatched_positions", p.hetero.redispatched_positions);
    hetero.set("straggler_spans", p.hetero.straggler_spans);
    hetero.set("faulted_spans", p.hetero.faulted_spans);
    JsonValue partitions = JsonValue::array();
    for (const HeteroPartitionStats& part : p.hetero.partitions) {
      JsonValue entry = JsonValue::object();
      entry.set("backend", part.backend);
      entry.set("weight", part.weight);
      entry.set("planned_positions", part.planned_positions);
      entry.set("actual_positions", part.actual_positions);
      entry.set("spans", part.spans);
      entry.set("modeled_seconds", part.modeled_seconds);
      entry.set("measured_seconds", part.measured_seconds);
      // v2: measured-rate EWMA carried across resumes (latest-wins merge).
      entry.set("measured_rate_per_s", part.measured_rate_per_s);
      entry.set("rate_observations", part.rate_observations);
      partitions.push_back(std::move(entry));
    }
    hetero.set("partitions", std::move(partitions));
    totals.set("hetero", std::move(hetero));
  }

  totals.set("telemetry", metrics::telemetry_json(p.telemetry));
  return totals;
}

ScanProfile profile_totals_from_json(const metrics::JsonValue& totals) {
  ScanProfile p;
  p.ld_seconds = totals.at("ld_seconds").as_double();
  p.omega_seconds = totals.at("omega_seconds").as_double();
  p.total_seconds = totals.at("total_seconds").as_double();
  p.omega_evaluations = totals.at("omega_evaluations").as_uint();
  p.r2_fetched = totals.at("r2_fetched").as_uint();
  p.positions_scanned = totals.at("positions_scanned").as_uint();

  const auto& stages = totals.at("stages");
  p.stages.ld_reset_seconds = stages.at("ld_reset_seconds").as_double();
  p.stages.ld_relocate_seconds = stages.at("ld_relocate_seconds").as_double();
  p.stages.ld_extend_seconds = stages.at("ld_extend_seconds").as_double();
  p.stages.omega_search_seconds =
      stages.at("omega_search_seconds").as_double();
  p.stages.dispatch_seconds = stages.at("dispatch_seconds").as_double();

  const auto& relocation = totals.at("relocation");
  p.relocation.resets = relocation.at("resets").as_uint();
  p.relocation.relocations = relocation.at("relocations").as_uint();
  p.relocation.cells_reused = relocation.at("cells_reused").as_uint();
  p.relocation.cells_recomputed = relocation.at("cells_recomputed").as_uint();

  const auto& gpu = totals.at("gpu");
  p.gpu.kernel1_launches = gpu.at("kernel1_launches").as_uint();
  p.gpu.kernel2_launches = gpu.at("kernel2_launches").as_uint();
  p.gpu.kernel1_omegas = gpu.at("kernel1_omegas").as_uint();
  p.gpu.kernel2_omegas = gpu.at("kernel2_omegas").as_uint();
  p.gpu.modeled_kernel_seconds = gpu.at("modeled_kernel_seconds").as_double();
  p.gpu.modeled_prep_seconds = gpu.at("modeled_prep_seconds").as_double();
  p.gpu.modeled_transfer_seconds =
      gpu.at("modeled_transfer_seconds").as_double();
  p.gpu.modeled_total_seconds = gpu.at("modeled_total_seconds").as_double();
  p.gpu.bytes_moved = gpu.at("bytes_moved").as_uint();

  const auto& fpga = totals.at("fpga");
  p.fpga.pipeline_cycles = fpga.at("pipeline_cycles").as_uint();
  p.fpga.stall_cycles = fpga.at("stall_cycles").as_uint();
  p.fpga.hw_omegas = fpga.at("hw_omegas").as_uint();
  p.fpga.sw_omegas = fpga.at("sw_omegas").as_uint();
  p.fpga.modeled_seconds = fpga.at("modeled_seconds").as_double();

  const auto& faults = totals.at("faults");
  p.faults.faults_injected = faults.at("faults_injected").as_uint();
  p.faults.injected_kernel_launch =
      faults.at("injected_kernel_launch").as_uint();
  p.faults.injected_timeout = faults.at("injected_timeout").as_uint();
  p.faults.injected_nan = faults.at("injected_nan").as_uint();
  p.faults.injected_device_lost =
      faults.at("injected_device_lost").as_uint();
  p.faults.errors_caught = faults.at("errors_caught").as_uint();
  p.faults.invalid_results = faults.at("invalid_results").as_uint();
  p.faults.retries = faults.at("retries").as_uint();
  p.faults.quarantined_positions =
      faults.at("quarantined_positions").as_uint();
  p.faults.degradations = faults.at("degradations").as_uint();
  p.faults.backoff_virtual_seconds =
      faults.at("backoff_virtual_seconds").as_double();

  const auto& kernel = totals.at("kernel");
  p.kernel.positions = kernel.at("positions").as_uint();
  p.kernel.scalar_evaluations = kernel.at("scalar_evaluations").as_uint();
  p.kernel.portable_evaluations =
      kernel.at("portable_evaluations").as_uint();
  p.kernel.avx2_evaluations = kernel.at("avx2_evaluations").as_uint();

  const auto& stream = totals.at("stream");
  p.stream.io_seconds = stream.at("io_seconds").as_double();
  p.stream.io_stall_seconds = stream.at("io_stall_seconds").as_double();
  p.stream.compute_seconds = stream.at("compute_seconds").as_double();
  p.stream.seam_carryovers = stream.at("seam_carryovers").as_uint();
  p.stream.failed_chunks = stream.at("failed_chunks").as_uint();

  for (const auto& entry : totals.at("sched_workers").items()) {
    const auto& fields = entry.items();
    if (fields.size() != 4) {
      throw std::runtime_error("checkpoint: malformed sched_workers entry");
    }
    SchedWorkerStats w;
    w.spans = fields[0].as_uint();
    w.steals = fields[1].as_uint();
    w.positions = fields[2].as_uint();
    w.busy_seconds = fields[3].as_double();
    p.sched.workers_detail.push_back(w);
  }

  // Optional (absent in pre-v10 checkpoints and in cpu/mt runs).
  if (const auto* hetero = totals.find("hetero")) {
    p.hetero.enabled = true;
    p.hetero.split = hetero->at("split").as_string();
    p.hetero.plans = hetero->at("plans").as_uint();
    p.hetero.redispatched_spans = hetero->at("redispatched_spans").as_uint();
    p.hetero.redispatched_positions =
        hetero->at("redispatched_positions").as_uint();
    p.hetero.straggler_spans = hetero->at("straggler_spans").as_uint();
    p.hetero.faulted_spans = hetero->at("faulted_spans").as_uint();
    for (const auto& entry : hetero->at("partitions").items()) {
      HeteroPartitionStats part;
      part.backend = entry.at("backend").as_string();
      part.weight = entry.at("weight").as_double();
      part.planned_positions = entry.at("planned_positions").as_uint();
      part.actual_positions = entry.at("actual_positions").as_uint();
      part.spans = entry.at("spans").as_uint();
      part.modeled_seconds = entry.at("modeled_seconds").as_double();
      part.measured_seconds = entry.at("measured_seconds").as_double();
      part.measured_rate_per_s = entry.at("measured_rate_per_s").as_double();
      part.rate_observations = entry.at("rate_observations").as_uint();
      p.hetero.partitions.push_back(std::move(part));
    }
  }

  p.telemetry = metrics::telemetry_from_json(totals.at("telemetry"));
  return p;
}

}  // namespace

std::string scan_config_summary(const ScannerOptions& options,
                                std::size_t chunk_sites,
                                const std::string& backend_name) {
  std::ostringstream out;
  out << "grid=" << options.config.grid_size << " unit="
      << (options.config.window_unit == WindowUnit::BasePairs ? "bp" : "snps")
      << " maxwin=" << options.config.max_window
      << " minwin=" << options.config.min_window
      << " cap=" << options.config.max_snps_per_side
      << " ld=" << (options.ld_factory ? "custom" : ld_kind_name(options.ld))
      << " reuse=" << (options.reuse ? 1 : 0)
      << " retries=" << options.recovery.max_retries
      << " validate=" << (options.recovery.validate_results ? 1 : 0)
      << " fallback=" << (options.recovery.fallback_to_cpu ? 1 : 0)
      << " chunk_sites=" << chunk_sites << " backend=" << backend_name;
  return out.str();
}

std::uint64_t scan_config_hash(const ScannerOptions& options,
                               std::size_t chunk_sites,
                               const std::string& backend_name) {
  return fnv1a(scan_config_summary(options, chunk_sites, backend_name));
}

metrics::JsonValue checkpoint_to_json(const ScanCheckpoint& ckpt) {
  using metrics::JsonValue;
  JsonValue doc = JsonValue::object();
  doc.set("schema", kCheckpointSchema);
  doc.set("schema_version", ScanCheckpoint::kVersion);

  JsonValue fp = JsonValue::object();
  fp.set("source", ckpt.fingerprint.source);
  fp.set("source_bytes", ckpt.fingerprint.source_bytes);
  fp.set("num_sites", ckpt.fingerprint.num_sites);
  fp.set("num_samples", ckpt.fingerprint.num_samples);
  fp.set("locus_length_bp", ckpt.fingerprint.locus_length_bp);
  fp.set("positions_hash",
         static_cast<std::int64_t>(ckpt.fingerprint.positions_hash));
  fp.set("has_missing", ckpt.fingerprint.has_missing);
  doc.set("fingerprint", std::move(fp));

  doc.set("config_hash", static_cast<std::int64_t>(ckpt.config_hash));
  doc.set("config_summary", ckpt.config_summary);
  doc.set("chunks_total", ckpt.chunks_total);
  doc.set("chunks_completed", ckpt.chunks_completed);
  doc.set("grid_size", ckpt.grid_size);
  doc.set("grid_committed", ckpt.grid_committed);

  JsonValue scores = JsonValue::array();
  for (const PositionScore& score : ckpt.scores) {
    JsonValue entry = JsonValue::array();
    entry.push_back(JsonValue(score.position_bp));
    entry.push_back(JsonValue(double_bits(score.max_omega)));
    entry.push_back(JsonValue(static_cast<std::uint64_t>(score.best_a)));
    entry.push_back(JsonValue(static_cast<std::uint64_t>(score.best_b)));
    entry.push_back(JsonValue(score.evaluated));
    entry.push_back(
        JsonValue(score.quarantined ? 2 : (score.valid ? 1 : 0)));
    scores.push_back(std::move(entry));
  }
  doc.set("scores", std::move(scores));
  doc.set("totals", profile_totals_json(ckpt.totals));
  return doc;
}

ScanCheckpoint checkpoint_from_json(const metrics::JsonValue& doc) {
  ScanCheckpoint ckpt;
  const auto* schema = doc.find("schema");
  if (schema == nullptr || schema->as_string() != kCheckpointSchema) {
    throw std::runtime_error("checkpoint: not an " +
                             std::string(kCheckpointSchema) + " document");
  }
  const std::int64_t version = doc.at("schema_version").as_int();
  if (version != ScanCheckpoint::kVersion) {
    throw std::runtime_error("checkpoint: version " + std::to_string(version) +
                             " is not the supported version " +
                             std::to_string(ScanCheckpoint::kVersion));
  }

  const auto& fp = doc.at("fingerprint");
  ckpt.fingerprint.source = fp.at("source").as_string();
  ckpt.fingerprint.source_bytes = fp.at("source_bytes").as_uint();
  ckpt.fingerprint.num_sites = fp.at("num_sites").as_uint();
  ckpt.fingerprint.num_samples = fp.at("num_samples").as_uint();
  ckpt.fingerprint.locus_length_bp = fp.at("locus_length_bp").as_int();
  ckpt.fingerprint.positions_hash =
      static_cast<std::uint64_t>(fp.at("positions_hash").as_int());
  ckpt.fingerprint.has_missing = fp.at("has_missing").as_bool();

  ckpt.config_hash =
      static_cast<std::uint64_t>(doc.at("config_hash").as_int());
  ckpt.config_summary = doc.at("config_summary").as_string();
  ckpt.chunks_total = doc.at("chunks_total").as_uint();
  ckpt.chunks_completed = doc.at("chunks_completed").as_uint();
  ckpt.grid_size = doc.at("grid_size").as_uint();
  ckpt.grid_committed = doc.at("grid_committed").as_uint();

  for (const auto& entry : doc.at("scores").items()) {
    const auto& fields = entry.items();
    if (fields.size() != 6) {
      throw std::runtime_error("checkpoint: malformed score entry");
    }
    PositionScore score;
    score.position_bp = fields[0].as_int();
    score.max_omega = bits_double(fields[1].as_int());
    score.best_a = static_cast<std::size_t>(fields[2].as_uint());
    score.best_b = static_cast<std::size_t>(fields[3].as_uint());
    score.evaluated = fields[4].as_uint();
    const std::int64_t state = fields[5].as_int();
    score.valid = state == 1;
    score.quarantined = state == 2;
    ckpt.scores.push_back(score);
  }
  if (ckpt.scores.size() != ckpt.grid_committed) {
    throw std::runtime_error(
        "checkpoint: grid_committed does not match the stored score count");
  }
  if (ckpt.chunks_completed > ckpt.chunks_total ||
      ckpt.grid_committed > ckpt.grid_size) {
    throw std::runtime_error("checkpoint: cursor exceeds the stored totals");
  }
  ckpt.totals = profile_totals_from_json(doc.at("totals"));
  return ckpt;
}

std::uint64_t write_checkpoint(const std::string& path,
                               const ScanCheckpoint& ckpt) {
  const std::string text = checkpoint_to_json(ckpt).dump() + "\n";
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("checkpoint: cannot open " + tmp);
    }
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    out.flush();
    if (!out) {
      throw std::runtime_error("checkpoint: write failed for " + tmp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp);
    throw std::runtime_error("checkpoint: rename to " + path +
                             " failed: " + ec.message());
  }
  return static_cast<std::uint64_t>(text.size());
}

ScanCheckpoint load_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("checkpoint: cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  metrics::JsonValue doc;
  try {
    doc = metrics::JsonValue::parse(buffer.str());
  } catch (const std::exception& error) {
    throw std::runtime_error("checkpoint: " + path +
                             " is not valid JSON: " + error.what());
  }
  return checkpoint_from_json(doc);
}

void restore_profile_totals(ScanProfile& profile, const ScanProfile& totals) {
  detail::merge_worker_profile(profile, totals);
  merge_hetero_stats(profile.hetero, totals.hetero);
  profile.total_seconds += totals.total_seconds;
  profile.stream.io_seconds += totals.stream.io_seconds;
  profile.stream.io_stall_seconds += totals.stream.io_stall_seconds;
  profile.stream.compute_seconds += totals.stream.compute_seconds;
  profile.stream.failed_chunks += totals.stream.failed_chunks;
  if (profile.sched.workers_detail.size() <
      totals.sched.workers_detail.size()) {
    profile.sched.workers_detail.resize(totals.sched.workers_detail.size());
  }
  for (std::size_t w = 0; w < totals.sched.workers_detail.size(); ++w) {
    const SchedWorkerStats& from = totals.sched.workers_detail[w];
    SchedWorkerStats& into = profile.sched.workers_detail[w];
    into.spans += from.spans;
    into.steals += from.steals;
    into.positions += from.positions;
    into.busy_seconds += from.busy_seconds;
  }
  profile.sched.spans = 0;
  profile.sched.steals = 0;
  for (const SchedWorkerStats& w : profile.sched.workers_detail) {
    profile.sched.spans += w.spans;
    profile.sched.steals += w.steals;
  }
}

}  // namespace omega::core
