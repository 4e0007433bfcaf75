#include "core/checkpoint.h"

#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

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
  JsonValue totals = JsonValue::object();
  metrics::write_profile_blocks(totals, ckpt.totals);
  totals.set("telemetry", metrics::telemetry_json(ckpt.totals.telemetry));
  doc.set("totals", std::move(totals));
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
    throw ResumeMismatchError(
        "checkpoint: version " + std::to_string(version) +
        " is not the supported version " +
        std::to_string(ScanCheckpoint::kVersion) +
        " (written by another build; rerun without --resume)");
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
  const auto& totals = doc.at("totals");
  metrics::read_profile_blocks(totals, ckpt.totals);
  ckpt.totals.telemetry = metrics::telemetry_from_json(totals.at("telemetry"));
  return ckpt;
}

std::uint64_t write_checkpoint(const std::string& path,
                               const ScanCheckpoint& ckpt) {
  const std::string text = checkpoint_to_json(ckpt).dump(0) + "\n";
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

}  // namespace omega::core
