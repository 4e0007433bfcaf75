#pragma once
// JSON metrics exporter for the scan observability layer. Two halves:
//
//   * JsonValue — a minimal ordered JSON document model with a serializer
//     and a strict parser, enough to emit the stable metrics schema and to
//     round-trip it in tests (no third-party JSON dependency);
//   * schema builders — scan_metrics() turns a ScanProfile v2 into the
//     documented "omega.scan.metrics" document; trace_to_json() exports the
//     util/trace.h ring buffer.
//
// The schema is consumed by bench_common (every bench target writes a
// BENCH_<name>.json) and by the CLI's --metrics-json flag; docs/METRICS.md
// documents every field. Bump kSchemaVersion when a field changes meaning.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/scanner.h"
#include "util/telemetry.h"
#include "util/trace.h"

namespace omega::core::metrics {

inline constexpr int kSchemaVersion = 11;
inline constexpr const char* kScanSchema = "omega.scan.metrics";
inline constexpr const char* kBenchSchema = "omega.bench";

/// Ordered JSON document: objects preserve insertion order so emitted files
/// are stable and diffable. Integers are kept distinct from doubles so
/// counters round-trip exactly.
class JsonValue {
 public:
  enum class Kind { Null, Bool, Int, Double, String, Array, Object };

  JsonValue() = default;
  JsonValue(bool value) : kind_(Kind::Bool), bool_(value) {}
  JsonValue(std::int64_t value) : kind_(Kind::Int), int_(value) {}
  JsonValue(std::uint64_t value)
      : kind_(Kind::Int), int_(static_cast<std::int64_t>(value)) {}
  JsonValue(int value) : kind_(Kind::Int), int_(value) {}
  JsonValue(double value) : kind_(Kind::Double), double_(value) {}
  JsonValue(std::string value) : kind_(Kind::String), string_(std::move(value)) {}
  JsonValue(const char* value) : kind_(Kind::String), string_(value) {}

  [[nodiscard]] static JsonValue object() {
    JsonValue v;
    v.kind_ = Kind::Object;
    return v;
  }
  [[nodiscard]] static JsonValue array() {
    JsonValue v;
    v.kind_ = Kind::Array;
    return v;
  }

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_object() const noexcept { return kind_ == Kind::Object; }
  [[nodiscard]] bool is_array() const noexcept { return kind_ == Kind::Array; }

  // --- object access -------------------------------------------------------
  /// Inserts or replaces a member (object kind only); returns *this to chain.
  JsonValue& set(std::string key, JsonValue value);
  /// Member lookup; nullptr when absent (or not an object).
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
  /// Member lookup; throws std::out_of_range when absent.
  [[nodiscard]] const JsonValue& at(std::string_view key) const;
  [[nodiscard]] JsonValue& at(std::string_view key);
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>& members()
      const noexcept {
    return object_;
  }

  // --- array access --------------------------------------------------------
  void push_back(JsonValue value);
  [[nodiscard]] const std::vector<JsonValue>& items() const noexcept {
    return array_;
  }

  // --- scalar access (throw std::logic_error on kind mismatch) -------------
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] std::uint64_t as_uint() const;
  /// Numeric access: accepts Int or Double.
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const;

  bool operator==(const JsonValue& other) const;
  bool operator!=(const JsonValue& other) const { return !(*this == other); }

  /// Pretty serialization (indent 0 = compact single line).
  [[nodiscard]] std::string dump(int indent = 2) const;

  /// Strict parser; throws std::runtime_error with position info on errors.
  [[nodiscard]] static JsonValue parse(std::string_view text);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::Null;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Writes `value.dump()` (plus trailing newline) to `path`; throws on I/O
/// failure.
void write_json_file(const std::string& path, const JsonValue& value);

/// The stable per-scan metrics document ("omega.scan.metrics", version
/// kSchemaVersion): the header, write_profile_blocks, then the telemetry
/// block. `run_name` identifies the producing run/bench/CLI invocation. See
/// docs/METRICS.md for the field-by-field description.
JsonValue scan_metrics(const std::string& run_name, const ScanProfile& profile);

/// Writes every table-declared profile block (core/scanner.h
/// for_each_profile_block) into object `doc`, in metrics-document order. The
/// metrics document and the checkpoint's totals both use it.
void write_profile_blocks(JsonValue& doc, const ScanProfile& profile);

/// Inverse of write_profile_blocks for the Sum and Latest fields (the ones
/// merge_profile folds); Plan and derived fields keep their defaults.
/// Throws std::out_of_range / std::logic_error on a missing or mistyped key.
void read_profile_blocks(const JsonValue& doc, ScanProfile& profile);

/// Current util/trace.h buffer as a JSON array of {name, thread, start_s,
/// duration_s} events (empty array when tracing is off). Thread ids are
/// session-relative (remapped to start at 0).
JsonValue trace_to_json();

/// A util/telemetry registry snapshot as the schema v6 "telemetry" block:
/// {"counters": {...}, "gauges": {...}, "histograms": {name: {base, count,
/// sum, min, max, mean, p50, p90, p99, buckets:[{le, count}...]}}}. Only
/// occupied buckets are materialized.
JsonValue telemetry_json(const util::telemetry::RegistrySnapshot& snapshot);

/// Inverse of telemetry_json, used by checkpoint resume to reload the prior
/// run's telemetry snapshot. Bucket indices are reconstructed by matching
/// each serialized `le` against HistogramSnapshot::bucket_upper_bound — exact
/// given the %.17g serializer (nearest-bound fallback otherwise). Derived
/// fields (mean, quantiles) are recomputed, not read back. Throws
/// std::runtime_error / std::logic_error on malformed documents.
util::telemetry::RegistrySnapshot telemetry_from_json(const JsonValue& block);

/// The current util/trace.h session as a Chrome trace-event document
/// (loadable in Perfetto / chrome://tracing): {"traceEvents": [...],
/// "displayTimeUnit": "ms", "otherData": {recorded, dropped, num_threads}}.
/// Spans become "ph":"X" complete events (ts/dur in microseconds),
/// zero-duration events become "ph":"i" thread-scoped instants, and each
/// session-relative tid gets a "ph":"M" thread_name metadata record. Events
/// are sorted by (ts, tid) so output is deterministic for a given ring state.
JsonValue chrome_trace();

/// Same, from an explicit snapshot (for tests and post-mortem export).
JsonValue chrome_trace(const util::trace::TraceSnapshot& snapshot);

}  // namespace omega::core::metrics
