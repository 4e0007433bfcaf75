#include "core/metrics_json.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <variant>

#include "util/trace.h"

namespace omega::core::metrics {

// ---------------------------------------------------------------------------
// JsonValue: document model
// ---------------------------------------------------------------------------

JsonValue& JsonValue::set(std::string key, JsonValue value) {
  if (kind_ != Kind::Object) throw std::logic_error("JsonValue::set: not an object");
  for (auto& member : object_) {
    if (member.first == key) {
      member.second = std::move(value);
      return *this;
    }
  }
  object_.emplace_back(std::move(key), std::move(value));
  return *this;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::Object) return nullptr;
  for (const auto& member : object_) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* value = find(key);
  if (value == nullptr) {
    throw std::out_of_range("JsonValue::at: no member '" + std::string(key) + "'");
  }
  return *value;
}

JsonValue& JsonValue::at(std::string_view key) {
  return const_cast<JsonValue&>(std::as_const(*this).at(key));
}

void JsonValue::push_back(JsonValue value) {
  if (kind_ != Kind::Array) throw std::logic_error("JsonValue::push_back: not an array");
  array_.push_back(std::move(value));
}

bool JsonValue::as_bool() const {
  if (kind_ != Kind::Bool) throw std::logic_error("JsonValue: not a bool");
  return bool_;
}

std::int64_t JsonValue::as_int() const {
  if (kind_ != Kind::Int) throw std::logic_error("JsonValue: not an integer");
  return int_;
}

std::uint64_t JsonValue::as_uint() const {
  if (kind_ != Kind::Int || int_ < 0) {
    throw std::logic_error("JsonValue: not a non-negative integer");
  }
  return static_cast<std::uint64_t>(int_);
}

double JsonValue::as_double() const {
  if (kind_ == Kind::Double) return double_;
  if (kind_ == Kind::Int) return static_cast<double>(int_);
  throw std::logic_error("JsonValue: not a number");
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::String) throw std::logic_error("JsonValue: not a string");
  return string_;
}

bool JsonValue::operator==(const JsonValue& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::Null:
      return true;
    case Kind::Bool:
      return bool_ == other.bool_;
    case Kind::Int:
      return int_ == other.int_;
    case Kind::Double:
      return double_ == other.double_;
    case Kind::String:
      return string_ == other.string_;
    case Kind::Array:
      return array_ == other.array_;
    case Kind::Object:
      return object_ == other.object_;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

namespace {

void escape_string(std::string& out, const std::string& value) {
  out += '"';
  for (const char c : value) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_double(std::string& out, double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  std::string text = buffer;
  // Keep the Double kind on round-trip: force a decimal point or exponent.
  if (text.find_first_of(".eE") == std::string::npos &&
      text.find_first_of("nN") == std::string::npos) {  // skip nan/inf
    text += ".0";
  }
  out += text;
}

void newline_indent(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

}  // namespace

void JsonValue::dump_to(std::string& out, int indent, int depth) const {
  switch (kind_) {
    case Kind::Null:
      out += "null";
      return;
    case Kind::Bool:
      out += bool_ ? "true" : "false";
      return;
    case Kind::Int:
      out += std::to_string(int_);
      return;
    case Kind::Double:
      append_double(out, double_);
      return;
    case Kind::String:
      escape_string(out, string_);
      return;
    case Kind::Array: {
      if (array_.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out += ',';
        newline_indent(out, indent, depth + 1);
        array_[i].dump_to(out, indent, depth + 1);
      }
      newline_indent(out, indent, depth);
      out += ']';
      return;
    }
    case Kind::Object: {
      if (object_.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out += ',';
        newline_indent(out, indent, depth + 1);
        escape_string(out, object_[i].first);
        out += indent > 0 ? ": " : ":";
        object_[i].second.dump_to(out, indent, depth + 1);
      }
      newline_indent(out, indent, depth);
      out += '}';
      return;
    }
  }
}

std::string JsonValue::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing content");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw std::runtime_error("json parse error at offset " +
                             std::to_string(pos_) + ": " + message);
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  JsonValue parse_value() {
    if (++depth_ > 128) fail("nesting too deep");
    skip_whitespace();
    const char c = peek();
    JsonValue value;
    if (c == '{') {
      value = parse_object();
    } else if (c == '[') {
      value = parse_array();
    } else if (c == '"') {
      value = JsonValue(parse_string());
    } else if (c == 't') {
      if (!consume_literal("true")) fail("bad literal");
      value = JsonValue(true);
    } else if (c == 'f') {
      if (!consume_literal("false")) fail("bad literal");
      value = JsonValue(false);
    } else if (c == 'n') {
      if (!consume_literal("null")) fail("bad literal");
      value = JsonValue();
    } else if (c == '-' || (c >= '0' && c <= '9')) {
      value = parse_number();
    } else {
      fail("unexpected character");
    }
    --depth_;
    return value;
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue object = JsonValue::object();
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return object;
    }
    while (true) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      object.set(std::move(key), parse_value());
      skip_whitespace();
      const char c = peek();
      ++pos_;
      if (c == '}') return object;
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue array = JsonValue::array();
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return array;
    }
    while (true) {
      array.push_back(parse_value());
      skip_whitespace();
      const char c = peek();
      ++pos_;
      if (c == ']') return array;
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // UTF-8 encode (BMP only; surrogate pairs are not produced by our
          // serializer, which only \u-escapes control characters).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("bad escape character");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    bool is_double = false;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      is_double = true;
      ++pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_double = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") fail("bad number");
    if (!is_double) {
      std::int64_t value = 0;
      const auto [ptr, ec] =
          std::from_chars(token.data(), token.data() + token.size(), value);
      if (ec == std::errc() && ptr == token.data() + token.size()) {
        return JsonValue(value);
      }
      // Integer overflow: fall through to double.
    }
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec != std::errc() || ptr != token.data() + token.size()) fail("bad number");
    return JsonValue(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

JsonValue JsonValue::parse(std::string_view text) {
  return Parser(text).parse_document();
}

void write_json_file(const std::string& path, const JsonValue& value) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  out << value.dump() << '\n';
  if (!out) throw std::runtime_error("write failed: " + path);
}

// ---------------------------------------------------------------------------
// Schema builders
// ---------------------------------------------------------------------------

namespace {

template <class... Visitors>
struct overloaded : Visitors... {
  using Visitors::operator()...;
};

JsonValue& object_member(JsonValue& doc, const char* name) {
  if (*name == '\0') return doc;
  if (doc.find(name) == nullptr) doc.set(name, JsonValue::object());
  return doc.at(name);
}

template <class Block, std::size_t N>
void write_fields(JsonValue& object, const Block& block,
                  const ProfileField<Block> (&fields)[N]) {
  for (const ProfileField<Block>& field : fields) {
    std::visit(
        [&](auto member) {
          object.set(field.key, JsonValue(std::invoke(member, block)));
        },
        field.member);
  }
}

/// Sum and Latest fields only: Plan fields describe the run that wrote the
/// document and are never read back.
template <class Block, std::size_t N>
void read_fields(const JsonValue& object, Block& block,
                 const ProfileField<Block> (&fields)[N]) {
  for (const ProfileField<Block>& field : fields) {
    if (field.merge == FieldMerge::Plan) continue;
    std::visit(
        [&](auto member) {
          if constexpr (std::is_member_object_pointer_v<decltype(member)>) {
            auto& value = block.*member;
            const JsonValue& json = object.at(field.key);
            using Value = std::remove_reference_t<decltype(value)>;
            if constexpr (std::is_same_v<Value, std::uint64_t>) {
              value = json.as_uint();
            } else if constexpr (std::is_same_v<Value, double>) {
              value = json.as_double();
            } else if constexpr (std::is_same_v<Value, bool>) {
              value = json.as_bool();
            } else {
              value = json.as_string();
            }
          }
        },
        field.member);
  }
}

template <class Block, std::size_t N>
bool carried(const ProfileField<Block> (&fields)[N]) {
  return std::any_of(std::begin(fields), std::end(fields),
                     [](const ProfileField<Block>& field) {
                       return field.merge != FieldMerge::Plan;
                     });
}

}  // namespace

void write_profile_blocks(JsonValue& doc, const ScanProfile& profile) {
  for_each_profile_block(overloaded{
      [&](const char* object, auto block_of, const auto& fields) {
        write_fields(object_member(doc, object), block_of(profile), fields);
      },
      [&](const char* object, const char* array, auto elements_of,
          const auto& fields) {
        JsonValue entries = JsonValue::array();
        for (const auto& element : elements_of(profile)) {
          JsonValue entry = JsonValue::object();
          write_fields(entry, element, fields);
          entries.push_back(std::move(entry));
        }
        object_member(doc, object).set(array, std::move(entries));
      }});
}

void read_profile_blocks(const JsonValue& doc, ScanProfile& profile) {
  const auto object_at = [&](const char* object) -> const JsonValue& {
    return *object == '\0' ? doc : doc.at(object);
  };
  for_each_profile_block(overloaded{
      [&](const char* object, auto block_of, const auto& fields) {
        if (carried(fields)) {
          read_fields(object_at(object), block_of(profile), fields);
        }
      },
      [&](const char* object, const char* array, auto elements_of,
          const auto& fields) {
        if (!carried(fields)) return;
        auto& elements = elements_of(profile);
        elements.clear();
        for (const JsonValue& entry : object_at(object).at(array).items()) {
          read_fields(entry, elements.emplace_back(), fields);
        }
      }});
}

JsonValue scan_metrics(const std::string& run_name, const ScanProfile& profile) {
  JsonValue doc = JsonValue::object();
  doc.set("schema", kScanSchema);
  doc.set("schema_version", kSchemaVersion);
  doc.set("name", run_name);
  write_profile_blocks(doc, profile);
  // v6: distributional telemetry (docs/OBSERVABILITY.md) — the registry
  // delta attributed to this scan.
  doc.set("telemetry", telemetry_json(profile.telemetry));
  return doc;
}

JsonValue trace_to_json() {
  JsonValue events = JsonValue::array();
  for (const auto& event : util::trace::take_snapshot().events) {
    JsonValue entry = JsonValue::object();
    entry.set("name", event.name);
    entry.set("thread", static_cast<std::int64_t>(event.thread_id));
    entry.set("start_s", event.start_s);
    entry.set("duration_s", event.duration_s);
    events.push_back(std::move(entry));
  }
  return events;
}

JsonValue telemetry_json(const util::telemetry::RegistrySnapshot& snapshot) {
  JsonValue block = JsonValue::object();
  JsonValue counters = JsonValue::object();
  for (const auto& [name, value] : snapshot.counters) {
    counters.set(name, value);
  }
  block.set("counters", std::move(counters));
  JsonValue gauges = JsonValue::object();
  for (const auto& [name, value] : snapshot.gauges) {
    gauges.set(name, value);
  }
  block.set("gauges", std::move(gauges));
  JsonValue histograms = JsonValue::object();
  for (const auto& [name, hist] : snapshot.histograms) {
    JsonValue entry = JsonValue::object();
    entry.set("base", hist.base);
    entry.set("count", hist.count);
    entry.set("sum", hist.sum);
    entry.set("min", hist.min);
    entry.set("max", hist.max);
    entry.set("mean", hist.mean());
    entry.set("p50", hist.quantile(0.50));
    entry.set("p90", hist.quantile(0.90));
    entry.set("p99", hist.quantile(0.99));
    JsonValue buckets = JsonValue::array();
    for (std::size_t i = 0; i < util::telemetry::kHistogramBuckets; ++i) {
      if (hist.buckets[i] == 0) continue;
      JsonValue bucket = JsonValue::object();
      bucket.set("le", hist.bucket_upper_bound(i));
      bucket.set("count", hist.buckets[i]);
      buckets.push_back(std::move(bucket));
    }
    entry.set("buckets", std::move(buckets));
    histograms.set(name, std::move(entry));
  }
  block.set("histograms", std::move(histograms));
  return block;
}

util::telemetry::RegistrySnapshot telemetry_from_json(const JsonValue& block) {
  util::telemetry::RegistrySnapshot snapshot;
  for (const auto& [name, value] : block.at("counters").members()) {
    snapshot.counters.emplace_back(name, value.as_uint());
  }
  for (const auto& [name, value] : block.at("gauges").members()) {
    snapshot.gauges.emplace_back(name, value.as_double());
  }
  for (const auto& [name, entry] : block.at("histograms").members()) {
    util::telemetry::HistogramSnapshot hist;
    hist.base = entry.at("base").as_double();
    hist.count = entry.at("count").as_uint();
    hist.sum = entry.at("sum").as_double();
    hist.min = entry.at("min").as_double();
    hist.max = entry.at("max").as_double();
    for (const auto& bucket : entry.at("buckets").items()) {
      const double le = bucket.at("le").as_double();
      // %.17g round-trips bucket bounds exactly, so the equality probe
      // normally hits; the nearest-bound fallback guards against a document
      // produced by a different printf implementation.
      std::size_t index = util::telemetry::kHistogramBuckets;
      double best_distance = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < util::telemetry::kHistogramBuckets; ++i) {
        const double bound = hist.bucket_upper_bound(i);
        if (bound == le) {
          index = i;
          break;
        }
        const double distance = std::abs(bound - le);
        if (distance < best_distance) {
          best_distance = distance;
          index = i;
        }
      }
      hist.buckets[index] += bucket.at("count").as_uint();
    }
    snapshot.histograms.emplace_back(name, hist);
  }
  return snapshot;
}

JsonValue chrome_trace(const util::trace::TraceSnapshot& snapshot) {
  std::vector<util::trace::TraceEvent> sorted = snapshot.events;
  std::sort(sorted.begin(), sorted.end(),
            [](const util::trace::TraceEvent& a,
               const util::trace::TraceEvent& b) {
              if (a.start_s != b.start_s) return a.start_s < b.start_s;
              return a.thread_id < b.thread_id;
            });

  JsonValue events = JsonValue::array();
  for (std::uint32_t tid = 0; tid < snapshot.num_threads; ++tid) {
    JsonValue meta = JsonValue::object();
    meta.set("ph", "M");
    meta.set("name", "thread_name");
    meta.set("pid", 1);
    meta.set("tid", static_cast<std::int64_t>(tid));
    JsonValue meta_args = JsonValue::object();
    meta_args.set("name", tid == 0 ? std::string("scan-main")
                                   : "worker-" + std::to_string(tid));
    meta.set("args", std::move(meta_args));
    events.push_back(std::move(meta));
  }
  for (const util::trace::TraceEvent& event : sorted) {
    JsonValue entry = JsonValue::object();
    if (event.duration_s > 0.0) {
      entry.set("ph", "X");
    } else {
      entry.set("ph", "i");
      entry.set("s", "t");  // thread-scoped instant
    }
    entry.set("name", event.name);
    entry.set("pid", 1);
    entry.set("tid", static_cast<std::int64_t>(event.thread_id));
    entry.set("ts", event.start_s * 1e6);
    if (event.duration_s > 0.0) entry.set("dur", event.duration_s * 1e6);
    events.push_back(std::move(entry));
  }

  JsonValue doc = JsonValue::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  JsonValue other = JsonValue::object();
  other.set("recorded", snapshot.recorded);
  other.set("dropped", snapshot.dropped);
  other.set("num_threads", static_cast<std::int64_t>(snapshot.num_threads));
  doc.set("otherData", std::move(other));
  return doc;
}

JsonValue chrome_trace() { return chrome_trace(util::trace::take_snapshot()); }

}  // namespace omega::core::metrics
