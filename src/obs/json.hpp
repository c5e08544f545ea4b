// Minimal JSON emission and validation for the observability layer.
//
// Everything the obs subsystem writes (Chrome traces, counter exports, run
// manifests) goes through JsonWriter so escaping and number formatting are
// uniform — and, crucially, *deterministic*: the same simulation produces
// byte-identical output across runs and worker counts. json_parse() reads
// documents back (the report tool, the tests) without an external parser
// dependency; json_valid() is json_parse() without the value, so both
// accept one strict grammar (close to what `python3 -m json.tool` accepts
// in CI).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace prdrb::obs {

/// Escape a string for inclusion inside JSON quotes.
std::string json_escape(std::string_view s);

/// Format a double the way every obs emitter does: shortest round-trip
/// representation, with non-finite values mapped to 0 (JSON has no inf/NaN).
std::string json_number(double v);

/// Streaming JSON builder. Purely syntactic: the caller opens/closes
/// objects and arrays; the writer tracks whether a comma is needed.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emit `"key":` inside an object (before a value or a begin_*).
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v);

  /// key + value in one call.
  template <typename T>
  JsonWriter& field(std::string_view k, T&& v) {
    key(k);
    return value(std::forward<T>(v));
  }

  /// Emit `s` bare when it already is a valid JSON number (pre-rendered
  /// config values), quoted otherwise.
  JsonWriter& raw_number_or_string(std::string_view s);

  const std::string& str() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  void comma();

  std::string out_;
  bool need_comma_ = false;
};

/// True when `s` is a valid JSON document: json_parse(s) has a value.
bool json_valid(std::string_view s);

/// Parsed JSON document node. Object member order is preserved (the obs
/// emitters write deterministically ordered documents, and the report tool
/// echoes keys back in that order). Lookup helpers return nullptr /
/// fallbacks instead of throwing so report code can probe optional schema
/// fields in a straight line.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  using Member = std::pair<std::string, JsonValue>;

  JsonValue() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool as_bool(bool fallback = false) const {
    return is_bool() ? bool_ : fallback;
  }
  double as_number(double fallback = 0.0) const {
    return is_number() ? number_ : fallback;
  }
  const std::string& as_string() const { return string_; }

  const std::vector<JsonValue>& items() const { return array_; }
  const std::vector<Member>& members() const { return object_; }
  std::size_t size() const {
    return is_array() ? array_.size() : object_.size();
  }

  /// Object member by key; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;
  /// Dotted-path lookup ("end_to_end.after.events_per_sec"); nullptr when
  /// any step is missing. Path components may not themselves contain '.'.
  const JsonValue* find_path(std::string_view dotted) const;
  /// Number at a dotted path, or `fallback` when absent / not a number.
  double number_at(std::string_view dotted, double fallback = 0.0) const;
  /// String at a dotted path, or `fallback` when absent / not a string.
  std::string string_at(std::string_view dotted,
                        std::string_view fallback = "") const;

  // Construction (used by json_parse and tests).
  static JsonValue make_null() { return JsonValue(); }
  static JsonValue make_bool(bool v);
  static JsonValue make_number(double v);
  static JsonValue make_string(std::string v);
  static JsonValue make_array(std::vector<JsonValue> v);
  static JsonValue make_object(std::vector<Member> v);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<Member> object_;
};

/// Parse a complete JSON document. Returns nullopt on any syntax error, a
/// lone surrogate escape or a number out of double range; \uXXXX escapes
/// are decoded to UTF-8, surrogate pairs included.
std::optional<JsonValue> json_parse(std::string_view s);

/// The whole of the file at `path`, read as bytes; nullopt when it cannot
/// be opened.
std::optional<std::string> read_text_file(const std::string& path);

/// Write `content` to `path`; returns false (and warns on stderr) on
/// failure instead of throwing — observability must never abort a run.
bool write_text_file(const std::string& path, std::string_view content);

}  // namespace prdrb::obs
