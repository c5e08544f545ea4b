#include "obs/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

namespace prdrb::obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  // Shortest round-trip form: deterministic for identical doubles, and what
  // std::to_chars guarantees across runs of the same binary.
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  std::string s(buf, res.ptr);
  // Bare exponent-free integers stay integers ("3" not "3.0"): fine for
  // JSON, every consumer reads them as numbers either way.
  return s;
}

void JsonWriter::comma() {
  if (need_comma_) out_ += ',';
  need_comma_ = false;
}

JsonWriter& JsonWriter::begin_object() {
  comma();
  out_ += '{';
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += '}';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma();
  out_ += '[';
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += ']';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  comma();
  out_ += '"';
  out_ += json_escape(k);
  out_ += "\":";
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  comma();
  out_ += '"';
  out_ += json_escape(s);
  out_ += '"';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  comma();
  out_ += json_number(v);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  comma();
  out_ += std::to_string(v);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  comma();
  out_ += std::to_string(v);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  comma();
  out_ += v ? "true" : "false";
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::raw_number_or_string(std::string_view s) {
  const bool number_like =
      !s.empty() &&
      (s[0] == '-' || std::isdigit(static_cast<unsigned char>(s[0]))) &&
      json_valid(s);
  if (!number_like) return value(s);
  comma();
  out_ += s;
  need_comma_ = true;
  return *this;
}

// ---------------------------------------------------------------------------
// JsonValue / json_parse: the one JSON grammar (json_valid is json_parse
// without the value).

JsonValue JsonValue::make_bool(bool v) {
  JsonValue j;
  j.kind_ = Kind::kBool;
  j.bool_ = v;
  return j;
}

JsonValue JsonValue::make_number(double v) {
  JsonValue j;
  j.kind_ = Kind::kNumber;
  j.number_ = v;
  return j;
}

JsonValue JsonValue::make_string(std::string v) {
  JsonValue j;
  j.kind_ = Kind::kString;
  j.string_ = std::move(v);
  return j;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> v) {
  JsonValue j;
  j.kind_ = Kind::kArray;
  j.array_ = std::move(v);
  return j;
}

JsonValue JsonValue::make_object(std::vector<Member> v) {
  JsonValue j;
  j.kind_ = Kind::kObject;
  j.object_ = std::move(v);
  return j;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue* JsonValue::find_path(std::string_view dotted) const {
  const JsonValue* cur = this;
  while (!dotted.empty()) {
    const std::size_t dot = dotted.find('.');
    const std::string_view head =
        dot == std::string_view::npos ? dotted : dotted.substr(0, dot);
    cur = cur->find(head);
    if (!cur) return nullptr;
    dotted = dot == std::string_view::npos ? std::string_view{}
                                           : dotted.substr(dot + 1);
  }
  return cur;
}

double JsonValue::number_at(std::string_view dotted, double fallback) const {
  const JsonValue* v = find_path(dotted);
  return v && v->is_number() ? v->as_number() : fallback;
}

std::string JsonValue::string_at(std::string_view dotted,
                                 std::string_view fallback) const {
  const JsonValue* v = find_path(dotted);
  return v && v->is_string() ? v->as_string() : std::string(fallback);
}

namespace {

struct Cursor {
  std::string_view s;
  std::size_t i = 0;
  int depth = 0;

  bool eof() const { return i >= s.size(); }
  char peek() const { return s[i]; }
  void skip_ws() {
    while (!eof() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' ||
                      s[i] == '\r')) {
      ++i;
    }
  }
  bool consume(char c) {
    if (eof() || s[i] != c) return false;
    ++i;
    return true;
  }
};

bool parse_number(Cursor& c) {
  const std::size_t start = c.i;
  c.consume('-');
  if (c.eof() || !std::isdigit(static_cast<unsigned char>(c.peek()))) {
    return false;
  }
  while (!c.eof() && std::isdigit(static_cast<unsigned char>(c.peek()))) ++c.i;
  if (!c.eof() && c.peek() == '.') {
    ++c.i;
    if (c.eof() || !std::isdigit(static_cast<unsigned char>(c.peek()))) {
      return false;
    }
    while (!c.eof() && std::isdigit(static_cast<unsigned char>(c.peek()))) {
      ++c.i;
    }
  }
  if (!c.eof() && (c.peek() == 'e' || c.peek() == 'E')) {
    ++c.i;
    if (!c.eof() && (c.peek() == '+' || c.peek() == '-')) ++c.i;
    if (c.eof() || !std::isdigit(static_cast<unsigned char>(c.peek()))) {
      return false;
    }
    while (!c.eof() && std::isdigit(static_cast<unsigned char>(c.peek()))) {
      ++c.i;
    }
  }
  return c.i > start;
}

bool parse_literal(Cursor& c, std::string_view lit) {
  if (c.s.substr(c.i, lit.size()) != lit) return false;
  c.i += lit.size();
  return true;
}

void append_utf8(std::string& out, std::uint32_t cp) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xC0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    out += static_cast<char>(0xE0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (cp >> 18));
    out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

bool read_hex4(Cursor& c, std::uint32_t& out) {
  out = 0;
  for (int k = 0; k < 4; ++k) {
    if (c.eof()) return false;
    const char ch = c.s[c.i];
    std::uint32_t d;
    if (ch >= '0' && ch <= '9') {
      d = static_cast<std::uint32_t>(ch - '0');
    } else if (ch >= 'a' && ch <= 'f') {
      d = static_cast<std::uint32_t>(ch - 'a' + 10);
    } else if (ch >= 'A' && ch <= 'F') {
      d = static_cast<std::uint32_t>(ch - 'A' + 10);
    } else {
      return false;
    }
    out = (out << 4) | d;
    ++c.i;
  }
  return true;
}

bool build_value(Cursor& c, JsonValue& out);

bool build_string(Cursor& c, std::string& out) {
  if (!c.consume('"')) return false;
  out.clear();
  while (!c.eof()) {
    const char ch = c.s[c.i++];
    if (ch == '"') return true;
    if (static_cast<unsigned char>(ch) < 0x20) return false;
    if (ch != '\\') {
      out += ch;
      continue;
    }
    if (c.eof()) return false;
    const char esc = c.s[c.i++];
    switch (esc) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        std::uint32_t cp;
        if (!read_hex4(c, cp)) return false;
        if (cp >= 0xD800 && cp <= 0xDBFF) {
          // High surrogate: require the low half, combine to one scalar.
          if (c.s.substr(c.i, 2) != "\\u") return false;
          c.i += 2;
          std::uint32_t lo;
          if (!read_hex4(c, lo) || lo < 0xDC00 || lo > 0xDFFF) return false;
          cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
        } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
          return false;  // lone low surrogate
        }
        append_utf8(out, cp);
        break;
      }
      default:
        return false;
    }
  }
  return false;
}

bool build_number(Cursor& c, double& out) {
  const std::size_t start = c.i;
  if (!parse_number(c)) return false;
  const auto res =
      std::from_chars(c.s.data() + start, c.s.data() + c.i, out);
  return res.ec == std::errc{} && res.ptr == c.s.data() + c.i;
}

bool build_value(Cursor& c, JsonValue& out) {
  if (++c.depth > 512) return false;  // stack-depth guard
  c.skip_ws();
  bool ok = false;
  if (!c.eof()) {
    switch (c.peek()) {
      case '{': {
        ++c.i;
        std::vector<JsonValue::Member> members;
        c.skip_ws();
        if (c.consume('}')) {
          out = JsonValue::make_object(std::move(members));
          ok = true;
          break;
        }
        for (;;) {
          c.skip_ws();
          std::string key;
          if (!build_string(c, key)) break;
          c.skip_ws();
          if (!c.consume(':')) break;
          JsonValue v;
          if (!build_value(c, v)) break;
          members.emplace_back(std::move(key), std::move(v));
          c.skip_ws();
          if (c.consume('}')) {
            out = JsonValue::make_object(std::move(members));
            ok = true;
            break;
          }
          if (!c.consume(',')) break;
        }
        break;
      }
      case '[': {
        ++c.i;
        std::vector<JsonValue> items;
        c.skip_ws();
        if (c.consume(']')) {
          out = JsonValue::make_array(std::move(items));
          ok = true;
          break;
        }
        for (;;) {
          JsonValue v;
          if (!build_value(c, v)) break;
          items.push_back(std::move(v));
          c.skip_ws();
          if (c.consume(']')) {
            out = JsonValue::make_array(std::move(items));
            ok = true;
            break;
          }
          if (!c.consume(',')) break;
        }
        break;
      }
      case '"': {
        std::string s;
        if (build_string(c, s)) {
          out = JsonValue::make_string(std::move(s));
          ok = true;
        }
        break;
      }
      case 't':
        if (parse_literal(c, "true")) {
          out = JsonValue::make_bool(true);
          ok = true;
        }
        break;
      case 'f':
        if (parse_literal(c, "false")) {
          out = JsonValue::make_bool(false);
          ok = true;
        }
        break;
      case 'n':
        if (parse_literal(c, "null")) {
          out = JsonValue::make_null();
          ok = true;
        }
        break;
      default: {
        double d;
        if (build_number(c, d)) {
          out = JsonValue::make_number(d);
          ok = true;
        }
      }
    }
  }
  --c.depth;
  return ok;
}

}  // namespace

std::optional<JsonValue> json_parse(std::string_view s) {
  Cursor c{s};
  JsonValue v;
  if (!build_value(c, v)) return std::nullopt;
  c.skip_ws();
  if (!c.eof()) return std::nullopt;
  return v;
}

bool json_valid(std::string_view s) { return json_parse(s).has_value(); }

std::optional<std::string> read_text_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return std::nullopt;
  std::ostringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

bool write_text_file(const std::string& path, std::string_view content) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) {
    std::cerr << "[prdrb::obs] cannot open " << path << " for writing\n";
    return false;
  }
  f.write(content.data(), static_cast<std::streamsize>(content.size()));
  if (!f.good()) {
    std::cerr << "[prdrb::obs] short write to " << path << "\n";
    return false;
  }
  return true;
}

}  // namespace prdrb::obs
