// Typed parse results for name-driven factories (policies, topologies)
// and numeric command-line values. Instead of aborting deep inside a run
// with a bare std::invalid_argument, a factory returns Parsed<T>: either
// the value or a ParseError carrying the offending input, what kind of name
// it was, and the nearest known name as a suggestion — which CLIs surface
// as "error: unknown policy 'ospf' (did you mean 'drb'?)" with exit code 2.
#pragma once

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

namespace prdrb {

/// A rejected name plus enough context to phrase a one-line diagnostic.
struct ParseError {
  std::string input;       ///< the offending name, verbatim
  std::string kind;        ///< "policy", "topology", "pattern", "flag", ...
  std::string message;     ///< short reason ("unknown policy", "bad extent")
  std::string suggestion;  ///< nearest known name; empty when none is close

  /// The full human-readable diagnostic.
  std::string what() const {
    std::string s = message + " '" + input + "'";
    if (!suggestion.empty()) s += " (did you mean '" + suggestion + "'?)";
    return s;
  }
};

/// Value-or-error result of parsing a name. Factories return it by value;
/// run-path callers that still want the old throwing behaviour use
/// value_or_throw().
template <typename T>
class Parsed {
 public:
  Parsed(T value) : v_(std::move(value)) {}          // NOLINT(runtime/explicit)
  Parsed(ParseError error) : v_(std::move(error)) {} // NOLINT(runtime/explicit)

  bool ok() const { return std::holds_alternative<T>(v_); }
  explicit operator bool() const { return ok(); }

  T& value() {
    assert(ok());
    return std::get<T>(v_);
  }
  const T& value() const {
    assert(ok());
    return std::get<T>(v_);
  }

  const ParseError& error() const {
    assert(!ok());
    return std::get<ParseError>(v_);
  }

  /// Extract the value, throwing std::invalid_argument with the diagnostic
  /// on error — the pre-Parsed contract, kept for library-internal callers.
  T value_or_throw() {
    if (!ok()) throw std::invalid_argument(error().what());
    return std::move(std::get<T>(v_));
  }

 private:
  std::variant<T, ParseError> v_;
};

/// The whole of `text` as one value of the arithmetic type T, for the
/// command-line flag `flag`. A parsable prefix is not enough ("4e8x", or
/// "2.7" for an integer type), a floating-point value must be finite, and
/// an integer must fit T; the error names the flag.
template <typename T>
Parsed<T> parse_number(std::string_view flag, std::string_view text) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  bool ok = ec == std::errc() && stop == end;
  const char* want = "an integer";
  if constexpr (std::is_floating_point_v<T>) {
    ok = ok && std::isfinite(v);
    want = "a finite number";
  } else if constexpr (std::is_unsigned_v<T>) {
    want = "a non-negative integer";
  }
  if (ok) return v;
  return ParseError{std::string(text), "flag",
                    std::string(flag) + " needs " + want + ", got", ""};
}

/// The name of the command-line argument `arg`: the part before the '=' of
/// "--name=value", else all of it.
inline std::string_view flag_name(std::string_view arg) {
  return arg.starts_with("--") ? arg.substr(0, arg.find('=')) : arg;
}

/// The value of the flag argv[i]: after the '=' of "--name=value", else
/// the next argument, advancing `i` past it. A ParseError when there is
/// none, or when the next argument is itself a flag ("--..."); a single-dash
/// value such as "-5" is left to the flag's own parser.
inline Parsed<std::string> flag_value(int argc, char** argv, int& i) {
  const std::string_view arg = argv[i];
  const std::string_view name = flag_name(arg);
  if (name.size() < arg.size()) {
    return std::string(arg.substr(name.size() + 1));
  }
  if (i + 1 < argc && !std::string_view(argv[i + 1]).starts_with("--")) {
    return std::string(argv[++i]);
  }
  return ParseError{std::string(name), "flag", "missing value for", ""};
}

/// Levenshtein edit distance, the classic two-row DP. Inputs here are short
/// factory names, so the O(|a|*|b|) cost is irrelevant.
inline std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> prev(b.size() + 1), cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t subst = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min(std::min(prev[j] + 1, cur[j - 1] + 1), subst);
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

/// The candidate closest to `input` by edit distance, or "" when even the
/// best candidate needs more than max(input.size()/2, 2) edits — a cutoff
/// that keeps wild typos from producing absurd suggestions.
inline std::string nearest_name(std::string_view input,
                                const std::vector<std::string_view>& candidates) {
  std::string_view best;
  std::size_t best_dist = static_cast<std::size_t>(-1);
  for (std::string_view c : candidates) {
    const std::size_t d = edit_distance(input, c);
    if (d < best_dist) {
      best_dist = d;
      best = c;
    }
  }
  const std::size_t cutoff = std::max<std::size_t>(input.size() / 2, 2);
  return best_dist <= cutoff ? std::string(best) : std::string();
}

}  // namespace prdrb
