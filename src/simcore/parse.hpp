// The one definition of a field of text input, shared by every reader: the
// tc command DSL, the obs and scenario trace CSVs, the command-line flags of
// tlsim, tlsreport and the benches (read through simcore/flags.hpp), and
// the environment knobs.
//
// A field is the bytes between two separators; empty fields are kept, so a
// reader sees "a,,b" as three fields and can reject the empty one. A
// number is always the whole field:
//   integer  decimal digits (hex for tc handles) with an optional leading
//            '-', in [lo, hi] of the target type;
//   real     std::from_chars' general format (digits, '.', an exponent, or
//            the words nan and inf), finite and in [lo, hi].
// No '+', no surrounding whitespace, no "0x", no trailing bytes, and no
// silent narrowing: "4294967298" read into a 32-bit field is malformed,
// never 2.
#pragma once

#include <charconv>
#include <cmath>
#include <cstddef>
#include <limits>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace tls::sim {

/// Splits `text` at each `sep` into views of its bytes, keeping empty
/// fields ("" is one field). Stores the first `max_fields` in `fields` and
/// returns the full count, so a row with too many fields says how many.
inline std::size_t split(std::string_view text, char sep,
                         std::string_view* fields, std::size_t max_fields) {
  // One pass over the bytes, not a find() (a memchr call) per field: the
  // fields of a trace CSV row are a few bytes long.
  std::size_t n = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != sep) continue;
    if (n < max_fields) fields[n] = text.substr(start, i - start);
    ++n;
    start = i + 1;
  }
  if (n < max_fields) fields[n] = text.substr(start);
  return n + 1;
}

/// Every field of `text`, split as above.
inline std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> fields(split(text, sep, nullptr, 0));
  split(text, sep, fields.data(), fields.size());
  return fields;
}

/// The bytes a word or list item never starts or ends with (C isspace).
inline constexpr std::string_view kSpace = " \t\n\v\f\r";

/// The words of `text`: runs of whitespace separate them, so no word is
/// empty and a blank line has none (the words mode for tc command lines).
inline std::vector<std::string_view> words(std::string_view text) {
  std::vector<std::string_view> out;
  for (std::size_t at = text.find_first_not_of(kSpace);
       at != std::string_view::npos; at = text.find_first_not_of(kSpace, at)) {
    std::size_t end = text.find_first_of(kSpace, at);  // npos: to the end
    out.push_back(text.substr(at, end - at));
    at = end;
  }
  return out;
}

/// A list item without its leading and trailing whitespace.
inline std::string_view trim(std::string_view item) {
  std::size_t first = item.find_first_not_of(kSpace);
  if (first == std::string_view::npos) return {};
  return item.substr(first, item.find_last_not_of(kSpace) - first + 1);
}

/// Parses the integer that starts at `first` into *out and returns the
/// byte after its last digit: the same integer parse_int reads, but the
/// bytes after it are the caller's, so a row reader can parse each field
/// where it lies and check its separator itself. Returns nullptr, leaving
/// *out unchanged, when no integer in [lo, hi] starts at `first`.
template <typename T>
inline const char* parse_int_prefix(
    const char* first, const char* last, T* out,
    std::type_identity_t<T> lo = std::numeric_limits<T>::min(),
    std::type_identity_t<T> hi = std::numeric_limits<T>::max(),
    int base = 10) {
  static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>);
  T v{};
  auto [ptr, ec] = std::from_chars(first, last, v, base);
  if (ec != std::errc() || v < lo || v > hi) return nullptr;
  *out = v;
  return ptr;
}

/// Parses all of `field` as an integer in [lo, hi] into *out, in decimal
/// unless `base` says otherwise (tc handles are hex, without "0x").
/// Returns false, leaving *out unchanged, on anything else.
template <typename T>
inline bool parse_int(std::string_view field, T* out,
                      std::type_identity_t<T> lo = std::numeric_limits<T>::min(),
                      std::type_identity_t<T> hi = std::numeric_limits<T>::max(),
                      int base = 10) {
  T v{};
  const char* end = field.data() + field.size();
  if (parse_int_prefix(field.data(), end, &v, lo, hi, base) != end) {
    return false;
  }
  *out = v;
  return true;
}

/// Parses all of `field` as a finite real in [lo, hi] into *out. Returns
/// false, leaving *out unchanged, on anything else, including a value too
/// large for a double.
inline bool parse_real(std::string_view field, double* out, double lo,
                       double hi) {
  double v = 0;
  const char* end = field.data() + field.size();
  auto [ptr, ec] = std::from_chars(field.data(), end, v);
  if (ec != std::errc() || ptr != end || !std::isfinite(v) || v < lo ||
      v > hi) {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace tls::sim
