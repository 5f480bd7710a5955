#ifndef TSG_BASE_PARSE_H_
#define TSG_BASE_PARSE_H_

#include <charconv>
#include <cmath>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace tsg::base {

/// Parses all of `text` as one T into `*value` — the strict number rule every
/// command-line flag and numeric environment variable goes through. Returns
/// false, leaving *value untouched, when the text is empty, only partly numeric
/// ("12x", " 3", "64M"), out of T's range, or (for floating point) not finite.
template <typename T>
bool ParseNumber(std::string_view text, T* value) {
  T parsed{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, parsed);
  bool ok = ec == std::errc() && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(parsed);
  if (ok) *value = parsed;
  return ok;
}

}  // namespace tsg::base

#endif  // TSG_BASE_PARSE_H_
