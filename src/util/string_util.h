#ifndef FSJOIN_UTIL_STRING_UTIL_H_
#define FSJOIN_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fsjoin {

/// Splits on any character in `delims`, dropping empty pieces.
std::vector<std::string_view> SplitString(std::string_view s,
                                          std::string_view delims);

/// ASCII lowercase copy.
std::string ToLowerAscii(std::string_view s);

/// Strips leading/trailing ASCII whitespace.
std::string_view TrimWhitespace(std::string_view s);

/// Parses a plain decimal integer in [0, max]: ASCII digits only, so a
/// sign, whitespace, a suffix, an empty string or a value above `max`
/// (overflow included) all return false and leave *out untouched.
bool ParseUnsigned(std::string_view text, uint64_t max, uint64_t* out);

/// "1.5 GB"-style rendering of a byte count.
std::string HumanBytes(uint64_t bytes);

/// "12,345,678"-style rendering of a count.
std::string WithThousandsSep(uint64_t v);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace fsjoin

#endif  // FSJOIN_UTIL_STRING_UTIL_H_
