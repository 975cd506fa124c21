/**
 * @file
 * Whole-string number parsing for command-line values.
 */

#pragma once

#include <charconv>
#include <optional>
#include <string_view>
#include <system_error>

namespace atmsim::util {

/**
 * All of text as a T: nullopt when text is empty, malformed, out of
 * T's range, or followed by anything ("5x", " 5").
 */
template <typename T>
[[nodiscard]] std::optional<T>
parseNumber(std::string_view text)
{
    T value{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (text.empty() || ec != std::errc() || ptr != end)
        return std::nullopt;
    return value;
}

} // namespace atmsim::util
