/**
 * @file
 * TextBuilder: append-only text in one std::string, numbers formatted
 * with std::to_chars.  An insert is an append: no stream sentry, no
 * locale lookup, no virtual call.
 *
 * Formatting contract: the builder prints exactly what a default
 * std::ostream (the "C" locale, precision 6, no format flags) prints
 * for the same values.
 *  - Integers print in decimal.
 *  - A double prints as printf's "%.6g": "0", "-0", "2.23607",
 *    "1e-05", "1e+21", "inf", "-nan".  A float prints as its double.
 *  - char, const char *, std::string and std::string_view append
 *    verbatim.
 * bool, the 8-bit integers (std::int8_t, std::uint8_t) and the wide
 * character types do not compile: a stream prints the first two as
 * "1"/"0" and as characters and refuses the last, so a call site that
 * means a number must say so with a cast.
 */
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <string>
#include <string_view>
#include <utility>

namespace vqllm {

/** The integers a stream prints in decimal: not bool, not 8 bits wide,
 *  and not a character type. */
template <typename T>
concept DecimalInteger =
    std::integral<T> && sizeof(T) > 1 && !std::same_as<T, wchar_t> &&
    !std::same_as<T, char16_t> && !std::same_as<T, char32_t>;

class TextBuilder
{
  public:
    TextBuilder() = default;

    /** Start with room for `bytes` characters. */
    explicit TextBuilder(std::size_t bytes) { text_.reserve(bytes); }

    TextBuilder &
    operator<<(std::string_view s)
    {
        text_.append(s);
        return *this;
    }

    TextBuilder &
    operator<<(const char *s)
    {
        text_.append(s);
        return *this;
    }

    TextBuilder &
    operator<<(char c)
    {
        text_.push_back(c);
        return *this;
    }

    template <DecimalInteger T>
    TextBuilder &
    operator<<(T value)
    {
        char buf[24]; // 20 digits of 2^64 - 1, or a sign and 19
        const auto res = std::to_chars(buf, buf + sizeof buf, value);
        text_.append(buf, res.ptr);
        return *this;
    }

    template <std::integral T>
        requires(!DecimalInteger<T> && !std::same_as<T, char>)
    TextBuilder &operator<<(T) = delete;

    TextBuilder &
    operator<<(double value)
    {
        // Longest "%.6g": a sign, 6 digits, the point and "e-308".
        char buf[32];
        const auto res = std::to_chars(buf, buf + sizeof buf, value,
                                       std::chars_format::general, 6);
        text_.append(buf, res.ptr);
        return *this;
    }

    /** @return the text with no spare capacity, moved out of the
     *          builder (so a retained result holds only its bytes). */
    std::string
    take()
    {
        text_.shrink_to_fit();
        return std::move(text_);
    }

  private:
    std::string text_;
};

} // namespace vqllm
