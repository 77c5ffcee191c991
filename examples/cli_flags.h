/**
 * @file
 * Strict numeric flag values for the simulator programs (serving_sim,
 * fleet_sim).  The whole token must parse, counts take no sign, reals
 * must be finite, and a bad value is a usage error that names the flag
 * (exit code 2) — never a silent wrap-around, a truncated suffix or an
 * uncaught exception.
 */
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>

namespace vqllm::cli {

struct NumericFlags
{
    /** Prints the message with the program's usage text and exits
     *  with code 2; never returns. */
    void (*usage_error)(const std::string &message);

    /** @return a count in [min, max]: decimal digits only. */
    std::uint64_t
    count(const std::string &flag, const std::string &text,
          std::uint64_t min = 0,
          std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) const
    {
        // strtoull would skip whitespace and accept a sign, turning
        // "-1" into 2^64 - 1; only plain digits are a count.
        const bool digits =
            !text.empty() &&
            text.find_first_not_of("0123456789") == std::string::npos;
        errno = 0;
        const std::uint64_t v =
            digits ? std::strtoull(text.c_str(), nullptr, 10) : 0;
        if (!digits || errno == ERANGE)
            usage_error(flag + " expects a non-negative integer, got '" +
                        text + "'");
        if (v < min)
            usage_error(flag + " must be >= " + std::to_string(min) +
                        ", got " + text);
        if (v > max)
            usage_error(flag + " must be <= " + std::to_string(max) +
                        ", got " + text);
        return v;
    }

    /** @return a finite real (the whole token parsed). */
    double
    real(const std::string &flag, const std::string &text) const
    {
        char *end = nullptr;
        const double v = std::strtod(text.c_str(), &end);
        if (text.empty() || std::isspace(static_cast<unsigned char>(
                                text.front())) ||
            end != text.c_str() + text.size() || !std::isfinite(v))
            usage_error(flag + " expects a finite number, got '" + text +
                        "'");
        return v;
    }
};

} // namespace vqllm::cli
