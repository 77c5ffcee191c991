/**
 * @file
 * Tests for TextBuilder: for every kind of value it formats, its
 * output equals a default std::ostringstream's, and the types a stream
 * prints differently from a number (bool, the 8-bit integers) or
 * refuses (the wide character types) do not compile.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>

#include "common/text_builder.h"

namespace vqllm {
namespace {

template <typename T>
std::string
viaStream(const T &value)
{
    std::ostringstream os;
    os << value;
    return os.str();
}

template <typename T>
std::string
viaBuilder(const T &value)
{
    TextBuilder out;
    out << value;
    return out.take();
}

template <typename T>
void
expectIntegerLimits()
{
    using L = std::numeric_limits<T>;
    for (T v : {L::min(), static_cast<T>(L::min() + 1), T{0}, T{1},
                static_cast<T>(L::max() / 10), static_cast<T>(L::max() - 1),
                L::max()})
        EXPECT_EQ(viaBuilder(v), viaStream(v)) << viaStream(v);
}

TEST(TextBuilder, IntegersMatchStreamAtEveryWidth)
{
    expectIntegerLimits<short>();
    expectIntegerLimits<unsigned short>();
    expectIntegerLimits<int>();
    expectIntegerLimits<unsigned>();
    expectIntegerLimits<long>();
    expectIntegerLimits<unsigned long>();
    expectIntegerLimits<long long>();
    expectIntegerLimits<unsigned long long>();
    expectIntegerLimits<std::int16_t>();
    expectIntegerLimits<std::uint16_t>();
    expectIntegerLimits<std::int32_t>();
    expectIntegerLimits<std::uint32_t>();
    expectIntegerLimits<std::int64_t>();
    expectIntegerLimits<std::uint64_t>();
    expectIntegerLimits<std::size_t>();
    expectIntegerLimits<std::ptrdiff_t>();
    EXPECT_EQ(viaBuilder(-42), "-42");
}

TEST(TextBuilder, DoublesMatchStreamDefaultFormat)
{
    using L = std::numeric_limits<double>;
    const double values[] = {
        0.0,        -0.0,        std::sqrt(5.0), 1e-5,
        123456.5,   999999.5,    1e6,            1e21,
        L::denorm_min(), L::infinity(), -L::infinity(),
        L::quiet_NaN(),  -L::quiet_NaN(),
        // Planner values of the kind KernelPlan::summary() prints.
        1.0,        2.5,         10.666666666666666, 0.1,
        L::max(),   L::min(),    -1e-300,
    };
    for (double v : values)
        EXPECT_EQ(viaBuilder(v), viaStream(v)) << viaStream(v);
    EXPECT_EQ(viaBuilder(std::sqrt(5.0)), "2.23607");
    EXPECT_EQ(viaBuilder(-0.0), "-0");
    // A float prints as its double, as a stream prints it.
    EXPECT_EQ(viaBuilder(0.1f), viaStream(0.1f));
}

TEST(TextBuilder, CharactersAndStringsAppendVerbatim)
{
    EXPECT_EQ(viaBuilder('x'), viaStream('x'));
    const char *cstr = "cb_load(";
    EXPECT_EQ(viaBuilder(cstr), viaStream(cstr));
    const std::string str = "VQ<8,12,2>";
    EXPECT_EQ(viaBuilder(str), viaStream(str));
    const std::string_view view = "// fused";
    EXPECT_EQ(viaBuilder(view), viaStream(view));
    EXPECT_EQ(viaBuilder(""), "");

    TextBuilder out;
    out << "m" << 4096 << 'n' << std::string("x") << std::string_view("y")
        << 0.5;
    EXPECT_EQ(out.take(), "m4096nxy0.5");
}

TEST(TextBuilder, TakeReturnsTextWithoutSpareCapacity)
{
    TextBuilder out(8192);
    std::string expected;
    for (int i = 0; i < 100; ++i) {
        out << "line " << i << '\n';
        expected += "line " + std::to_string(i) + "\n";
    }
    const std::string text = out.take();
    EXPECT_EQ(text, expected);
    EXPECT_EQ(text.capacity(), text.size());
}

template <typename T>
concept Formats = requires(TextBuilder &out, T value) { out << value; };

TEST(TextBuilder, RefusesTypesAStreamDoesNotPrintAsNumbers)
{
    static_assert(!Formats<bool>);
    static_assert(!Formats<std::int8_t>);
    static_assert(!Formats<std::uint8_t>);
    static_assert(!Formats<signed char>);
    static_assert(!Formats<unsigned char>);
    static_assert(!Formats<wchar_t>);
    static_assert(!Formats<char16_t>);
    static_assert(!Formats<char32_t>);
    static_assert(Formats<char>);
    static_assert(Formats<std::int16_t>);
    static_assert(Formats<std::uint64_t>);
    static_assert(Formats<double>);
    static_assert(Formats<const char *>);
    static_assert(Formats<std::string>);
    static_assert(Formats<std::string_view>);
}

} // namespace
} // namespace vqllm
