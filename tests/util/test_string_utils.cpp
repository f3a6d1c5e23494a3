/**
 * @file
 * Unit tests for the string helpers.
 */

#include <gtest/gtest.h>

#include "util/error.h"
#include "util/string_utils.h"

namespace
{

using namespace dtrank;

TEST(Split, BasicFields)
{
    const auto parts = util::split("a,b,c", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "b");
    EXPECT_EQ(parts[2], "c");
}

TEST(Split, KeepsEmptyFields)
{
    const auto parts = util::split(",x,,", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "");
    EXPECT_EQ(parts[1], "x");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(parts[3], "");
}

TEST(Split, EmptyStringYieldsOneEmptyField)
{
    const auto parts = util::split("", '|');
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts[0], "");
}

TEST(Trim, RemovesSurroundingWhitespace)
{
    EXPECT_EQ(util::trim("  hello \t\n"), "hello");
    EXPECT_EQ(util::trim("nochange"), "nochange");
    EXPECT_EQ(util::trim("   "), "");
    EXPECT_EQ(util::trim(""), "");
    EXPECT_EQ(util::trim(" a b "), "a b");
}

TEST(ToLower, AsciiOnly)
{
    EXPECT_EQ(util::toLower("MiXeD123!"), "mixed123!");
    EXPECT_EQ(util::toLower(""), "");
}

TEST(StartsEndsWith, Basics)
{
    EXPECT_TRUE(util::startsWith("benchmark", "bench"));
    EXPECT_FALSE(util::startsWith("bench", "benchmark"));
    EXPECT_TRUE(util::startsWith("x", ""));
}

TEST(FormatFixed, Decimals)
{
    EXPECT_EQ(util::formatFixed(3.14159, 2), "3.14");
    EXPECT_EQ(util::formatFixed(2.0, 0), "2");
    EXPECT_EQ(util::formatFixed(-0.5, 1), "-0.5");
    EXPECT_EQ(util::formatFixed(1.005e2, 1), "100.5");
}

TEST(ParseDouble, ValidInputs)
{
    EXPECT_DOUBLE_EQ(util::parseDouble("3.5"), 3.5);
    EXPECT_DOUBLE_EQ(util::parseDouble("  -2e3 "), -2000.0);
    EXPECT_DOUBLE_EQ(util::parseDouble("0"), 0.0);
}

TEST(ParseDouble, RejectsMalformed)
{
    EXPECT_THROW(util::parseDouble(""), util::InvalidArgument);
    EXPECT_THROW(util::parseDouble("abc"), util::InvalidArgument);
    EXPECT_THROW(util::parseDouble("1.5x"), util::InvalidArgument);
    EXPECT_THROW(util::parseDouble("1.5 2"), util::InvalidArgument);
}

TEST(ParseLong, ValidInputs)
{
    EXPECT_EQ(util::parseLong("42"), 42);
    EXPECT_EQ(util::parseLong(" -7 "), -7);
}

TEST(ParseLong, RejectsMalformed)
{
    EXPECT_THROW(util::parseLong(""), util::InvalidArgument);
    EXPECT_THROW(util::parseLong("12.5"), util::InvalidArgument);
    EXPECT_THROW(util::parseLong("x"), util::InvalidArgument);
}

} // namespace
