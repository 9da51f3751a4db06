#include <gtest/gtest.h>

#include <vector>

#include "util/options.hpp"

using namespace pccsim;

namespace {

Options
parse(std::vector<const char *> args)
{
    args.insert(args.begin(), "prog");
    return Options(static_cast<int>(args.size()),
                   const_cast<char **>(args.data()));
}

} // namespace

TEST(Options, KeyEqualsValue)
{
    auto opts = parse({"--scale=small", "--cap=4.5"});
    EXPECT_EQ(opts.get("scale"), "small");
    EXPECT_DOUBLE_EQ(opts.getDouble("cap", 0), 4.5);
}

TEST(Options, KeySpaceValue)
{
    auto opts = parse({"--scale", "medium"});
    EXPECT_EQ(opts.get("scale"), "medium");
}

TEST(Options, BareFlag)
{
    auto opts = parse({"--verbose"});
    EXPECT_TRUE(opts.has("verbose"));
    EXPECT_TRUE(opts.getBool("verbose"));
    EXPECT_FALSE(opts.getBool("quiet"));
}

TEST(Options, BoolValues)
{
    EXPECT_TRUE(parse({"--x=true"}).getBool("x"));
    EXPECT_TRUE(parse({"--x=1"}).getBool("x"));
    EXPECT_TRUE(parse({"--x=on"}).getBool("x"));
    EXPECT_FALSE(parse({"--x=0"}).getBool("x"));
}

TEST(Options, IntFallbackAndParsing)
{
    auto opts = parse({"--n=42"});
    EXPECT_EQ(opts.getInt("n", 0), 42);
    EXPECT_EQ(opts.getInt("m", 7), 7);
}

TEST(Options, HexIntegers)
{
    auto opts = parse({"--addr=0x10"});
    EXPECT_EQ(opts.getInt("addr", 0), 16);
}

TEST(Options, PositionalCollected)
{
    auto opts = parse({"one", "--k=v", "two"});
    ASSERT_EQ(opts.positional().size(), 2u);
    EXPECT_EQ(opts.positional()[0], "one");
    EXPECT_EQ(opts.positional()[1], "two");
}

TEST(Options, FallbackWhenMissing)
{
    auto opts = parse({});
    EXPECT_EQ(opts.get("nothing", "dflt"), "dflt");
    EXPECT_DOUBLE_EQ(opts.getDouble("nothing", 1.5), 1.5);
}

TEST(Options, SignedAndFractionalValues)
{
    auto opts = parse({"--n=-3", "--x=-1.5", "--y=2e3"});
    EXPECT_EQ(opts.getInt("n", 0), -3);
    EXPECT_DOUBLE_EQ(opts.getDouble("x", 0), -1.5);
    EXPECT_DOUBLE_EQ(opts.getDouble("y", 0), 2000.0);
}

TEST(Options, ParseDecimalIsStrict)
{
    EXPECT_EQ(parseDecimal("100000"), 100000u);
    EXPECT_EQ(parseDecimal("0"), 0u);
    EXPECT_EQ(parseDecimal(""), std::nullopt);
    EXPECT_EQ(parseDecimal("12x"), std::nullopt);
    EXPECT_EQ(parseDecimal("-1"), std::nullopt);
    EXPECT_EQ(parseDecimal(" 1"), std::nullopt);
    EXPECT_EQ(parseDecimal("99999999999999999999999"), std::nullopt);
}

// Malformed numbers are fatal (exit 1) and name the option, instead
// of silently becoming 0.
TEST(OptionsDeathTest, MalformedIntegerIsFatal)
{
    EXPECT_EXIT(parse({"--seed=abc"}).getInt("seed", 42),
                ::testing::ExitedWithCode(1), "--seed=abc");
    EXPECT_EXIT(parse({"--jobs=4x"}).getInt("jobs", 1),
                ::testing::ExitedWithCode(1), "--jobs=4x");
    EXPECT_EXIT(parse({"--n=1.5"}).getInt("n", 0),
                ::testing::ExitedWithCode(1), "--n=1.5");
    EXPECT_EXIT(parse({"--n=99999999999999999999999"}).getInt("n", 0),
                ::testing::ExitedWithCode(1), "--n=");
}

TEST(OptionsDeathTest, MalformedDoubleIsFatal)
{
    EXPECT_EXIT(parse({"--cap=abc"}).getDouble("cap", 8.0),
                ::testing::ExitedWithCode(1), "--cap=abc");
    EXPECT_EXIT(parse({"--cap=4.5%"}).getDouble("cap", 8.0),
                ::testing::ExitedWithCode(1), "--cap=4.5%");
    EXPECT_EXIT(parse({"--frag=nan"}).getDouble("frag", 0.5),
                ::testing::ExitedWithCode(1), "--frag=nan");
    EXPECT_EXIT(parse({"--frag=1e999"}).getDouble("frag", 0.5),
                ::testing::ExitedWithCode(1), "--frag=1e999");
}

TEST(Options, ParseFiniteIsStrict)
{
    EXPECT_EQ(parseFinite("0.9"), 0.9);
    EXPECT_EQ(parseFinite("-2e3"), -2000.0);
    EXPECT_EQ(parseFinite(""), std::nullopt);
    EXPECT_EQ(parseFinite("x"), std::nullopt);
    EXPECT_EQ(parseFinite("0.5x"), std::nullopt);
    EXPECT_EQ(parseFinite("nan"), std::nullopt);
    EXPECT_EQ(parseFinite("inf"), std::nullopt);
    EXPECT_EQ(parseFinite("1e999"), std::nullopt);
}

TEST(Options, SplitCsvKeepsEmptyItems)
{
    EXPECT_EQ(splitCsv(""), std::vector<std::string>{});
    EXPECT_EQ(splitCsv("a"), std::vector<std::string>{"a"});
    EXPECT_EQ(splitCsv("a,,b"), (std::vector<std::string>{"a", "", "b"}));
    EXPECT_EQ(splitCsv("a,"), (std::vector<std::string>{"a", ""}));
}

TEST(Options, DecimalAndDoubleLists)
{
    auto opts = parse({"--tenants=2,4,8", "--frag=0,0.9,1"});
    EXPECT_EQ(opts.getDecimalList("tenants"),
              (std::vector<u64>{2, 4, 8}));
    EXPECT_EQ(opts.getDoubleList("frag"),
              (std::vector<double>{0.0, 0.9, 1.0}));
    EXPECT_TRUE(opts.getDecimalList("absent").empty());
    EXPECT_TRUE(opts.getDoubleList("absent").empty());
}

// A malformed item anywhere in a list is fatal and names the option,
// instead of becoming 0 (or, for an empty list, no sweep at all).
TEST(OptionsDeathTest, MalformedListsAreFatal)
{
    EXPECT_EXIT(parse({"--tenants=abc"}).getDecimalList("tenants"),
                ::testing::ExitedWithCode(1), "--tenants=abc is not");
    EXPECT_EXIT(parse({"--tenants=2,x"}).getDecimalList("tenants"),
                ::testing::ExitedWithCode(1), "--tenants=2,x is not");
    EXPECT_EXIT(parse({"--tenants=2,,4"}).getDecimalList("tenants"),
                ::testing::ExitedWithCode(1), "--tenants=2,,4 is not");
    EXPECT_EXIT(parse({"--tenants="}).getDecimalList("tenants"),
                ::testing::ExitedWithCode(1), "--tenants= is not");
    EXPECT_EXIT(parse({"--frag=x"}).getDoubleList("frag"),
                ::testing::ExitedWithCode(1), "--frag=x is not");
    EXPECT_EXIT(parse({"--frag=0,nan"}).getDoubleList("frag"),
                ::testing::ExitedWithCode(1), "--frag=0,nan is not");
}
