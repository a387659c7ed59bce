#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "util/check.h"
#include "util/flags.h"
#include "util/table.h"

namespace omcast::util {
namespace {

TEST(FlagSet, ParsesEqualsAndSpaceForms) {
  FlagSet f;
  f.Define("alpha", "1", "").Define("beta", "x", "");
  const char* argv[] = {"prog", "--alpha=7", "--beta", "hello"};
  ASSERT_TRUE(f.Parse(4, const_cast<char**>(argv)));
  EXPECT_EQ(f.GetInt("alpha"), 7);
  EXPECT_EQ(f.GetString("beta"), "hello");
}

TEST(FlagSet, DefaultsApplyWhenUnset) {
  FlagSet f;
  f.Define("x", "3.5", "");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(f.Parse(1, const_cast<char**>(argv)));
  EXPECT_DOUBLE_EQ(f.GetDouble("x"), 3.5);
}

TEST(FlagSet, RejectsUnknownFlag) {
  FlagSet f;
  f.Define("x", "1", "");
  const char* argv[] = {"prog", "--nope=2"};
  EXPECT_FALSE(f.Parse(2, const_cast<char**>(argv)));
}

TEST(FlagSet, RejectsMissingValue) {
  FlagSet f;
  f.Define("x", "1", "");
  const char* argv[] = {"prog", "--x"};
  EXPECT_FALSE(f.Parse(2, const_cast<char**>(argv)));
}

TEST(FlagSet, HelpReturnsFalse) {
  FlagSet f;
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(f.Parse(2, const_cast<char**>(argv)));
}

TEST(FlagSet, BoolForms) {
  FlagSet f;
  f.Define("a", "true", "").Define("b", "0", "").Define("c", "yes", "");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(f.Parse(1, const_cast<char**>(argv)));
  EXPECT_TRUE(f.GetBool("a"));
  EXPECT_FALSE(f.GetBool("b"));
  EXPECT_TRUE(f.GetBool("c"));
}

TEST(FlagSet, IntList) {
  FlagSet f;
  f.Define("sizes", "2000,5000,8000", "");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(f.Parse(1, const_cast<char**>(argv)));
  EXPECT_EQ(f.GetIntList("sizes"), (std::vector<int>{2000, 5000, 8000}));
}

TEST(FlagSet, IntListSingleAndEmptyTokens) {
  FlagSet f;
  f.Define("sizes", "42", "");
  const char* argv[] = {"prog", "--sizes=7,,9"};
  ASSERT_TRUE(f.Parse(2, const_cast<char**>(argv)));
  EXPECT_EQ(f.GetIntList("sizes"), (std::vector<int>{7, 9}));
}

TEST(FlagSet, RejectsFollowingFlagAsValue) {
  // `--out --threads=1` must not silently set out="--threads=1".
  FlagSet f;
  f.Define("out", "results", "").Define("threads", "0", "");
  const char* argv[] = {"prog", "--out", "--threads=1"};
  EXPECT_FALSE(f.Parse(3, const_cast<char**>(argv)));
}

TEST(FlagSet, BareBooleanFlagSetsTrue) {
  FlagSet f;
  f.Define("profile", "false", "").Define("quick", "off", "");
  f.Define("threads", "0", "");
  // Before another flag, and last in argv.
  const char* argv[] = {"prog", "--profile", "--threads=1", "--quick"};
  ASSERT_TRUE(f.Parse(4, const_cast<char**>(argv)));
  EXPECT_TRUE(f.GetBool("profile"));
  EXPECT_TRUE(f.GetBool("quick"));
  EXPECT_EQ(f.GetInt("threads"), 1);
}

TEST(FlagSet, BareFlagWithNonBooleanDefaultNeedsAValue) {
  // "0"/"1" defaults may be counts, so only word booleans act as switches.
  for (const char* def : {"0", "1", "", "results"}) {
    FlagSet last;
    last.Define("x", def, "");
    const char* argv_last[] = {"prog", "--x"};
    EXPECT_FALSE(last.Parse(2, const_cast<char**>(argv_last))) << def;
    FlagSet before;
    before.Define("x", def, "").Define("y", "2", "");
    const char* argv_before[] = {"prog", "--x", "--y=3"};
    EXPECT_FALSE(before.Parse(3, const_cast<char**>(argv_before))) << def;
  }
}

TEST(FlagSet, SpaceFormTakesNegativeNumbers) {
  FlagSet f;
  f.Define("warmup", "0", "").Define("seed", "1", "");
  const char* argv[] = {"prog", "--warmup", "-1.5", "--seed", "-2"};
  ASSERT_TRUE(f.Parse(5, const_cast<char**>(argv)));
  EXPECT_DOUBLE_EQ(f.GetDouble("warmup"), -1.5);
  EXPECT_EQ(f.GetInt("seed"), -2);
}

TEST(FlagSet, FalseBoolForms) {
  FlagSet f;
  f.Define("a", "no", "").Define("b", "off", "").Define("c", "false", "");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(f.Parse(1, const_cast<char**>(argv)));
  EXPECT_FALSE(f.GetBool("a"));
  EXPECT_FALSE(f.GetBool("b"));
  EXPECT_FALSE(f.GetBool("c"));
}

// Malformed values abort instead of parsing as a prefix, 0 or false.
FlagSet ParsedWith(const char* value) {
  FlagSet f;
  f.Define("v", "0", "");
  const std::string arg = std::string("--v=") + value;
  const char* argv[] = {"prog", arg.c_str()};
  Check(f.Parse(2, const_cast<char**>(argv)), "flag must parse");
  return f;
}

TEST(FlagSetDeathTest, GetBoolRejectsUnknownWord) {
  EXPECT_DEATH(ParsedWith("maybe").GetBool("v"), "--v='maybe'");
  EXPECT_DEATH(ParsedWith("").GetBool("v"), "not a boolean");
}

TEST(FlagSetDeathTest, GetIntRejectsMalformed) {
  EXPECT_DEATH(ParsedWith("").GetInt("v"), "not an integer");
  EXPECT_DEATH(ParsedWith("abc").GetInt("v"), "not an integer");
  EXPECT_DEATH(ParsedWith("12abc").GetInt("v"), "not an integer");
  EXPECT_DEATH(ParsedWith("1.5").GetInt("v"), "not an integer");
  EXPECT_DEATH(ParsedWith("99999999999").GetInt("v"), "not an integer");
}

TEST(FlagSetDeathTest, GetDoubleRejectsMalformed) {
  EXPECT_DEATH(ParsedWith("").GetDouble("v"), "not a number");
  EXPECT_DEATH(ParsedWith("fast").GetDouble("v"), "not a number");
  EXPECT_DEATH(ParsedWith("600s").GetDouble("v"), "not a number");
}

TEST(FlagSetDeathTest, GetIntListRejectsMalformed) {
  EXPECT_DEATH(ParsedWith("").GetIntList("v"), "not a list of integers");
  EXPECT_DEATH(ParsedWith("500,1k").GetIntList("v"), "not a list of integers");
  EXPECT_DEATH(ParsedWith("500;1000").GetIntList("v"),
               "not a list of integers");
}

TEST(Table, AlignsColumns) {
  Table t({"name", "v"});
  t.AddRow({"a", "1"});
  t.AddRow({"longer", "2"});
  std::ostringstream os;
  t.Print(os, "title");
  const std::string out = os.str();
  EXPECT_NE(out.find("title\n"), std::string::npos);
  EXPECT_NE(out.find("longer  2"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, FormatsDoubleRows) {
  Table t({"k", "x", "y"});
  t.AddRow("row", {1.23456, 2.0}, 2);
  std::ostringstream os;
  t.Print(os);
  EXPECT_NE(os.str().find("1.23"), std::string::npos);
  EXPECT_NE(os.str().find("2.00"), std::string::npos);
}

TEST(Table, FormatDoubleHelper) {
  EXPECT_EQ(FormatDouble(3.14159, 3), "3.142");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
}

TEST(TableDeath, WrongArityAborts) {
  Table t({"a", "b"});
  EXPECT_DEATH(t.AddRow({"only-one"}), "arity");
}

}  // namespace
}  // namespace omcast::util
