#include "accel/text.hpp"

#include <gtest/gtest.h>

namespace rb::accel {
namespace {

TEST(Tokenize, EmptyString) { EXPECT_TRUE(tokenize("").empty()); }

TEST(Tokenize, SimpleWords) {
  const auto tokens = tokenize("big data europe");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], "big");
  EXPECT_EQ(tokens[2], "europe");
}

TEST(Tokenize, PunctuationSeparates) {
  const auto tokens = tokenize("a,b;c.d!e");
  EXPECT_EQ(tokens.size(), 5u);
}

TEST(Tokenize, DigitsAreWordChars) {
  const auto tokens = tokenize("w42 100GbE");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0], "w42");
  EXPECT_EQ(tokens[1], "100GbE");
}

TEST(Tokenize, LeadingTrailingSeparators) {
  const auto tokens = tokenize("  hello  world  ");
  ASSERT_EQ(tokens.size(), 2u);
}

TEST(Tokenize, OnlySeparators) {
  EXPECT_TRUE(tokenize(" .,;! ").empty());
}

TEST(Matcher, RejectsEmptyPattern) {
  EXPECT_THROW(PatternMatcher({""}), std::invalid_argument);
}

TEST(Matcher, SinglePattern) {
  const PatternMatcher m{{"error"}};
  EXPECT_EQ(m.count_matches("no errors here: error error"), 3u);
  EXPECT_EQ(m.count_matches("all good"), 0u);
}

TEST(Matcher, OverlappingMatchesCounted) {
  const PatternMatcher m{{"aa"}};
  EXPECT_EQ(m.count_matches("aaaa"), 3u);
}

TEST(Matcher, MultiplePatternsSimultaneously) {
  const PatternMatcher m{{"he", "she", "his", "hers"}};
  // Classic Aho-Corasick example: "ushers" contains she, he, hers.
  EXPECT_EQ(m.count_matches("ushers"), 3u);
}

TEST(Matcher, PatternIsSubstringOfAnother) {
  const PatternMatcher m{{"ab", "abc"}};
  EXPECT_EQ(m.count_matches("abcabc"), 4u);  // "ab" twice, "abc" twice
}

TEST(Matcher, BinarySafeBytes) {
  const std::string pattern{"\xff\x01"};
  const PatternMatcher m{{pattern}};
  const std::string text = std::string{"x"} + pattern + "y" + pattern;
  EXPECT_EQ(m.count_matches(text), 2u);
}

TEST(Matcher, EmptyTextMatchesNothing) {
  const PatternMatcher m{{"abc"}};
  EXPECT_EQ(m.count_matches(""), 0u);
}

TEST(Matcher, LongTextManyPatterns) {
  std::vector<std::string> patterns;
  for (int i = 0; i < 50; ++i) {
    patterns.push_back("pat" + std::to_string(i) + "x");
  }
  const PatternMatcher m{patterns};
  std::string text;
  for (int rep = 0; rep < 100; ++rep) {
    text += "noise pat7x filler pat33x ";
  }
  EXPECT_EQ(m.count_matches(text), 200u);
}

}  // namespace
}  // namespace rb::accel
