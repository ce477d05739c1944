#include "sim/units.hpp"

#include <gtest/gtest.h>

namespace rb::sim {
namespace {

TEST(Units, TimeConstantsAreConsistent) {
  EXPECT_EQ(kNanosecond, 1000 * kPicosecond);
  EXPECT_EQ(kMicrosecond, 1000 * kNanosecond);
  EXPECT_EQ(kMillisecond, 1000 * kMicrosecond);
  EXPECT_EQ(kSecond, 1000 * kMillisecond);
}

TEST(Units, SecondsRoundTrip) {
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
  EXPECT_DOUBLE_EQ(to_seconds(from_seconds(2.5)), 2.5);
  EXPECT_DOUBLE_EQ(to_milliseconds(kSecond), 1000.0);
  EXPECT_DOUBLE_EQ(to_microseconds(kMillisecond), 1000.0);
}

TEST(Units, FromSecondsTruncatesTowardZero) {
  EXPECT_EQ(from_seconds(1e-13), 0);      // below 1 ps
  EXPECT_EQ(from_seconds(3e-12), 3);      // 3 ps
}

TEST(Units, DataSizeConstants) {
  EXPECT_EQ(kKiB, 1024u);
  EXPECT_EQ(kMiB, 1024u * 1024u);
  EXPECT_EQ(kGiB, 1024u * 1024u * 1024u);
}

TEST(Units, SerializationTimeMatchesAnalytic) {
  // 1250 bytes at 10 Gb/s = 1 microsecond.
  EXPECT_EQ(serialization_time(1250, 10e9), kMicrosecond);
  // 125 MB at 10 Gb/s = 0.1 s.
  EXPECT_NEAR(to_seconds(serialization_time(125'000'000, 10e9)), 0.1, 1e-9);
}

TEST(Units, SerializationScalesInverselyWithRate) {
  const auto slow = serialization_time(1'000'000, 10e9);
  const auto fast = serialization_time(1'000'000, 40e9);
  EXPECT_EQ(slow, 4 * fast);
}

}  // namespace
}  // namespace rb::sim
