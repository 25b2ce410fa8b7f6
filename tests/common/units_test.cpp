#include "common/units.h"

#include <gtest/gtest.h>

namespace mecsched::units {
namespace {

TEST(UnitsTest, DataSizeConversions) {
  EXPECT_DOUBLE_EQ(kilobytes(3000.0), 3.0e6);
  EXPECT_DOUBLE_EQ(1.5 * kMegaByte, 1.5e6);
}

TEST(UnitsTest, RateConversions) {
  EXPECT_DOUBLE_EQ(mbps(13.76), 13.76e6);
  EXPECT_DOUBLE_EQ(gbps(1.0), 1.0e9);
}

TEST(UnitsTest, FrequencyConversions) {
  EXPECT_DOUBLE_EQ(gigahertz(2.4), 2.4e9);
}

TEST(UnitsTest, TimeConversions) {
  EXPECT_DOUBLE_EQ(milliseconds(250.0), 0.25);
}

TEST(UnitsTest, TransferSecondsUsesBits) {
  // 1 MB over 8 Mbps = 1 second.
  EXPECT_DOUBLE_EQ(transfer_seconds(1e6, 8e6), 1.0);
  // paper example: 3000 kB over 4G uplink 5.85 Mbps ≈ 4.1 s
  EXPECT_NEAR(transfer_seconds(kilobytes(3000), mbps(5.85)), 4.10, 0.01);
}

}  // namespace
}  // namespace mecsched::units
