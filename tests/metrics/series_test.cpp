#include "metrics/series.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/error.h"

namespace mecsched::metrics {
namespace {

TEST(SeriesCollectorTest, AveragesRepeatedMeasurements) {
  SeriesCollector s("x", {"a", "b"});
  s.add(1.0, "a", 10.0);
  s.add(1.0, "a", 20.0);
  s.add(1.0, "b", 5.0);
  EXPECT_DOUBLE_EQ(s.mean(1.0, "a"), 15.0);
  EXPECT_DOUBLE_EQ(s.mean(1.0, "b"), 5.0);
}

TEST(SeriesCollectorTest, MissingCellsAreNaN) {
  SeriesCollector s("x", {"a"});
  s.add(1.0, "a", 1.0);
  EXPECT_TRUE(std::isnan(s.mean(2.0, "a")));
}

TEST(SeriesCollectorTest, RejectsUnknownSeries) {
  SeriesCollector s("x", {"a"});
  EXPECT_THROW(s.add(1.0, "zzz", 1.0), ModelError);
  EXPECT_THROW(SeriesCollector("x", {}), ModelError);
}

TEST(SeriesCollectorTest, XsSortedAscending) {
  SeriesCollector s("x", {"a"});
  s.add(3.0, "a", 1.0);
  s.add(1.0, "a", 1.0);
  s.add(2.0, "a", 1.0);
  EXPECT_EQ(s.xs(), (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(SeriesCollectorTest, TableShowsMissingAsDash) {
  SeriesCollector s("x", {"a", "b"});
  s.add(1.0, "a", 2.5);
  std::ostringstream os;
  os << s.to_table(1);
  EXPECT_NE(os.str().find("2.5"), std::string::npos);
  EXPECT_NE(os.str().find("-"), std::string::npos);
}

TEST(SeriesCollectorTest, FractionalXsKeepDecimals) {
  SeriesCollector s("ratio", {"a"});
  s.add(0.05, "a", 1.0);
  s.add(2.0, "a", 1.0);
  std::ostringstream os;
  os << s.to_table(1);
  EXPECT_NE(os.str().find("0.05"), std::string::npos);
  // whole numbers print without decimals (right-aligned cell " 2 |")
  EXPECT_NE(os.str().find(" 2 |"), std::string::npos);
  EXPECT_EQ(os.str().find("2.00 |"), std::string::npos);
}

TEST(SeriesCollectorTest, CsvRoundTrip) {
  SeriesCollector s("x", {"a"});
  s.add(1.0, "a", 2.0);
  s.add(2.0, "a", 4.0);
  const std::string path = ::testing::TempDir() + "series_test.csv";
  s.write_csv(path, 1);
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,a");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2.0");
  std::getline(in, line);
  EXPECT_EQ(line, "2,4.0");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mecsched::metrics
