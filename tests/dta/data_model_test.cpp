#include "dta/data_model.h"

#include <gtest/gtest.h>

#include <string>

#include "common/error.h"

namespace mecsched::dta {
namespace {

TEST(SetAlgebraTest, Intersect) {
  EXPECT_EQ(set_intersect({1, 3, 5, 7}, {2, 3, 4, 7}), (ItemSet{3, 7}));
  EXPECT_EQ(set_intersect({}, {1}), ItemSet{});
  EXPECT_EQ(set_intersect({1, 2}, {}), ItemSet{});
}

TEST(SetAlgebraTest, Union) {
  EXPECT_EQ(set_union({1, 3}, {2, 3}), (ItemSet{1, 2, 3}));
  EXPECT_EQ(set_union({}, {}), ItemSet{});
}

TEST(SetAlgebraTest, Minus) {
  EXPECT_EQ(set_minus({1, 2, 3, 4}, {2, 4}), (ItemSet{1, 3}));
  EXPECT_EQ(set_minus({1}, {1}), ItemSet{});
}

TEST(SetAlgebraTest, ContainsAndSortedUnique) {
  EXPECT_TRUE(is_sorted_unique({1, 2, 3}));
  EXPECT_TRUE(is_sorted_unique({}));
  EXPECT_FALSE(is_sorted_unique({1, 1}));
  EXPECT_FALSE(is_sorted_unique({2, 1}));
}

TEST(DataUniverseTest, SizesAndTotals) {
  const DataUniverse u({100.0, 200.0, 300.0});
  EXPECT_EQ(u.num_items(), 3u);
  EXPECT_DOUBLE_EQ(u.item_size(1), 200.0);
  EXPECT_DOUBLE_EQ(u.total_bytes({0, 2}), 400.0);
  EXPECT_DOUBLE_EQ(u.total_bytes({}), 0.0);
  EXPECT_THROW(u.item_size(3), ModelError);
  EXPECT_THROW(u.total_bytes({0, 3}), ModelError);
  EXPECT_THROW(DataUniverse({-1.0}), ModelError);
}

TEST(DataUniverseTest, OutOfRangeItemKeepsItsMessage) {
  const DataUniverse u({100.0, 200.0});
  for (const std::size_t r : {std::size_t{2}, std::size_t{1000}}) {
    try {
      (void)u.item_size(r);
      ADD_FAILURE() << "item " << r << " did not throw";
    } catch (const ModelError& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind("precondition failed: (r < item_bytes_.size()) at ",
                           0),
                0u)
          << what;
      EXPECT_NE(what.find("data_model.cpp:"), std::string::npos) << what;
      const std::string tail = " — item id out of range";
      ASSERT_GE(what.size(), tail.size()) << what;
      EXPECT_EQ(what.substr(what.size() - tail.size()), tail) << what;
    }
  }
}

TEST(DivisibleTaskTest, ResultSizeModels) {
  DivisibleTask t;
  t.result_ratio = 0.25;
  EXPECT_DOUBLE_EQ(t.result_bytes(1000.0), 250.0);
  t.result_kind = mec::ResultSizeKind::kConstant;
  t.result_const_bytes = 99.0;
  EXPECT_DOUBLE_EQ(t.result_bytes(1000.0), 99.0);
}

}  // namespace
}  // namespace mecsched::dta
