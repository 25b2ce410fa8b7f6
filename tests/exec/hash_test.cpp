#include "exec/hash.h"

#include <gtest/gtest.h>

namespace mecsched::exec {
namespace {

TEST(MixTest, OrderAndStringSensitivity) {
  EXPECT_NE(mix(1, 2), mix(2, 1));
  EXPECT_NE(hash_string("LP-HTA"), hash_string("HGOS"));
  EXPECT_EQ(hash_string("LP-HTA"), hash_string("LP-HTA"));
}

}  // namespace
}  // namespace mecsched::exec
