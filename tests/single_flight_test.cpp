// Tests for the single-flight memo (core/single_flight.h) on the path its
// two product users cannot reach on demand: a failing computation.
#include <gtest/gtest.h>

#include <stdexcept>

#include "smilab/core/single_flight.h"

namespace smilab {
namespace {

TEST(SingleFlightMemoTest, FailureReachesCallerAndLeavesNoEntry) {
  SingleFlightMemo<int, int> memo;
  EXPECT_THROW(
      (void)memo.get(1, []() -> int { throw std::runtime_error{"probe"}; }),
      std::runtime_error);
  EXPECT_EQ(memo.computed(), 1u);
  // No entry was left behind: the next caller computes afresh.
  EXPECT_EQ(memo.get(1, [] { return 11; }), 11);
  EXPECT_EQ(memo.computed(), 2u);
  EXPECT_EQ(memo.get(1, [] { return 99; }), 11);  // now a memo hit
  EXPECT_EQ(memo.computed(), 2u);
}

}  // namespace
}  // namespace smilab
