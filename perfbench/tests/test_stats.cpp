#include "stats.h"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 10; ++i) {
    v.push_back(i);
  }
  EXPECT_EQ(percentile(v, 50), 5);
  EXPECT_EQ(percentile(v, 90), 9);
  EXPECT_EQ(percentile(v, 95), 10);
  EXPECT_EQ(percentile(v, 100), 10);
  EXPECT_EQ(percentile({}, 50), 0);
  EXPECT_EQ(percentile({3, 1, 2}, 50), 2);  // Unsorted input.
}

TEST(Percentile, MedianAveragesTheMiddlePair) {
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({7}), 7);
}

TEST(Percentile, TenBeyondRule) {
  // p95 keeps ten samples beyond it from 200 samples on, not before.
  EXPECT_EQ(samples_beyond(200, 95), 10);
  EXPECT_EQ(samples_beyond(199, 95), 9);
  EXPECT_EQ(highest_supported_percentile(200), 95);
  EXPECT_EQ(highest_supported_percentile(1000), 99);
  EXPECT_EQ(highest_supported_percentile(100), 90);
  EXPECT_EQ(highest_supported_percentile(20), 50);
  EXPECT_EQ(highest_supported_percentile(0), 50);
}

TEST(OpenLoop, LatencyCountsFromTheDueTime) {
  // Due at 1.0, the generator ran 0.25 late, the answer came at 1.75.
  const DueTimes t{.due = 1.0, .sent = 1.25, .done = 1.75};
  EXPECT_DOUBLE_EQ(due_latency(t), 0.75);
  EXPECT_DOUBLE_EQ(generator_lag(t), 0.25);
  // Sent early (never happens on a schedule) is no negative lag.
  EXPECT_DOUBLE_EQ(generator_lag({.due = 2.0, .sent = 1.9, .done = 2.5}), 0);
}

TEST(Subtractions, WaitAndHop) {
  EXPECT_DOUBLE_EQ(service_wait(0.5, 0.3, 0.05), 0.15);
  // A fused round's share can exceed a short request's wall time.
  EXPECT_DOUBLE_EQ(service_wait(0.2, 0.3, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(hop_time(0.51, 0.5), 0.51 - 0.5);
  EXPECT_DOUBLE_EQ(hop_time(0.4, 0.5), 0.0);
}

TEST(SelfTime, SubtractsTheUnionOfChildren) {
  // root [0, 10) with children [1, 4) and [3, 6) overlapping (parallel),
  // and [8, 12) running past the root's end; a grandchild of [1, 4)
  // counts against its parent only.
  const std::vector<SpanRecord> spans = {
      {.id = 0, .parent = -1, .name = "root", .start = 0, .end = 10},
      {.id = 1, .parent = 0, .name = "a", .start = 1, .end = 4},
      {.id = 2, .parent = 0, .name = "b", .start = 3, .end = 6},
      {.id = 3, .parent = 0, .name = "c", .start = 8, .end = 12},
      {.id = 4, .parent = 1, .name = "d", .start = 2, .end = 3},
  };
  const auto self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 10 - (5 + 2));  // [1,6) and [8,10) covered.
  EXPECT_DOUBLE_EQ(self[1], 3 - 1);
  EXPECT_DOUBLE_EQ(self[2], 3);
  EXPECT_DOUBLE_EQ(self[3], 4);
  EXPECT_DOUBLE_EQ(self[4], 1);
}

TEST(Digest, IsFnv1a) {
  Digest d;
  EXPECT_EQ(d.value(), 0xcbf29ce484222325ULL);
  d.bytes("a", 1);
  EXPECT_EQ(d.value(), 0xaf63dc4c8601ec8cULL);
}

}  // namespace
}  // namespace perfbench
