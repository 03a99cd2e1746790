// Unit tests for fairmatch/common.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <set>
#include <string>

#include "fairmatch/common/float_util.h"
#include "fairmatch/common/preference.h"
#include "fairmatch/common/rng.h"
#include "fairmatch/common/stats.h"
#include "fairmatch/common/status.h"
#include "fairmatch/common/timer.h"

namespace fairmatch {
namespace {

TEST(RngTest, DeterministicBySeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.Uniform() == b.Uniform()) same++;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, UniformIntInclusive) {
  Rng rng(4);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(1, 4);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 4);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all values hit
}

TEST(RngTest, GaussianMoments) {
  Rng rng(5);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Gaussian(1.0, 2.0);
    sum += v;
    sq += v * v;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 1.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(PerfCountersTest, IoAccessesSumsReadsAndWrites) {
  PerfCounters counters;
  counters.page_reads = 7;
  counters.page_writes = 5;
  EXPECT_EQ(counters.io_accesses(), 12);
  counters.Reset();
  EXPECT_EQ(counters.io_accesses(), 0);
  EXPECT_EQ(counters.buffer_hits, 0);
}

TEST(PerfCountersTest, ToStringMentionsCounts) {
  PerfCounters counters;
  counters.page_reads = 3;
  EXPECT_NE(counters.ToString().find("reads=3"), std::string::npos);
}

TEST(MemoryTrackerTest, TracksPeak) {
  MemoryTracker tracker;
  tracker.Set(100);
  tracker.Set(50);
  EXPECT_EQ(tracker.current(), 50u);
  EXPECT_EQ(tracker.peak(), 100u);
  tracker.Add(200);
  EXPECT_EQ(tracker.peak(), 250u);
  tracker.Reset();
  EXPECT_EQ(tracker.peak(), 0u);
}

// One status vocabulary runs from the disk to the serving layer's
// responses, so every code must print under its own stable name. The
// numeric values are pinned too: the fault_recovery figure digests
// them into its deterministic `loops` column.
TEST(StatusTest, EveryErrorCodeHasADistinctName) {
  const struct {
    ErrorCode code;
    int value;
    const char* name;
  } kTable[] = {
      {ErrorCode::kOk, 0, "OK"},
      {ErrorCode::kNotFound, 1, "NOT_FOUND"},
      {ErrorCode::kInvalidArgument, 2, "INVALID_ARGUMENT"},
      {ErrorCode::kFailedPrecondition, 3, "FAILED_PRECONDITION"},
      {ErrorCode::kOverloaded, 4, "OVERLOADED"},
      {ErrorCode::kUnavailable, 5, "UNAVAILABLE"},
      {ErrorCode::kDeadlineExceeded, 6, "DEADLINE_EXCEEDED"},
      {ErrorCode::kDataLoss, 7, "DATA_LOSS"},
  };
  std::set<std::string> names;
  for (const auto& row : kTable) {
    EXPECT_EQ(static_cast<int>(row.code), row.value) << row.name;
    EXPECT_STREQ(ErrorCodeName(row.code), row.name);
    names.insert(ErrorCodeName(row.code));
  }
  EXPECT_EQ(names.size(), std::size(kTable));
  EXPECT_TRUE(Status::Ok().ok());
  EXPECT_EQ(Status::NotFound("x").code, ErrorCode::kNotFound);
  EXPECT_EQ(Status::InvalidArgument("x").code, ErrorCode::kInvalidArgument);
  EXPECT_EQ(Status::Overloaded("x").code, ErrorCode::kOverloaded);
}

TEST(FloatUpTest, NeverBelowInput) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    double x = rng.Uniform() * rng.Uniform(0.1, 16.0);
    float f = FloatUp(x);
    EXPECT_GE(static_cast<double>(f), x);
    // And tight: at most one ulp above the rounded value.
    float down = std::nextafterf(f, 0.0f);
    EXPECT_LT(static_cast<double>(down), x + 1e-30);
  }
}

TEST(FloatUpTest, ExactValuesUnchanged) {
  EXPECT_EQ(FloatUp(0.5), 0.5f);
  EXPECT_EQ(FloatUp(0.25), 0.25f);
  EXPECT_EQ(FloatUp(1.0), 1.0f);
}

TEST(TimerTest, MeasuresElapsed) {
  Timer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink += std::sqrt(static_cast<double>(i));
  EXPECT_GE(t.ElapsedMs(), 0.0);
  (void)sink;
}

TEST(PrefFunctionTest, ScoreIsEffectiveDotProduct) {
  PrefFunction f;
  f.id = 0;
  f.dims = 3;
  f.alpha = {0.5, 0.3, 0.2};
  f.gamma = 2.0;
  Point p(3);
  p[0] = 1.0f;
  p[1] = 0.5f;
  p[2] = 0.0f;
  EXPECT_DOUBLE_EQ(f.Score(p), 0.5 * 2 * 1.0 + 0.3 * 2 * 0.5 + 0.0);
  EXPECT_DOUBLE_EQ(f.eff(0), 1.0);
}

TEST(PrefFunctionTest, MaxScoreBoundsScoreInsideBox) {
  PrefFunction f;
  f.id = 0;
  f.dims = 2;
  f.alpha = {0.7, 0.3};
  Point lo(2, 0.2f);
  Point hi(2, 0.8f);
  MBR box(lo, hi);
  Point inside(2, 0.5f);
  EXPECT_LE(f.Score(inside), f.MaxScore(box));
}

}  // namespace
}  // namespace fairmatch
