// Seed-behavior parity for the hot-path rewrite (flat candidate heap,
// arena-backed BBS, SoA SB-alt): every registered matcher must still
// produce the byte-identical assignment sequence and the identical
// deterministic counters (io_accesses, pairs, loops) that the
// pre-rewrite code produced, for in-memory and disk-resident function
// settings and for both probing strategies. The golden values below
// were captured from the seed implementation on the same fixed
// problems; matchings are compared through an order-sensitive FNV-1a
// hash of the (fid, oid) sequence.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "fairmatch/assign/sb.h"
#include "fairmatch/engine/exec_context.h"
#include "fairmatch/topk/function_lists.h"
#include "test_util.h"

namespace fairmatch {
namespace {

using fairmatch::testing::GridFunctions;
using fairmatch::testing::GridPoints;
using fairmatch::testing::MemTree;
using fairmatch::testing::ProblemSpec;
using fairmatch::testing::RandomProblem;
using fairmatch::testing::RunRegisteredMatcher;

uint64_t Fnv1a(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t MatchingHash(const Matching& m) {
  uint64_t h = 1469598103934665603ull;
  for (const MatchPair& p : m) {
    h = Fnv1a(h, static_cast<uint64_t>(p.fid));
    h = Fnv1a(h, static_cast<uint64_t>(p.oid));
  }
  return h;
}

// Shapes chosen to exercise restarts/eviction (anti-correlated),
// capacities, priorities and every dimensionality the paper sweeps.
const ProblemSpec kSpecs[] = {
    ProblemSpec{40, 300, 3, Distribution::kAntiCorrelated, 7001},
    ProblemSpec{30, 250, 4, Distribution::kIndependent, 7002},
    ProblemSpec{25, 200, 3, Distribution::kCorrelated, 7003, 2, 1, 1},
    ProblemSpec{20, 200, 4, Distribution::kAntiCorrelated, 7004, 1, 2, 1},
    ProblemSpec{30, 220, 3, Distribution::kIndependent, 7005, 1, 1, 4},
};

struct MatcherGolden {
  size_t spec;
  const char* name;
  int64_t io_accesses;
  uint64_t pairs;
  int64_t loops;
  uint64_t matching_hash;
};

// Captured from the seed implementation (in-memory function lists).
const MatcherGolden kMatcherGoldens[] = {
    {0, "BruteForce", 0, 40, 116, 0x4593b914dac9ec5bull},
    {0, "Chain", 0, 40, 117, 0xc990f463e9ee2adfull},
    {0, "Naive", 0, 40, 0, 0x4593b914dac9ec5bull},
    {0, "SB", 0, 40, 12, 0xede54ad4b4de17e3ull},
    {0, "SB-DeltaSky", 0, 40, 40, 0x4593b914dac9ec5bull},
    {0, "SB-SinglePair", 0, 40, 40, 0x4593b914dac9ec5bull},
    {0, "SB-TwoSkylines", 0, 40, 12, 0xede54ad4b4de17e3ull},
    {0, "SB-UpdateSkyline", 0, 40, 40, 0x4593b914dac9ec5bull},
    {0, "SB-alt", 520, 40, 12, 0xede54ad4b4de17e3ull},
    {0, "SB-Packed", 0, 40, 12, 0xede54ad4b4de17e3ull},
    {1, "BruteForce", 0, 30, 67, 0x8fa050d81831063full},
    {1, "Chain", 0, 30, 69, 0xf9565a2bb04972ffull},
    {1, "Naive", 0, 30, 0, 0x8fa050d81831063full},
    {1, "SB", 0, 30, 7, 0x2c9b31ce674f49bfull},
    {1, "SB-DeltaSky", 0, 30, 30, 0x8fa050d81831063full},
    {1, "SB-SinglePair", 0, 30, 30, 0x8fa050d81831063full},
    {1, "SB-TwoSkylines", 0, 30, 7, 0x2c9b31ce674f49bfull},
    {1, "SB-UpdateSkyline", 0, 30, 30, 0x8fa050d81831063full},
    {1, "SB-alt", 277, 30, 7, 0x2c9b31ce674f49bfull},
    {1, "SB-Packed", 0, 30, 7, 0x2c9b31ce674f49bfull},
    {2, "BruteForce", 0, 50, 180, 0xb7d6f2b985be8e1dull},
    {2, "Chain", 0, 50, 108, 0x399e66f06f4a6b1dull},
    {2, "Naive", 0, 50, 0, 0xb7d6f2b985be8e1dull},
    {2, "SB", 0, 50, 23, 0xe879ff576277a9ddull},
    {2, "SB-DeltaSky", 0, 50, 50, 0xb7d6f2b985be8e1dull},
    {2, "SB-SinglePair", 0, 50, 50, 0xb7d6f2b985be8e1dull},
    {2, "SB-TwoSkylines", 0, 50, 23, 0xe879ff576277a9ddull},
    {2, "SB-UpdateSkyline", 0, 50, 50, 0xb7d6f2b985be8e1dull},
    {2, "SB-alt", 645, 50, 23, 0xe879ff576277a9ddull},
    {2, "SB-Packed", 0, 50, 23, 0xe879ff576277a9ddull},
    {3, "BruteForce", 0, 20, 31, 0x956d57b9357fa57eull},
    {3, "Chain", 0, 20, 37, 0x6168da9cabc3993eull},
    {3, "Naive", 0, 20, 0, 0x956d57b9357fa57eull},
    {3, "SB", 0, 20, 7, 0xf3fcbe51c5f5f3beull},
    {3, "SB-DeltaSky", 0, 20, 20, 0x956d57b9357fa57eull},
    {3, "SB-SinglePair", 0, 20, 20, 0x956d57b9357fa57eull},
    {3, "SB-TwoSkylines", 0, 20, 7, 0xf3fcbe51c5f5f3beull},
    {3, "SB-UpdateSkyline", 0, 20, 20, 0x956d57b9357fa57eull},
    {3, "SB-alt", 223, 20, 7, 0xf3fcbe51c5f5f3beull},
    {3, "SB-Packed", 0, 20, 7, 0xf3fcbe51c5f5f3beull},
    {4, "BruteForce", 0, 30, 63, 0xc0117845d4c28cc4ull},
    {4, "Chain", 0, 30, 84, 0x5db5c67a94b2cb04ull},
    {4, "Naive", 0, 30, 0, 0xc0117845d4c28cc4ull},
    {4, "SB", 0, 30, 13, 0xad4ceb66c01a1504ull},
    {4, "SB-DeltaSky", 0, 30, 30, 0xc0117845d4c28cc4ull},
    {4, "SB-SinglePair", 0, 30, 30, 0xc0117845d4c28cc4ull},
    {4, "SB-TwoSkylines", 0, 30, 13, 0xad4ceb66c01a1504ull},
    {4, "SB-UpdateSkyline", 0, 30, 30, 0xc0117845d4c28cc4ull},
    {4, "SB-alt", 417, 30, 13, 0xad4ceb66c01a1504ull},
    {4, "SB-Packed", 0, 30, 13, 0xad4ceb66c01a1504ull},
};

TEST(PerfParityTest, EveryRegisteredMatcherReproducesSeedBehavior) {
  // The golden table must stay exhaustive: a newly registered matcher
  // shows up as a count mismatch, not as silent non-coverage.
  const size_t num_specs = std::size(kSpecs);
  EXPECT_EQ(std::size(kMatcherGoldens),
            num_specs * MatcherRegistry::Global().Names().size())
      << "new matcher registered: extend the golden table";
  size_t spec_index = static_cast<size_t>(-1);
  AssignmentProblem problem;
  for (const MatcherGolden& golden : kMatcherGoldens) {
    if (golden.spec != spec_index) {
      spec_index = golden.spec;
      problem = RandomProblem(kSpecs[spec_index]);
    }
    ExecContext ctx;
    AssignResult got = RunRegisteredMatcher(golden.name, problem, &ctx);
    EXPECT_EQ(got.stats.io_accesses, golden.io_accesses)
        << golden.name << " spec " << golden.spec;
    EXPECT_EQ(got.stats.pairs, golden.pairs)
        << golden.name << " spec " << golden.spec;
    EXPECT_EQ(got.stats.loops, golden.loops)
        << golden.name << " spec " << golden.spec;
    EXPECT_EQ(MatchingHash(got.matching), golden.matching_hash)
        << golden.name << " spec " << golden.spec
        << ": assignment sequence diverged from the seed";
  }
}

struct DiskGolden {
  size_t spec;
  const char* name;
  int64_t io_accesses;
  uint64_t pairs;
  int64_t loops;
  uint64_t matching_hash;
};

const ProblemSpec kDiskSpecs[] = {
    ProblemSpec{200, 150, 3, Distribution::kAntiCorrelated, 8001},
    ProblemSpec{150, 120, 4, Distribution::kIndependent, 8002, 1, 1, 4},
    // Capacitated and anti-correlated at the largest D the paper sweeps.
    ProblemSpec{120, 160, 6, Distribution::kAntiCorrelated, 8003, 3},
};

// Disk spec `spec`: the kDiskSpecs entries, then one tie-heavy problem
// on grid points and grid weights (duplicate points, tied scores), then
// assign_diskf's shape (|F|=7000, |O|=700, D=4, anti-correlated).
AssignmentProblem DiskProblem(size_t spec) {
  if (spec < std::size(kDiskSpecs)) return RandomProblem(kDiskSpecs[spec]);
  if (spec == std::size(kDiskSpecs)) {
    return MakeProblem(GridPoints(200, 4, 4, 8004),
                       GridFunctions(150, 4, 3, 8005), /*object_capacity=*/1);
  }
  return RandomProblem(
      ProblemSpec{7000, 700, 4, Distribution::kAntiCorrelated, 8006});
}

// Captured from the seed implementation with disk-resident function
// lists (Section 7.6 setting); io_accesses counts the coefficient-list
// traffic, so this pins the TA probe/threshold read sequence exactly.
// The spec 2 and 3 rows pin SB-alt's fetch sequence on a capacitated
// D=6 input and a tie-heavy one; the spec 4 row at the end-to-end
// benchmark's assign_diskf shape, whose active sets span many kernel
// blocks (skylines of up to ~256 members).
const DiskGolden kDiskGoldens[] = {
    {0, "SB", 57939, 150, 37, 0x7766bce5c3287d68ull},
    {0, "SB-alt", 8441, 150, 37, 0x7766bce5c3287d68ull},
    {0, "BruteForce", 4224, 150, 1358, 0x689624255b1d15a8ull},
    {0, "Chain", 4628, 150, 546, 0x8a2a02b1d57fb328ull},
    {1, "SB", 217470, 120, 34, 0xf82b6988b78178d5ull},
    {1, "SB-alt", 8220, 120, 34, 0xf82b6988b78178d5ull},
    {1, "BruteForce", 2168, 120, 512, 0x37d0be2ed2b25195ull},
    {1, "Chain", 4301, 120, 407, 0x6b4e477ff8e10795ull},
    {2, "SB-alt", 9875, 160, 21, 0xed37a58a54d3517aull},
    {3, "SB-alt", 7950, 150, 36, 0x82641ae2360e05c4ull},
    {4, "SB-alt", 636076, 700, 61, 0xc0bcfd8ca2a8316aull},
};

TEST(PerfParityTest, DiskResidentIoSequenceMatchesSeed) {
  size_t spec_index = static_cast<size_t>(-1);
  AssignmentProblem problem;
  for (const DiskGolden& golden : kDiskGoldens) {
    if (golden.spec != spec_index) {
      spec_index = golden.spec;
      problem = DiskProblem(spec_index);
    }
    ExecContext ctx;
    AssignResult got = RunRegisteredMatcher(golden.name, problem, &ctx,
                                            /*force_disk_functions=*/true);
    EXPECT_EQ(got.stats.io_accesses, golden.io_accesses)
        << golden.name << " disk spec " << golden.spec;
    EXPECT_EQ(got.stats.pairs, golden.pairs)
        << golden.name << " disk spec " << golden.spec;
    EXPECT_EQ(got.stats.loops, golden.loops)
        << golden.name << " disk spec " << golden.spec;
    EXPECT_EQ(MatchingHash(got.matching), golden.matching_hash)
        << golden.name << " disk spec " << golden.spec;
  }
}

struct SbOptionGolden {
  const char* mode;
  uint64_t pairs;
  int64_t loops;
  uint64_t matching_hash;
};

// SB under every TA strategy the ablation sweeps (captured from seed).
const SbOptionGolden kSbOptionGoldens[] = {
    {"biased", 40, 9, 0x3b0cd7695f96388full},
    {"round-robin", 40, 9, 0x3b0cd7695f96388full},
    {"no-resume", 40, 9, 0x3b0cd7695f96388full},
    {"tiny-omega", 40, 9, 0x3b0cd7695f96388full},
};

TEST(PerfParityTest, SbProbingStrategiesMatchSeed) {
  ProblemSpec spec{40, 300, 4, Distribution::kAntiCorrelated, 7010};
  AssignmentProblem problem = RandomProblem(spec);
  for (const SbOptionGolden& golden : kSbOptionGoldens) {
    MemTree mem(problem);
    SBOptions options;
    const std::string mode = golden.mode;
    options.ta.biased_probing = (mode != "round-robin");
    options.ta.resume = (mode != "no-resume");
    options.ta.omega = (mode == "tiny-omega") ? 0.004 : 0.025;
    SBAssignment sb(&problem, &mem.tree, options);
    AssignResult got = sb.Run();
    EXPECT_EQ(got.matching.size(), golden.pairs) << mode;
    EXPECT_EQ(got.stats.loops, golden.loops) << mode;
    EXPECT_EQ(MatchingHash(got.matching), golden.matching_hash) << mode;
  }
}

struct PagedSbGolden {
  ProblemSpec spec;
  int64_t io_accesses;
  uint64_t pairs;
  int64_t loops;
  uint64_t matching_hash;
};

// SB over objects paged behind a 2% buffer, as the end-to-end
// benchmark's assign_mem runs it, at skyline sizes that span many
// scoring-kernel blocks: assign_mem's own shape (~1k members per loop),
// and a capacitated one in the style of fig14_function_capacity, where
// some function's cached best object is assigned, and that function's
// best rescanned, on nearly every loop.
const PagedSbGolden kPagedSbGoldens[] = {
    {ProblemSpec{800, 16000, 4, Distribution::kAntiCorrelated, 9001}, 114,
     800, 47, 0x8b16e8d7c12b2bbbull},
    {ProblemSpec{400, 8000, 4, Distribution::kAntiCorrelated, 9002, 16}, 84,
     6400, 475, 0xf118c4babd2552a4ull},
};

TEST(PerfParityTest, PagedSbAtBenchmarkShapesMatchesSeed) {
  for (const PagedSbGolden& golden : kPagedSbGoldens) {
    const AssignmentProblem problem = RandomProblem(golden.spec);
    ExecContext ctx;
    PagedNodeStore store(problem.dims, 4096, &ctx.counters());
    RTree tree(&store);
    BuildObjectTree(problem, &tree);
    store.ResetCounters();
    store.SetBufferFraction(0.02);
    MatcherEnv env;
    env.problem = &problem;
    env.tree = &tree;
    env.ctx = &ctx;
    AssignResult got = MatcherRegistry::Global().Create("SB", env)->Run();
    const uint64_t seed = golden.spec.seed;
    EXPECT_EQ(got.stats.io_accesses, golden.io_accesses) << "seed " << seed;
    EXPECT_EQ(got.stats.pairs, golden.pairs) << "seed " << seed;
    EXPECT_EQ(got.stats.loops, golden.loops) << "seed " << seed;
    EXPECT_EQ(MatchingHash(got.matching), golden.matching_hash)
        << "seed " << seed;
  }
}

struct TaChurnGolden {
  bool biased;
  double omega;
  int64_t probes;
  int64_t restarts;
  uint64_t result_hash;
};

// Reverse top-1 in isolation, under assignment churn that forces queue
// eviction and Omega restarts; the hash pins every returned function id.
// Both probing strategies run the generic TA loop over FunctionLists
// and pin the exact seed probe sequence (PickList choices, threshold
// terminations).
const TaChurnGolden kTaChurnGoldens[] = {
    {true, 0.025, 831, 0, 0x6894588dbdd8aa40ull},
    {true, 0.006, 1143, 13, 0x6894588dbdd8aa40ull},
    {false, 0.025, 2032, 0, 0x6894588dbdd8aa40ull},
    {false, 0.006, 2718, 15, 0x6894588dbdd8aa40ull},
};

TEST(PerfParityTest, TaProbeSequenceMatchesSeed) {
  for (const TaChurnGolden& golden : kTaChurnGoldens) {
    Rng rng(9301);
    FunctionSet fns = GenerateFunctions(400, 4, &rng);
    FunctionLists lists(&fns);
    ReverseTop1Options options;
    options.omega = golden.omega;
    options.biased_probing = golden.biased;
    ReverseTop1 rt1(&lists, options);
    auto points = GeneratePoints(Distribution::kAntiCorrelated, 50, 4, &rng);
    std::vector<uint8_t> assigned(fns.size(), 0);
    std::vector<ReverseTop1State> states(points.size());
    uint64_t h = 1469598103934665603ull;
    for (int round = 0; round < 10; ++round) {
      for (size_t i = 0; i < points.size(); ++i) {
        auto got = rt1.Best(&states[i], points[i], assigned);
        h = Fnv1a(h, got.has_value() ? static_cast<uint64_t>(got->first)
                                     : 0xdeadull);
      }
      for (size_t f = round; f < fns.size(); f += 11) assigned[f] = 1;
    }
    EXPECT_EQ(rt1.probes(), golden.probes)
        << "biased=" << golden.biased << " omega=" << golden.omega;
    EXPECT_EQ(rt1.restarts(), golden.restarts)
        << "biased=" << golden.biased << " omega=" << golden.omega;
    EXPECT_EQ(h, golden.result_hash)
        << "biased=" << golden.biased << " omega=" << golden.omega;
  }
}

}  // namespace
}  // namespace fairmatch
