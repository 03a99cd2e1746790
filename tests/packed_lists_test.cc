// Differential coverage for the packed function-list backend
// (topk/packed_function_lists.h) against the in-memory FunctionLists
// oracle, across randomized seeded shapes and in both placements
// (in-memory image and mmap):
//  * entries, scores and metadata are bitwise identical,
//  * the entry-by-entry ReverseTop1 traversal (impact_ordered = false)
//    performs the identical TA probe sequence (probes, restarts,
//    returned ids) — the packed store is a drop-in FunctionLists,
//  * the impact-ordered block traversal returns the identical winners
//    under assignment churn,
//  * the SB-Packed engine variant reproduces the by-definition oracle
//    matching,
//  * Open() rejects corrupt blocks (checksum), tampered headers and
//    truncated files.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/stat.h>
#endif

#include "fairmatch/assign/naive_matcher.h"
#include "fairmatch/storage/fault_injector.h"
#include "fairmatch/storage/mmap_file.h"
#include "fairmatch/topk/function_lists.h"
#include "fairmatch/topk/packed_function_lists.h"
#include "fairmatch/topk/reverse_top1.h"
#include "test_util.h"

namespace fairmatch {
namespace {

using fairmatch::testing::ProblemSpec;
using fairmatch::testing::RandomProblem;
using fairmatch::testing::RunRegisteredMatcher;

/// Randomized shapes spanning the block-layout regimes: lists smaller
/// than one default block, multi-block lists, tiny custom blocks (many
/// headers, early termination), and 2-byte id deltas.
struct PackedShape {
  ProblemSpec spec;
  int block_entries;
};

PackedShape ShapeForSeed(int seed) {
  Rng shape_rng(static_cast<uint64_t>(seed) * 9176 + 3);
  PackedShape shape;
  shape.spec.num_functions = 5 + static_cast<int>(shape_rng.UniformInt(0, 395));
  shape.spec.num_objects = 20 + static_cast<int>(shape_rng.UniformInt(0, 80));
  shape.spec.dims = 2 + static_cast<int>(shape_rng.UniformInt(0, 3));
  shape.spec.distribution =
      static_cast<Distribution>(shape_rng.UniformInt(0, 2));
  shape.spec.seed = static_cast<uint64_t>(seed) * 50021 + 11;
  shape.spec.function_capacity =
      1 + static_cast<int>(shape_rng.UniformInt(0, 1));
  shape.spec.object_capacity = 1 + static_cast<int>(shape_rng.UniformInt(0, 1));
  shape.spec.max_gamma = 1 + static_cast<int>(shape_rng.UniformInt(0, 3));
  const int choices[] = {4, 16, 128, 1024};
  shape.block_entries = choices[shape_rng.UniformInt(0, 3)];
  return shape;
}

class PackedDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(PackedDifferentialTest, EntriesScoresAndMetadataMatchFunctionLists) {
  const PackedShape shape = ShapeForSeed(GetParam());
  const AssignmentProblem problem = RandomProblem(shape.spec);
  FunctionLists lists(&problem.functions);
  for (const bool use_mmap : {false, true}) {
    PackedStoreOptions opts;
    opts.block_entries = shape.block_entries;
    opts.use_mmap = use_mmap;
    PackedFunctionStore packed(problem.functions, opts);
    ASSERT_EQ(packed.mapped(), use_mmap);
    ASSERT_EQ(packed.dims(), lists.dims());
    ASSERT_EQ(packed.size(), lists.size());
    ASSERT_EQ(packed.max_gamma(), lists.max_gamma());
    for (int d = 0; d < lists.dims(); ++d) {
      for (int pos = 0; pos < lists.size(); ++pos) {
        ASSERT_EQ(packed.Entry(d, pos), lists.Entry(d, pos))
            << "dim " << d << " pos " << pos << " mmap " << use_mmap;
      }
    }
    for (const PrefFunction& f : problem.functions) {
      for (int d = 0; d < lists.dims(); ++d) {
        ASSERT_EQ(packed.eff_of(f.id, d), f.eff(d));
      }
      for (size_t i = 0; i < problem.objects.size(); i += 7) {
        const Point& o = problem.objects[i].point;
        ASSERT_EQ(packed.ScoreOf(f.id, o), lists.ScoreOf(f.id, o));
      }
    }
    // Block invariants: per-list entry counts sum to |F| and the block
    // upper bounds are non-increasing (what the impact-ordered
    // early-termination argument rests on).
    std::vector<int32_t> fids(packed.block_entries());
    for (int d = 0; d < packed.dims(); ++d) {
      int total = 0;
      for (int b = 0; b < packed.num_blocks(); ++b) {
        total += packed.DecodeBlock(d, b, fids.data());
        if (b > 0) {
          ASSERT_LE(packed.BlockMaxImpact(d, b), packed.BlockMaxImpact(d, b - 1));
        }
        ASSERT_EQ(packed.BlockMaxImpact(d, b),
                  lists.Entry(d, b * packed.block_entries()).first);
      }
      ASSERT_EQ(total, packed.size());
    }
  }
}

uint64_t Fnv1a(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

/// Drives one ReverseTop1 through rounds of queries under assignment
/// churn (evictions, Omega restarts) and fingerprints every returned
/// id; optionally records probes/restarts.
uint64_t DrainFingerprint(ReverseTop1* rt1, const AssignmentProblem& problem,
                          int64_t* probes = nullptr,
                          int64_t* restarts = nullptr) {
  std::vector<uint8_t> assigned(problem.functions.size(), 0);
  std::vector<ReverseTop1State> states(problem.objects.size());
  uint64_t h = 1469598103934665603ull;
  for (int round = 0; round < 6; ++round) {
    for (size_t i = 0; i < problem.objects.size(); ++i) {
      auto got = rt1->Best(&states[i], problem.objects[i].point, assigned);
      h = Fnv1a(h, got.has_value() ? static_cast<uint64_t>(got->first)
                                   : 0xdeadull);
    }
    for (size_t f = round; f < assigned.size(); f += 5) assigned[f] = 1;
  }
  if (probes != nullptr) *probes = rt1->probes();
  if (restarts != nullptr) *restarts = rt1->restarts();
  return h;
}

TEST_P(PackedDifferentialTest, EntryTraversalReproducesProbeSequence) {
  const PackedShape shape = ShapeForSeed(GetParam());
  const AssignmentProblem problem = RandomProblem(shape.spec);
  FunctionLists lists(&problem.functions);
  ReverseTop1Options options;
  options.omega = 0.01;  // small enough to force evictions and restarts
  options.impact_ordered = false;
  ReverseTop1 oracle(&lists, options);
  int64_t want_probes = 0, want_restarts = 0;
  const uint64_t want =
      DrainFingerprint(&oracle, problem, &want_probes, &want_restarts);
  for (const bool use_mmap : {false, true}) {
    PackedStoreOptions opts;
    opts.block_entries = shape.block_entries;
    opts.use_mmap = use_mmap;
    PackedFunctionStore packed(problem.functions, opts);
    ReverseTop1 rt1(&packed, options);
    int64_t probes = 0, restarts = 0;
    const uint64_t got = DrainFingerprint(&rt1, problem, &probes, &restarts);
    EXPECT_EQ(got, want) << "mmap " << use_mmap;
    EXPECT_EQ(probes, want_probes) << "mmap " << use_mmap;
    EXPECT_EQ(restarts, want_restarts) << "mmap " << use_mmap;
  }
}

// Probe and restart counts of the impact-ordered traversal per shape
// (index = shape seed), identical in both placements. They pin how many
// blocks SB-Packed consumes, not only which winners it returns.
struct ImpactGolden {
  int64_t probes;
  int64_t restarts;
};
constexpr ImpactGolden kImpactGoldens[] = {
    {34952, 68},  {169587, 145}, {37072, 48},  {99112, 69},  {86914, 106},
    {13392, 84},  {44296, 98},   {159329, 147}, {102488, 185}, {41766, 89},
    {75086, 119}, {118096, 119}, {26382, 40},  {46452, 182}};

TEST_P(PackedDifferentialTest, ImpactOrderedTraversalReturnsOracleWinners) {
  const ImpactGolden golden = kImpactGoldens[GetParam()];
  const PackedShape shape = ShapeForSeed(GetParam());
  const AssignmentProblem problem = RandomProblem(shape.spec);
  FunctionLists lists(&problem.functions);
  ReverseTop1Options options;
  options.omega = 0.01;
  ReverseTop1 oracle(&lists, options);
  const uint64_t want = DrainFingerprint(&oracle, problem);
  ASSERT_FALSE(oracle.concurrent());
  for (const bool use_mmap : {false, true}) {
    PackedStoreOptions opts;
    opts.block_entries = shape.block_entries;
    opts.use_mmap = use_mmap;
    PackedFunctionStore packed(problem.functions, opts);
    ReverseTop1 rt1(&packed, options);
    ASSERT_TRUE(rt1.concurrent());
    // Block consumption changes the probe count but must not change a
    // single returned winner.
    int64_t probes = 0, restarts = 0;
    EXPECT_EQ(DrainFingerprint(&rt1, problem, &probes, &restarts), want)
        << "mmap " << use_mmap;
    EXPECT_EQ(probes, golden.probes) << "mmap " << use_mmap;
    EXPECT_EQ(restarts, golden.restarts) << "mmap " << use_mmap;
  }
}

TEST_P(PackedDifferentialTest, PackedMatchersReproduceOracleMatching) {
  const PackedShape shape = ShapeForSeed(GetParam());
  const AssignmentProblem problem = RandomProblem(shape.spec);
  Matching want = NaiveStableMatching(problem);
  CanonicalizeMatching(&want);
  const char* name = "SB-Packed";
  for (const bool use_mmap : {false, true}) {
    ExecContext ctx;
    AssignResult got = RunRegisteredMatcher(name, problem, &ctx,
                                            /*force_disk_functions=*/false,
                                            /*buffer_fraction=*/0.02,
                                            /*packed_mmap=*/use_mmap);
    CanonicalizeMatching(&got.matching);
    ASSERT_EQ(got.matching.size(), want.size())
        << name << " mmap " << use_mmap;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got.matching[i].fid, want[i].fid) << name << " pair " << i;
      EXPECT_EQ(got.matching[i].oid, want[i].oid) << name << " pair " << i;
    }
    // No counted I/O: the packed image is queried in place.
    EXPECT_EQ(got.stats.io_accesses, 0) << name << " mmap " << use_mmap;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, PackedDifferentialTest,
                         ::testing::Range(0, 14));

// --- file-format rejection -------------------------------------------

std::vector<unsigned char> ReadAll(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  std::vector<unsigned char> bytes(static_cast<size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  return bytes;
}

void WriteAll(const std::string& path, const std::vector<unsigned char>& b) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  // fwrite's buffer is declared nonnull; an empty vector's data() isn't
  // (the zero-length-file test writes one).
  if (!b.empty()) {
    ASSERT_EQ(std::fwrite(b.data(), 1, b.size(), f), b.size());
  }
  std::fclose(f);
}

class PackedFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ProblemSpec spec;
    spec.num_functions = 300;
    spec.num_objects = 10;
    spec.seed = 515;
    problem_ = RandomProblem(spec);
    path_ = ::testing::TempDir() + "/packed_file_test.pkfl";
    std::string error;
    ASSERT_TRUE(PackedFunctionStore::WriteFile(problem_.functions, path_,
                                               /*block_entries=*/64, &error))
        << error;
  }
  void TearDown() override { std::remove(path_.c_str()); }

  AssignmentProblem problem_;
  std::string path_;
};

TEST_F(PackedFileTest, OpenRoundTripsAndVerifies) {
  Status status;
  auto store = PackedFunctionStore::Open(path_, &status);
  ASSERT_NE(store, nullptr) << status.message;
  EXPECT_TRUE(store->mapped());
  FunctionLists lists(&problem_.functions);
  for (int d = 0; d < lists.dims(); ++d) {
    for (int pos = 0; pos < lists.size(); pos += 3) {
      ASSERT_EQ(store->Entry(d, pos), lists.Entry(d, pos));
    }
  }
}

TEST_F(PackedFileTest, CorruptBlockPayloadIsRejected) {
  std::vector<unsigned char> bytes = ReadAll(path_);
  uint64_t blocks_offset = 0;
  std::memcpy(&blocks_offset, bytes.data() + 48, sizeof(blocks_offset));
  // First payload byte of the first block (24-byte block header).
  bytes[blocks_offset + 24] ^= 0x01;
  WriteAll(path_, bytes);
  Status status;
  EXPECT_EQ(PackedFunctionStore::Open(path_, &status), nullptr);
  EXPECT_FALSE(status.message.empty());
}

TEST_F(PackedFileTest, CorruptBlockHeaderIsRejected) {
  std::vector<unsigned char> bytes = ReadAll(path_);
  uint64_t blocks_offset = 0;
  std::memcpy(&blocks_offset, bytes.data() + 48, sizeof(blocks_offset));
  bytes[blocks_offset + 2] ^= 0x40;  // inside the max_impact double
  WriteAll(path_, bytes);
  Status status;
  EXPECT_EQ(PackedFunctionStore::Open(path_, &status), nullptr);
}

TEST_F(PackedFileTest, BadMagicIsRejected) {
  std::vector<unsigned char> bytes = ReadAll(path_);
  bytes[0] ^= 0xff;
  WriteAll(path_, bytes);
  EXPECT_EQ(PackedFunctionStore::Open(path_), nullptr);
}

TEST_F(PackedFileTest, TruncatedFileIsRejected) {
  const std::vector<unsigned char> bytes = ReadAll(path_);
  // Mid-image truncation (size/offset checks) and sub-header
  // truncation both fail cleanly.
  for (const size_t keep : {bytes.size() - 16, size_t{10}}) {
    WriteAll(path_, std::vector<unsigned char>(bytes.begin(),
                                               bytes.begin() + keep));
    Status status;
    EXPECT_EQ(PackedFunctionStore::Open(path_, &status), nullptr)
        << "kept " << keep;
    EXPECT_FALSE(status.message.empty());
  }
}

// Open() classifies every rejection so callers — the serving registry
// in particular — can distinguish a missing file (kNotFound) from a
// damaged image (kDataLoss) without parsing message strings; the
// message leads with the failure class.
TEST_F(PackedFileTest, OpenReportsTypedErrorCodes) {
  const std::vector<unsigned char> bytes = ReadAll(path_);
  const auto starts_with = [](const std::string& s, const char* prefix) {
    return s.rfind(prefix, 0) == 0;
  };
  Status status = Status::DataLoss("stale");  // must be reset

  ASSERT_NE(PackedFunctionStore::Open(path_, &status), nullptr);
  EXPECT_TRUE(status.ok()) << status.message;

  EXPECT_EQ(PackedFunctionStore::Open(path_ + ".missing", &status), nullptr);
  EXPECT_EQ(status.code, ErrorCode::kNotFound);
  EXPECT_TRUE(starts_with(status.message, "IO_ERROR: ")) << status.message;

  std::vector<unsigned char> damaged = bytes;
  damaged[0] ^= 0xff;
  WriteAll(path_, damaged);
  EXPECT_EQ(PackedFunctionStore::Open(path_, &status), nullptr);
  EXPECT_EQ(status.code, ErrorCode::kDataLoss);
  EXPECT_TRUE(starts_with(status.message, "BAD_MAGIC: ")) << status.message;

  WriteAll(path_, std::vector<unsigned char>(bytes.begin(),
                                             bytes.end() - 16));
  EXPECT_EQ(PackedFunctionStore::Open(path_, &status), nullptr);
  EXPECT_EQ(status.code, ErrorCode::kDataLoss);
  EXPECT_TRUE(starts_with(status.message, "TRUNCATED: ")) << status.message;

  damaged = bytes;
  uint64_t blocks_offset = 0;
  std::memcpy(&blocks_offset, damaged.data() + 48, sizeof(blocks_offset));
  damaged[blocks_offset + 24] ^= 0x01;  // first payload byte
  WriteAll(path_, damaged);
  EXPECT_EQ(PackedFunctionStore::Open(path_, &status), nullptr);
  EXPECT_EQ(status.code, ErrorCode::kDataLoss);
  EXPECT_EQ(status.message, "BAD_CHECKSUM: block checksum mismatch");
}

// --- the mapping seam under edge cases -------------------------------

TEST(MmapFileTest, ZeroLengthFileIsATypedFailureOnBothPaths) {
  const std::string path = ::testing::TempDir() + "/mmap_empty_test";
  WriteAll(path, {});
  MmapFile file;
  std::string error;
  EXPECT_FALSE(file.Map(path, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(file.valid());
  error.clear();
  EXPECT_FALSE(file.Load(path, &error));
  EXPECT_FALSE(error.empty());
  std::remove(path.c_str());
}

TEST(MmapFileTest, ExternalMutationIsDetectedAndTypedBeforeDereference) {
  const std::string path = ::testing::TempDir() + "/mmap_shrink_test";
  WriteAll(path, std::vector<unsigned char>(8192, 0x2a));
  MmapFile file;
  std::string error;
  ASSERT_TRUE(file.Map(path, &error)) << error;
  EXPECT_EQ(file.path(), path);
  EXPECT_TRUE(file.SizeIntact());
  if (file.mapped()) {
    // Another process truncates the file behind the mapping: touching
    // tail pages would SIGBUS, so the re-stat must flag the range
    // BEFORE anyone dereferences it — and say which check tripped.
    WriteAll(path, std::vector<unsigned char>(16, 0x2a));
    std::string detail;
    EXPECT_FALSE(file.SizeIntact(&detail));
    EXPECT_NE(detail.find("shrank"), std::string::npos) << detail;
    // Growing past the attached range no longer SIGBUSes, but an
    // external writer rewrote the image: the mapping's content can no
    // longer be trusted to be what was validated at attach.
    WriteAll(path, std::vector<unsigned char>(9000, 0x2a));
    detail.clear();
    EXPECT_FALSE(file.SizeIntact(&detail));
    EXPECT_NE(detail.find("grew"), std::string::npos) << detail;
    // A vanished file cannot be trusted either.
    std::remove(path.c_str());
    detail.clear();
    EXPECT_FALSE(file.SizeIntact(&detail));
    EXPECT_NE(detail.find("vanished"), std::string::npos) << detail;
  }
  std::remove(path.c_str());
}

TEST(MmapFileTest, InPlaceRewriteAtSameSizeIsDetectedViaMtime) {
  const std::string path = ::testing::TempDir() + "/mmap_mtime_test";
  WriteAll(path, std::vector<unsigned char>(4096, 0x11));
  MmapFile file;
  std::string error;
  ASSERT_TRUE(file.Map(path, &error)) << error;
  if (!file.mapped()) {
    std::remove(path.c_str());
    GTEST_SKIP() << "no OS mapping on this platform";
  }
  EXPECT_TRUE(file.SizeIntact());
#if defined(__unix__) || defined(__APPLE__)
  // Same byte count, different content: only the timestamp betrays the
  // rewrite. Push mtime well away from the attach stamp rather than
  // racing the filesystem's timestamp granularity.
  WriteAll(path, std::vector<unsigned char>(4096, 0x77));
  struct timespec times[2];
  times[0].tv_sec = 1;  // atime
  times[0].tv_nsec = 0;
  times[1].tv_sec = 1;  // mtime: far in the past != attach stamp
  times[1].tv_nsec = 0;
  ASSERT_EQ(utimensat(AT_FDCWD, path.c_str(), times, 0), 0);
  std::string detail;
  EXPECT_FALSE(file.SizeIntact(&detail));
  EXPECT_NE(detail.find("rewritten in place"), std::string::npos) << detail;
#endif
  std::remove(path.c_str());
}

TEST(MmapFileTest, LoadedCopySurvivesBackingFileMutation) {
  const std::string path = ::testing::TempDir() + "/mmap_load_test";
  const std::vector<unsigned char> payload(4096, 0x5c);
  WriteAll(path, payload);
  MmapFile file;
  std::string error;
  ASSERT_TRUE(file.Load(path, &error)) << error;
  EXPECT_TRUE(file.valid());
  EXPECT_FALSE(file.mapped()) << "Load must never hand out an OS mapping";
  ASSERT_EQ(file.size(), payload.size());
  // The owned copy is immune to truncation and even deletion.
  std::remove(path.c_str());
  EXPECT_TRUE(file.SizeIntact());
  EXPECT_EQ(std::memcmp(file.data(), payload.data(), payload.size()), 0);
}

TEST(MmapFileTest, InjectorCanRefuseTheAttachDeterministically) {
  const std::string path = ::testing::TempDir() + "/mmap_inject_test";
  WriteAll(path, std::vector<unsigned char>(64, 0x11));
  FaultInjectorOptions plan;
  plan.seed = 3;
  plan.read_fail_rate = 1.0;
  FaultInjector injector(plan);
  MmapFile file;
  std::string error;
  EXPECT_FALSE(file.Map(path, &error, &injector));
  EXPECT_FALSE(file.valid());
  EXPECT_FALSE(error.empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fairmatch
