// Crash-recovery suite (ctest label: recovery). The contract under
// test (recover/durable_builder.h): a process killed at ANY durable-op
// boundary — every WAL/snapshot/manifest write, fsync and rename —
// recovers to a servable epoch E in {last acknowledged, +1} whose
// state is byte-identical to the uncrashed run's epoch E: problem
// arrays, R-tree page bytes, maintained skyline and served SB matching
// all fingerprint-equal. Torn WAL tails truncate silently, half-
// applied (logged-but-unacknowledged) batches replay, a torn manifest
// slot fails over to the surviving slot, and unrecoverable damage
// surfaces as typed kDataLoss — never a crash, never a wrong answer.
//
// The sweep here is in-process: the crash is a thrown InjectedCrash
// unwinding out of the durability layer, so one binary can run
// hundreds of (seed, boundary) combinations under ASan/TSan. The
// subprocess kill -9 variant of the same sweep lives in
// tests/recovery_kill_test.cc (ctest label: killsweep).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fairmatch/recover/batch_codec.h"
#include "fairmatch/recover/durable_builder.h"
#include "fairmatch/recover/manifest.h"
#include "fairmatch/recover/snapshot.h"
#include "fairmatch/recover/wal.h"
#include "fairmatch/serve/dataset_registry.h"
#include "fairmatch/storage/durable_file.h"
#include "fairmatch/storage/fault_injector.h"
#include "fairmatch/update/delta_builder.h"
#include "recovery_trace.h"
#include "test_util.h"

namespace fairmatch::recover {
namespace {

using fairmatch::testing::BuildTraceOracle;
using fairmatch::testing::MakeDurableOptions;
using fairmatch::testing::MakeRecoveryDir;
using fairmatch::testing::RecoveryProblem;
using fairmatch::testing::RemoveRecoveryDir;
using fairmatch::testing::RunCrashTrace;
using fairmatch::testing::StateFingerprint;
using fairmatch::testing::TraceOracle;
using fairmatch::testing::TraceSpec;

bool RewriteFile(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  return true;
}

// --- the tentpole: every boundary, every seed, in-process unwind -----

TEST(CrashSweepTest, EveryDurableBoundaryRecoversByteIdentical) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    TraceSpec spec;
    spec.seed = seed;
    const TraceOracle oracle = BuildTraceOracle(spec);
    ASSERT_GT(oracle.total_durable_ops, 0);

    for (int64_t boundary = 0; boundary < oracle.total_durable_ops;
         ++boundary) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " boundary " +
                   std::to_string(boundary) + "/" +
                   std::to_string(oracle.total_durable_ops));
      const std::string dir = MakeRecoveryDir("recovery_sweep");
      FaultInjectorOptions plan;
      plan.seed = seed * 1000 + static_cast<uint64_t>(boundary);
      plan.crash_after_durable = boundary;
      plan.crash_mode = CrashMode::kThrow;
      FaultInjector injector(plan);

      int64_t last_completed = 0;
      bool crashed = false;
      try {
        RunCrashTrace(dir, oracle, spec.snapshot_threshold, &injector,
                      &last_completed);
      } catch (const InjectedCrash& crash) {
        crashed = true;
        EXPECT_EQ(crash.durable_op, boundary);
      }
      ASSERT_TRUE(crashed) << "schedule never fired";

      std::unique_ptr<DurableBuilder> builder;
      RecoveryStats stats;
      const Status status = DurableBuilder::Recover(
          MakeDurableOptions(dir, spec.snapshot_threshold, nullptr), &builder,
          &stats);
      if (last_completed == 0) {
        // Crashed inside Bootstrap: nothing was ever acknowledged, so
        // an empty-or-unrecoverable directory is a legal outcome — but
        // it must be TYPED, and a successful recovery must land on the
        // bootstrap epoch.
        if (status.ok()) {
          ASSERT_EQ(builder->epoch(), 1);
          EXPECT_EQ(StateFingerprint(*builder->current()),
                    oracle.expected.at(1));
        } else {
          EXPECT_TRUE(status.code == ErrorCode::kNotFound ||
                      status.code == ErrorCode::kDataLoss)
              << status.message;
        }
        RemoveRecoveryDir(dir);
        continue;
      }

      ASSERT_TRUE(status.ok()) << status.message;
      const int64_t recovered = builder->epoch();
      EXPECT_EQ(recovered, stats.recovered_epoch);
      EXPECT_TRUE(recovered == last_completed ||
                  recovered == last_completed + 1)
          << "recovered epoch " << recovered << " after acking "
          << last_completed;
      ASSERT_TRUE(oracle.expected.count(recovered));
      EXPECT_EQ(StateFingerprint(*builder->current()),
                oracle.expected.at(recovered))
          << "recovered epoch " << recovered
          << " diverged from the uncrashed run";

      // The recovered builder must keep working: apply the rest of the
      // trace (batches[i] produces epoch i + 2) and converge to the
      // uncrashed run's final state.
      for (size_t i = static_cast<size_t>(recovered - 1);
           i < oracle.batches.size(); ++i) {
        const Status apply = builder->Apply(oracle.batches[i]);
        ASSERT_TRUE(apply.ok()) << apply.message;
      }
      EXPECT_EQ(builder->epoch(), oracle.final_epoch);
      EXPECT_EQ(StateFingerprint(*builder->current()),
                oracle.expected.at(oracle.final_epoch));

      builder.reset();
      RemoveRecoveryDir(dir);
    }
  }
}

// --- WAL-level damage ------------------------------------------------

class DamageTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = MakeRecoveryDir("recovery_damage"); }
  void TearDown() override { RemoveRecoveryDir(dir_); }

  /// Bootstraps + applies `steps` batches with a huge snapshot
  /// threshold (no checkpoints: one manifest slot, one WAL file).
  void RunTrace(int steps) {
    TraceSpec spec;
    spec.steps = steps;
    spec.snapshot_threshold = 1 << 20;
    oracle_ = BuildTraceOracle(spec);
    int64_t last_completed = 0;
    RunCrashTrace(dir_, oracle_, spec.snapshot_threshold, nullptr,
                  &last_completed);
    ASSERT_EQ(last_completed, oracle_.final_epoch);
  }

  Status Recover(std::unique_ptr<DurableBuilder>* builder,
                 RecoveryStats* stats) {
    return DurableBuilder::Recover(MakeDurableOptions(dir_, 1 << 20, nullptr),
                                   builder, stats);
  }

  std::string WalPath() const { return dir_ + "/wal-1.log"; }
  std::string SnapshotPath() const { return dir_ + "/snap-1.fms"; }
  std::string ManifestPath() const { return dir_ + "/MANIFEST"; }

  std::string dir_;
  TraceOracle oracle_;
};

TEST_F(DamageTest, TornWalTailIsTruncatedAndTheAckedPrefixRecovered) {
  RunTrace(3);

  // Simulate a torn append: garbage that parses as an incomplete
  // record at EOF (a plausible epoch header, then silence).
  std::string bytes, error;
  ASSERT_TRUE(ReadFileBytes(WalPath(), &bytes, &error)) << error;
  const int64_t intact = static_cast<int64_t>(bytes.size());
  std::FILE* f = std::fopen(WalPath().c_str(), "ab");
  ASSERT_NE(f, nullptr);
  const int64_t fake_epoch = 5;
  std::fwrite(&fake_epoch, sizeof(fake_epoch), 1, f);
  std::fclose(f);

  std::vector<WalRecord> records;
  WalReadStats rstats;
  ASSERT_TRUE(ReadWal(WalPath(), &records, &rstats).ok());
  EXPECT_TRUE(rstats.torn_tail);
  EXPECT_EQ(rstats.torn_bytes, 8);
  EXPECT_EQ(rstats.bytes_used, intact);
  EXPECT_EQ(rstats.records, 3);

  std::unique_ptr<DurableBuilder> builder;
  RecoveryStats stats;
  ASSERT_TRUE(Recover(&builder, &stats).ok());
  EXPECT_TRUE(stats.wal_torn_tail);
  EXPECT_EQ(stats.wal_torn_bytes, 8);
  EXPECT_EQ(builder->epoch(), oracle_.final_epoch);
  EXPECT_EQ(StateFingerprint(*builder->current()),
            oracle_.expected.at(oracle_.final_epoch));

  // The torn residue was truncated before the writer re-attached:
  // post-recovery appends extend a clean log.
  ASSERT_TRUE(builder->Apply(oracle_.batches[0]).ok());
  const uint64_t continued = StateFingerprint(*builder->current());
  std::unique_ptr<DurableBuilder> again;
  ASSERT_TRUE(Recover(&again, &stats).ok());
  EXPECT_FALSE(stats.wal_torn_tail);
  EXPECT_EQ(again->epoch(), builder->epoch());
  EXPECT_EQ(StateFingerprint(*again->current()), continued);
}

TEST_F(DamageTest, InteriorWalCorruptionIsTypedDataLossNotATruncation) {
  RunTrace(3);

  // Flip one payload byte INSIDE the committed prefix (first record,
  // past the 8-byte file header + 16-byte record header): the record
  // is complete but its CRC fails — committed history is unreadable,
  // which must NOT be silently truncated away.
  std::string bytes, error;
  ASSERT_TRUE(ReadFileBytes(WalPath(), &bytes, &error)) << error;
  ASSERT_GT(bytes.size(), 30u);
  bytes[28] = static_cast<char>(bytes[28] ^ 0x40);
  ASSERT_TRUE(RewriteFile(WalPath(), bytes));

  std::vector<WalRecord> records;
  WalReadStats rstats;
  const Status read = ReadWal(WalPath(), &records, &rstats);
  EXPECT_EQ(read.code, ErrorCode::kDataLoss) << read.message;

  // With the only slot's WAL unreadable, recovery is typed data loss.
  std::unique_ptr<DurableBuilder> builder;
  RecoveryStats stats;
  const Status status = Recover(&builder, &stats);
  EXPECT_EQ(status.code, ErrorCode::kDataLoss);
  EXPECT_NE(status.message.find("checksum"), std::string::npos)
      << status.message;
}

TEST_F(DamageTest, DuplicateWalRecordIsSkippedOnReplay) {
  RunTrace(2);

  // Re-append a byte-exact copy of an already-committed record (epoch
  // 2, the first one after the header). Replay must skip it: applying
  // it twice would double the batch.
  std::string bytes, error;
  ASSERT_TRUE(ReadFileBytes(WalPath(), &bytes, &error)) << error;
  int64_t first_epoch;
  uint32_t first_len;
  std::memcpy(&first_epoch, bytes.data() + 8, sizeof(first_epoch));
  std::memcpy(&first_len, bytes.data() + 16, sizeof(first_len));
  ASSERT_EQ(first_epoch, 2);
  const std::string first_record = bytes.substr(8, 16 + first_len);
  std::FILE* f = std::fopen(WalPath().c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fwrite(first_record.data(), 1, first_record.size(), f);
  std::fclose(f);

  std::unique_ptr<DurableBuilder> builder;
  RecoveryStats stats;
  ASSERT_TRUE(Recover(&builder, &stats).ok());
  EXPECT_EQ(stats.wal_records_replayed, 2);
  EXPECT_EQ(stats.wal_records_skipped, 1);
  EXPECT_EQ(builder->epoch(), oracle_.final_epoch);
  EXPECT_EQ(StateFingerprint(*builder->current()),
            oracle_.expected.at(oracle_.final_epoch));
}

TEST_F(DamageTest, SnapshotCorruptionOnTheOnlySlotIsTypedDataLoss) {
  RunTrace(2);
  std::string bytes, error;
  ASSERT_TRUE(ReadFileBytes(SnapshotPath(), &bytes, &error)) << error;
  bytes[bytes.size() / 2] =
      static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  ASSERT_TRUE(RewriteFile(SnapshotPath(), bytes));

  std::unique_ptr<DurableBuilder> builder;
  RecoveryStats stats;
  const Status status = Recover(&builder, &stats);
  EXPECT_EQ(status.code, ErrorCode::kDataLoss);
  EXPECT_EQ(stats.snapshot_fallbacks, 1);
  EXPECT_NE(status.message.find("snapshot"), std::string::npos)
      << status.message;
}

// --- manifest A/B failover -------------------------------------------

TEST(ManifestFailoverTest, TornCommitFailsOverToSurvivingSlotAndReplays) {
  // Crash exactly at the manifest-slot WRITE of the first checkpoint:
  // Bootstrap crosses 9 boundaries (manifest format 2, snapshot 3, WAL
  // create 2, commit 2), each apply 2 (record write + sync), and the
  // checkpoint after apply #2 (threshold 2) starts with snapshot (3) +
  // WAL create (2) — so the slot write for seq 2 is boundary 18. The
  // torn write lands in the OTHER slot: seq 1 survives, binds the old
  // snapshot + old WAL (pruning never ran), and replay reconverges to
  // the pre-crash epoch.
  TraceSpec spec;
  spec.seed = 3;
  spec.steps = 2;
  spec.snapshot_threshold = 2;
  const TraceOracle oracle = BuildTraceOracle(spec);
  ASSERT_EQ(oracle.total_durable_ops, 9 + 2 * 2 + 7);

  const std::string dir = MakeRecoveryDir("recovery_failover");
  FaultInjectorOptions plan;
  plan.seed = 99;
  plan.crash_after_durable = 18;
  plan.crash_mode = CrashMode::kThrow;
  FaultInjector injector(plan);
  int64_t last_completed = 0;
  bool crashed = false;
  try {
    RunCrashTrace(dir, oracle, spec.snapshot_threshold, &injector,
                  &last_completed);
  } catch (const InjectedCrash& crash) {
    crashed = true;
    EXPECT_STREQ(crash.site, "manifest slot write");
  }
  ASSERT_TRUE(crashed);
  // The tear is inside Apply #2's checkpoint, so epoch 3 was applied
  // and WAL-committed but never acknowledged: recovery must land on
  // acked + 1 via replay off the surviving slot.
  ASSERT_EQ(last_completed, 2);

  std::unique_ptr<DurableBuilder> builder;
  RecoveryStats stats;
  const Status status = DurableBuilder::Recover(
      MakeDurableOptions(dir, spec.snapshot_threshold, nullptr), &builder,
      &stats);
  ASSERT_TRUE(status.ok()) << status.message;
  // The torn slot is corrupt (or, if the torn prefix was empty, still
  // empty); either way recovery runs off manifest seq 1 and replays
  // the old WAL back to the acked epoch.
  EXPECT_EQ(stats.manifest_seq, 1u);
  EXPECT_EQ(stats.snapshot_epoch, 1);
  EXPECT_EQ(builder->epoch(), 3);
  EXPECT_EQ(stats.wal_records_replayed, 2);
  EXPECT_EQ(StateFingerprint(*builder->current()), oracle.expected.at(3));
  builder.reset();
  RemoveRecoveryDir(dir);
}

TEST(ManifestFailoverTest, AllSlotsCorruptIsTypedDataLossWithATrail) {
  TraceSpec spec;
  spec.steps = 2;
  spec.snapshot_threshold = 1 << 20;
  const TraceOracle oracle = BuildTraceOracle(spec);
  const std::string dir = MakeRecoveryDir("recovery_corrupt");
  int64_t last_completed = 0;
  RunCrashTrace(dir, oracle, spec.snapshot_threshold, nullptr,
                &last_completed);

  // Flip a byte inside the one committed slot (seq 1 lives in slot 1,
  // bytes [256, 512)); slot 0 was never written and is empty.
  const std::string manifest_path = dir + "/MANIFEST";
  std::string bytes, error;
  ASSERT_TRUE(ReadFileBytes(manifest_path, &bytes, &error)) << error;
  ASSERT_EQ(bytes.size(), 512u);
  bytes[300] = static_cast<char>(bytes[300] ^ 0x10);
  ASSERT_TRUE(RewriteFile(manifest_path, bytes));

  std::vector<ManifestRecord> records;
  ManifestReadStats mstats;
  const Status read =
      ReadManifest(manifest_path, &records, &mstats);
  EXPECT_EQ(read.code, ErrorCode::kDataLoss) << read.message;
  EXPECT_EQ(mstats.slots_corrupt, 1);
  EXPECT_EQ(mstats.slots_empty, 1);
  EXPECT_NE(mstats.detail.find("slot 1"), std::string::npos) << mstats.detail;

  std::unique_ptr<DurableBuilder> builder;
  RecoveryStats stats;
  const Status status = DurableBuilder::Recover(
      MakeDurableOptions(dir, spec.snapshot_threshold, nullptr), &builder,
      &stats);
  EXPECT_EQ(status.code, ErrorCode::kDataLoss);
  EXPECT_EQ(stats.manifest_slots_corrupt, 1);
  RemoveRecoveryDir(dir);
}

TEST(ManifestFailoverTest, EmptyDirectoryIsNotFoundNotDataLoss) {
  const std::string dir = MakeRecoveryDir("recovery_empty");
  std::unique_ptr<DurableBuilder> builder;
  RecoveryStats stats;
  const Status status = DurableBuilder::Recover(
      MakeDurableOptions(dir, 4, nullptr), &builder, &stats);
  EXPECT_EQ(status.code, ErrorCode::kNotFound);
  RemoveRecoveryDir(dir);
}

// --- replay semantics for logged-then-rejected batches ---------------

TEST(ReplayTest, RejectedBatchesAreLoggedAndRereJectedIdentically) {
  const std::string dir = MakeRecoveryDir("recovery_reject");
  const AssignmentProblem problem = RecoveryProblem(7);
  serve::DatasetRegistry registry;
  serve::DatasetHandle base = registry.Open("trace", problem, {});
  std::unique_ptr<DurableBuilder> builder;
  ASSERT_TRUE(DurableBuilder::Bootstrap(
                  base, MakeDurableOptions(dir, 1 << 20, nullptr), &builder)
                  .ok());

  // An invalid batch: the WAL-first protocol logs it, then the apply
  // rejects it without advancing the epoch — live and at replay.
  update::UpdateBatch invalid;
  invalid.delete_objects.push_back(
      static_cast<ObjectId>(problem.objects.size()) + 100);
  const Status rejected = builder->Apply(invalid);
  EXPECT_EQ(rejected.code, ErrorCode::kInvalidArgument);
  EXPECT_EQ(builder->epoch(), 1);

  update::UpdateBatch valid;
  valid.delete_objects.push_back(0);
  ASSERT_TRUE(builder->Apply(valid).ok());
  EXPECT_EQ(builder->epoch(), 2);
  const uint64_t want = StateFingerprint(*builder->current());
  builder.reset();

  std::unique_ptr<DurableBuilder> recovered;
  RecoveryStats stats;
  ASSERT_TRUE(DurableBuilder::Recover(
                  MakeDurableOptions(dir, 1 << 20, nullptr), &recovered,
                  &stats)
                  .ok());
  EXPECT_EQ(stats.wal_records_rejected, 1);
  EXPECT_EQ(stats.wal_records_replayed, 1);
  EXPECT_EQ(recovered->epoch(), 2);
  EXPECT_EQ(StateFingerprint(*recovered->current()), want);
  recovered.reset();
  RemoveRecoveryDir(dir);
}

// --- the batch codec round-trips exactly -----------------------------

TEST(BatchCodecTest, RoundTripsEveryFieldAndRejectsDamage) {
  Rng rng(42);
  const AssignmentProblem problem = RecoveryProblem(42);
  const update::UpdateBatch batch =
      fairmatch::testing::RecoveryBatch(&rng, problem, 2);
  std::string payload;
  EncodeBatch(batch, problem.dims, &payload);

  update::UpdateBatch decoded;
  int dims = 0;
  ASSERT_TRUE(DecodeBatch(payload, &decoded, &dims));
  EXPECT_EQ(dims, problem.dims);
  ASSERT_EQ(decoded.insert_objects.size(), batch.insert_objects.size());
  for (size_t i = 0; i < batch.insert_objects.size(); ++i) {
    for (int d = 0; d < problem.dims; ++d) {
      EXPECT_EQ(decoded.insert_objects[i].point[d],
                batch.insert_objects[i].point[d]);
    }
    EXPECT_EQ(decoded.insert_objects[i].capacity,
              batch.insert_objects[i].capacity);
  }
  EXPECT_EQ(decoded.delete_objects, batch.delete_objects);
  ASSERT_EQ(decoded.insert_functions.size(), batch.insert_functions.size());
  for (size_t i = 0; i < batch.insert_functions.size(); ++i) {
    for (int d = 0; d < problem.dims; ++d) {
      EXPECT_EQ(decoded.insert_functions[i].alpha[d],
                batch.insert_functions[i].alpha[d]);
    }
    EXPECT_EQ(decoded.insert_functions[i].gamma,
              batch.insert_functions[i].gamma);
  }
  EXPECT_EQ(decoded.delete_functions, batch.delete_functions);

  // Truncated and over-long payloads are rejected, not misparsed.
  EXPECT_FALSE(
      DecodeBatch(payload.substr(0, payload.size() - 1), &decoded, &dims));
  EXPECT_FALSE(DecodeBatch(payload + "x", &decoded, &dims));
}

// --- boot-from-manifest through the registry -------------------------

TEST(RecoverAndPublishTest, RegistryServesTheRecoveredEpoch) {
  TraceSpec spec;
  spec.seed = 5;
  spec.steps = 4;
  const TraceOracle oracle = BuildTraceOracle(spec);
  const std::string dir = MakeRecoveryDir("recovery_publish");
  int64_t last_completed = 0;
  RunCrashTrace(dir, oracle, spec.snapshot_threshold, nullptr,
                &last_completed);

  serve::DatasetRegistry registry;
  serve::DatasetHandle handle;
  RecoveryStats stats;
  std::unique_ptr<DurableBuilder> builder;
  const Status status = RecoverAndPublish(
      MakeDurableOptions(dir, spec.snapshot_threshold, nullptr), &registry,
      &handle, &stats, &builder);
  ASSERT_TRUE(status.ok()) << status.message;
  ASSERT_NE(handle, nullptr);
  EXPECT_EQ(registry.recoveries(), 1);
  EXPECT_EQ(handle->epoch(), oracle.final_epoch);

  // What the registry serves IS the recovered epoch (same handle), and
  // its state matches the uncrashed run's.
  serve::DatasetHandle found = registry.Find("trace");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found.get(), handle.get());
  EXPECT_EQ(StateFingerprint(*found), oracle.expected.at(oracle.final_epoch));

  // The recovered builder keeps producing publishable epochs.
  ASSERT_TRUE(builder->Apply(oracle.batches[0]).ok());
  serve::DatasetHandle replaced;
  ASSERT_TRUE(
      registry.PublishOrError(builder->current(), &replaced).ok());
  EXPECT_EQ(replaced.get(), handle.get());
  builder.reset();
  RemoveRecoveryDir(dir);
}

}  // namespace
}  // namespace fairmatch::recover
