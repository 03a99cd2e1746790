// Subprocess crash sweep (ctest label: killsweep — deliberately NOT
// matching the `recovery` label regex: CI runs this fork+SIGKILL sweep
// as a separate non-sanitizer step with a hard timeout).
//
// Same contract as tests/recovery_test.cc's in-process sweep, with
// nothing simulated about the death: a forked child runs the seeded
// update trace with a kKill crash schedule, the injector writes the
// scheduled torn prefix and then raises SIGKILL against the child's
// own pid — no unwinding, no destructors, no atexit — and the parent
// recovers from whatever bytes actually landed in the log directory.
// The child reports acknowledged progress through a side file written
// after every Apply() returns, so the parent can assert the recovered
// epoch is in {acked, acked + 1} and byte-identical to the uncrashed
// oracle.
#include <gtest/gtest.h>

#if defined(__unix__) || defined(__APPLE__)

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "fairmatch/recover/durable_builder.h"
#include "fairmatch/serve/dataset_registry.h"
#include "fairmatch/storage/fault_injector.h"
#include "recovery_trace.h"
#include "test_util.h"

namespace fairmatch::recover {
namespace {

using fairmatch::testing::BuildTraceOracle;
using fairmatch::testing::MakeDurableOptions;
using fairmatch::testing::MakeRecoveryDir;
using fairmatch::testing::RemoveRecoveryDir;
using fairmatch::testing::RunCrashTrace;
using fairmatch::testing::StateFingerprint;
using fairmatch::testing::TraceOracle;
using fairmatch::testing::TraceSpec;

/// Child exit code meaning "the whole trace ran, the schedule never
/// fired" — the parent uses it to detect the end of the boundary range.
constexpr int kNoCrashExit = 42;

/// Plain (non-durable) progress file: the newest epoch the child was
/// acknowledged. Written after every Apply() RETURN, so a kill mid-call
/// leaves the previous value — exactly the in-process sweep's
/// last_completed semantics.
std::string AckPath(const std::string& dir) { return dir + "/ACKED"; }

void WriteAck(const std::string& dir, int64_t epoch) {
  std::FILE* f = std::fopen(AckPath(dir).c_str(), "wb");
  if (f == nullptr) return;
  std::fprintf(f, "%lld", static_cast<long long>(epoch));
  std::fclose(f);
}

int64_t ReadAck(const std::string& dir) {
  std::FILE* f = std::fopen(AckPath(dir).c_str(), "rb");
  if (f == nullptr) return 0;
  long long epoch = 0;
  if (std::fscanf(f, "%lld", &epoch) != 1) epoch = 0;
  std::fclose(f);
  return epoch;
}

/// The child body: run the trace under a kKill schedule. Never returns
/// normally under a live schedule — the injector SIGKILLs the process
/// mid-durable-write.
[[noreturn]] void ChildRun(const std::string& dir, const TraceOracle& oracle,
                           int snapshot_threshold, int64_t boundary,
                           uint64_t seed) {
  FaultInjectorOptions plan;
  plan.seed = seed;
  plan.crash_after_durable = boundary;
  plan.crash_mode = CrashMode::kKill;
  FaultInjector injector(plan);

  serve::DatasetRegistry registry;
  serve::DatasetHandle base = registry.Open("trace", oracle.problem, {});
  std::unique_ptr<DurableBuilder> builder;
  const Status boot = DurableBuilder::Bootstrap(
      base, MakeDurableOptions(dir, snapshot_threshold, &injector), &builder);
  if (!boot.ok()) _exit(3);
  WriteAck(dir, builder->epoch());
  for (const update::UpdateBatch& batch : oracle.batches) {
    builder->Apply(batch);
    WriteAck(dir, builder->epoch());
  }
  _exit(kNoCrashExit);
}

TEST(KillSweepTest, SigkillAtEveryDurableBoundaryRecoversByteIdentical) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    TraceSpec spec;
    spec.seed = seed;
    const TraceOracle oracle = BuildTraceOracle(spec);
    ASSERT_GT(oracle.total_durable_ops, 0);

    bool exhausted = false;
    for (int64_t boundary = 0; !exhausted; ++boundary) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " boundary " +
                   std::to_string(boundary));
      const std::string dir = MakeRecoveryDir("killsweep");
      const pid_t pid = fork();
      ASSERT_GE(pid, 0) << "fork failed";
      if (pid == 0) {
        ChildRun(dir, oracle, spec.snapshot_threshold, boundary,
                 seed * 1000 + static_cast<uint64_t>(boundary));
      }
      int wstatus = 0;
      ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);

      if (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == kNoCrashExit) {
        // The schedule never fired: we stepped past the last boundary.
        EXPECT_EQ(boundary, oracle.total_durable_ops);
        exhausted = true;
        RemoveRecoveryDir(dir);
        continue;
      }
      ASSERT_TRUE(WIFSIGNALED(wstatus))
          << "child neither crashed nor finished (status " << wstatus << ")";
      ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);

      const int64_t acked = ReadAck(dir);
      std::unique_ptr<DurableBuilder> builder;
      RecoveryStats stats;
      const Status status = DurableBuilder::Recover(
          MakeDurableOptions(dir, spec.snapshot_threshold, nullptr), &builder,
          &stats);
      if (acked == 0) {
        // Killed inside Bootstrap: nothing acknowledged; an empty or
        // typed-unrecoverable directory is legal, a recovered one must
        // be the bootstrap epoch.
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
      EXPECT_TRUE(recovered == acked || recovered == acked + 1)
          << "recovered epoch " << recovered << " after acking " << acked;
      ASSERT_TRUE(oracle.expected.count(recovered));
      EXPECT_EQ(StateFingerprint(*builder->current()),
                oracle.expected.at(recovered))
          << "recovered epoch " << recovered
          << " diverged from the uncrashed run";
      builder.reset();
      RemoveRecoveryDir(dir);
    }
  }
}

}  // namespace
}  // namespace fairmatch::recover

#else  // !POSIX

TEST(KillSweepTest, SkippedWithoutPosixProcessControl) {
  GTEST_SKIP() << "fork/SIGKILL sweep needs POSIX process control";
}

#endif
