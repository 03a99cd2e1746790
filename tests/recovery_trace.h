// Shared harness for the crash-recovery sweeps (tests/recovery_test.cc
// and tests/recovery_kill_test.cc).
//
// The oracle side runs a seeded update trace uncrashed through a
// DurableBuilder and records, per epoch, a state fingerprint covering
// everything the durability layer promises to bring back byte-identical:
// the problem arrays (raw float/double bits), the R-tree shape AND its
// page bytes, the maintained skyline, and the SB matching served off
// the epoch. The sweep side replays the identical trace with a crash
// scheduled at one durable-op boundary, recovers, and compares the
// recovered epoch's fingerprint against the oracle's.
#ifndef FAIRMATCH_TESTS_RECOVERY_TRACE_H_
#define FAIRMATCH_TESTS_RECOVERY_TRACE_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <dirent.h>
#include <stdlib.h>
#include <unistd.h>
#endif

#include "fairmatch/common/check.h"
#include "fairmatch/common/rng.h"
#include "fairmatch/data/synthetic.h"
#include "fairmatch/recover/durable_builder.h"
#include "fairmatch/serve/dataset_registry.h"
#include "fairmatch/storage/fault_injector.h"
#include "fairmatch/update/delta_builder.h"
#include "test_util.h"

namespace fairmatch::testing {

inline uint64_t RecFnv1a(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

inline uint64_t RecFnvBytes(uint64_t h, const void* bytes, size_t size) {
  const unsigned char* p = static_cast<const unsigned char*>(bytes);
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

inline uint64_t RecF32Bits(float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

inline uint64_t RecF64Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Byte-level fingerprint of one epoch: problem + tree pages + skyline
/// + the SB matching it serves. Two datasets with equal fingerprints
/// are indistinguishable to every consumer the repo has.
inline uint64_t StateFingerprint(const serve::ResidentDataset& dataset) {
  uint64_t h = 1469598103934665603ull;
  const AssignmentProblem& problem = dataset.problem();
  h = RecFnv1a(h, static_cast<uint64_t>(problem.dims));
  for (const ObjectItem& o : problem.objects) {
    for (int d = 0; d < problem.dims; ++d) h = RecFnv1a(h, RecF32Bits(o.point[d]));
    h = RecFnv1a(h, static_cast<uint64_t>(o.capacity));
  }
  for (const PrefFunction& f : problem.functions) {
    for (int d = 0; d < problem.dims; ++d) h = RecFnv1a(h, RecF64Bits(f.alpha[d]));
    h = RecFnv1a(h, RecF64Bits(f.gamma));
    h = RecFnv1a(h, static_cast<uint64_t>(f.capacity));
  }
  const RTree* tree = dataset.tree();
  h = RecFnv1a(h, static_cast<uint64_t>(tree->root()));
  h = RecFnv1a(h, static_cast<uint64_t>(tree->root_level()));
  h = RecFnv1a(h, static_cast<uint64_t>(tree->size()));
  const MemNodeStore& store = dataset.node_store();
  h = RecFnv1a(h, static_cast<uint64_t>(store.num_pages()));
  for (PageId pid = 0; pid < store.num_pages(); ++pid) {
    if (!store.has_page(pid)) continue;
    h = RecFnv1a(h, static_cast<uint64_t>(pid));
    h = RecFnvBytes(h, store.page_bytes(pid), kPageSize);
  }
  for (const ObjectRecord& m : dataset.skyline()) {
    h = RecFnv1a(h, static_cast<uint64_t>(m.id));
    for (int d = 0; d < problem.dims; ++d) h = RecFnv1a(h, RecF32Bits(m.point[d]));
  }
  const AssignResult sb = update::RunOnDataset(dataset, "SB");
  for (const MatchPair& p : sb.matching) {
    h = RecFnv1a(h, static_cast<uint64_t>(p.fid));
    h = RecFnv1a(h, static_cast<uint64_t>(p.oid));
  }
  return h;
}

inline std::string MakeRecoveryDir(const std::string& tag) {
#if defined(__unix__) || defined(__APPLE__)
  std::string tmpl = ::testing::TempDir() + "/" + tag + "_XXXXXX";
  std::vector<char> buffer(tmpl.begin(), tmpl.end());
  buffer.push_back('\0');
  const char* made = mkdtemp(buffer.data());
  if (made != nullptr) return std::string(made);
#endif
  const std::string fallback = ::testing::TempDir() + "/" + tag;
  return fallback;
}

/// Best-effort rm -rf of a flat log directory.
inline void RemoveRecoveryDir(const std::string& dir) {
#if defined(__unix__) || defined(__APPLE__)
  DIR* d = opendir(dir.c_str());
  if (d != nullptr) {
    while (dirent* entry = readdir(d)) {
      const std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      std::remove((dir + "/" + name).c_str());
    }
    closedir(d);
  }
  rmdir(dir.c_str());
#endif
}

/// The deterministic update trace one sweep seed runs.
struct TraceSpec {
  uint64_t seed = 1;
  int steps = 6;
  int snapshot_threshold = 3;  // two checkpoints inside a 6-step trace
};

/// Same generator as the update differential suite, smaller knobs: the
/// sweep reruns the trace once per durable-op boundary.
inline update::UpdateBatch RecoveryBatch(Rng* rng,
                                         const AssignmentProblem& problem,
                                         int mode) {
  update::UpdateBatch batch;
  const int num_objects = static_cast<int>(problem.objects.size());
  const int num_functions = static_cast<int>(problem.functions.size());
  if (mode % 3 != 0) {  // deletes
    const int want =
        static_cast<int>(rng->UniformInt(1, std::max(1, num_objects / 6)));
    std::vector<bool> picked(num_objects, false);
    for (int i = 0; i < want && static_cast<int>(batch.delete_objects.size()) <
                                    num_objects - 2;
         ++i) {
      const int id = static_cast<int>(rng->UniformInt(0, num_objects - 1));
      if (picked[id]) continue;
      picked[id] = true;
      batch.delete_objects.push_back(id);
    }
    if (num_functions > 3 && rng->UniformInt(0, 1) == 1) {
      batch.delete_functions.push_back(
          static_cast<FunctionId>(rng->UniformInt(0, num_functions - 1)));
    }
  }
  if (mode % 3 != 1) {  // inserts
    const int want =
        static_cast<int>(rng->UniformInt(1, std::max(1, num_objects / 8)));
    for (int i = 0; i < want; ++i) {
      ObjectItem o;
      o.point = Point(problem.dims);
      for (int d = 0; d < problem.dims; ++d) {
        o.point[d] = static_cast<float>(rng->Uniform());
      }
      batch.insert_objects.push_back(o);
    }
    if (rng->UniformInt(0, 1) == 1) {
      Rng fn_rng(static_cast<uint64_t>(rng->UniformInt(1, 1 << 20)));
      FunctionSet fresh = GenerateFunctions(
          static_cast<int>(rng->UniformInt(1, 2)), problem.dims, &fn_rng);
      for (PrefFunction& f : fresh) batch.insert_functions.push_back(f);
    }
  }
  return batch;
}

inline AssignmentProblem RecoveryProblem(uint64_t seed) {
  ProblemSpec spec;
  spec.num_functions = 16;
  spec.num_objects = 90;
  spec.dims = 3;
  spec.distribution = Distribution::kAntiCorrelated;
  spec.seed = seed;
  spec.max_gamma = 3;
  return RandomProblem(spec);
}

/// Everything the sweep needs to judge a crashed run of `spec`.
struct TraceOracle {
  AssignmentProblem problem;
  std::vector<update::UpdateBatch> batches;  // batches[i] -> epoch i + 2
  std::map<int64_t, uint64_t> expected;      // epoch -> StateFingerprint
  int64_t final_epoch = 0;
  int64_t total_durable_ops = 0;  // boundaries one uncrashed trace crosses
};

inline recover::DurableOptions MakeDurableOptions(const std::string& dir,
                                                  int snapshot_threshold,
                                                  FaultInjector* injector) {
  recover::DurableOptions options;
  options.dir = dir;
  options.snapshot_threshold = snapshot_threshold;
  options.injector = injector;
  return options;
}

/// Runs `spec` uncrashed in a throwaway directory, recording batches,
/// per-epoch fingerprints and the durable-op boundary count.
inline TraceOracle BuildTraceOracle(const TraceSpec& spec) {
  TraceOracle oracle;
  oracle.problem = RecoveryProblem(spec.seed);
  const std::string dir = MakeRecoveryDir("recovery_oracle");

  FaultInjector counter{FaultInjectorOptions{}};  // counts, never fires
  serve::DatasetRegistry registry;
  serve::DatasetHandle base = registry.Open("trace", oracle.problem, {});
  std::unique_ptr<recover::DurableBuilder> builder;
  const Status boot = recover::DurableBuilder::Bootstrap(
      base, MakeDurableOptions(dir, spec.snapshot_threshold, &counter),
      &builder);
  FAIRMATCH_CHECK(boot.ok());
  oracle.expected[builder->epoch()] = StateFingerprint(*builder->current());

  Rng rng(spec.seed * 7919 + 17);
  for (int step = 1; step <= spec.steps; ++step) {
    const update::UpdateBatch batch =
        RecoveryBatch(&rng, builder->current()->problem(), step);
    oracle.batches.push_back(batch);
    const Status status = builder->Apply(batch);
    FAIRMATCH_CHECK(status.ok());
    oracle.expected[builder->epoch()] =
        StateFingerprint(*builder->current());
  }
  oracle.final_epoch = builder->epoch();
  oracle.total_durable_ops = counter.counters().durable_ops;
  builder.reset();
  RemoveRecoveryDir(dir);
  return oracle;
}

/// Replays the oracle's trace in `dir` with `injector` armed. Updates
/// *last_completed after every DurableBuilder call that RETURNS —
/// under a crash schedule the call at the scheduled boundary never
/// returns, so on unwind *last_completed holds the newest epoch the
/// caller was actually acknowledged. Throws InjectedCrash (kThrow
/// mode) or dies by SIGKILL (kKill mode) at the scheduled boundary.
inline void RunCrashTrace(const std::string& dir, const TraceOracle& oracle,
                          int snapshot_threshold, FaultInjector* injector,
                          int64_t* last_completed) {
  serve::DatasetRegistry registry;
  serve::DatasetHandle base = registry.Open("trace", oracle.problem, {});
  std::unique_ptr<recover::DurableBuilder> builder;
  const Status boot = recover::DurableBuilder::Bootstrap(
      base, MakeDurableOptions(dir, snapshot_threshold, injector), &builder);
  FAIRMATCH_CHECK(boot.ok());
  *last_completed = builder->epoch();
  for (const update::UpdateBatch& batch : oracle.batches) {
    builder->Apply(batch);
    *last_completed = builder->epoch();
  }
}

}  // namespace fairmatch::testing

#endif  // FAIRMATCH_TESTS_RECOVERY_TRACE_H_
