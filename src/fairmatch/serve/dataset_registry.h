// Resident datasets for the serving layer: build once, serve many.
//
// The paper's design premise is that the expensive structures — the
// object R-tree and the function index — are built once and then answer
// many preference queries. DatasetRegistry is that inverse sharing
// model (the DBImpl open/close lifecycle shape): Open() turns a Problem
// into a ResidentDataset (objects bulk-loaded into an R-tree over a
// MemNodeStore, functions packed into an immutable PackedFunctionStore
// image, in memory or mmap-attached), and every subsequent open of the
// same name shares the warm structures instead of rebuilding them.
//
// Concurrency contract (per the PR 4 audits in rtree/rtree.h,
// rtree/node_store.h and topk/packed_function_lists.h): everything a
// ResidentDataset exposes is immutable after Open() — MemNodeStore
// reads are const-clean, the tree is never mutated (the server refuses
// mutates_tree matchers a shared tree), and the packed image is probed
// through per-request shared views. Any number of server lanes may
// therefore read one dataset concurrently with no locking.
//
// Lifecycle: handles are refcounts. The registry map holds one
// reference; Close() drops it, but the dataset stays alive until the
// last outstanding handle (an in-flight request, a caller) releases
// it — closing a dataset under live traffic is safe by construction.
#ifndef FAIRMATCH_SERVE_DATASET_REGISTRY_H_
#define FAIRMATCH_SERVE_DATASET_REGISTRY_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fairmatch/assign/problem.h"
#include "fairmatch/common/status.h"
#include "fairmatch/rtree/node_store.h"
#include "fairmatch/rtree/rtree.h"
#include "fairmatch/serve/status.h"
#include "fairmatch/topk/packed_function_lists.h"

namespace fairmatch::serve {

/// Build knobs for one resident dataset.
struct DatasetOptions {
  /// Build the packed function image (required to serve the *-Packed
  /// variants). Off saves the build for datasets that only serve the
  /// in-memory-list matchers.
  bool build_packed = true;

  /// Route the packed image through a file + read-only mapping instead
  /// of the in-memory buffer (PackedStoreOptions::use_mmap).
  bool packed_mmap = false;

  /// Entries per packed block (PackedStoreOptions::block_entries).
  int packed_block_entries = 128;

  /// When non-empty, attach the resident packed store from this
  /// pre-built image file (PackedFunctionStore::Open: full structural
  /// and checksum verification) instead of building one from the
  /// function set. Only honored by OpenOrError(), which is how attach
  /// failures come back typed; plain Open() ignores it.
  std::string packed_image_path;

  /// R-tree bulk-load fill factor.
  double fill_factor = 0.7;
};

/// Builds the flat packed function image of `fns` per `options`
/// (block size, in-memory or mmap-backed), or nullptr when
/// `options.build_packed` is off or `fns` is empty. The image is a pure
/// function of the function set: Open(), snapshot recovery
/// (recover/snapshot.h) and every update epoch (update/delta_builder.h)
/// build it here.
std::unique_ptr<PackedFunctionStore> BuildPackedImage(
    const FunctionSet& fns, const DatasetOptions& options);

/// One warm, immutable index set over one problem instance. Construct
/// through DatasetRegistry::Open; read-only thereafter.
class ResidentDataset {
 public:
  ResidentDataset(std::string name, AssignmentProblem problem,
                  const DatasetOptions& options);

  /// Adopts `packed` (may be null) instead of building an image;
  /// OpenOrError() uses this after verifying a packed_image_path.
  ResidentDataset(std::string name, AssignmentProblem problem,
                  const DatasetOptions& options,
                  std::unique_ptr<PackedFunctionStore> packed);

  /// Adopts pre-built structures wholesale — the incremental-update
  /// path (update/delta_builder.h). `store`'s pages are consumed
  /// (swapped in, no copy): they must already contain the tree described
  /// by `root`/`root_level`/`tree_size` over `problem`'s objects.
  /// `packed` (may be null) becomes the resident function index, `skyline` the maintained skyline of the
  /// live objects, and `epoch` the republish generation.
  ResidentDataset(std::string name, AssignmentProblem problem,
                  MemNodeStore* store, PageId root, int root_level,
                  int64_t tree_size,
                  std::unique_ptr<PackedFunctionStore> packed,
                  std::vector<ObjectRecord> skyline, int64_t epoch);

  ResidentDataset(const ResidentDataset&) = delete;
  ResidentDataset& operator=(const ResidentDataset&) = delete;

  const std::string& name() const { return name_; }
  const AssignmentProblem& problem() const { return problem_; }

  /// The shared object tree. Non-const because matcher environments
  /// take RTree* — the server only hands it to matchers whose info
  /// says they never mutate it.
  RTree* tree() const { return &tree_; }

  /// The resident packed image, or nullptr when the dataset was opened
  /// with build_packed = false. Never probe this store directly from a
  /// request lane — take a view (PackedFunctionStore::NewSharedView).
  const PackedFunctionStore* packed() const { return packed_.get(); }

  /// Wall time Open() spent building the structures (the cold-open
  /// cost; warm opens pay none of it).
  double build_ms() const { return build_ms_; }

  /// Resident footprint: tree pages plus the packed image.
  size_t memory_bytes() const;

  /// Republish generation: 1 for registry-built datasets, incremented
  /// by every DeltaBuilder::Apply epoch.
  int64_t epoch() const { return epoch_; }

  /// Maintained skyline of the live objects, ascending id — filled by
  /// the incremental-update path, empty for registry-built datasets
  /// (queries compute skylines on demand either way; this is the
  /// delta-maintained copy the update differential suite audits).
  const std::vector<ObjectRecord>& skyline() const { return skyline_; }

  /// The backing node store (page-level access for epoch cloning).
  const MemNodeStore& node_store() const { return store_; }

 private:
  std::string name_;
  AssignmentProblem problem_;
  mutable MemNodeStore store_;
  mutable RTree tree_;
  std::unique_ptr<PackedFunctionStore> packed_;
  std::vector<ObjectRecord> skyline_;
  double build_ms_ = 0.0;
  int64_t epoch_ = 1;
};

/// Shared ownership of a resident dataset. Copying shares; the dataset
/// is destroyed when the registry entry and every handle are gone.
using DatasetHandle = std::shared_ptr<const ResidentDataset>;

/// Name-keyed registry of resident datasets. All methods are
/// thread-safe (one mutex; builds happen outside hot paths).
class DatasetRegistry {
 public:
  DatasetRegistry() = default;

  DatasetRegistry(const DatasetRegistry&) = delete;
  DatasetRegistry& operator=(const DatasetRegistry&) = delete;

  /// Opens dataset `name`. Cold path: builds the resident structures
  /// from `problem` (copied in). Warm path: `name` is already resident,
  /// the existing structures are shared and `problem`/`options` are
  /// ignored. Returns the handle either way.
  DatasetHandle Open(const std::string& name, const AssignmentProblem& problem,
                     const DatasetOptions& options = {});

  /// Open() with typed failure reporting. The fallible build step is
  /// attaching a pre-built packed image (options.packed_image_path): an
  /// unreadable file comes back kNotFound, a malformed/corrupt one
  /// kDataLoss — both with the PackedOpenError class in the detail —
  /// and an image that does not match `problem`'s shape
  /// kFailedPrecondition. On success fills `out` (when non-null) and
  /// returns OK. Without a packed_image_path this is exactly Open().
  ServeStatus OpenOrError(const std::string& name,
                          const AssignmentProblem& problem,
                          const DatasetOptions& options,
                          DatasetHandle* out = nullptr);

  /// The resident dataset `name`, or nullptr. Shares (refcount++ for
  /// the caller) without ever building.
  DatasetHandle Find(const std::string& name) const;

  /// Atomically replaces (or installs) the resident dataset under
  /// `handle->name()` — the epoch-republish primitive, equivalent to
  /// Close() + re-Open() with no window in which the name is absent.
  /// In-flight requests holding the previous epoch finish on it (their
  /// handles keep it alive); every later Find()/Open() sees the new
  /// one. Returns the replaced handle, or nullptr if the name was not
  /// resident.
  ///
  /// Epochs must be monotonic: `handle->epoch()` must exceed the live
  /// epoch, or the swap would silently roll requests back to stale
  /// data (and a same-epoch republish would hide a stuck builder).
  /// This entry point CHECK-fails on a violation — a non-monotonic
  /// publish is a caller bug, not a runtime condition; use
  /// PublishOrError() where it must come back typed.
  DatasetHandle Publish(DatasetHandle handle);

  /// Publish() with the monotonicity violation reported as typed
  /// kFailedPrecondition instead of a CHECK: the status (and `sink`,
  /// when non-null) carries both epochs, the registry is untouched. On
  /// success `*replaced` (when non-null) receives what Publish() would
  /// have returned.
  ServeStatus PublishOrError(DatasetHandle handle,
                             DatasetHandle* replaced = nullptr,
                             ErrorSink* sink = nullptr);

  /// PublishOrError() for an epoch restored by crash recovery
  /// (recover/durable_builder.h) — same swap/install and the same
  /// monotonicity contract, counted separately in recoveries().
  ServeStatus PublishRecovered(DatasetHandle handle,
                               DatasetHandle* replaced = nullptr,
                               ErrorSink* sink = nullptr);

  /// Total Publish() calls that replaced an existing dataset.
  int64_t republishes() const;

  /// Total recovered epochs published (PublishRecovered).
  int64_t recoveries() const;

  /// Drops the registry's reference. Outstanding handles (in-flight
  /// requests) keep the dataset alive; a later Open() of the same name
  /// builds fresh structures. Returns NotFound if `name` is not
  /// resident.
  ServeStatus Close(const std::string& name);

  /// Names of the resident datasets, sorted.
  std::vector<std::string> Names() const;

  /// Total opens that found the dataset already resident.
  int64_t warm_opens() const;
  /// Total opens that built the dataset.
  int64_t cold_opens() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const ResidentDataset>> datasets_;
  int64_t warm_opens_ = 0;
  int64_t cold_opens_ = 0;
  int64_t republishes_ = 0;
  int64_t recoveries_ = 0;
};

}  // namespace fairmatch::serve

#endif  // FAIRMATCH_SERVE_DATASET_REGISTRY_H_
