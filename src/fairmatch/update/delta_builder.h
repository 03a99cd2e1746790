// Incremental index updates with epoch-based republish.
//
// The paper's structures — the object R-tree, the skylines, the packed
// function lists — are built once and then serve many queries. This
// module makes them *updatable* without the full rebuild: a
// DeltaBuilder applies a batch of object/function inserts and deletes
// to a ResidentDataset (serve/dataset_registry.h) by editing clones of
// the resident structures node-by-node, and produces a NEW immutable
// ResidentDataset — the next *epoch* — that the registry then publishes
// atomically (DatasetRegistry::Publish). In-flight requests finish on
// the epoch they opened; everything that starts later sees the new one.
//
// What "apply" means per structure:
//  * R-tree — the previous epoch's pages are cloned (MemNodeStore::
//    CopyFrom) and edited in place with Guttman insert / physical
//    delete + condensation (rtree/rtree.h), i.e. node-level edits with
//    overflow splits and underflow merges instead of an STR re-load.
//  * skyline — the previous epoch's skyline is re-seeded over the
//    updated tree and repaired incrementally: deletions replay
//    DeltaSky's constrained EDR traversal (DeltaSkyManager::Remove),
//    arrivals go through the traversal-free DeltaSkyManager::Insert.
//  * packed function image — the sorted per-dimension lists are a
//    pure function of the new function set, so every epoch builds its
//    image flat (serve::BuildPackedImage, in memory or mmap-backed per
//    the dataset options), exactly as Open() and snapshot recovery do.
//    An epoch shares nothing with its predecessor, which is freed as
//    soon as the last handle to it drops.
//
// Id discipline: every matcher indexes problem.objects[oid] /
// problem.functions[fid] directly, so ids must stay equal to vector
// indices across updates. Deletion therefore renames by swap-with-last
// (processed in descending deleted id, so a mover is never itself a
// pending delete target); UpdateStats reports the old-id -> new-id maps
// so consumers holding standing assignments can revise them.
//
// Atomicity: Apply() stages every change on throwaway clones and
// constructs the next epoch only after the last fallible step
// succeeded. Any failure — invalid batch, injected storage fault
// (DeltaOptions::injector), structural damage detected in a cloned
// page — returns a typed Status and leaves the builder on the old
// epoch, which was never touched. There is no partially-applied state
// to roll back, by construction.
#ifndef FAIRMATCH_UPDATE_DELTA_BUILDER_H_
#define FAIRMATCH_UPDATE_DELTA_BUILDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fairmatch/assign/problem.h"
#include "fairmatch/common/status.h"
#include "fairmatch/serve/dataset_registry.h"
#include "fairmatch/storage/fault_injector.h"

namespace fairmatch::update {

/// One batch of updates against the current epoch. Delete ids refer to
/// the CURRENT epoch's dense ids; the `id` fields of inserted objects
/// and functions are ignored (the builder assigns the next dense ids).
struct UpdateBatch {
  std::vector<ObjectItem> insert_objects;
  std::vector<ObjectId> delete_objects;
  FunctionSet insert_functions;
  std::vector<FunctionId> delete_functions;

  bool empty() const {
    return insert_objects.empty() && delete_objects.empty() &&
           insert_functions.empty() && delete_functions.empty();
  }
};

/// What one Apply() did, plus the id renames it caused.
struct UpdateStats {
  int64_t epoch = 0;

  int objects_inserted = 0;
  int objects_deleted = 0;
  int functions_inserted = 0;
  int functions_deleted = 0;

  /// Node-level R-tree edits (Insert/Delete calls, including the
  /// rename patch ops of swap-with-last moves).
  int64_t tree_ops = 0;

  /// This epoch built a fresh packed image (every Apply() with
  /// DatasetOptions::build_packed).
  bool packed_compacted = false;

  double apply_ms = 0.0;

  /// Old epoch id -> new epoch id, or -1 when deleted. Sized to the
  /// old epoch's object/function counts.
  std::vector<ObjectId> object_final;
  std::vector<FunctionId> function_final;
  /// New-epoch ids assigned to this batch's arrivals, in batch order.
  std::vector<ObjectId> inserted_object_ids;
  std::vector<FunctionId> inserted_function_ids;
};

/// Apply knobs.
struct DeltaOptions {
  /// Packed-image placement for epochs this builder produces
  /// (build_packed / packed_mmap; the packed_image_path attach knob is
  /// ignored).
  serve::DatasetOptions dataset;

  /// When non-null, consulted per fallible step of every Apply(): one
  /// OnRead per cloned tree page (corruption lands on the clone; a
  /// structurally damaged page is detected and typed kDataLoss), one
  /// OnWrite per tree edit op, one OnMap before an mmap-backed packed
  /// image build. Must outlive the builder. Failures surface as typed
  /// statuses and never touch the published epoch (the chaos-suite
  /// contract, tests/chaos_test.cc).
  FaultInjector* injector = nullptr;
};

/// Applies update batches to a resident dataset, producing a new
/// immutable epoch per batch. Single-threaded (one builder per
/// dataset); the produced handles are as concurrency-safe as any other
/// ResidentDataset.
class DeltaBuilder {
 public:
  /// `base` must be non-null. Epoch 1's skyline is computed here when
  /// the base dataset does not carry one (registry-built datasets).
  DeltaBuilder(serve::DatasetHandle base, DeltaOptions options = {});

  DeltaBuilder(const DeltaBuilder&) = delete;
  DeltaBuilder& operator=(const DeltaBuilder&) = delete;

  /// Applies `batch`, advancing current() to a new epoch on success.
  /// On failure returns kInvalidArgument (malformed batch: id out of
  /// range, duplicate delete, dimension mismatch, or a batch that
  /// would empty the object or function set), kUnavailable (injected
  /// read/write/map failure) or kDataLoss (cloned page structurally
  /// damaged) — and current() still names the old epoch, untouched.
  Status Apply(const UpdateBatch& batch, UpdateStats* stats = nullptr);

  /// The newest epoch. The caller publishes it
  /// (DatasetRegistry::Publish) when it should start serving.
  const serve::DatasetHandle& current() const { return current_; }

  int64_t epoch() const { return current_->epoch(); }

  /// The maintained skyline of current(), ascending id (same contents
  /// as current()->skyline()).
  const std::vector<ObjectRecord>& skyline() const { return skyline_; }

 private:
  DeltaOptions options_;
  serve::DatasetHandle current_;

  // Maintained skyline of current(), ascending id.
  std::vector<ObjectRecord> skyline_;
};

/// Runs registered matcher `matcher` directly against a resident
/// dataset (no server queue): the environment is assembled exactly like
/// the serve path — the shared tree (a private rebuilt tree for
/// mutates_tree matchers), a disk-resident function store where the
/// variant needs one, a private shared view of the packed image where
/// it needs that. The *-Packed variants require dataset.packed() to be
/// non-null.
AssignResult RunOnDataset(const serve::ResidentDataset& dataset,
                          const std::string& matcher,
                          double buffer_fraction = 0.02);

}  // namespace fairmatch::update

#endif  // FAIRMATCH_UPDATE_DELTA_BUILDER_H_
