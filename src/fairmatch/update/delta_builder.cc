#include "fairmatch/update/delta_builder.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <utility>

#include "fairmatch/common/check.h"
#include "fairmatch/common/timer.h"
#include "fairmatch/engine/registry.h"
#include "fairmatch/rtree/node.h"
#include "fairmatch/rtree/node_store.h"
#include "fairmatch/serve/server.h"
#include "fairmatch/topk/packed_function_lists.h"

namespace fairmatch::update {

namespace {

/// Validates a delete-id list: in range, no duplicates. Returns the ids
/// sorted DESCENDING — the order both swap-with-last phases process, so
/// a mover (always the current last slot) is never itself a pending
/// delete target.
Status SortedDeletes(const std::vector<int32_t>& ids, int limit,
                     const char* what,
                     std::vector<int32_t>* out) {
  *out = ids;
  std::sort(out->begin(), out->end(), std::greater<int32_t>());
  for (size_t i = 0; i < out->size(); ++i) {
    if ((*out)[i] < 0 || (*out)[i] >= limit) {
      return Status::InvalidArgument(
          std::string(what) + " id " + std::to_string((*out)[i]) +
          " out of range [0, " + std::to_string(limit) + ")");
    }
    if (i > 0 && (*out)[i] == (*out)[i - 1]) {
      return Status::InvalidArgument(
          "duplicate " + std::string(what) + " id " +
          std::to_string((*out)[i]));
    }
  }
  return Status::Ok();
}

}  // namespace

DeltaBuilder::DeltaBuilder(serve::DatasetHandle base, DeltaOptions options)
    : options_(std::move(options)), current_(std::move(base)) {
  FAIRMATCH_CHECK(current_ != nullptr);
}

Status DeltaBuilder::Apply(const UpdateBatch& batch,
                           UpdateStats* stats_out) {
  Timer timer;
  const AssignmentProblem& base_problem = current_->problem();
  const int dims = base_problem.dims;
  const int old_objects = static_cast<int>(base_problem.objects.size());
  const int old_functions = static_cast<int>(base_problem.functions.size());

  // ---- validate (every failure leaves current() untouched) ----------
  std::vector<ObjectId> del_objects;
  Status status = SortedDeletes(batch.delete_objects, old_objects,
                                "delete_objects", &del_objects);
  if (!status.ok()) return status;
  std::vector<FunctionId> del_functions;
  status = SortedDeletes(batch.delete_functions, old_functions,
                         "delete_functions", &del_functions);
  if (!status.ok()) return status;
  for (const ObjectItem& o : batch.insert_objects) {
    if (o.point.dims() != dims) {
      return Status::InvalidArgument(
          "insert_objects point has " + std::to_string(o.point.dims()) +
          " dims, dataset has " + std::to_string(dims));
    }
    if (o.capacity < 1) {
      return Status::InvalidArgument(
          "insert_objects capacity must be >= 1, got " +
          std::to_string(o.capacity));
    }
  }
  for (const PrefFunction& f : batch.insert_functions) {
    if (f.dims != dims) {
      return Status::InvalidArgument(
          "insert_functions entry has " + std::to_string(f.dims) +
          " dims, dataset has " + std::to_string(dims));
    }
    if (f.capacity < 1) {
      return Status::InvalidArgument(
          "insert_functions capacity must be >= 1, got " +
          std::to_string(f.capacity));
    }
  }
  if (old_functions - static_cast<int>(del_functions.size()) +
          static_cast<int>(batch.insert_functions.size()) <=
      0) {
    return Status::InvalidArgument("batch would empty the function set");
  }
  if (old_objects - static_cast<int>(del_objects.size()) +
          static_cast<int>(batch.insert_objects.size()) <=
      0) {
    return Status::InvalidArgument("batch would empty the object set");
  }

  // ---- function phase (pure vectors; ids stay dense by
  // swap-with-last, processed in descending deleted id) ---------------
  FunctionSet fns = base_problem.functions;
  std::vector<int32_t> fowner(old_functions);  // slot -> original id
  std::iota(fowner.begin(), fowner.end(), 0);
  for (FunctionId k : del_functions) {
    const int last = static_cast<int>(fns.size()) - 1;
    if (k != last) {
      fns[k] = fns[last];
      fns[k].id = k;
      fowner[k] = fowner[last];
    }
    fns.pop_back();
    fowner.pop_back();
  }
  std::vector<FunctionId> inserted_fids;
  inserted_fids.reserve(batch.insert_functions.size());
  for (const PrefFunction& f : batch.insert_functions) {
    PrefFunction nf = f;
    nf.id = static_cast<FunctionId>(fns.size());
    inserted_fids.push_back(nf.id);
    fns.push_back(nf);
    fowner.push_back(-1);
  }
  std::vector<FunctionId> function_final(old_functions, -1);
  for (int slot = 0; slot < static_cast<int>(fns.size()); ++slot) {
    if (fowner[slot] >= 0) function_final[fowner[slot]] = slot;
  }

  // ---- clone the tree store ------------------------------------------
  // All node edits land on a private page-level copy; the published
  // epoch's pages are never written. The injector's read schedule runs
  // over the cloned pages (corruption corrupts the clone), and a
  // structurally damaged page is detected here, typed, before any edit.
  FaultInjector* injector = options_.injector;
  MemNodeStore work_store(dims);
  work_store.CopyFrom(current_->node_store());
  if (injector != nullptr) {
    const int64_t pages = work_store.num_pages();
    for (PageId pid = 0; pid < pages; ++pid) {
      if (!work_store.has_page(pid)) continue;
      int spike_us = 0;
      Status s = injector->OnRead(pid, work_store.raw_page(pid), &spike_us);
      if (spike_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(spike_us));
      }
      if (!s.ok()) {
        return Status::Unavailable("epoch clone: " + s.message);
      }
      if (!NodeView(work_store.raw_page(pid), dims, false).IsWellFormed()) {
        return Status::DataLoss(
            "epoch clone: page " + std::to_string(pid) +
            " structurally damaged");
      }
    }
  }
  RTree tree(&work_store, current_->tree()->root(),
             current_->tree()->root_level(), current_->tree()->size());

  int64_t tree_ops = 0;
  auto tree_op = [&](const std::function<void()>& op) -> Status {
    if (injector != nullptr) {
      int spike_us = 0;
      Status s =
          injector->OnWrite(static_cast<PageId>(tree_ops), &spike_us);
      if (spike_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(spike_us));
      }
      if (!s.ok()) {
        return Status::Unavailable(
            "tree edit " + std::to_string(tree_ops) + ": " + s.message);
      }
    }
    ++tree_ops;
    op();
    return Status::Ok();
  };

  // ---- object phase ---------------------------------------------------
  // Swap-with-last, descending deleted id. The target slot always still
  // holds its original occupant; the mover comes from the tail and may
  // itself move again later. Each swap is three node-level tree ops:
  // delete target, delete mover under its old id, reinsert under the
  // target id.
  std::vector<ObjectItem> objects = base_problem.objects;
  std::vector<int32_t> oowner(old_objects);  // slot -> original id
  std::iota(oowner.begin(), oowner.end(), 0);
  for (ObjectId k : del_objects) {
    const int last = static_cast<int>(objects.size()) - 1;
    const Point pk = objects[k].point;
    status = tree_op([&tree, &pk, k] { FAIRMATCH_CHECK(tree.Delete(pk, k)); });
    if (!status.ok()) return status;
    if (k != last) {
      const Point pl = objects[last].point;
      status = tree_op(
          [&tree, &pl, last] { FAIRMATCH_CHECK(tree.Delete(pl, last)); });
      if (!status.ok()) return status;
      status = tree_op([&tree, &pl, k] { tree.Insert(pl, k); });
      if (!status.ok()) return status;
      objects[k] = objects[last];
      objects[k].id = k;
      oowner[k] = oowner[last];
    }
    objects.pop_back();
    oowner.pop_back();
  }
  std::vector<ObjectId> inserted_oids;
  inserted_oids.reserve(batch.insert_objects.size());
  for (const ObjectItem& o : batch.insert_objects) {
    ObjectItem no = o;
    no.id = static_cast<ObjectId>(objects.size());
    status = tree_op([&tree, &no] { tree.Insert(no.point, no.id); });
    if (!status.ok()) return status;
    inserted_oids.push_back(no.id);
    objects.push_back(no);
    oowner.push_back(-1);
  }
  std::vector<ObjectId> object_final(old_objects, -1);
  for (int slot = 0; slot < static_cast<int>(objects.size()); ++slot) {
    if (oowner[slot] >= 0) object_final[oowner[slot]] = slot;
  }

  // ---- packed phase ---------------------------------------------------
  // The image is a pure function of the new function set: build it
  // flat, exactly as Open() and snapshot recovery do. Only the file
  // mapping of an mmap-backed image is fallible.
  if (options_.dataset.build_packed && options_.dataset.packed_mmap &&
      injector != nullptr) {
    Status s = injector->OnMap(
        "epoch-" + std::to_string(current_->epoch() + 1) + "-packed");
    if (!s.ok()) {
      return Status::Unavailable("packed image map: " + s.message);
    }
  }
  std::unique_ptr<PackedFunctionStore> packed =
      serve::BuildPackedImage(fns, options_.dataset);

  // ---- construct the epoch and commit ---------------------------------
  // Every fallible step is behind us: from here on the new epoch exists
  // in full or Apply() already returned. The adopt constructor swaps the
  // edited pages in (no second copy), so `tree`/`work_store` must not be
  // touched afterwards.
  const PageId root = tree.root();
  const int root_level = tree.root_level();
  const int64_t tree_size = tree.size();
  AssignmentProblem new_problem;
  new_problem.dims = dims;
  new_problem.functions = std::move(fns);
  new_problem.objects = std::move(objects);
  const int64_t new_epoch = current_->epoch() + 1;
  auto handle = std::make_shared<const serve::ResidentDataset>(
      current_->name(), std::move(new_problem), &work_store, root, root_level,
      tree_size, std::move(packed), new_epoch);

  current_ = std::move(handle);

  if (stats_out != nullptr) {
    stats_out->epoch = new_epoch;
    stats_out->objects_inserted = static_cast<int>(inserted_oids.size());
    stats_out->objects_deleted = static_cast<int>(del_objects.size());
    stats_out->functions_inserted = static_cast<int>(inserted_fids.size());
    stats_out->functions_deleted = static_cast<int>(del_functions.size());
    stats_out->tree_ops = tree_ops;
    stats_out->packed_compacted = options_.dataset.build_packed;
    stats_out->apply_ms = timer.ElapsedMs();
    stats_out->object_final = std::move(object_final);
    stats_out->function_final = std::move(function_final);
    stats_out->inserted_object_ids = std::move(inserted_oids);
    stats_out->inserted_function_ids = std::move(inserted_fids);
  }
  return Status::Ok();
}

AssignResult RunOnDataset(const serve::ResidentDataset& dataset,
                          const std::string& matcher,
                          double buffer_fraction) {
  const MatcherInfo* info = MatcherRegistry::Global().Find(matcher);
  FAIRMATCH_CHECK(info != nullptr && "unknown matcher");
  const serve::DatasetRunEnv run_env(dataset, *info, buffer_fraction);
  std::unique_ptr<Matcher> m =
      MatcherRegistry::Global().Create(matcher, run_env.env());
  FAIRMATCH_CHECK(m != nullptr);
  return m->Run();
}

}  // namespace fairmatch::update
