#include "fairmatch/serve/dataset_registry.h"

#include <cstdio>
#include <utility>

#include "fairmatch/common/check.h"
#include "fairmatch/common/timer.h"

namespace fairmatch::serve {

std::unique_ptr<PackedFunctionStore> BuildPackedImage(
    const FunctionSet& fns, const DatasetOptions& options) {
  if (!options.build_packed || fns.empty()) return nullptr;
  PackedStoreOptions popts;
  popts.use_mmap = options.packed_mmap;
  return std::make_unique<PackedFunctionStore>(fns, popts);
}

ResidentDataset::ResidentDataset(std::string name, AssignmentProblem problem,
                                 const DatasetOptions& options)
    : name_(std::move(name)),
      problem_(std::move(problem)),
      store_(problem_.dims),
      tree_(&store_) {
  Timer timer;
  BuildObjectTree(problem_, &tree_, options.fill_factor);
  packed_ = BuildPackedImage(problem_.functions, options);
  build_ms_ = timer.ElapsedMs();
}

ResidentDataset::ResidentDataset(std::string name, AssignmentProblem problem,
                                 const DatasetOptions& options,
                                 std::unique_ptr<PackedFunctionStore> packed)
    : name_(std::move(name)),
      problem_(std::move(problem)),
      store_(problem_.dims),
      tree_(&store_),
      packed_(std::move(packed)) {
  Timer timer;
  BuildObjectTree(problem_, &tree_, options.fill_factor);
  build_ms_ = timer.ElapsedMs();
}

ResidentDataset::ResidentDataset(std::string name, AssignmentProblem problem,
                                 MemNodeStore* store, PageId root,
                                 int root_level, int64_t tree_size,
                                 std::unique_ptr<PackedFunctionStore> packed,
                                 int64_t epoch)
    : name_(std::move(name)),
      problem_(std::move(problem)),
      store_(problem_.dims),
      // The attach constructor reads nothing, so initializing tree_
      // before Adopt() moves the pages in is safe.
      tree_(&store_, root, root_level, tree_size),
      packed_(std::move(packed)),
      epoch_(epoch) {
  store_.Adopt(store);
}

size_t ResidentDataset::memory_bytes() const {
  size_t bytes = store_.memory_bytes();
  if (packed_ != nullptr) bytes += packed_->footprint_bytes();
  return bytes;
}

DatasetHandle DatasetRegistry::Open(const std::string& name,
                                    const AssignmentProblem& problem,
                                    const DatasetOptions& options) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = datasets_.find(name);
    if (it != datasets_.end()) {
      ++warm_opens_;
      return it->second;
    }
  }
  // Build outside the lock: a cold open of a big dataset must not
  // stall warm opens and Finds on other names. If two threads race a
  // cold open of the same name, the first insert wins and the loser's
  // build is discarded (both get the winner's handle).
  auto dataset =
      std::make_shared<const ResidentDataset>(name, problem, options);
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = datasets_.emplace(name, std::move(dataset));
  if (inserted) {
    ++cold_opens_;
  } else {
    ++warm_opens_;
  }
  return it->second;
}

Status DatasetRegistry::OpenOrError(const std::string& name,
                                    const AssignmentProblem& problem,
                                    const DatasetOptions& options,
                                    DatasetHandle* out) {
  if (options.packed_image_path.empty()) {
    DatasetHandle handle = Open(name, problem, options);
    if (out != nullptr) *out = std::move(handle);
    return Status::Ok();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = datasets_.find(name);
    if (it != datasets_.end()) {
      ++warm_opens_;
      if (out != nullptr) *out = it->second;
      return Status::Ok();
    }
  }
  // Attach (and fully verify) the image outside the lock, like Open()'s
  // cold build.
  Status status;
  std::unique_ptr<PackedFunctionStore> packed =
      PackedFunctionStore::Open(options.packed_image_path, &status);
  if (packed == nullptr) {
    status.message =
        "packed image '" + options.packed_image_path + "': " + status.message;
    return status;
  }
  if (packed->dims() != problem.dims ||
      packed->size() != static_cast<int>(problem.functions.size())) {
    return Status::FailedPrecondition(
        "packed image '" + options.packed_image_path + "' has " +
        std::to_string(packed->size()) + " functions x " +
        std::to_string(packed->dims()) + " dims, problem has " +
        std::to_string(problem.functions.size()) + " x " +
        std::to_string(problem.dims));
  }
  auto dataset = std::make_shared<const ResidentDataset>(name, problem,
                                                         options,
                                                         std::move(packed));
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = datasets_.emplace(name, std::move(dataset));
  if (inserted) {
    ++cold_opens_;
  } else {
    ++warm_opens_;
  }
  if (out != nullptr) *out = it->second;
  return Status::Ok();
}

DatasetHandle DatasetRegistry::Find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = datasets_.find(name);
  return it == datasets_.end() ? nullptr : it->second;
}

DatasetHandle DatasetRegistry::Publish(DatasetHandle handle) {
  DatasetHandle replaced;
  const Status status = PublishOrError(std::move(handle), &replaced);
  if (!status.ok()) {
    std::fprintf(stderr, "DatasetRegistry::Publish: %s\n",
                 status.message.c_str());
  }
  FAIRMATCH_CHECK(status.ok() && "publish must advance the live epoch");
  return replaced;
}

Status DatasetRegistry::PublishOrError(DatasetHandle handle,
                                       DatasetHandle* replaced,
                                       ErrorSink* sink) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = datasets_.find(handle->name());
  if (it == datasets_.end()) {
    datasets_.emplace(handle->name(), std::move(handle));
    if (replaced != nullptr) replaced->reset();
    return Status::Ok();
  }
  if (handle->epoch() <= it->second->epoch()) {
    const std::string detail =
        "non-monotonic publish of dataset '" + handle->name() + "': epoch " +
        std::to_string(handle->epoch()) + " does not advance live epoch " +
        std::to_string(it->second->epoch());
    if (sink != nullptr) sink->Report(ErrorCode::kFailedPrecondition, detail);
    return Status::FailedPrecondition(detail);
  }
  DatasetHandle previous = std::move(it->second);
  it->second = std::move(handle);
  ++republishes_;
  if (replaced != nullptr) *replaced = std::move(previous);
  return Status::Ok();
}

Status DatasetRegistry::PublishRecovered(DatasetHandle handle,
                                         DatasetHandle* replaced,
                                         ErrorSink* sink) {
  const Status status =
      PublishOrError(std::move(handle), replaced, sink);
  if (status.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++recoveries_;
  }
  return status;
}

int64_t DatasetRegistry::republishes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return republishes_;
}

int64_t DatasetRegistry::recoveries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recoveries_;
}

Status DatasetRegistry::Close(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = datasets_.find(name);
  if (it == datasets_.end()) {
    return Status::NotFound("dataset '" + name + "' is not resident");
  }
  datasets_.erase(it);  // outstanding handles keep the dataset alive
  return Status::Ok();
}

std::vector<std::string> DatasetRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(datasets_.size());
  for (const auto& [name, dataset] : datasets_) names.push_back(name);
  return names;  // std::map keeps them sorted
}

int64_t DatasetRegistry::warm_opens() const {
  std::lock_guard<std::mutex> lock(mu_);
  return warm_opens_;
}

int64_t DatasetRegistry::cold_opens() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cold_opens_;
}

}  // namespace fairmatch::serve
