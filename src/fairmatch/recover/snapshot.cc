#include "fairmatch/recover/snapshot.h"

#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "fairmatch/common/crc32.h"
#include "fairmatch/recover/wire.h"
#include "fairmatch/storage/durable_file.h"
#include "fairmatch/storage/fault_injector.h"

namespace fairmatch::recover {

namespace {

constexpr char kSnapMagic[8] = {'F', 'M', 'S', 'N', 'A', 'P', '0', '1'};
constexpr uint32_t kSnapVersion = 1;

bool FileExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

}  // namespace

Status WriteSnapshot(const std::string& path,
                     const serve::ResidentDataset& dataset,
                     FaultInjector* injector) {
  const AssignmentProblem& problem = dataset.problem();
  const MemNodeStore& store = dataset.node_store();
  const int dims = problem.dims;

  std::string buffer;
  buffer.append(kSnapMagic, sizeof(kSnapMagic));
  PutU32(&buffer, kSnapVersion);
  PutU32(&buffer, static_cast<uint32_t>(dims));
  PutI64(&buffer, dataset.epoch());
  PutU32(&buffer, static_cast<uint32_t>(dataset.name().size()));
  buffer.append(dataset.name());

  PutU32(&buffer, static_cast<uint32_t>(problem.objects.size()));
  for (const ObjectItem& o : problem.objects) {
    for (int d = 0; d < dims; ++d) PutF32(&buffer, o.point[d]);
    PutI32(&buffer, o.capacity);
  }
  PutU32(&buffer, static_cast<uint32_t>(problem.functions.size()));
  for (const PrefFunction& f : problem.functions) {
    for (int d = 0; d < dims; ++d) PutF64(&buffer, f.alpha[d]);
    PutF64(&buffer, f.gamma);
    PutI32(&buffer, f.capacity);
  }

  const RTree* tree = dataset.tree();
  PutI64(&buffer, tree->root());
  PutI32(&buffer, tree->root_level());
  PutI64(&buffer, tree->size());
  const int64_t num_slots = store.num_pages();
  PutI64(&buffer, num_slots);
  uint32_t live = 0;
  for (PageId pid = 0; pid < num_slots; ++pid) {
    if (store.has_page(pid)) ++live;
  }
  PutU32(&buffer, live);
  for (PageId pid = 0; pid < num_slots; ++pid) {
    if (!store.has_page(pid)) continue;
    PutI64(&buffer, pid);
    buffer.append(reinterpret_cast<const char*>(store.page_bytes(pid)),
                  kPageSize);
  }
  PutU32(&buffer, static_cast<uint32_t>(store.free_list().size()));
  for (PageId pid : store.free_list()) PutI64(&buffer, pid);

  PutU32(&buffer, static_cast<uint32_t>(dataset.skyline().size()));
  for (const ObjectRecord& m : dataset.skyline()) {
    PutI32(&buffer, m.id);
    for (int d = 0; d < dims; ++d) PutF32(&buffer, m.point[d]);
  }

  PutU32(&buffer, Crc32Of(buffer.data(), buffer.size()));

  std::string error;
  if (!DurableWriteFile(path, buffer.data(), buffer.size(), injector,
                        "snapshot", &error)) {
    return Status::Unavailable("snapshot write: " + error);
  }
  return Status::Ok();
}

Status LoadSnapshot(const std::string& path,
                    const serve::DatasetOptions& options,
                    serve::DatasetHandle* out) {
  if (!FileExists(path)) {
    return Status::NotFound("snapshot missing: " + path);
  }
  std::string bytes;
  std::string error;
  if (!ReadFileBytes(path, &bytes, &error)) {
    return Status::DataLoss("snapshot unreadable: " + error);
  }
  if (bytes.size() < sizeof(kSnapMagic) + 4 ||
      std::memcmp(bytes.data(), kSnapMagic, sizeof(kSnapMagic)) != 0) {
    return Status::DataLoss("snapshot magic mismatch: " + path);
  }
  uint32_t stored_crc;
  std::memcpy(&stored_crc, bytes.data() + bytes.size() - 4, 4);
  if (Crc32Of(bytes.data(), bytes.size() - 4) != stored_crc) {
    return Status::DataLoss("snapshot checksum mismatch: " + path);
  }

  WireReader r(bytes.data() + sizeof(kSnapMagic),
               bytes.size() - sizeof(kSnapMagic) - 4);
  if (r.GetU32() != kSnapVersion) {
    return Status::DataLoss("snapshot version unsupported: " + path);
  }
  const int dims = static_cast<int>(r.GetU32());
  const int64_t epoch = r.GetI64();
  const std::string name = r.GetBytes(r.ok() ? r.GetU32() : 0);
  if (!r.ok() || dims < 1 || dims > kMaxDims) {
    return Status::DataLoss("snapshot header malformed: " + path);
  }

  AssignmentProblem problem;
  problem.dims = dims;
  const uint32_t n_objects = r.GetU32();
  problem.objects.reserve(n_objects);
  for (uint32_t i = 0; r.ok() && i < n_objects; ++i) {
    ObjectItem o;
    o.id = static_cast<ObjectId>(i);
    o.point = Point(dims);
    for (int d = 0; d < dims; ++d) o.point[d] = r.GetF32();
    o.capacity = r.GetI32();
    problem.objects.push_back(o);
  }
  const uint32_t n_functions = r.GetU32();
  problem.functions.reserve(n_functions);
  for (uint32_t i = 0; r.ok() && i < n_functions; ++i) {
    PrefFunction f;
    f.id = static_cast<FunctionId>(i);
    f.dims = dims;
    for (int d = 0; d < dims; ++d) f.alpha[d] = r.GetF64();
    f.gamma = r.GetF64();
    f.capacity = r.GetI32();
    problem.functions.push_back(f);
  }

  const PageId root = r.GetI64();
  const int root_level = r.GetI32();
  const int64_t tree_size = r.GetI64();
  const int64_t num_slots = r.GetI64();
  const uint32_t live = r.GetU32();
  if (!r.ok() || num_slots < 0 ||
      static_cast<int64_t>(live) > num_slots) {
    return Status::DataLoss("snapshot tree header malformed: " + path);
  }
  MemNodeStore store(dims);
  store.RestoreInit(num_slots);
  for (uint32_t i = 0; i < live; ++i) {
    const PageId pid = r.GetI64();
    if (!r.ok() || pid < 0 || pid >= num_slots ||
        r.remaining() < kPageSize) {
      return Status::DataLoss("snapshot page table malformed: " + path);
    }
    const std::string page = r.GetBytes(kPageSize);
    std::memcpy(store.RestorePage(pid), page.data(), kPageSize);
  }
  const uint32_t n_free = r.GetU32();
  std::vector<PageId> free_list;
  free_list.reserve(n_free);
  for (uint32_t i = 0; r.ok() && i < n_free; ++i) {
    free_list.push_back(r.GetI64());
  }
  store.RestoreFreeList(std::move(free_list));

  const uint32_t n_sky = r.GetU32();
  std::vector<ObjectRecord> skyline;
  skyline.reserve(n_sky);
  for (uint32_t i = 0; r.ok() && i < n_sky; ++i) {
    ObjectRecord m;
    m.id = r.GetI32();
    m.point = Point(dims);
    for (int d = 0; d < dims; ++d) m.point[d] = r.GetF32();
    skyline.push_back(m);
  }
  if (!r.ok() || r.remaining() != 0) {
    return Status::DataLoss("snapshot payload malformed: " + path);
  }

  // The packed image is derived state: rebuild it from the restored
  // function set, exactly as the uncrashed epoch built it.
  std::unique_ptr<PackedFunctionStore> packed =
      serve::BuildPackedImage(problem.functions, options);
  *out = std::make_shared<const serve::ResidentDataset>(
      name, std::move(problem), &store, root, root_level, tree_size,
      std::move(packed), std::move(skyline), epoch);
  return Status::Ok();
}

}  // namespace fairmatch::recover
