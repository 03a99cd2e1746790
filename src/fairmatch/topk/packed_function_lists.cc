#include "fairmatch/topk/packed_function_lists.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <utility>

#include "fairmatch/common/check.h"
#include "fairmatch/common/crc32.h"
#include "fairmatch/common/simd.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace fairmatch {

namespace {

// "FMPKLST1" as a little-endian u64.
constexpr uint64_t kMagic = 0x3154534C4B504D46ull;
constexpr uint32_t kVersion = 1;
// Directory sharding granularity: one u64 base per 64 blocks, u32
// deltas within the shard.
constexpr int kShardBlocks = 64;

/// On-image file header (64 bytes, host-endian; the image is a local
/// artifact, not an interchange format).
struct FileHeaderRaw {
  uint64_t magic;
  uint32_t version;
  uint32_t dims;
  uint32_t num_functions;
  uint32_t block_entries;
  double max_gamma;
  uint64_t eff_offset;
  uint64_t dir_offset;
  uint64_t blocks_offset;
  uint64_t file_size;
};
static_assert(sizeof(FileHeaderRaw) == 64, "packed header layout drifted");

/// On-image block header (24 bytes). `checksum` is CRC32 over this
/// header with the checksum field zeroed, then the payload bytes.
struct BlockHeaderRaw {
  double max_impact;
  uint32_t count;
  int32_t base_fid;
  uint16_t id_bytes;
  uint16_t reserved;
  uint32_t checksum;
};
static_assert(sizeof(BlockHeaderRaw) == 24, "block header layout drifted");

size_t AlignUp8(size_t x) { return (x + 7) & ~size_t{7}; }

uint32_t BlockChecksum(const BlockHeaderRaw& header, const std::byte* payload,
                       size_t payload_bytes) {
  BlockHeaderRaw copy = header;
  copy.checksum = 0;
  uint32_t state = 0xFFFFFFFFu;
  state = Crc32Update(state, &copy, sizeof(copy));
  state = Crc32Update(state, payload, payload_bytes);
  return state ^ 0xFFFFFFFFu;
}

/// Narrowest byte width that encodes deltas up to `max_delta`.
uint16_t IdWidth(uint32_t max_delta) {
  if (max_delta < (1u << 8)) return 1;
  if (max_delta < (1u << 16)) return 2;
  return 4;
}

std::string AutoTempPath() {
  static std::atomic<uint64_t> seq{0};
#if defined(__unix__) || defined(__APPLE__)
  const long pid = static_cast<long>(::getpid());
#else
  const long pid = 0;
#endif
  return "/tmp/fairmatch_packed_" + std::to_string(pid) + "_" +
         std::to_string(seq.fetch_add(1)) + ".pkfl";
}

/// Serializes `fns` into one packed image. List order is exactly
/// FunctionLists': descending effective coefficient, ties by ascending
/// id — the probe-sequence parity the differential tests pin depends
/// on the two backends sorting identically.
std::unique_ptr<std::byte[]> BuildImage(const FunctionSet& fns,
                                        int block_entries, size_t* out_size) {
  const int dims = fns[0].dims;
  const int n = static_cast<int>(fns.size());
  // A block never holds more entries than the list has; clamping keeps
  // the default block size usable on small problems.
  block_entries = std::min(block_entries, n);
  double max_gamma = 0.0;
  for (const PrefFunction& f : fns) {
    FAIRMATCH_CHECK(f.dims == dims);
    FAIRMATCH_CHECK(f.id >= 0 && f.id < n);
    max_gamma = std::max(max_gamma, f.gamma);
  }

  std::vector<std::vector<std::pair<double, int32_t>>> lists(dims);
  for (int d = 0; d < dims; ++d) lists[d].reserve(fns.size());
  for (const PrefFunction& f : fns) {
    for (int d = 0; d < dims; ++d) lists[d].emplace_back(f.eff(d), f.id);
  }
  for (int d = 0; d < dims; ++d) {
    std::sort(lists[d].begin(), lists[d].end(),
              [](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first > b.first;
                return a.second < b.second;
              });
  }

  const int num_blocks = (n + block_entries - 1) / block_entries;
  const int num_shards = (num_blocks + kShardBlocks - 1) / kShardBlocks;

  // Plan per-block placement (offsets relative to the blocks region).
  std::vector<std::vector<size_t>> rel(dims);
  std::vector<std::vector<int32_t>> bases(dims);
  std::vector<std::vector<uint16_t>> widths(dims);
  size_t cursor = 0;
  for (int d = 0; d < dims; ++d) {
    rel[d].resize(num_blocks);
    bases[d].resize(num_blocks);
    widths[d].resize(num_blocks);
    for (int b = 0; b < num_blocks; ++b) {
      const int begin = b * block_entries;
      const int count = std::min(block_entries, n - begin);
      int32_t base = lists[d][begin].second;
      int32_t hi = base;
      for (int i = 1; i < count; ++i) {
        const int32_t fid = lists[d][begin + i].second;
        base = std::min(base, fid);
        hi = std::max(hi, fid);
      }
      bases[d][b] = base;
      widths[d][b] = IdWidth(static_cast<uint32_t>(hi - base));
      rel[d][b] = cursor;
      cursor += AlignUp8(sizeof(BlockHeaderRaw) +
                         static_cast<size_t>(count) * widths[d][b]);
    }
  }
  const size_t blocks_size = cursor;

  const size_t eff_offset = sizeof(FileHeaderRaw);
  const size_t dir_offset =
      eff_offset + static_cast<size_t>(n) * dims * sizeof(double);
  const size_t dir_stride = static_cast<size_t>(num_shards) * sizeof(uint64_t) +
                            static_cast<size_t>(num_blocks) * sizeof(uint32_t);
  const size_t blocks_offset = AlignUp8(dir_offset + dims * dir_stride);
  const size_t total = blocks_offset + blocks_size;

  auto image = std::make_unique<std::byte[]>(total);
  std::memset(image.get(), 0, total);

  FileHeaderRaw header{};
  header.magic = kMagic;
  header.version = kVersion;
  header.dims = static_cast<uint32_t>(dims);
  header.num_functions = static_cast<uint32_t>(n);
  header.block_entries = static_cast<uint32_t>(block_entries);
  header.max_gamma = max_gamma;
  header.eff_offset = eff_offset;
  header.dir_offset = dir_offset;
  header.blocks_offset = blocks_offset;
  header.file_size = total;
  std::memcpy(image.get(), &header, sizeof(header));

  // Effective-coefficient table, function-major. Each cell rounds
  // alpha * gamma exactly once (PrefFunction::eff), so row scores
  // reproduce PrefFunction::Score bit-for-bit.
  auto* eff = reinterpret_cast<double*>(image.get() + eff_offset);
  for (const PrefFunction& f : fns) {
    for (int d = 0; d < dims; ++d) {
      eff[static_cast<size_t>(f.id) * dims + d] = f.eff(d);
    }
  }

  // Sharded directory.
  for (int d = 0; d < dims; ++d) {
    std::byte* dir = image.get() + dir_offset + d * dir_stride;
    for (int s = 0; s < num_shards; ++s) {
      const uint64_t shard_base = rel[d][s * kShardBlocks];
      std::memcpy(dir + static_cast<size_t>(s) * sizeof(uint64_t),
                  &shard_base, sizeof(shard_base));
    }
    std::byte* deltas = dir + static_cast<size_t>(num_shards) * sizeof(uint64_t);
    for (int b = 0; b < num_blocks; ++b) {
      const uint32_t delta = static_cast<uint32_t>(
          rel[d][b] - rel[d][(b / kShardBlocks) * kShardBlocks]);
      std::memcpy(deltas + static_cast<size_t>(b) * sizeof(uint32_t), &delta,
                  sizeof(delta));
    }
  }

  // Block sequences.
  for (int d = 0; d < dims; ++d) {
    for (int b = 0; b < num_blocks; ++b) {
      const int begin = b * block_entries;
      const int count = std::min(block_entries, n - begin);
      const uint16_t width = widths[d][b];
      std::byte* block = image.get() + blocks_offset + rel[d][b];
      std::byte* payload = block + sizeof(BlockHeaderRaw);
      for (int i = 0; i < count; ++i) {
        const uint32_t delta =
            static_cast<uint32_t>(lists[d][begin + i].second - bases[d][b]);
        std::memcpy(payload + static_cast<size_t>(i) * width, &delta, width);
      }
      BlockHeaderRaw bh{};
      bh.max_impact = lists[d][begin].first;
      bh.count = static_cast<uint32_t>(count);
      bh.base_fid = bases[d][b];
      bh.id_bytes = width;
      bh.reserved = 0;
      bh.checksum =
          BlockChecksum(bh, payload, static_cast<size_t>(count) * width);
      std::memcpy(block, &bh, sizeof(bh));
    }
  }

  *out_size = total;
  return image;
}

}  // namespace

PackedFunctionStore::PackedFunctionStore(const FunctionSet& fns,
                                         PackedStoreOptions opts) {
  FAIRMATCH_CHECK(!fns.empty());
  FAIRMATCH_CHECK(opts.block_entries >= 1);
  size_t size = 0;
  std::unique_ptr<std::byte[]> image = BuildImage(fns, opts.block_entries,
                                                  &size);
  std::string error;
  if (opts.use_mmap) {
    std::string path = opts.path.empty() ? AutoTempPath() : opts.path;
    if (MmapFile::Write(path, image.get(), size, &error) &&
        file_.Map(path, &error)) {
      if (opts.path.empty() || !opts.keep_file) owned_path_ = path;
      FAIRMATCH_CHECK(
          Attach(file_.data(), file_.size(), /*verify_checksums=*/false,
                 &error));
      return;
    }
    // In-memory fallback: the freshly built image is still in hand.
    file_.Reset();
  }
  buffer_ = std::move(image);
  FAIRMATCH_CHECK(
      Attach(buffer_.get(), size, /*verify_checksums=*/false, &error));
}

PackedFunctionStore::~PackedFunctionStore() {
  if (!owned_path_.empty()) {
    file_.Reset();  // unmap before removing the backing file
    std::remove(owned_path_.c_str());
  }
}

std::unique_ptr<PackedFunctionStore> PackedFunctionStore::Open(
    const std::string& path, std::string* error,
    PackedOpenError* error_code) {
  if (error_code != nullptr) *error_code = PackedOpenError::kNone;
  std::unique_ptr<PackedFunctionStore> store(new PackedFunctionStore());
  if (!store->file_.Map(path, error)) {
    if (error_code != nullptr) *error_code = PackedOpenError::kIoError;
    return nullptr;
  }
  if (!store->Attach(store->file_.data(), store->file_.size(),
                     /*verify_checksums=*/true, error, error_code)) {
    return nullptr;
  }
  return store;
}

bool PackedFunctionStore::WriteFile(const FunctionSet& fns,
                                    const std::string& path, int block_entries,
                                    std::string* error) {
  FAIRMATCH_CHECK(!fns.empty());
  FAIRMATCH_CHECK(block_entries >= 1);
  size_t size = 0;
  std::unique_ptr<std::byte[]> image = BuildImage(fns, block_entries, &size);
  return MmapFile::Write(path, image.get(), size, error);
}

std::unique_ptr<PackedFunctionStore> PackedFunctionStore::NewSharedView(
    const PackedFunctionStore& base) {
  FAIRMATCH_CHECK(base.data_ != nullptr);
  std::unique_ptr<PackedFunctionStore> view(new PackedFunctionStore());
  // The base already validated the image (constructor or Open); the
  // view only re-derives its pointers and allocates private caches.
  // Neither buffer_ nor file_ is populated: the view borrows the bytes.
  std::string error;
  FAIRMATCH_CHECK(view->Attach(base.data_, base.image_size_,
                               /*verify_checksums=*/false, &error));
  return view;
}

bool PackedFunctionStore::Attach(const std::byte* data, size_t size,
                                 bool verify_checksums, std::string* error,
                                 PackedOpenError* error_code) {
  const auto fail = [error, error_code](PackedOpenError code,
                                        const char* what) {
    if (error != nullptr) *error = what;
    if (error_code != nullptr) *error_code = code;
    return false;
  };
  if (size < sizeof(FileHeaderRaw)) {
    return fail(PackedOpenError::kTruncated, "image smaller than header");
  }
  FileHeaderRaw h;
  std::memcpy(&h, data, sizeof(h));
  if (h.magic != kMagic) return fail(PackedOpenError::kBadMagic, "bad magic");
  if (h.version != kVersion) {
    return fail(PackedOpenError::kBadHeader, "unsupported version");
  }
  if (h.dims < 1 || h.dims > static_cast<uint32_t>(kMaxDims)) {
    return fail(PackedOpenError::kBadHeader, "dims out of range");
  }
  if (h.num_functions < 1 || h.num_functions > (1u << 30)) {
    return fail(PackedOpenError::kBadHeader, "function count out of range");
  }
  if (h.block_entries < 1 || h.block_entries > h.num_functions) {
    return fail(PackedOpenError::kBadHeader, "block_entries out of range");
  }
  if (h.file_size > size) {
    return fail(PackedOpenError::kTruncated,
                "file size mismatch (truncated?)");
  }
  if (h.file_size != size) {
    return fail(PackedOpenError::kBadHeader, "file size mismatch");
  }

  const int dims = static_cast<int>(h.dims);
  const int n = static_cast<int>(h.num_functions);
  const int block_entries = static_cast<int>(h.block_entries);
  const int num_blocks = (n + block_entries - 1) / block_entries;
  const int num_shards = (num_blocks + kShardBlocks - 1) / kShardBlocks;
  const size_t eff_offset = sizeof(FileHeaderRaw);
  const size_t dir_offset =
      eff_offset + static_cast<size_t>(n) * dims * sizeof(double);
  const size_t dir_stride = static_cast<size_t>(num_shards) * sizeof(uint64_t) +
                            static_cast<size_t>(num_blocks) * sizeof(uint32_t);
  const size_t blocks_offset = AlignUp8(dir_offset + dims * dir_stride);
  // The region layout is fully determined by (dims, n, block_entries);
  // a header that disagrees is rejected rather than trusted.
  if (h.eff_offset != eff_offset || h.dir_offset != dir_offset ||
      h.blocks_offset != blocks_offset || size < blocks_offset) {
    return fail(PackedOpenError::kBadHeader,
                "region offsets inconsistent with header");
  }

  data_ = data;
  image_size_ = size;
  dims_ = dims;
  num_functions_ = n;
  block_entries_ = block_entries;
  num_blocks_ = num_blocks;
  num_shards_ = num_shards;
  max_gamma_ = h.max_gamma;
  eff_table_ = reinterpret_cast<const double*>(data + eff_offset);
  dir_ = data + dir_offset;
  blocks_ = data + blocks_offset;
  blocks_size_ = size - blocks_offset;
  dir_stride_ = dir_stride;
  cache_.assign(dims, DecodeCache{});
  for (DecodeCache& c : cache_) c.fids.resize(block_entries);

  // Walk every block: offsets in bounds, headers well-formed, counts
  // exactly as the list length dictates, impacts non-increasing (the
  // invariant the impact-ordered traversal's early termination relies
  // on), and — when opening an untrusted file — checksums and decoded
  // id ranges.
  std::vector<int32_t> scratch(block_entries);
  for (int d = 0; d < dims; ++d) {
    double prev_impact = 0.0;
    for (int b = 0; b < num_blocks; ++b) {
      const size_t off = BlockOffset(d, b);
      if (off + sizeof(BlockHeaderRaw) > blocks_size_) {
        return fail(PackedOpenError::kBadDirectory,
                    "block header out of bounds");
      }
      BlockHeaderRaw bh;
      std::memcpy(&bh, blocks_ + off, sizeof(bh));
      const int expect =
          std::min(block_entries, n - b * block_entries);
      if (bh.count != static_cast<uint32_t>(expect)) {
        return fail(PackedOpenError::kBadBlock, "block count mismatch");
      }
      if (bh.id_bytes != 1 && bh.id_bytes != 2 && bh.id_bytes != 4) {
        return fail(PackedOpenError::kBadBlock, "unsupported id width");
      }
      const size_t payload = static_cast<size_t>(bh.count) * bh.id_bytes;
      if (off + sizeof(BlockHeaderRaw) + payload > blocks_size_) {
        return fail(PackedOpenError::kBadBlock,
                    "block payload out of bounds");
      }
      if (b > 0 && bh.max_impact > prev_impact) {
        return fail(PackedOpenError::kBadBlock,
                    "block impacts not descending");
      }
      prev_impact = bh.max_impact;
      if (verify_checksums) {
        const std::byte* bytes = blocks_ + off + sizeof(BlockHeaderRaw);
        if (BlockChecksum(bh, bytes, payload) != bh.checksum) {
          return fail(PackedOpenError::kBadChecksum,
                      "block checksum mismatch");
        }
        simd::UnpackIds(reinterpret_cast<const unsigned char*>(bytes),
                        bh.id_bytes, bh.base_fid,
                        static_cast<int>(bh.count), scratch.data());
        for (uint32_t i = 0; i < bh.count; ++i) {
          if (scratch[i] < 0 || scratch[i] >= n) {
            return fail(PackedOpenError::kBadBlock,
                        "decoded function id out of range");
          }
        }
      }
    }
  }
  return true;
}

size_t PackedFunctionStore::BlockOffset(int dim, int block) const {
  const std::byte* dir = dir_ + static_cast<size_t>(dim) * dir_stride_;
  uint64_t shard_base;
  std::memcpy(&shard_base,
              dir + static_cast<size_t>(block / kShardBlocks) *
                        sizeof(uint64_t),
              sizeof(shard_base));
  uint32_t delta;
  std::memcpy(&delta,
              dir + static_cast<size_t>(num_shards_) * sizeof(uint64_t) +
                  static_cast<size_t>(block) * sizeof(uint32_t),
              sizeof(delta));
  return static_cast<size_t>(shard_base) + delta;
}

double PackedFunctionStore::BlockMaxImpact(int dim, int block) const {
  double impact;
  std::memcpy(&impact, blocks_ + BlockOffset(dim, block), sizeof(impact));
  return impact;
}

int PackedFunctionStore::DecodeBlock(int dim, int block,
                                     int32_t* out_fids) const {
  const std::byte* p = blocks_ + BlockOffset(dim, block);
  BlockHeaderRaw bh;
  std::memcpy(&bh, p, sizeof(bh));
  simd::UnpackIds(
      reinterpret_cast<const unsigned char*>(p + sizeof(BlockHeaderRaw)),
      bh.id_bytes, bh.base_fid, static_cast<int>(bh.count), out_fids);
  return static_cast<int>(bh.count);
}

std::pair<double, FunctionId> PackedFunctionStore::Entry(int dim, int pos) {
  const int block = pos / block_entries_;
  DecodeCache& cache = cache_[dim];
  if (cache.block != block) {
    cache.count = DecodeBlock(dim, block, cache.fids.data());
    cache.block = block;
  }
  const FunctionId fid = cache.fids[pos - block * block_entries_];
  return {eff_of(fid, dim), fid};
}

size_t PackedFunctionStore::footprint_bytes() const {
  size_t bytes = sizeof(*this) + image_size_;
  for (const DecodeCache& c : cache_) {
    bytes += c.fids.capacity() * sizeof(int32_t);
  }
  return bytes;
}

}  // namespace fairmatch
