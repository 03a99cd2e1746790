// Packed, memory-mappable function lists — the third FunctionIndexBase
// backend (after the in-memory FunctionLists and the counted-I/O
// DiskFunctionStore).
//
// The store is one immutable byte image, built once from a function
// set and then queried in place with zero per-probe allocation (an
// update epoch, update/delta_builder.h, builds a fresh image over its
// new function set; no image is ever edited):
//
//   FileHeader | eff table | sharded block directory | block sequences
//
//  * eff table — num_functions x dims doubles, function-major
//    (`eff[fid * dims + d]`), the full-precision effective coefficients
//    alpha_d * gamma. Scores computed from a row are bit-identical to
//    PrefFunction::Score, so the packed backend agrees exactly with the
//    other two on every tie.
//  * block sequences — each of the D coefficient lists (entries in
//    descending-coefficient = descending-impact order, ties by
//    ascending id, the FunctionLists order) is cut into blocks of
//    `block_entries` entries. A block stores a fixed-size header
//    {max_impact, count, base_fid, id_bytes, checksum} followed by the
//    entry ids as `id_bytes`-wide little-endian deltas from base_fid
//    (1, 2 or 4 bytes, the narrowest width that fits the block — the
//    score-at-a-time posting-block layout). Coefficients are NOT
//    duplicated per entry: they are looked up in the eff table at
//    decode time, which is what makes the image ~2x smaller per
//    (function, dim) than DiskFunctionStore's 16-byte ListRecords.
//  * sharded block directory — per list, shard base offsets (u64, one
//    per 64 blocks) plus per-block u32 deltas: O(1) position lookup of
//    any block at half the size of a flat 64-bit offset table.
//
// The image lives either in an owned in-memory buffer (the fallback,
// and the bench/test default) or in a file mapped read-only through
// storage/mmap_file.h. Either way queries never touch the simulated
// counted-I/O disk: like FunctionLists, the packed store reports zero
// io_accesses, and an entry-by-entry traversal (Entry()) probes the
// same sequence as FunctionLists (tests/packed_lists_test.cc pins
// both). The block granularity exists for ReverseTop1's impact-ordered
// traversal (ReverseTop1Options::impact_ordered, SB's in-memory
// search), which consumes whole blocks in descending max-impact order
// and early-terminates on the TA threshold.
//
// Integrity: every block carries a CRC32 over its (zero-checksummed)
// header and payload, verified on Open() along with structural bounds,
// so a corrupt or truncated file is rejected before any query runs.
#ifndef FAIRMATCH_TOPK_PACKED_FUNCTION_LISTS_H_
#define FAIRMATCH_TOPK_PACKED_FUNCTION_LISTS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fairmatch/common/preference.h"
#include "fairmatch/common/status.h"
#include "fairmatch/storage/mmap_file.h"
#include "fairmatch/topk/function_lists.h"

namespace fairmatch {

/// Build/placement knobs for a PackedFunctionStore.
struct PackedStoreOptions {
  /// Entries per block. Smaller blocks terminate earlier under the
  /// impact-ordered traversal; larger ones amortize the header and
  /// decode better. 128 keeps a block (header + 2-byte ids) in a few
  /// cache lines.
  int block_entries = 128;

  /// Serialize the image to `path` and map it read-only instead of
  /// keeping the built buffer. Falls back to the in-memory buffer
  /// (mapped() == false) if the file cannot be written or mapped.
  bool use_mmap = false;

  /// File path for use_mmap. Empty = an auto-generated temp path
  /// (removed on destruction).
  std::string path;

  /// Keep the written file on destruction (only meaningful with an
  /// explicit `path`).
  bool keep_file = false;
};

/// Immutable packed function-list index over one function set.
///
/// Thread safety: same single-lane rule as the other backends —
/// Entry() mutates the per-list decode cache. Independent runs each
/// build their own store; concurrent *requests* over one resident
/// image each query through their own NewSharedView() instead (the
/// image bytes are immutable, only the decode caches are per-view).
class PackedFunctionStore : public FunctionIndexBase {
 public:
  /// Builds the packed image from `fns` (and mmaps it per `opts`).
  /// `fns` must be non-empty with dense ids.
  explicit PackedFunctionStore(const FunctionSet& fns,
                               PackedStoreOptions opts = {});

  /// Opens an existing packed file, verifying structure and per-block
  /// checksums. Returns nullptr on failure and, when `status` is
  /// non-null, says why: kNotFound for a file that cannot be read or
  /// mapped, kDataLoss for a malformed, truncated or corrupt image. The
  /// message starts with the failure class (IO_ERROR, TRUNCATED,
  /// BAD_MAGIC, BAD_HEADER, BAD_DIRECTORY, BAD_BLOCK or BAD_CHECKSUM)
  /// followed by a one-line detail.
  static std::unique_ptr<PackedFunctionStore> Open(const std::string& path,
                                                   Status* status = nullptr);

  /// Builds the image from `fns` and writes it to `path` without
  /// constructing a queryable store.
  static bool WriteFile(const FunctionSet& fns, const std::string& path,
                        int block_entries = 128, std::string* error = nullptr);

  /// A queryable view sharing `base`'s packed image: no byte copy, no
  /// re-verification — only the view's private decode caches are
  /// allocated. The image bytes themselves are immutable, so any number
  /// of views (plus `base`) may be queried concurrently from different
  /// lanes; the single-lane rule applies to each view individually.
  /// This is what lets a resident dataset (serve/dataset_registry.h)
  /// keep ONE image warm while every in-flight request probes it
  /// through its own view. `base` must outlive the view.
  static std::unique_ptr<PackedFunctionStore> NewSharedView(
      const PackedFunctionStore& base);

  ~PackedFunctionStore() override;

  PackedFunctionStore(const PackedFunctionStore&) = delete;
  PackedFunctionStore& operator=(const PackedFunctionStore&) = delete;

  // --- FunctionIndexBase ---------------------------------------------
  int dims() const override { return dims_; }
  int size() const override { return num_functions_; }
  double max_gamma() const override { return max_gamma_; }
  std::pair<double, FunctionId> Entry(int dim, int pos) override;
  double ScoreOf(FunctionId fid, const Point& o) override {
    const double* eff = EffRow(fid);
    double s = 0.0;
    for (int i = 0; i < dims_; ++i) s += eff[i] * o[i];
    return s;
  }
  PackedFunctionStore* packed() override { return this; }

  // --- block API (impact-ordered traversals) -------------------------
  /// Blocks per list (identical for every list).
  int num_blocks() const { return num_blocks_; }
  int block_entries() const { return block_entries_; }

  /// Upper bound (= first, largest coefficient) of block `block` of
  /// list `dim`.
  double BlockMaxImpact(int dim, int block) const;

  /// Decodes the ids of one block into `out_fids` (capacity >=
  /// block_entries()); returns the entry count. Zero allocation; the
  /// byte-packed deltas go through simd::UnpackIds.
  int DecodeBlock(int dim, int block, int32_t* out_fids) const;

  /// The function-major effective-coefficient table (`table[fid *
  /// dims() + d]` = alpha_d * gamma). A score summed from a row in
  /// dimension order is bit-identical to PrefFunction::Score.
  const double* EffTable() const { return eff_table_; }

  /// The function's effective-coefficient row (`dims()` doubles).
  const double* EffRow(FunctionId fid) const {
    return eff_table_ + static_cast<size_t>(fid) * dims_;
  }
  double eff_of(FunctionId fid, int d) const { return EffRow(fid)[d]; }

  // --- placement / accounting ----------------------------------------
  /// True when the image bytes are an OS file mapping (vs the in-memory
  /// buffer).
  bool mapped() const { return file_.mapped(); }

  /// Total bytes held: the packed image plus the per-list decode
  /// caches. For a mapped image this is the mapping size (resident on
  /// demand), the honest comparison against the other backends'
  /// materialized footprints.
  size_t footprint_bytes() const;

  /// Bytes of the packed image alone (the bytes/function bench metric).
  size_t image_bytes() const { return image_size_; }

 private:
  PackedFunctionStore() = default;

  /// Points the accessors into `data` and re-derives the directory;
  /// `verify_checksums` additionally walks every block (Open()). On
  /// failure fills `status` (when non-null) with kDataLoss, as Open().
  bool Attach(const std::byte* data, size_t size, bool verify_checksums,
              Status* status = nullptr);

  /// Offset of block `block` of list `dim` inside the blocks region.
  size_t BlockOffset(int dim, int block) const;

  // Image storage: exactly one of `buffer_` (in-memory) or `file_`
  // (mapped) holds the bytes that `data_` points into.
  std::unique_ptr<std::byte[]> buffer_;
  MmapFile file_;
  const std::byte* data_ = nullptr;
  size_t image_size_ = 0;
  std::string owned_path_;  // non-empty = remove this file on destruction

  // Parsed header fields.
  int dims_ = 0;
  int num_functions_ = 0;
  int block_entries_ = 0;
  int num_blocks_ = 0;
  double max_gamma_ = 1.0;
  const double* eff_table_ = nullptr;
  const std::byte* dir_ = nullptr;     // sharded directory region
  const std::byte* blocks_ = nullptr;  // block sequences region
  size_t blocks_size_ = 0;
  size_t dir_stride_ = 0;  // directory bytes per list
  int num_shards_ = 0;

  // Per-list single-block decode cache: sequential Entry() scans (the
  // default TA traversal) decode each block once.
  struct DecodeCache {
    int block = -1;
    int count = 0;
    std::vector<int32_t> fids;
  };
  mutable std::vector<DecodeCache> cache_;
};

}  // namespace fairmatch

#endif  // FAIRMATCH_TOPK_PACKED_FUNCTION_LISTS_H_
