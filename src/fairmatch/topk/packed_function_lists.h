// Packed, memory-mappable function lists — the third FunctionIndexBase
// backend (after the in-memory FunctionLists and the counted-I/O
// DiskFunctionStore).
//
// The store is one immutable byte image, built once from a function
// set and then queried in place with zero per-probe allocation:
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
// and the batch/test default) or in a file mapped read-only through
// storage/mmap_file.h. Either way queries never touch the simulated
// counted-I/O disk: like FunctionLists, the packed store reports zero
// io_accesses, and its default-traversal probe sequence is identical
// to FunctionLists' (tests/packed_lists_test.cc pins both). The block
// granularity exists for ReverseTop1's impact-ordered traversal
// (ReverseTop1Options::impact_ordered) and SB-alt-Packed, which consume
// whole blocks in descending max-impact order and early-terminate on
// the TA threshold.
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

/// Why an Open()/Attach failed, machine-readable. The string `error`
/// out-params stay the human-readable detail; this enum is what the
/// serving layer surfaces in a typed ServeStatus so clients can
/// distinguish "file missing" from "file corrupt".
enum class PackedOpenError {
  kNone = 0,
  /// The file could not be read or mapped at all.
  kIoError,
  /// The image is shorter than its header claims (or than the header
  /// itself).
  kTruncated,
  /// The leading magic is not a packed function-list image.
  kBadMagic,
  /// A header field is out of range or self-inconsistent.
  kBadHeader,
  /// A directory offset points outside the blocks region.
  kBadDirectory,
  /// A block header or payload is structurally invalid.
  kBadBlock,
  /// A block's CRC32 does not match its bytes.
  kBadChecksum,
};

/// Stable identifier for logs/statuses ("NONE", "IO_ERROR", ...).
inline const char* PackedOpenErrorName(PackedOpenError error) {
  switch (error) {
    case PackedOpenError::kNone:
      return "NONE";
    case PackedOpenError::kIoError:
      return "IO_ERROR";
    case PackedOpenError::kTruncated:
      return "TRUNCATED";
    case PackedOpenError::kBadMagic:
      return "BAD_MAGIC";
    case PackedOpenError::kBadHeader:
      return "BAD_HEADER";
    case PackedOpenError::kBadDirectory:
      return "BAD_DIRECTORY";
    case PackedOpenError::kBadBlock:
      return "BAD_BLOCK";
    case PackedOpenError::kBadChecksum:
      return "BAD_CHECKSUM";
  }
  return "UNKNOWN";
}

/// Immutable packed function-list index over one function set.
///
/// Thread safety: same single-lane rule as the other backends —
/// Entry() mutates the per-list decode cache. Batch items each build
/// their own store; concurrent *requests* over one resident image each
/// query through their own NewSharedView() instead (the image bytes
/// are immutable, only the decode caches are per-view).
class PackedFunctionStore : public FunctionIndexBase {
 public:
  /// Builds the packed image from `fns` (and mmaps it per `opts`).
  /// `fns` must be non-empty with dense ids.
  explicit PackedFunctionStore(const FunctionSet& fns,
                               PackedStoreOptions opts = {});

  /// Opens an existing packed file, verifying structure and per-block
  /// checksums. Returns nullptr (with a one-line `error` and, when
  /// `error_code` is non-null, the failure class) on any malformed,
  /// truncated or corrupt image.
  static std::unique_ptr<PackedFunctionStore> Open(
      const std::string& path, std::string* error = nullptr,
      PackedOpenError* error_code = nullptr);

  /// Builds the image from `fns` and writes it to `path` without
  /// constructing a queryable store.
  static bool WriteFile(const FunctionSet& fns, const std::string& path,
                        int block_entries = 128, std::string* error = nullptr);

  /// Patch-overlay construction — the incremental-update path
  /// (update/delta_builder.h). Presents `live_fns` (dense ids) without
  /// rebuilding the image: `base`'s flat image is kept verbatim, dead
  /// ids are tombstoned and surviving ones renamed through `remap`
  /// (`remap[base_fid]` = the function's id in `live_fns`, or -1 =
  /// tombstoned), and functions absent from the image (arrivals since
  /// it was built) are appended as sorted per-dim patch blocks that
  /// every traversal consults alongside the base blocks. `base_owner`
  /// keeps the object owning `base` alive for the overlay's lifetime
  /// (epoch chaining across republishes). The overlay preserves the
  /// descending-impact invariants the TA Entry() scan and the
  /// block-ordered traversals rely on: merged Entry() order is globally
  /// descending, and a base block's max_impact stays a valid upper
  /// bound even when its leading entries are tombstoned. Remapped
  /// functions must be byte-identical to their base-image versions —
  /// renames and removals only; a changed function is a remove + add.
  static std::unique_ptr<PackedFunctionStore> NewPatched(
      const PackedFunctionStore& base, std::shared_ptr<const void> base_owner,
      const FunctionSet& live_fns, const std::vector<int32_t>& remap);

  /// True for a patch overlay (NewPatched), false for a flat image.
  bool patched() const { return patch_ != nullptr; }
  /// Overlay accounting, 0 for flat images: entries appended by the
  /// patch and base-image ids tombstoned. Their sum against size() is
  /// the compaction trigger (update/delta_builder.h).
  int patch_added() const;
  int patch_tombstones() const;

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
  const double* EffTable() const override { return eff_table_; }
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

  /// The function's effective-coefficient row (`dims()` doubles).
  const double* EffRow(FunctionId fid) const {
    return eff_table_ + static_cast<size_t>(fid) * dims_;
  }
  double eff_of(FunctionId fid, int d) const { return EffRow(fid)[d]; }

  // --- placement / accounting ----------------------------------------
  /// True when the image bytes are an OS file mapping (vs the in-memory
  /// buffer); a patch overlay reports its base image's placement.
  bool mapped() const;

  /// Total bytes held: the packed image plus the per-list decode
  /// caches. For a mapped image this is the mapping size (resident on
  /// demand), the honest comparison against the other backends'
  /// materialized footprints.
  size_t footprint_bytes() const;

  /// Bytes of the packed image alone (the bytes/function bench metric);
  /// for a patch overlay, the base image plus the patch tables.
  size_t image_bytes() const;

 private:
  PackedFunctionStore() = default;

  /// Points the accessors into `data` and re-derives the directory;
  /// `verify_checksums` additionally walks every block (Open()). On
  /// failure fills `error` and, when non-null, `error_code`.
  bool Attach(const std::byte* data, size_t size, bool verify_checksums,
              std::string* error, PackedOpenError* error_code = nullptr);

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

  // --- patch overlay (NewPatched) ------------------------------------
  // Immutable overlay state, shared by every view of the overlay.
  struct PatchState;
  std::shared_ptr<const PatchState> patch_;

  /// Per-list merge cursor over (live base entries, patch entries) for
  /// the overlay's Entry() path. Private per store/view, like cache_.
  struct MergeCursor {
    int pos = 0;         // merged live positions consumed so far
    int base_block = 0;  // next base block to decode
    int base_idx = 0;    // next entry within the decoded block
    int base_count = 0;
    bool base_has = false;  // a peeked, not yet consumed base candidate
    double base_coeff = 0.0;
    int32_t base_live = -1;
    size_t patch_idx = 0;  // next patch-list entry
    std::vector<int32_t> fids;  // decoded base-block ids
  };
  std::vector<MergeCursor> merge_;

  /// Peeks the next non-tombstoned base entry of list `dim` into the
  /// cursor (no-op if one is already peeked); false when exhausted.
  bool PeekBaseEntry(int dim);
  /// Produces the next entry of the merged descending-coefficient list.
  std::pair<double, FunctionId> NextMerged(int dim);
};

}  // namespace fairmatch

#endif  // FAIRMATCH_TOPK_PACKED_FUNCTION_LISTS_H_
