// Disk-resident function lists (Section 7.6 / Figure 17).
//
// When F does not fit in memory, the paper materializes the D sorted
// coefficient lists on disk. We store each list as a PagedFile of
// ListRecords (double coefficient, int32 function id; 16 bytes with
// padding) on the simulated disk behind one shared LRU buffer, so that
//   * sequential block scans (SB-alt's batch search) cost one read per
//     page, and
//   * TA random accesses (fetching a function's remaining coefficients)
//     cost one counted page access each, via an in-memory position map
//     (the random-access capability the TA model assumes).
//
// Function priorities/capacities are tiny per-function metadata and stay
// in memory; only the coefficients live on disk.
#ifndef FAIRMATCH_TOPK_DISK_FUNCTION_LISTS_H_
#define FAIRMATCH_TOPK_DISK_FUNCTION_LISTS_H_

#include <memory>
#include <vector>

#include "fairmatch/common/preference.h"
#include "fairmatch/storage/paged_file.h"
#include "fairmatch/topk/function_lists.h"

namespace fairmatch {

/// One on-disk sorted-list record. The coefficient is stored in full
/// double precision so that disk-backed scores are bit-identical to the
/// in-memory ones (algorithms must agree exactly on ties).
struct ListRecord {
  double coef;
  int32_t fid;
};

/// Disk-backed implementation of FunctionIndexBase with counted I/O.
///
/// Not thread-safe, reads included: Entry/ScoreOf/ReadListPage/FetchEff
/// all go through the LRU buffer (which mutates on every access) and
/// the shared PerfCounters. One store per execution lane — requests
/// running concurrently (serve/server.h) each build their own.
class DiskFunctionStore : public FunctionIndexBase {
 public:
  /// Builds the lists from `fns` and flushes them to the simulated disk.
  /// `buffer_fraction` sizes the LRU buffer as a fraction of the file.
  /// When `counters` is non-null (typically an ExecContext's shared
  /// counters), traffic is accounted there instead of in a private
  /// PerfCounters; `counters` must outlive the store. Construction
  /// traffic is excluded either way (counters are reset at the end of
  /// the constructor). When `disk` is non-null, list pages live on that
  /// externally owned manager (a Server lane's recycled one — it must
  /// be freshly constructed or Recycle()d, and outlive the store)
  /// instead of a private one.
  DiskFunctionStore(const FunctionSet& fns, double buffer_fraction,
                    PerfCounters* counters = nullptr,
                    DiskManager* disk = nullptr);

  int dims() const override { return dims_; }
  int size() const override { return num_functions_; }
  double max_gamma() const override { return max_gamma_; }

  /// Entry `pos` of list `dim`; one counted page access (usually a
  /// buffer hit when scanning sequentially).
  std::pair<double, FunctionId> Entry(int dim, int pos) override;

  /// Score of `fid` on `o`: D-1 random accesses to the other lists plus
  /// the already-known coefficient would be cheaper, but callers do not
  /// carry that context, so we charge D random accesses (one per list).
  double ScoreOf(FunctionId fid, const Point& o) override;

  /// Reads a whole page of list `dim` (SB-alt's batch scan); returns the
  /// records. One counted page access.
  int ReadListPage(int dim, int64_t page_index,
                   std::vector<ListRecord>* out);

  /// Reads the full effective-coefficient vector of `fid` into
  /// `out[0..dims)`: one random access per list, skipping `known_dim`
  /// whose coefficient `known_coef` the caller already holds (the
  /// paper's "D-1 random accesses on the remaining lists"). Pass
  /// known_dim = -1 to fetch all D coefficients.
  void FetchEff(FunctionId fid, int known_dim, double known_coef,
                double* out);

  int64_t pages_per_list() const { return lists_[0]->num_pages(); }
  int records_per_page() const { return lists_[0]->records_per_page(); }

  /// Capacity/priority metadata (in-memory). Ids are clamped: an id a
  /// caller obtained from a corrupt record degrades to neutral metadata
  /// instead of indexing out of bounds (the decode path already
  /// reported the data loss).
  double gamma_of(FunctionId fid) const {
    return fid >= 0 && fid < num_functions_ ? gamma_[fid] : 0.0;
  }
  int capacity_of(FunctionId fid) const {
    return fid >= 0 && fid < num_functions_ ? capacity_[fid] : 0;
  }

  PerfCounters& counters() { return *counters_; }
  void ResetCounters();
  void SetBufferFraction(double fraction);
  int64_t num_pages() const { return disk_->num_pages(); }
  /// The underlying simulated disk (fault wiring, diagnostics).
  DiskManager& disk() { return *disk_; }

 private:
  double RandomCoef(int dim, FunctionId fid);

  DiskManager own_disk_;
  DiskManager* disk_;  // own_disk_ or an injected recyclable one
  PerfCounters own_counters_;
  PerfCounters* counters_;  // own_counters_ or an injected external one
  BufferPool pool_;
  std::vector<std::unique_ptr<PagedFile>> lists_;
  // pos_[dim][fid] = index of fid's record in list `dim`.
  std::vector<std::vector<int32_t>> pos_;
  std::vector<double> gamma_;
  std::vector<int> capacity_;
  int dims_ = 0;
  int num_functions_ = 0;
  double max_gamma_ = 1.0;
};

}  // namespace fairmatch

#endif  // FAIRMATCH_TOPK_DISK_FUNCTION_LISTS_H_
