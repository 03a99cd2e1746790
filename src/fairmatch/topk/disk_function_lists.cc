#include "fairmatch/topk/disk_function_lists.h"

#include <algorithm>
#include <cmath>

#include "fairmatch/common/check.h"

namespace fairmatch {

DiskFunctionStore::DiskFunctionStore(const FunctionSet& fns,
                                     double buffer_fraction,
                                     PerfCounters* counters,
                                     DiskManager* disk)
    : disk_(disk != nullptr ? disk : &own_disk_),
      counters_(counters != nullptr ? counters : &own_counters_),
      pool_(disk_, /*capacity_frames=*/1024, counters_) {
  FAIRMATCH_CHECK(!fns.empty());
  dims_ = fns[0].dims;
  num_functions_ = static_cast<int>(fns.size());
  for (const PrefFunction& f : fns) {
    FAIRMATCH_CHECK(f.dims == dims_);
    max_gamma_ = std::max(max_gamma_, f.gamma);
  }

  pos_.assign(dims_, std::vector<int32_t>(fns.size(), 0));
  std::vector<std::pair<double, int32_t>> sorted(fns.size());
  for (int d = 0; d < dims_; ++d) {
    for (size_t i = 0; i < fns.size(); ++i) {
      sorted[i] = {fns[i].eff(d), fns[i].id};
    }
    std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    });
    auto file = std::make_unique<PagedFile>(&pool_, sizeof(ListRecord));
    for (size_t i = 0; i < sorted.size(); ++i) {
      ListRecord rec{sorted[i].first, sorted[i].second};
      file->Append(&rec);
      pos_[d][sorted[i].second] = static_cast<int32_t>(i);
    }
    file->Seal();
    lists_.push_back(std::move(file));
  }
  SetBufferFraction(buffer_fraction);
  ResetCounters();
}

std::pair<double, FunctionId> DiskFunctionStore::Entry(int dim, int pos) {
  ListRecord rec;
  lists_[dim]->Read(pos, &rec);
  if (rec.fid < 0 || rec.fid >= num_functions_) {
    // A record decoded off a faulted page (zero-filled reads come back
    // as fid 0, but undetected corruption can carry any bits): inside a
    // sinked run report data loss and hand back a harmless entry so the
    // caller's id-indexed structures stay in bounds.
    if (ErrorSink* sink = disk_->error_sink()) {
      sink->Report(ErrorCode::kDataLoss,
                   "DiskFunctionStore::Entry: decoded function id " +
                       std::to_string(rec.fid) + " out of range");
      return {0.0, 0};
    }
  }
  return {rec.coef, rec.fid};
}

double DiskFunctionStore::RandomCoef(int dim, FunctionId fid) {
  if (fid < 0 || fid >= num_functions_) {
    if (ErrorSink* sink = disk_->error_sink()) {
      sink->Report(ErrorCode::kDataLoss,
                   "DiskFunctionStore::RandomCoef: function id " +
                       std::to_string(fid) + " out of range");
      return 0.0;
    }
    FAIRMATCH_CHECK(fid >= 0 && fid < num_functions_);
  }
  ListRecord rec;
  lists_[dim]->Read(pos_[dim][fid], &rec);
  if (rec.fid != fid && disk_->has_error_sink()) {
    disk_->error_sink()->Report(
        ErrorCode::kDataLoss,
        "DiskFunctionStore::RandomCoef: record for function " +
            std::to_string(fid) + " decoded as " + std::to_string(rec.fid));
    return 0.0;
  }
  FAIRMATCH_DCHECK(rec.fid == fid);
  return rec.coef;
}

void DiskFunctionStore::FetchEff(FunctionId fid, int known_dim,
                                 double known_coef, double* out) {
  for (int d = 0; d < dims_; ++d) {
    out[d] = d == known_dim ? known_coef : RandomCoef(d, fid);
  }
}

double DiskFunctionStore::ScoreOf(FunctionId fid, const Point& o) {
  double score = 0.0;
  for (int d = 0; d < dims_; ++d) {
    score += RandomCoef(d, fid) * o[d];
  }
  return score;
}

int DiskFunctionStore::ReadListPage(int dim, int64_t page_index,
                                    std::vector<ListRecord>* out) {
  out->resize(lists_[dim]->records_per_page());
  int count = lists_[dim]->ReadPage(page_index, out->data());
  out->resize(count);
  if (ErrorSink* sink = disk_->error_sink()) {
    // Sanitize before the batch consumers (SB-alt) index their
    // fid-sized arrays with these records.
    for (ListRecord& rec : *out) {
      if (rec.fid < 0 || rec.fid >= num_functions_) {
        sink->Report(ErrorCode::kDataLoss,
                     "DiskFunctionStore::ReadListPage: decoded function id " +
                         std::to_string(rec.fid) + " out of range");
        rec = ListRecord{0.0, 0};
      }
    }
  }
  return count;
}

void DiskFunctionStore::ResetCounters() {
  pool_.FlushAll();
  counters_->Reset();
}

void DiskFunctionStore::SetBufferFraction(double fraction) {
  auto frames = static_cast<size_t>(
      std::llround(fraction * static_cast<double>(disk_->num_pages())));
  pool_.set_capacity(frames);
}

}  // namespace fairmatch
