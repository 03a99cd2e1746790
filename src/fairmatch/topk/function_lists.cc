#include "fairmatch/topk/function_lists.h"

#include <algorithm>

#include "fairmatch/common/check.h"

namespace fairmatch {

FunctionLists::FunctionLists(const FunctionSet* fns) : fns_(fns) {
  FAIRMATCH_CHECK(!fns->empty());
  dims_ = (*fns)[0].dims;
  max_gamma_ = 0.0;
  lists_.resize(dims_);
  for (int d = 0; d < dims_; ++d) {
    lists_[d].reserve(fns->size());
  }
  for (const PrefFunction& f : *fns) {
    FAIRMATCH_CHECK(f.dims == dims_);
    max_gamma_ = std::max(max_gamma_, f.gamma);
    for (int d = 0; d < dims_; ++d) {
      lists_[d].emplace_back(f.eff(d), f.id);
    }
  }
  for (int d = 0; d < dims_; ++d) {
    std::sort(lists_[d].begin(), lists_[d].end(),
              [](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first > b.first;
                return a.second < b.second;
              });
  }
}

size_t FunctionLists::memory_bytes() const {
  size_t bytes = 0;
  for (const auto& list : lists_) {
    bytes += list.size() * sizeof(std::pair<double, FunctionId>);
  }
  return bytes;
}

}  // namespace fairmatch
