#include "fairmatch/storage/disk_manager.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "fairmatch/common/crc32.h"
#include "fairmatch/storage/fault_injector.h"

namespace fairmatch {

namespace {

void SimulateLatency(int us) {
  if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
}

}  // namespace

void DiskManager::CheckLive(PageId pid, const char* op) const {
  if (IsLive(pid)) return;
  std::fprintf(stderr,
               "DiskManager::%s: page %d is not live (%s; num_pages=%lld, "
               "live=%lld)\n",
               op, static_cast<int>(pid),
               pid < 0 || pid >= num_pages() ? "id out of range"
                                             : "already freed",
               static_cast<long long>(num_pages()),
               static_cast<long long>(num_live_pages()));
  std::abort();
}

void DiskManager::ReportBadPageRef(PageId pid, const char* origin) const {
  if (error_sink_ != nullptr) {
    error_sink_->Report(
        ErrorCode::kDataLoss,
        std::string(origin) + ": reference to non-live page " +
            std::to_string(pid) + " (num_pages=" +
            std::to_string(num_pages()) + ")");
  }
}

std::unique_ptr<PageData> DiskManager::TakePage() {
  if (!spare_.empty()) {
    std::unique_ptr<PageData> page = std::move(spare_.back());
    spare_.pop_back();
    return page;
  }
  return std::make_unique<PageData>();
}

PageId DiskManager::AllocatePage() {
  if (!free_list_.empty()) {
    PageId pid = free_list_.back();
    free_list_.pop_back();
    pages_[pid] = TakePage();
    std::memset(pages_[pid]->bytes, 0, kPageSize);
    if (verify_checksums_) crcs_[pid] = Crc32Of(pages_[pid]->bytes, kPageSize);
    return pid;
  }
  pages_.push_back(TakePage());
  std::memset(pages_.back()->bytes, 0, kPageSize);
  if (verify_checksums_) {
    crcs_.push_back(Crc32Of(pages_.back()->bytes, kPageSize));
  }
  return static_cast<PageId>(pages_.size() - 1);
}

void DiskManager::Recycle() {
  for (std::unique_ptr<PageData>& page : pages_) {
    if (page != nullptr) spare_.push_back(std::move(page));
  }
  pages_.clear();
  free_list_.clear();
  crcs_.clear();
  verify_checksums_ = false;
  fault_injector_ = nullptr;
  error_sink_ = nullptr;
}

void DiskManager::FreePage(PageId pid) {
  CheckLive(pid, "FreePage");
  pages_[pid].reset();
  free_list_.push_back(pid);
}

void DiskManager::set_verify_checksums(bool on) {
  verify_checksums_ = on;
  crcs_.clear();
  if (!on) return;
  crcs_.resize(pages_.size(), 0);
  for (size_t pid = 0; pid < pages_.size(); ++pid) {
    if (pages_[pid] != nullptr) {
      crcs_[pid] = Crc32Of(pages_[pid]->bytes, kPageSize);
    }
  }
}

PageRead DiskManager::ReadPage(PageId pid, std::byte* scratch) const {
  CheckLive(pid, "ReadPage");
  PageRead read{pages_[pid]->bytes, Status::Ok()};
  if (fault_injector_ != nullptr) {
    // The injector may corrupt what it returns: give it a private copy
    // so the stored page never changes on a read.
    std::memcpy(scratch, read.bytes, kPageSize);
    read.bytes = scratch;
    int spike_us = 0;
    read.status = fault_injector_->OnRead(pid, scratch, &spike_us);
    SimulateLatency(spike_us);
  }
  if (read.status.ok() && verify_checksums_ &&
      Crc32Of(read.bytes, kPageSize) != crcs_[pid]) {
    read.status = Status::DataLoss("checksum mismatch reading page " +
                                   std::to_string(pid));
  }
  if (!read.status.ok()) {
    std::memset(scratch, 0, kPageSize);
    read.bytes = scratch;
    if (error_sink_ != nullptr) {
      error_sink_->Report(read.status.code, read.status.message);
    }
  }
  return read;
}

Status DiskManager::WritePage(PageId pid, const std::byte* src) {
  CheckLive(pid, "WritePage");
  if (fault_injector_ != nullptr) {
    int spike_us = 0;
    Status status = fault_injector_->OnWrite(pid, &spike_us);
    SimulateLatency(spike_us);
    if (!status.ok()) {
      if (error_sink_ != nullptr) {
        error_sink_->Report(status.code, status.message);
      }
      return status;  // dropped: the page keeps its previous content
    }
  }
  std::memcpy(pages_[pid]->bytes, src, kPageSize);
  if (verify_checksums_) crcs_[pid] = Crc32Of(src, kPageSize);
  return Status::Ok();
}

}  // namespace fairmatch
