// Pool allocator for SkyEntry nodes with an intrusive freelist.
//
// UpdateSkyline churns entries between the BBS heap and the members'
// pruned lists on every RemoveAndUpdate: with std::vector plists each
// park copies a ~100-byte SkyEntry and each drain reallocates. The
// arena keeps every parked or queued entry in one growing buffer;
// entries move between lists by relinking a 4-byte handle, freed slots
// are recycled through the freelist, and the high-water mark feeds the
// paper's search-structure memory metric (via MemoryTracker).
//
// Handles are indices, so they stay valid across buffer growth. The
// `next` link doubles as the freelist pointer and as the intrusive
// plist chain, which is why a live entry's next is reset on Alloc.
#ifndef FAIRMATCH_SKYLINE_SKY_ARENA_H_
#define FAIRMATCH_SKYLINE_SKY_ARENA_H_

#include <cstdint>
#include <vector>

#include "fairmatch/common/check.h"
#include "fairmatch/skyline/sky_entry.h"

namespace fairmatch {

/// Growable pool of SkyEntry nodes addressed by 32-bit handles.
class SkyEntryArena {
 public:
  static constexpr uint32_t kNil = 0xFFFFFFFFu;

  /// Allocates a node holding `e`; reuses a freed slot when available.
  uint32_t Alloc(const SkyEntry& e) {
    uint32_t h;
    if (free_head_ != kNil) {
      h = free_head_;
      free_head_ = nodes_[h].next;
    } else {
      h = static_cast<uint32_t>(nodes_.size());
      nodes_.emplace_back();
    }
    nodes_[h].entry = e;
    nodes_[h].next = kNil;
    live_++;
    if (live_ > high_water_) high_water_ = live_;
    return h;
  }

  /// Returns a node to the freelist. The handle must be live.
  void Free(uint32_t h) {
    FAIRMATCH_DCHECK(h < nodes_.size());
    nodes_[h].next = free_head_;
    free_head_ = h;
    live_--;
  }

  SkyEntry& entry(uint32_t h) {
    FAIRMATCH_DCHECK(h < nodes_.size());
    return nodes_[h].entry;
  }
  const SkyEntry& entry(uint32_t h) const {
    FAIRMATCH_DCHECK(h < nodes_.size());
    return nodes_[h].entry;
  }

  uint32_t next(uint32_t h) const {
    FAIRMATCH_DCHECK(h < nodes_.size());
    return nodes_[h].next;
  }
  void set_next(uint32_t h, uint32_t n) {
    FAIRMATCH_DCHECK(h < nodes_.size());
    nodes_[h].next = n;
  }

  /// Currently allocated node count.
  size_t live() const { return live_; }
  /// Largest live() ever observed (the paper's memory-usage metric).
  size_t high_water() const { return high_water_; }
  size_t high_water_bytes() const { return high_water_ * sizeof(Node); }

 private:
  struct Node {
    SkyEntry entry;
    uint32_t next = kNil;
  };

  std::vector<Node> nodes_;
  uint32_t free_head_ = kNil;
  size_t live_ = 0;
  size_t high_water_ = 0;
};

}  // namespace fairmatch

#endif  // FAIRMATCH_SKYLINE_SKY_ARENA_H_
