// Queue bookkeeping shared by every multi-queue device and layer.
//
// A device that hands out native queues (BlockDevice::CreateQueue) must
// keep its own counters covering all of them: a queue's traffic is
// device traffic, during the queue's life and after it. QueueRegistry is
// that one piece of bookkeeping. It tracks the live queues of one device
// and keeps the folded totals of the destroyed ones, so the device's
// counters only ever go back on ResetStats. It also numbers the queues
// with a monotone id, so live queue names never collide.
//
// What is registered is a queue's *own layer*: a backend queue registers
// itself (its stats are its whole traffic), a decorator queue registers
// only its lane (the counters its layer adds). The inner queue it wraps
// is registered with the inner device, so a decorator's stats() —
// inner device stats plus its registry — never counts a read twice.
//
// `Lane` provides `Counters stats() const`, `uint32_t outstanding()
// const` and `void ResetStats()`; `Counters` provides `+=`. A queue
// registers at the end of its constructor (the parent may read it from
// then on) and removes itself in its destructor, after its last I/O
// has drained.
#pragma once

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <vector>

#include "storage/block_device.h"

namespace e2lshos::storage {

template <typename Lane, typename Counters = DeviceStats>
class QueueRegistry {
 public:
  /// Track a live lane. Returns its id: unique over the registry's life,
  /// never reused after a queue is destroyed.
  uint32_t Add(Lane* lane) {
    std::lock_guard<std::mutex> lock(mu_);
    live_.push_back(lane);
    return next_id_++;
  }

  /// Stop tracking a lane, folding its counters into the retired totals.
  void Remove(Lane* lane) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = std::find(live_.begin(), live_.end(), lane);
    if (it == live_.end()) return;
    retired_ += lane->stats();
    live_.erase(it);
  }

  /// Retired totals plus every live lane's counters.
  Counters Total() const {
    std::lock_guard<std::mutex> lock(mu_);
    Counters total = retired_;
    for (const Lane* lane : live_) total += lane->stats();
    return total;
  }

  uint32_t Outstanding() const {
    std::lock_guard<std::mutex> lock(mu_);
    uint32_t total = 0;
    for (const Lane* lane : live_) total += lane->outstanding();
    return total;
  }

  /// The device's ResetStats: every live lane and the retired totals.
  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    for (Lane* lane : live_) lane->ResetStats();
    retired_ = Counters{};
  }

 private:
  mutable std::mutex mu_;
  std::vector<Lane*> live_;
  Counters retired_{};
  uint32_t next_id_ = 0;
};

}  // namespace e2lshos::storage
