#include "storage/memory_device.h"

#include <algorithm>
#include <cstring>
#include <deque>

namespace e2lshos::storage {

/// \brief One native queue: a private inbox of pending reads over the
/// shared DRAM backing. SubmitRead only prefetches the extent and queues
/// it; PollCompletions copies it out, so the cache misses of every read
/// queued between two polls overlap instead of stalling one by one. The
/// queue's own mutex only guards its inbox against stats() readers and
/// is never contended on the hot path — no lock is shared with other
/// queues.
class MemoryDevice::Queue : public BlockDevice {
 public:
  Queue(MemoryDevice* parent, uint32_t queue_capacity)
      : parent_(parent), queue_capacity_(queue_capacity) {
    id_ = parent_->queues_.Add(this);  // last: the parent may read us now
  }
  ~Queue() override { parent_->queues_.Remove(this); }

  Status SubmitRead(const IoRequest& req) override {
    if (req.buf == nullptr || req.length == 0) {
      return Status::InvalidArgument("null buffer or zero length");
    }
    if (!RangeInCapacity(req.offset, req.length, parent_->backing_.capacity())) {
      return Status::OutOfRange("read beyond device capacity");
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_.size() >= queue_capacity_) {
      return Status::ResourceExhausted("queue full");
    }
    // Start the DRAM fetch now; by the harvest the lines are in cache or
    // on their way. Longer extents are streaming copies that the
    // hardware prefetcher already covers.
    const uintptr_t begin =
        reinterpret_cast<uintptr_t>(parent_->backing_.data() + req.offset);
    const uintptr_t end =
        begin + std::min<uint32_t>(req.length, kMaxPrefetchBytes);
    for (uintptr_t line = begin & ~(kCacheLine - 1); line < end;
         line += kCacheLine) {
      __builtin_prefetch(reinterpret_cast<const void*>(line));
    }
    pending_.push_back(req);
    ++stats_.reads_submitted;
    return Status::OK();
  }

  size_t PollCompletions(IoCompletion* out, size_t max) override {
    std::lock_guard<std::mutex> lock(mu_);
    size_t n = 0;
    while (n < max && !pending_.empty()) {
      const IoRequest& req = pending_.front();
      // Data transfer happens at harvest; the device's service time is
      // zero (the T_read = 0 limit).
      std::memcpy(req.buf, parent_->backing_.data() + req.offset, req.length);
      out[n].user_data = req.user_data;
      out[n].code = StatusCode::kOk;
      out[n].latency_ns = 0;
      ++stats_.reads_completed;
      stats_.bytes_read += req.length;
      stats_.read_latency.Add(0);
      pending_.pop_front();
      ++n;
    }
    return n;
  }

  Status Write(uint64_t offset, const void* data, uint32_t length) override {
    return parent_->Write(offset, data, length);
  }
  uint64_t capacity() const override { return parent_->capacity(); }
  uint32_t outstanding() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<uint32_t>(pending_.size());
  }
  std::string name() const override {
    return parent_->name() + " nq" + std::to_string(id_);
  }
  DeviceStats stats() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }
  void ResetStats() override {
    std::lock_guard<std::mutex> lock(mu_);
    stats_ = DeviceStats{};
  }

 private:
  static constexpr uintptr_t kCacheLine = 64;
  static constexpr uint32_t kMaxPrefetchBytes = 4096;

  MemoryDevice* parent_;
  uint32_t queue_capacity_;
  uint32_t id_ = 0;
  mutable std::mutex mu_;
  std::deque<IoRequest> pending_;  ///< Submitted, not yet harvested.
  DeviceStats stats_;
};

Result<std::unique_ptr<MemoryDevice>> MemoryDevice::Create(uint64_t capacity,
                                                           uint32_t queue_capacity) {
  auto dev = std::unique_ptr<MemoryDevice>(new MemoryDevice());
  E2_RETURN_NOT_OK(dev->backing_.Map(capacity));
  dev->queue0_ = std::make_unique<Queue>(dev.get(), std::max(1u, queue_capacity));
  return dev;
}

MemoryDevice::~MemoryDevice() = default;

Result<std::unique_ptr<BlockDevice>> MemoryDevice::CreateQueue(
    const QueueOptions& options) {
  return std::unique_ptr<BlockDevice>(
      std::make_unique<Queue>(this, std::max(1u, options.queue_capacity)));
}

Status MemoryDevice::SubmitRead(const IoRequest& req) {
  return queue0_->SubmitRead(req);
}

size_t MemoryDevice::PollCompletions(IoCompletion* out, size_t max) {
  return queue0_->PollCompletions(out, max);
}

Status MemoryDevice::Write(uint64_t offset, const void* data, uint32_t length) {
  if (!RangeInCapacity(offset, length, backing_.capacity())) {
    return Status::OutOfRange("write beyond device capacity");
  }
  std::lock_guard<std::mutex> lock(write_mu_);
  std::memcpy(backing_.data() + offset, data, length);
  bytes_written_ += length;
  return Status::OK();
}

uint32_t MemoryDevice::outstanding() const { return queues_.Outstanding(); }

DeviceStats MemoryDevice::stats() const {
  DeviceStats out = queues_.Total();
  std::lock_guard<std::mutex> lock(write_mu_);
  out.bytes_written += bytes_written_;
  return out;
}

void MemoryDevice::ResetStats() {
  queues_.Reset();
  std::lock_guard<std::mutex> lock(write_mu_);
  bytes_written_ = 0;
}

}  // namespace e2lshos::storage
