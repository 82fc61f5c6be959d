#include "storage/memory_device.h"

#include <algorithm>
#include <cstring>
#include <deque>

namespace e2lshos::storage {

/// \brief One native queue: a private completion inbox over the shared
/// DRAM backing. Reads complete at submission (the device is the
/// T_read = 0 limit), so "lock-free" here means free of any lock shared
/// with other queues — the queue's own mutex only guards its inbox
/// against stats() readers and is never contended on the hot path.
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
    if (completed_.size() >= queue_capacity_) {
      return Status::ResourceExhausted("queue full");
    }
    std::memcpy(req.buf, parent_->backing_.data() + req.offset, req.length);
    IoCompletion comp;
    comp.user_data = req.user_data;
    comp.code = StatusCode::kOk;
    comp.latency_ns = 0;
    completed_.push_back(comp);
    ++stats_.reads_submitted;
    ++stats_.reads_completed;
    stats_.bytes_read += req.length;
    stats_.read_latency.Add(0);
    return Status::OK();
  }

  size_t PollCompletions(IoCompletion* out, size_t max) override {
    std::lock_guard<std::mutex> lock(mu_);
    size_t n = 0;
    while (n < max && !completed_.empty()) {
      out[n++] = completed_.front();
      completed_.pop_front();
    }
    return n;
  }

  Status Write(uint64_t offset, const void* data, uint32_t length) override {
    return parent_->Write(offset, data, length);
  }
  uint64_t capacity() const override { return parent_->capacity(); }
  uint32_t outstanding() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<uint32_t>(completed_.size());
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
  MemoryDevice* parent_;
  uint32_t queue_capacity_;
  uint32_t id_ = 0;
  mutable std::mutex mu_;
  std::deque<IoCompletion> completed_;
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
