#include "storage/striped_device.h"

#include <algorithm>

namespace e2lshos::storage {

StripedDevice::StripedDevice(std::vector<std::unique_ptr<BlockDevice>> children)
    : children_(std::move(children)) {
  uint64_t min_cap = children_[0]->capacity();
  for (const auto& c : children_) min_cap = std::min(min_cap, c->capacity());
  // Whole sectors only.
  min_cap = min_cap / kSectorBytes * kSectorBytes;
  capacity_ = min_cap * children_.size();
  for (const auto& c : children_) {
    io_alignment_ = std::max(io_alignment_, c->io_alignment());
  }
}

Result<std::unique_ptr<StripedDevice>> StripedDevice::Create(
    std::vector<std::unique_ptr<BlockDevice>> children) {
  if (children.empty()) {
    return Status::InvalidArgument("striped device needs at least one child");
  }
  for (const auto& c : children) {
    if (c == nullptr) return Status::InvalidArgument("null child device");
    // Striping splits the address space at 512-byte granularity; a child
    // demanding coarser extents (a 4Kn drive in direct mode) could never
    // be satisfied through the stripe map.
    if (c->io_alignment() > kSectorBytes) {
      return Status::InvalidArgument(
          "child device requires " + std::to_string(c->io_alignment()) +
          "-byte alignment, above the 512-byte stripe unit");
    }
  }
  return std::unique_ptr<StripedDevice>(new StripedDevice(std::move(children)));
}

Status StripedDevice::Translate(uint64_t offset, uint32_t length, size_t* child,
                                uint64_t* child_offset) const {
  if (!RangeInCapacity(offset, length, capacity_)) {
    return Status::OutOfRange("beyond capacity");
  }
  const uint64_t sector = offset / kSectorBytes;
  const uint64_t within = offset % kSectorBytes;
  if (within + length > kSectorBytes) {
    return Status::InvalidArgument("request crosses a sector boundary");
  }
  *child = static_cast<size_t>(sector % children_.size());
  *child_offset = (sector / children_.size()) * kSectorBytes + within;
  return Status::OK();
}

Status StripedDevice::SubmitRead(const IoRequest& req) {
  size_t child;
  uint64_t child_offset;
  E2_RETURN_NOT_OK(Translate(req.offset, req.length, &child, &child_offset));
  IoRequest sub = req;
  sub.offset = child_offset;
  return children_[child]->SubmitRead(sub);
}

size_t StripedDevice::PollCompletions(IoCompletion* out, size_t max) {
  // Round-robin across children for fairness; the cursor advance is a
  // single atomic so concurrent pollers never race (each child device is
  // itself thread-safe).
  size_t total = 0;
  const size_t n = children_.size();
  const uint64_t start = poll_cursor_.fetch_add(1, std::memory_order_relaxed);
  for (size_t i = 0; i < n && total < max; ++i) {
    const size_t idx = static_cast<size_t>((start + i) % n);
    total += children_[idx]->PollCompletions(out + total, max - total);
  }
  return total;
}

Status StripedDevice::Write(uint64_t offset, const void* data, uint32_t length) {
  // Writes may span sectors; split per sector.
  const uint8_t* p = static_cast<const uint8_t*>(data);
  while (length > 0) {
    const uint64_t within = offset % kSectorBytes;
    const uint32_t chunk =
        std::min<uint64_t>(length, kSectorBytes - within);
    size_t child;
    uint64_t child_offset;
    E2_RETURN_NOT_OK(Translate(offset, chunk, &child, &child_offset));
    E2_RETURN_NOT_OK(children_[child]->Write(child_offset, p, chunk));
    offset += chunk;
    p += chunk;
    length -= chunk;
  }
  return Status::OK();
}

/// \brief One native queue over the stripe set: a private native queue
/// per child drive plus a private poll cursor. Submit translates through
/// the parent's (immutable) stripe map and lands on this queue's slice of
/// the target drive; no state is shared with sibling stripe queues.
class StripedDevice::Queue : public BlockDevice {
 public:
  Queue(StripedDevice* parent,
        std::vector<std::unique_ptr<BlockDevice>> child_queues)
      : parent_(parent), child_queues_(std::move(child_queues)) {}

  Status SubmitRead(const IoRequest& req) override {
    size_t child;
    uint64_t child_offset;
    E2_RETURN_NOT_OK(
        parent_->Translate(req.offset, req.length, &child, &child_offset));
    IoRequest sub = req;
    sub.offset = child_offset;
    return child_queues_[child]->SubmitRead(sub);
  }

  size_t PollCompletions(IoCompletion* out, size_t max) override {
    size_t total = 0;
    const size_t n = child_queues_.size();
    const uint64_t start = poll_cursor_++;
    for (size_t i = 0; i < n && total < max; ++i) {
      const size_t idx = static_cast<size_t>((start + i) % n);
      total += child_queues_[idx]->PollCompletions(out + total, max - total);
    }
    return total;
  }

  Status Write(uint64_t offset, const void* data, uint32_t length) override {
    return parent_->Write(offset, data, length);
  }
  uint64_t capacity() const override { return parent_->capacity(); }
  uint32_t io_alignment() const override { return parent_->io_alignment(); }
  uint32_t outstanding() const override {
    uint32_t total = 0;
    for (const auto& q : child_queues_) total += q->outstanding();
    return total;
  }
  std::string name() const override {
    return child_queues_[0]->name() + " x " +
           std::to_string(child_queues_.size());
  }
  DeviceStats stats() const override {
    DeviceStats merged;
    for (const auto& q : child_queues_) merged += q->stats();
    return merged;
  }
  void ResetStats() override {
    for (auto& q : child_queues_) q->ResetStats();
  }
  Status RegisterBuffers(
      const std::vector<std::pair<void*, size_t>>& regions) override {
    // Registration is per child ring; reads to any drive may target any
    // region, so every child queue needs the full set. All-or-nothing.
    for (auto& q : child_queues_) {
      E2_RETURN_NOT_OK(q->RegisterBuffers(regions));
    }
    return Status::OK();
  }

 private:
  StripedDevice* parent_;
  std::vector<std::unique_ptr<BlockDevice>> child_queues_;
  /// Only this queue's owner polls, so a plain cursor suffices.
  uint64_t poll_cursor_ = 0;
};

Result<std::unique_ptr<BlockDevice>> StripedDevice::CreateQueue(
    const QueueOptions& options) {
  std::vector<std::unique_ptr<BlockDevice>> child_queues;
  child_queues.reserve(children_.size());
  for (auto& c : children_) {
    E2_ASSIGN_OR_RETURN(auto q, c->CreateQueue(options));
    child_queues.push_back(std::move(q));
  }
  return std::unique_ptr<BlockDevice>(
      std::make_unique<Queue>(this, std::move(child_queues)));
}

uint32_t StripedDevice::outstanding() const {
  uint32_t total = 0;
  for (const auto& c : children_) total += c->outstanding();
  return total;
}

std::string StripedDevice::name() const {
  return children_[0]->name() + " x " + std::to_string(children_.size());
}

DeviceStats StripedDevice::stats() const {
  DeviceStats merged;
  for (const auto& c : children_) merged += c->stats();
  return merged;
}

void StripedDevice::ResetStats() {
  for (auto& c : children_) c->ResetStats();
}

}  // namespace e2lshos::storage
