#include "storage/interface_model.h"

#include "util/clock.h"

namespace e2lshos::storage {

InterfaceSpec GetInterfaceSpec(InterfaceKind kind) {
  switch (kind) {
    case InterfaceKind::kIoUring:
      return {"io_uring", 1000, 0};
    case InterfaceKind::kSpdk:
      return {"SPDK", 350, 0};
    case InterfaceKind::kXlfdd:
      return {"XLFDD-if", 50, 0};
    case InterfaceKind::kMmapSync:
      // Page-fault + page-cache management cost per 4 kB miss; the paper
      // attributes ~40% of mmap query time to CPU I/O overhead.
      return {"mmap-sync", 4000, 0};
  }
  return {"unknown", 0, 0};
}

std::vector<std::pair<InterfaceKind, std::string>> AllInterfaceKinds() {
  return {{InterfaceKind::kIoUring, "io_uring"},
          {InterfaceKind::kSpdk, "SPDK"},
          {InterfaceKind::kXlfdd, "XLFDD-if"},
          {InterfaceKind::kMmapSync, "mmap-sync"}};
}

Status ChargedDevice::SubmitRead(const IoRequest& req) {
  // The CPU cost is paid whether or not the submission succeeds: a full
  // queue is discovered only after talking to the device.
  util::BusySpinNs(spec_.submit_overhead_ns);
  charge_.Add(spec_.submit_overhead_ns);
  return inner_->SubmitRead(req);
}

size_t ChargedDevice::PollCompletions(IoCompletion* out, size_t max) {
  const size_t n = inner_->PollCompletions(out, max);
  if (n > 0 && spec_.poll_overhead_ns > 0) {
    util::BusySpinNs(spec_.poll_overhead_ns * n);
    charge_.Add(spec_.poll_overhead_ns * n);
  }
  return n;
}

ChargedDevice::~ChargedDevice() {
  if (parent_ != nullptr) parent_->queues_.Remove(&charge_);
}

void ChargedDevice::ResetStats() {
  inner_->ResetStats();
  charge_.ResetStats();
  queues_.Reset();
}

Result<std::unique_ptr<BlockDevice>> ChargedDevice::CreateQueue(
    const QueueOptions& options) {
  E2_ASSIGN_OR_RETURN(auto inner_queue, inner_->CreateQueue(options));
  auto queue = std::make_unique<ChargedDevice>(std::move(inner_queue), spec_);
  queue->parent_ = this;
  queues_.Add(&queue->charge_);
  return std::unique_ptr<BlockDevice>(std::move(queue));
}

}  // namespace e2lshos::storage
