// A block device backed by DRAM that completes reads instantly.
//
// Serves two roles: (1) a correctness harness for the E2LSHoS engine in
// tests, and (2) the "T_read = 0" limit of the paper's cost model, i.e.
// an idealized storage with in-memory speed.
#pragma once

#include <memory>
#include <mutex>

#include "storage/block_device.h"
#include "storage/queue_registry.h"
#include "storage/sparse_backing.h"

namespace e2lshos::storage {

class MemoryDevice : public BlockDevice {
 public:
  /// Create a device of `capacity` bytes. `queue_capacity` bounds the
  /// number of unharvested completions on the device-level path.
  static Result<std::unique_ptr<MemoryDevice>> Create(uint64_t capacity,
                                                      uint32_t queue_capacity = 4096);
  ~MemoryDevice() override;

  /// The device-level path is queue 0.
  Status SubmitRead(const IoRequest& req) override;
  size_t PollCompletions(IoCompletion* out, size_t max) override;
  Status Write(uint64_t offset, const void* data, uint32_t length) override;
  uint64_t capacity() const override { return backing_.capacity(); }
  uint32_t outstanding() const override;
  std::string name() const override { return "memory"; }
  DeviceStats stats() const override;
  void ResetStats() override;

  /// Native queues: each gets a private completion inbox over the shared
  /// backing, so per-queue submit/poll touches no device-wide lock.
  Result<std::unique_ptr<BlockDevice>> CreateQueue(
      const QueueOptions& options) override;

 private:
  class Queue;  // defined in memory_device.cc

  MemoryDevice() = default;

  SparseBacking backing_;
  mutable std::mutex write_mu_;
  uint64_t bytes_written_ = 0;  ///< Guarded by write_mu_.
  QueueRegistry<Queue> queues_;
  std::unique_ptr<Queue> queue0_;  ///< Declared last: dies first.
};

}  // namespace e2lshos::storage
