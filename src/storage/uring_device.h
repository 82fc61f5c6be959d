// A block device backed by a real file with reads submitted as genuine
// asynchronous I/O over a Linux io_uring SQ/CQ ring pair.
//
// FileDevice emulates the paper's deep-queue regime by bouncing every
// read onto a pread thread pool, so achievable IOPS is capped by thread
// count and wakeup latency. UringDevice keeps the queue depth real: the
// submitting thread writes SQEs into a shared submission ring (batched
// into one io_uring_enter per `submit_batch` requests), the kernel
// services them in parallel, and PollCompletions() drains the completion
// ring with no syscall and no reaper thread. This is the backend the
// paper's interface model prices at ~1.0 us/op (Table 3, io_uring row).
//
// Features, all optional at Options level:
//   * SQPOLL: a kernel thread polls the submission ring, removing even
//     the batched io_uring_enter from the submit path (falls back to
//     interrupt-driven mode when the kernel refuses).
//   * Registered file: the backing fd is registered once so the kernel
//     skips per-I/O fd lookup.
//   * Registered (fixed) buffers: RegisterBuffers() pins caller-owned
//     arenas (e.g. util::AlignedBuffer memory); reads whose destination
//     falls inside a registered region are submitted as READ_FIXED,
//     skipping per-I/O page pinning.
//
// Availability is a configure-time gate (E2LSHOS_HAVE_LIBURING, probed
// from <linux/io_uring.h>; the implementation speaks the raw kernel
// syscall ABI, so the liburing userspace library is not required) plus a
// runtime probe — seccomp-filtered containers can refuse the syscalls
// even when the headers compile. When either is absent, Create/Open
// return Unimplemented and Available() is false.
#pragma once

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "storage/block_device.h"
#include "storage/queue_registry.h"

namespace e2lshos::storage {

class UringDevice : public BlockDevice {
 public:
  struct Options {
    uint64_t capacity = 0;       ///< File is sized to this on creation.
    uint32_t queue_capacity = 1024;  ///< Max submitted-but-unharvested reads.
    /// Submission ring slots (rounded up to a power of two). May be
    /// smaller than queue_capacity: SQEs recycle at submission, the CQ
    /// ring is sized to hold queue_capacity completions.
    uint32_t sq_entries = 256;
    /// SQEs accumulated before an io_uring_enter; 1 = syscall per read.
    /// PollCompletions always flushes, so a batch never goes stale.
    uint32_t submit_batch = 16;
    bool direct_io = false;  ///< O_DIRECT (probed-alignment extents).
    bool sqpoll = false;     ///< Kernel submission-queue polling thread.
    uint32_t sqpoll_idle_ms = 20;  ///< SQPOLL thread spin-down idle.
  };

  /// True when the backend is compiled in AND the kernel accepts
  /// io_uring_setup at runtime. Cached after the first call.
  static bool Available();

  /// Create (or truncate) `path` and open it for read/write.
  static Result<std::unique_ptr<UringDevice>> Create(const std::string& path,
                                                     const Options& options);

  /// Open an existing file without truncation. Capacity is taken from
  /// the file size; `options.capacity` is ignored.
  static Result<std::unique_ptr<UringDevice>> Open(const std::string& path,
                                                   const Options& options);

  ~UringDevice() override;

  Status SubmitRead(const IoRequest& req) override;
  size_t PollCompletions(IoCompletion* out, size_t max) override;
  /// Synchronous from the caller's view, but ring-submitted: the write
  /// goes out as an IORING_OP_WRITE SQE and the call drains the ring
  /// until it completes (EAGAIN/short writes resubmit, like reads). Read
  /// completions harvested while waiting are parked and replayed by the
  /// next PollCompletions, so a concurrent poller loses nothing.
  Status Write(uint64_t offset, const void* data, uint32_t length) override;
  /// One flush for the whole burst: every extent gets its own SQE, a
  /// single io_uring_enter pushes them, and the call returns when all
  /// have completed. Any extent's failure fails the batch (the rest
  /// still run to completion before returning).
  Status WriteBatch(const WriteOp* ops, size_t count) override;
  uint64_t capacity() const override { return capacity_; }
  uint32_t io_alignment() const override { return direct_io_ ? align_ : 1; }
  uint32_t outstanding() const override {
    return inflight_.load(std::memory_order_relaxed) + queues_.Outstanding();
  }
  std::string name() const override;
  DeviceStats stats() const override;
  void ResetStats() override;

  /// Pin caller-owned buffer regions with the kernel; subsequent reads
  /// whose destination lies inside a region go out as READ_FIXED. Call
  /// once, before I/O is in flight. The regions must stay valid for the
  /// device's lifetime.
  Status RegisterBuffers(
      const std::vector<std::pair<void*, size_t>>& regions) override;

  /// Native queues: each is a full UringDevice with its OWN io_uring
  /// ring (real hardware queue-pair semantics) over a dup of the shared
  /// fd. A queue registers its own fd and its own fixed buffers, so the
  /// per-shard submit/poll path shares no lock, no ring, and no kernel
  /// object with other queues. Inherits direct_io/sqpoll from the parent.
  Result<std::unique_ptr<BlockDevice>> CreateQueue(
      const QueueOptions& options) override;

  /// True when the ring runs with a kernel SQPOLL thread (the sqpoll
  /// option may be refused by the kernel and silently downgraded).
  bool sqpoll_active() const { return sqpoll_active_; }

  /// Reads submitted through a registered buffer so far (test/bench
  /// visibility into the fixed-buffer path).
  uint64_t fixed_buffer_reads() const {
    return fixed_buffer_reads_.load(std::memory_order_relaxed);
  }

 private:
  struct Ring;  ///< mmap'ed SQ/CQ state; defined in uring_device.cc.

  /// One in-flight request: submission timestamp for completion latency,
  /// progress cursor for short-read/short-write resubmission.
  struct Slot {
    uint64_t user_data = 0;
    uint64_t submit_ns = 0;
    uint64_t offset = 0;
    uint32_t length = 0;
    uint32_t done = 0;
    uint8_t* buf = nullptr;
    int fixed_index = -1;
    bool is_write = false;  ///< IORING_OP_WRITE; completion never emitted.
  };

  struct FixedRegion {
    uintptr_t start = 0;
    size_t length = 0;
    int index = -1;
  };

  UringDevice(std::string path, int fd, const Options& options);

  Status InitRing(const Options& options);
  /// Write one SQE for slot `slot_idx`'s remaining extent. mu_ held.
  Status EnqueueSqeLocked(uint32_t slot_idx);
  /// io_uring_enter for any batched SQEs. mu_ held.
  Status FlushLocked();
  /// Re-enqueue slots parked after EAGAIN / short reads. mu_ held.
  void ProcessRetriesLocked();
  /// Drain up to `max` CQEs into `out`; returns the count. mu_ held.
  size_t ProcessCqesLocked(IoCompletion* out, size_t max);
  int FindFixedBuffer(const void* buf, uint32_t length) const;

  std::string path_;
  int fd_;
  uint64_t capacity_;
  uint32_t queue_capacity_;
  uint32_t submit_batch_ = 16;
  bool direct_io_;
  uint32_t align_ = kSectorBytes;
  bool sqpoll_active_ = false;
  bool fixed_file_ = false;
  /// The caller's sqpoll request (vs. sqpoll_active_, what the kernel
  /// granted); native queues inherit the request and re-negotiate.
  bool sqpoll_requested_ = false;
  uint32_t sqpoll_idle_ms_ = 20;
  /// Set on queue devices: the device that created them (for registry
  /// removal at destruction).
  UringDevice* parent_ = nullptr;
  QueueRegistry<UringDevice> queues_;

  std::unique_ptr<Ring> ring_;
  std::atomic<uint32_t> inflight_{0};
  std::atomic<uint64_t> fixed_buffer_reads_{0};

  mutable std::mutex mu_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  std::deque<uint32_t> retry_;
  /// Read completions harvested while WriteBatch drains the shared CQ
  /// ring; replayed (FIFO) ahead of fresh CQEs by PollCompletions.
  std::deque<IoCompletion> parked_;
  /// Writes in flight; nonzero only while WriteBatch holds mu_.
  uint32_t writes_pending_ = 0;
  /// First failure among the current burst's writes.
  Status write_error_;
  std::vector<FixedRegion> fixed_regions_;  ///< Sorted by start address.
  DeviceStats stats_;
};

}  // namespace e2lshos::storage
