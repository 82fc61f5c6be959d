// Transparent DRAM read cache over any BlockDevice.
//
// The paper's premise is a memory hierarchy with flash as the capacity
// tier; production traffic is Zipfian, so the hot fraction of table
// entries and bucket blocks should serve at DRAM speed while the tail
// stays on the device. CacheDevice is that layer:
//
//   * Sharded CLOCK over fixed-size cache blocks of
//     max(inner->io_alignment(), 512) bytes. Each shard owns a private
//     mutex, a block map, and a contiguous data arena; a read that hits
//     touches only the shard locks of the blocks it covers — no
//     cache-wide lock exists.
//   * Reads that miss fall through to the inner device, widened to cache
//     block boundaries so the fill populates whole blocks; the caller's
//     completion carries the original user_data and the inner latency.
//   * Writes are write-through: the inner device is updated first, then
//     any resident blocks are patched in place (no allocate-on-write, so
//     index construction does not flood the cache). A global write epoch
//     invalidates in-flight fills that raced the write.
//   * Native queues: each cache queue owns one inner queue plus a
//     private miss-tracking lane, preserving the zero-shared-lock
//     property of per-shard serving (hits contend only on cache-shard
//     locks, which are keyed by block address, not by queue).
//
// Transparency contract: with the cache in place, every read returns
// bit-identical data and the same status codes as without it (alignment
// violations are rejected up front exactly as the inner device would).
// hits/misses/evictions/bytes_cached surface through DeviceStats.
//
// Stats semantics: the parent's stats() covers its own lane, every
// queue (live or destroyed, storage/queue_registry.h), and the store's
// eviction/residency gauges; per-queue ResetStats is queue-local, while
// ResetStats on the parent resets its lane, every live queue, the
// destroyed queues' totals, the eviction counter, and the inner device —
// one full reset, never a double-count. Cache *contents* survive
// ResetStats.
#pragma once

#include <memory>
#include <mutex>

#include "storage/block_device.h"
#include "storage/queue_registry.h"

namespace e2lshos::storage {

class CacheDevice : public BlockDevice {
 public:
  struct Options {
    /// DRAM budget; rounded down to whole cache blocks. Must hold at
    /// least one block.
    uint64_t capacity_bytes = 0;
    /// Lock shards (clamped so every shard holds >= 1 block).
    uint32_t shards = 16;
    /// Completion-inbox bound of the device-level path (queues take
    /// theirs from QueueOptions::queue_capacity).
    uint32_t queue_capacity = 1024;
    /// Reads spanning more cache blocks than this bypass the cache
    /// entirely (forwarded verbatim, nothing inserted): bulk image
    /// copies must not wipe out the hot set.
    uint32_t max_cached_read_blocks = 16;
  };

  /// Own the wrapped device.
  static Result<std::unique_ptr<CacheDevice>> Create(
      std::unique_ptr<BlockDevice> inner, const Options& options);
  /// Borrow a caller-owned device (tests/benches sharing one stack).
  static Result<std::unique_ptr<CacheDevice>> Wrap(BlockDevice* inner,
                                                   const Options& options);

  ~CacheDevice() override;

  Status SubmitRead(const IoRequest& req) override;
  size_t PollCompletions(IoCompletion* out, size_t max) override;
  Status Write(uint64_t offset, const void* data, uint32_t length) override;
  uint64_t capacity() const override { return inner_->capacity(); }
  uint32_t io_alignment() const override { return inner_->io_alignment(); }
  uint32_t outstanding() const override;
  std::string name() const override;
  DeviceStats stats() const override;
  void ResetStats() override;

  /// One cache queue per inner queue, each with a private lane over the
  /// shared store.
  Result<std::unique_ptr<BlockDevice>> CreateQueue(
      const QueueOptions& options) override;

  /// The wrapped device (borrowed; owned by this object when Create()d).
  BlockDevice* inner() { return inner_; }
  /// Cache block size: max(inner io_alignment, 512).
  uint32_t cache_block_bytes() const;

 private:
  class Store;  // sharded-CLOCK block store (cache_device.cc)
  class Lane;   // hit/miss submit-poll path over one inner endpoint
  class Queue;  // Lane + one native inner queue

  CacheDevice(std::unique_ptr<BlockDevice> owned, BlockDevice* inner,
              const Options& options);

  std::unique_ptr<BlockDevice> owned_;  ///< Null when Wrap()ed.
  BlockDevice* inner_;
  Options options_;
  std::unique_ptr<Store> store_;
  /// Every lane's counters: the device lane and each queue's.
  QueueRegistry<Lane> lanes_;
  std::unique_ptr<Lane> lane_;  ///< Device-level path over inner_.
};

}  // namespace e2lshos::storage
