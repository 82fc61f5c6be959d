// Fault-injection layer for robustness testing: fails a configurable
// fraction of reads (at submit or at completion), corrupts payloads, and
// injects latency spikes ("stalls"). Production engines must degrade
// gracefully — a failed bucket read costs candidates, never a hang or a
// crash — and the layers above (RetryDevice, checksum verification, the
// daemon's health breaker) are proven against this device.
//
// First-class URI layer: `fault=submit:P,complete:P,corrupt:P,stall:USEC`
// on any scheme (see storage/device_registry.h). Writes are never
// injected — index construction must stay reliable so every run starts
// from a known-good image.
//
// Injection model:
//   * submit / completion failures and stalls are drawn from a per-lane
//     RNG — transient, non-deterministic per request, exactly what a
//     retry policy is meant to absorb.
//   * corruption is a pure function of (seed, request offset): the same
//     offset is corrupt on every read, on every lane, in every shard.
//     This makes checksum accounting reproducible — a sharded engine and
//     a single engine over the same seed report identical corrupt_blocks
//     — and models bit-rot (bad media) rather than a transport glitch.
//   * a stalled completion is harvested from the inner device but held
//     in the lane until its due time, then delivered with the stall
//     added to its latency.
//
// Concurrency: all fault bookkeeping lives in per-lane state (the
// device-level path is one lane; every native queue gets its own), each
// behind its own mutex. Pending injections are keyed by user_data and
// erased under the lane lock *before* the completion is handed to the
// caller, and corrupt-path scrambling happens at harvest inside that
// same critical section — after the inner device has published the
// completion (so its writes into the buffer happen-before the scramble)
// and before the caller can observe the completion and reuse the buffer.
// Entries carry an insertion ticket so the submit-failure rollback can
// never erase a newer entry for a recycled user_data.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "storage/block_device.h"
#include "storage/queue_registry.h"

namespace e2lshos::storage {

class FaultyDevice : public BlockDevice {
 public:
  struct Options {
    double submit_fail_rate = 0.0;      ///< SubmitRead returns IoError.
    double completion_fail_rate = 0.0;  ///< Completion carries IoError.
    /// Probability a given *offset* is corrupt (deterministic in
    /// (seed, offset); every read of a corrupt offset is scrambled).
    double corrupt_rate = 0.0;
    double stall_rate = 0.0;   ///< Completion held for stall_usec.
    uint64_t stall_usec = 0;   ///< Latency spike added to stalled reads.
    uint64_t seed = 13;
  };

  /// Own the wrapped device (the URI-layer path).
  static Result<std::unique_ptr<FaultyDevice>> Create(
      std::unique_ptr<BlockDevice> inner, const Options& options);

  /// Borrow a caller-owned device (tests sharing one stack).
  FaultyDevice(BlockDevice* inner, const Options& options);

  ~FaultyDevice() override;

  Status SubmitRead(const IoRequest& req) override;
  size_t PollCompletions(IoCompletion* out, size_t max) override;
  Status Write(uint64_t offset, const void* data, uint32_t length) override;
  uint64_t capacity() const override { return inner_->capacity(); }
  uint32_t io_alignment() const override { return inner_->io_alignment(); }
  uint32_t outstanding() const override;
  std::string name() const override { return inner_->name() + " (faulty)"; }
  DeviceStats stats() const override;
  void ResetStats() override;
  Status RegisterBuffers(
      const std::vector<std::pair<void*, size_t>>& regions) override {
    return inner_->RegisterBuffers(regions);
  }

  /// One faulty queue per inner queue, each with a private injection
  /// lane.
  Result<std::unique_ptr<BlockDevice>> CreateQueue(
      const QueueOptions& options) override;

  /// The wrapped device (borrowed; owned by this object when Create()d).
  BlockDevice* inner() { return inner_; }

  /// Injection counters, aggregated across the device lane and every
  /// queue lane (including queues already destroyed). Monotonic until
  /// ResetStats.
  uint64_t injected_submit_failures() const;
  uint64_t injected_completion_failures() const;
  uint64_t injected_corruptions() const;
  uint64_t injected_stalls() const;

  /// The deterministic corruption predicate, exposed so tests can
  /// predict exactly which offsets a given (seed, rate) poisons.
  static bool WouldCorrupt(uint64_t seed, uint64_t offset, double rate);

 private:
  class Lane;   // per-endpoint injection state (faulty_device.cc)
  class Queue;  // Lane + one native inner queue

  FaultyDevice(std::unique_ptr<BlockDevice> owned, BlockDevice* inner,
               const Options& options);

  /// One lane's injection counters.
  struct Counters {
    uint64_t submit_failures = 0;
    uint64_t completion_failures = 0;
    uint64_t corruptions = 0;
    uint64_t stalls = 0;
    Counters& operator+=(const Counters& o) {
      submit_failures += o.submit_failures;
      completion_failures += o.completion_failures;
      corruptions += o.corruptions;
      stalls += o.stalls;
      return *this;
    }
    void AddTo(DeviceStats* s) const {
      s->faults_injected +=
          submit_failures + completion_failures + corruptions + stalls;
    }
  };

  std::unique_ptr<BlockDevice> owned_;  ///< Null when borrowing.
  BlockDevice* inner_;
  Options options_;
  /// Every lane's counters: the device lane and each queue's.
  QueueRegistry<Lane, Counters> lanes_;
  std::unique_ptr<Lane> lane_;  ///< Device-level path over inner_.
  std::atomic<uint64_t> queue_seq_{0};  ///< Seeds each queue lane.
};

}  // namespace e2lshos::storage
