// Bounded-retry layer over any BlockDevice: transient read errors —
// from flaky hardware or an injected fault plane (faulty_device.h) —
// become delayed successes instead of failed queries.
//
// Policy: up to `max_attempts` total attempts per read, exponential
// backoff with jitter between attempts, and an optional per-request
// deadline measured from the first submit. Only transient errors are
// retried (IoError / Internal / Unavailable); ResourceExhausted is
// backpressure and OutOfRange / InvalidArgument are caller bugs — all
// three pass through untouched.
//
// The layer is asynchronous and poll-driven, so engine threads never
// block in a backoff sleep:
//   * a transient *submit* error is absorbed — SubmitRead returns OK and
//     the request parks in the lane's deferred list with a due time;
//   * a transient *completion* error removes the completion from the
//     harvest and parks the request the same way;
//   * every PollCompletions first resubmits the deferred requests whose
//     backoff has elapsed, then harvests the inner device;
//   * a request out of attempts or past its deadline completes with the
//     last error (counted in DeviceStats::retries_exhausted).
// Each resubmit bumps DeviceStats::retries. A retried read that finally
// succeeds is indistinguishable from a slow one: same bytes, same OK
// completion, latency covering the whole span including backoff.
//
// First-class URI layer: `retry=N[,backoff:USEC][,deadline:USEC]` on any
// scheme, stacked outside `fault=` (see storage/device_registry.h).
// Native queues mirror the inner device's; each retry queue drives one
// inner queue through a private lane, preserving zero-shared-lock
// serving.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "storage/block_device.h"
#include "storage/queue_registry.h"

namespace e2lshos::storage {

class RetryDevice : public BlockDevice {
 public:
  struct Options {
    /// Total attempts per read, the first included. 1 = no retries.
    uint32_t max_attempts = 3;
    /// Backoff before the second attempt; doubles each further attempt.
    uint64_t backoff_usec = 200;
    /// Uniform jitter applied to each backoff: factor in [1-j, 1+j].
    double jitter = 0.5;
    /// Total per-request budget from first submit; a retry that cannot
    /// finish by then fails immediately. 0 = no deadline.
    uint64_t deadline_usec = 0;
    uint64_t seed = 17;  ///< Jitter RNG.
  };

  /// Own the wrapped device (the URI-layer path).
  static Result<std::unique_ptr<RetryDevice>> Create(
      std::unique_ptr<BlockDevice> inner, const Options& options);

  /// Borrow a caller-owned device (tests sharing one stack).
  RetryDevice(BlockDevice* inner, const Options& options);

  ~RetryDevice() override;

  Status SubmitRead(const IoRequest& req) override;
  size_t PollCompletions(IoCompletion* out, size_t max) override;
  Status Write(uint64_t offset, const void* data, uint32_t length) override;
  uint64_t capacity() const override { return inner_->capacity(); }
  uint32_t io_alignment() const override { return inner_->io_alignment(); }
  uint32_t outstanding() const override;
  std::string name() const override { return inner_->name() + " (retry)"; }
  DeviceStats stats() const override;
  void ResetStats() override;
  Status RegisterBuffers(
      const std::vector<std::pair<void*, size_t>>& regions) override {
    return inner_->RegisterBuffers(regions);
  }

  /// One retry queue per inner queue, each with a private lane.
  Result<std::unique_ptr<BlockDevice>> CreateQueue(
      const QueueOptions& options) override;

  /// The wrapped device (borrowed; owned by this object when Create()d).
  BlockDevice* inner() { return inner_; }

  /// Aggregate retry counters (device lane + queue lanes, live and
  /// destroyed). Also surfaced in DeviceStats.
  uint64_t retries() const;
  uint64_t retries_exhausted() const;

 private:
  class Lane;   // per-endpoint retry state (retry_device.cc)
  class Queue;  // Lane + one native inner queue

  /// One lane's counters (the retry layer's share of DeviceStats).
  struct Counters {
    uint64_t retries = 0;
    uint64_t exhausted = 0;
    Counters& operator+=(const Counters& o) {
      retries += o.retries;
      exhausted += o.exhausted;
      return *this;
    }
    void AddTo(DeviceStats* s) const {
      s->retries += retries;
      s->retries_exhausted += exhausted;
    }
  };

  RetryDevice(std::unique_ptr<BlockDevice> owned, BlockDevice* inner,
              const Options& options);

  std::unique_ptr<BlockDevice> owned_;  ///< Null when borrowing.
  BlockDevice* inner_;
  Options options_;
  /// Every lane's counters: the device lane and each queue's.
  QueueRegistry<Lane, Counters> lanes_;
  std::unique_ptr<Lane> lane_;  ///< Device-level path over inner_.
  std::atomic<uint64_t> queue_seq_{0};  ///< Seeds each queue lane.
};

}  // namespace e2lshos::storage
