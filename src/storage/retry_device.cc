#include "storage/retry_device.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace e2lshos::storage {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Transient: worth another attempt. ResourceExhausted is backpressure
/// (the caller already knows to poll and resubmit), OutOfRange and
/// InvalidArgument are caller bugs that will fail identically forever.
bool Retryable(StatusCode code) {
  return code == StatusCode::kIoError || code == StatusCode::kInternal ||
         code == StatusCode::kUnavailable;
}

}  // namespace

/// Per-endpoint retry state; every member guarded by mu_.
class RetryDevice::Lane {
 public:
  Lane(const Options& options, uint64_t rng_seed)
      : options_(options), rng_(rng_seed) {}

  Status Submit(const IoRequest& req, BlockDevice* inner) {
    const uint64_t now = NowNs();
    uint64_t ticket = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      // A recycled user_data while the previous request is still
      // tracked would make completion matching ambiguous; run the
      // newcomer without retry protection instead.
      if (tracked_.count(req.user_data) == 0) {
        Track t;
        t.req = req;
        t.attempts = 1;
        t.first_ns = now;
        t.ticket = ++ticket_seq_;
        ticket = t.ticket;
        tracked_.emplace(req.user_data, t);
      }
    }
    const Status st = inner->SubmitRead(req);
    if (st.ok()) return st;
    std::lock_guard<std::mutex> lock(mu_);
    // The request never reached the device: take the tracking back out
    // (ticket-checked so a concurrent harvest of a recycled user_data is
    // never clobbered), then decide whether to absorb the error.
    if (ticket != 0) {
      auto it = tracked_.find(req.user_data);
      if (it != tracked_.end() && it->second.ticket == ticket) {
        Track t = it->second;
        tracked_.erase(it);
        if (Retryable(st.code()) && CanRetry(t, now)) {
          t.last_code = st.code();
          Defer(std::move(t), now);
          return Status::OK();  // accepted; will resubmit from Poll
        }
        if (Retryable(st.code())) ++counters_.exhausted;
      }
    }
    return st;
  }

  size_t Poll(IoCompletion* out, size_t max, BlockDevice* inner) {
    ResubmitDue(inner);
    const size_t n = inner->PollCompletions(out, max);
    const uint64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    size_t kept = 0;
    for (size_t i = 0; i < n; ++i) {
      IoCompletion c = out[i];
      auto it = tracked_.find(c.user_data);
      if (it != tracked_.end()) {
        Track t = it->second;
        tracked_.erase(it);
        if (c.code != StatusCode::kOk && Retryable(c.code) && CanRetry(t, now)) {
          t.last_code = c.code;
          Defer(std::move(t), now);
          continue;  // absorbed; the retry will complete it later
        }
        if (c.code != StatusCode::kOk && Retryable(c.code)) ++counters_.exhausted;
        // Report the whole span — backoffs included — so a retried read
        // looks like a slow read, not a fast one.
        c.latency_ns = std::max<uint64_t>(c.latency_ns, now - t.first_ns);
      }
      out[kept++] = c;
    }
    // Requests that died without reaching the device again.
    while (!ready_.empty() && kept < max) {
      out[kept++] = ready_.back();
      ready_.pop_back();
    }
    return kept;
  }

  /// Requests parked for a retry or a failed resubmit: outstanding from
  /// the caller's point of view.
  uint32_t outstanding() const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<uint32_t>(deferred_.size() + ready_.size());
  }

  Counters stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return counters_;
  }

  void ResetStats() {
    std::lock_guard<std::mutex> lock(mu_);
    counters_ = Counters{};
  }

 private:
  struct Track {
    IoRequest req;
    uint32_t attempts = 0;  ///< Submits that reached (or tried) the device.
    uint64_t first_ns = 0;
    uint64_t ticket = 0;
    StatusCode last_code = StatusCode::kIoError;
  };

  struct Deferred {
    Track track;
    uint64_t due_ns = 0;
  };

  /// Another attempt is allowed: attempts left, and a backoff'd resubmit
  /// could still land inside the per-request deadline.
  bool CanRetry(const Track& t, uint64_t now) const {
    if (t.attempts >= options_.max_attempts) return false;
    if (options_.deadline_usec == 0) return true;
    return now + BackoffNs(t.attempts, /*jittered=*/false) <
           t.first_ns + options_.deadline_usec * 1000;
  }

  uint64_t BackoffNs(uint32_t attempts_done, bool jittered) const {
    const uint32_t exp = attempts_done > 0 ? attempts_done - 1 : 0;
    double ns = static_cast<double>(options_.backoff_usec) * 1000.0 *
                static_cast<double>(uint64_t{1} << std::min(exp, 30u));
    if (jittered && options_.jitter > 0) {
      ns *= 1.0 + options_.jitter * (2.0 * rng_.NextDouble() - 1.0);
    }
    return static_cast<uint64_t>(std::max(ns, 0.0));
  }

  void Defer(Track&& t, uint64_t now) {
    Deferred d;
    d.due_ns = now + BackoffNs(t.attempts, /*jittered=*/true);
    d.track = std::move(t);
    deferred_.push_back(std::move(d));
  }

  void ResubmitDue(BlockDevice* inner) {
    const uint64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < deferred_.size();) {
      if (now < deferred_[i].due_ns) {
        ++i;
        continue;
      }
      Track t = deferred_[i].track;
      deferred_[i] = deferred_.back();
      deferred_.pop_back();
      ++t.attempts;
      ++counters_.retries;
      t.ticket = ++ticket_seq_;
      const bool collision = tracked_.count(t.req.user_data) != 0;
      if (!collision) tracked_.emplace(t.req.user_data, t);
      const Status st =
          collision ? Status::ResourceExhausted("tag busy")
                    : inner->SubmitRead(t.req);
      if (st.ok()) continue;
      if (!collision) tracked_.erase(t.req.user_data);
      if (st.code() == StatusCode::kResourceExhausted) {
        // Device queue full — backpressure, not a failed attempt. Put
        // the request back and try again next poll.
        --t.attempts;
        --counters_.retries;
        t.ticket = 0;
        deferred_.push_back({t, now});
        continue;
      }
      if (Retryable(st.code()) && CanRetry(t, now)) {
        t.last_code = st.code();
        Defer(std::move(t), now);
        continue;
      }
      if (Retryable(st.code())) ++counters_.exhausted;
      IoCompletion c;
      c.user_data = t.req.user_data;
      c.code = st.code();
      c.latency_ns = now - t.first_ns;
      ready_.push_back(c);
    }
  }

  const Options options_;
  mutable std::mutex mu_;
  mutable util::Rng rng_;
  uint64_t ticket_seq_ = 0;
  std::unordered_map<uint64_t, Track> tracked_;
  std::vector<Deferred> deferred_;
  std::vector<IoCompletion> ready_;
  Counters counters_;
};

/// One native queue: a private retry lane over one inner queue.
class RetryDevice::Queue : public BlockDevice {
 public:
  Queue(RetryDevice* parent, std::unique_ptr<BlockDevice> inner,
        uint64_t lane_seed)
      : parent_(parent),
        inner_(std::move(inner)),
        lane_(parent->options_, lane_seed) {
    parent_->lanes_.Add(&lane_);
  }

  ~Queue() override { parent_->lanes_.Remove(&lane_); }

  Status SubmitRead(const IoRequest& req) override {
    return lane_.Submit(req, inner_.get());
  }
  size_t PollCompletions(IoCompletion* out, size_t max) override {
    return lane_.Poll(out, max, inner_.get());
  }
  Status Write(uint64_t offset, const void* data, uint32_t length) override {
    return inner_->Write(offset, data, length);
  }
  uint64_t capacity() const override { return inner_->capacity(); }
  uint32_t io_alignment() const override { return inner_->io_alignment(); }
  uint32_t outstanding() const override {
    return inner_->outstanding() + lane_.outstanding();
  }
  std::string name() const override { return inner_->name() + " (retry)"; }
  DeviceStats stats() const override {
    DeviceStats s = inner_->stats();
    lane_.stats().AddTo(&s);
    return s;
  }
  void ResetStats() override {
    inner_->ResetStats();
    lane_.ResetStats();
  }
  Status RegisterBuffers(
      const std::vector<std::pair<void*, size_t>>& regions) override {
    return inner_->RegisterBuffers(regions);
  }

 private:
  RetryDevice* parent_;
  std::unique_ptr<BlockDevice> inner_;
  Lane lane_;
};

RetryDevice::RetryDevice(std::unique_ptr<BlockDevice> owned,
                         BlockDevice* inner, const Options& options)
    : owned_(std::move(owned)),
      inner_(inner),
      options_(options),
      lane_(new Lane(options, options.seed)) {
  lanes_.Add(lane_.get());
}

RetryDevice::RetryDevice(BlockDevice* inner, const Options& options)
    : RetryDevice(nullptr, inner, options) {}

Result<std::unique_ptr<RetryDevice>> RetryDevice::Create(
    std::unique_ptr<BlockDevice> inner, const Options& options) {
  if (inner == nullptr) {
    return Status::InvalidArgument("RetryDevice: null inner device");
  }
  if (options.max_attempts == 0) {
    return Status::InvalidArgument("RetryDevice: max_attempts must be >= 1");
  }
  BlockDevice* raw = inner.get();
  return std::unique_ptr<RetryDevice>(
      new RetryDevice(std::move(inner), raw, options));
}

RetryDevice::~RetryDevice() = default;

Status RetryDevice::SubmitRead(const IoRequest& req) {
  return lane_->Submit(req, inner_);
}

size_t RetryDevice::PollCompletions(IoCompletion* out, size_t max) {
  return lane_->Poll(out, max, inner_);
}

Status RetryDevice::Write(uint64_t offset, const void* data, uint32_t length) {
  return inner_->Write(offset, data, length);
}

uint32_t RetryDevice::outstanding() const {
  return inner_->outstanding() + lanes_.Outstanding();
}

DeviceStats RetryDevice::stats() const {
  DeviceStats s = inner_->stats();
  lanes_.Total().AddTo(&s);
  return s;
}

void RetryDevice::ResetStats() {
  inner_->ResetStats();
  lanes_.Reset();
}

Result<std::unique_ptr<BlockDevice>> RetryDevice::CreateQueue(
    const QueueOptions& options) {
  E2_ASSIGN_OR_RETURN(auto inner_queue, inner_->CreateQueue(options));
  // A distinct jitter stream per lane.
  const uint64_t lane_seed =
      options_.seed ^ (0xD1B54A32D192ED03ULL * ++queue_seq_);
  return std::unique_ptr<BlockDevice>(
      std::make_unique<Queue>(this, std::move(inner_queue), lane_seed));
}

uint64_t RetryDevice::retries() const { return lanes_.Total().retries; }
uint64_t RetryDevice::retries_exhausted() const {
  return lanes_.Total().exhausted;
}

}  // namespace e2lshos::storage
