#include "storage/faulty_device.h"

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

/// Stable per-offset hash; also seeds the scramble byte stream so the
/// garbage a corrupt offset returns is itself reproducible.
uint64_t CorruptHash(uint64_t seed, uint64_t offset) {
  uint64_t state = seed ^ (offset + 0x9E3779B97F4A7C15ULL);
  return util::SplitMix64(state);
}

}  // namespace

bool FaultyDevice::WouldCorrupt(uint64_t seed, uint64_t offset, double rate) {
  if (rate <= 0.0) return false;
  const double u =
      static_cast<double>(CorruptHash(seed, offset) >> 11) * 0x1.0p-53;
  return u < rate;
}

/// Per-endpoint injection state. One lane per driving endpoint (the
/// device-level path, or one per native queue); every member is guarded
/// by mu_ and nothing in a lane is touched by another lane.
class FaultyDevice::Lane {
 public:
  Lane(const Options& options, uint64_t rng_seed)
      : options_(options), rng_(rng_seed) {}

  /// Submit `req` to `inner` through this lane's injection plane.
  Status Submit(const IoRequest& req, BlockDevice* inner) {
    uint64_t ticket = 0;
    Status pre = BeforeSubmit(req, &ticket);
    if (!pre.ok()) return pre;
    Status st = inner->SubmitRead(req);
    if (!st.ok() && ticket != 0) Rollback(req.user_data, ticket);
    return st;
  }

  /// Harvest `inner` through this lane's injection plane.
  size_t Poll(IoCompletion* out, size_t max, BlockDevice* inner) {
    return Filter(out, inner->PollCompletions(out, max), max);
  }

  /// Draw the injection decision for `req`. Returns the injected submit
  /// failure, or OK with `*ticket` != 0 when a pending completion-side
  /// injection was recorded (the caller must Rollback on inner-submit
  /// failure).
  Status BeforeSubmit(const IoRequest& req, uint64_t* ticket) {
    *ticket = 0;
    std::lock_guard<std::mutex> lock(mu_);
    if (options_.submit_fail_rate > 0 &&
        rng_.NextDouble() < options_.submit_fail_rate) {
      ++counters_.submit_failures;
      return Status::IoError("injected submit failure");
    }
    Pending p;
    if (options_.completion_fail_rate > 0 &&
        rng_.NextDouble() < options_.completion_fail_rate) {
      p.kind = Pending::kFail;
    } else if (WouldCorrupt(options_.seed, req.offset, options_.corrupt_rate)) {
      p.kind = Pending::kCorrupt;
      p.buf = req.buf;
      p.length = req.length;
      p.offset = req.offset;
    } else if (options_.stall_rate > 0 && options_.stall_usec > 0 &&
               rng_.NextDouble() < options_.stall_rate) {
      p.kind = Pending::kStall;
      p.due_ns = NowNs() + options_.stall_usec * 1000;
    } else {
      return Status::OK();
    }
    // A user_data with an entry still pending means the tag is being
    // reused while the previous request is in flight; matching either
    // completion to either entry would be guesswork, so skip injecting
    // on the new request instead of corrupting the wrong buffer.
    if (pending_.count(req.user_data)) return Status::OK();
    p.ticket = ++ticket_seq_;
    *ticket = p.ticket;
    pending_.emplace(req.user_data, p);
    return Status::OK();
  }

  /// The inner device rejected the submit after BeforeSubmit recorded a
  /// pending injection: the request will never complete, so take the
  /// entry back out. The ticket guarantees we never erase an entry that
  /// a concurrent harvest already replaced for a recycled user_data.
  void Rollback(uint64_t user_data, uint64_t ticket) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = pending_.find(user_data);
    if (it != pending_.end() && it->second.ticket == ticket) {
      pending_.erase(it);
    }
  }

  /// Apply pending injections to `n` freshly harvested completions in
  /// `out`, hold stalled ones, release due held ones. Returns the new
  /// completion count (<= max). Must be called with completions that
  /// came from this lane's inner endpoint only.
  size_t Filter(IoCompletion* out, size_t n, size_t max) {
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t now = NowNs();
    size_t kept = 0;
    for (size_t i = 0; i < n; ++i) {
      IoCompletion c = out[i];
      auto it = pending_.find(c.user_data);
      if (it != pending_.end()) {
        const Pending p = it->second;
        // Erase before delivery: once the caller sees the completion it
        // may reuse the buffer and the user_data, and a stale entry
        // would fire on that unrelated successor.
        pending_.erase(it);
        switch (p.kind) {
          case Pending::kFail:
            c.code = StatusCode::kIoError;
            ++counters_.completion_failures;
            break;
          case Pending::kCorrupt:
            // Scramble at harvest, inside the lane lock: the inner
            // device published this completion, so its writes into the
            // buffer happen-before us, and the caller cannot observe
            // the completion (and recycle the buffer) until we return.
            if (c.code == StatusCode::kOk) {
              Scramble(p);
              ++counters_.corruptions;
            }
            break;
          case Pending::kStall:
            if (c.code == StatusCode::kOk && now < p.due_ns) {
              ++counters_.stalls;
              held_.push_back({c, p.due_ns, now});
              continue;  // delivered later, not this poll
            }
            break;
        }
      }
      out[kept++] = c;
    }
    // Release held completions that have served their stall.
    for (size_t i = 0; i < held_.size() && kept < max;) {
      if (now >= held_[i].due_ns) {
        IoCompletion c = held_[i].completion;
        c.latency_ns += now - held_[i].harvested_ns;
        out[kept++] = c;
        held_[i] = held_.back();
        held_.pop_back();
      } else {
        ++i;
      }
    }
    return kept;
  }

  /// Completions harvested from the inner device but still held for a
  /// stall — outstanding from the caller's point of view.
  uint32_t outstanding() const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<uint32_t>(held_.size());
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
  struct Pending {
    enum Kind : uint8_t { kFail, kCorrupt, kStall } kind = kFail;
    uint64_t ticket = 0;
    void* buf = nullptr;
    uint32_t length = 0;
    uint64_t offset = 0;
    uint64_t due_ns = 0;
  };

  struct Held {
    IoCompletion completion;
    uint64_t due_ns = 0;
    uint64_t harvested_ns = 0;
  };

  void Scramble(const Pending& p) {
    auto* bytes = static_cast<uint8_t*>(p.buf);
    uint64_t state = CorruptHash(options_.seed, p.offset);
    for (uint32_t b = 0; b < p.length; b += 7) {
      // `| 1` so every touched byte actually changes.
      bytes[b] ^= static_cast<uint8_t>(util::SplitMix64(state) | 1);
    }
  }

  const Options options_;
  mutable std::mutex mu_;
  util::Rng rng_;
  uint64_t ticket_seq_ = 0;
  std::unordered_map<uint64_t, Pending> pending_;
  std::vector<Held> held_;
  Counters counters_;
};

/// One native queue: a private injection lane over one inner queue.
/// Single-driver like every native queue; the lane lock still guards
/// against the parent reading counters concurrently.
class FaultyDevice::Queue : public BlockDevice {
 public:
  Queue(FaultyDevice* parent, std::unique_ptr<BlockDevice> inner,
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
  std::string name() const override { return inner_->name() + " (faulty)"; }
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
  FaultyDevice* parent_;
  std::unique_ptr<BlockDevice> inner_;
  Lane lane_;
};

FaultyDevice::FaultyDevice(std::unique_ptr<BlockDevice> owned,
                           BlockDevice* inner, const Options& options)
    : owned_(std::move(owned)),
      inner_(inner),
      options_(options),
      lane_(new Lane(options, options.seed)) {
  lanes_.Add(lane_.get());
}

FaultyDevice::FaultyDevice(BlockDevice* inner, const Options& options)
    : FaultyDevice(nullptr, inner, options) {}

Result<std::unique_ptr<FaultyDevice>> FaultyDevice::Create(
    std::unique_ptr<BlockDevice> inner, const Options& options) {
  if (inner == nullptr) {
    return Status::InvalidArgument("FaultyDevice: null inner device");
  }
  BlockDevice* raw = inner.get();
  return std::unique_ptr<FaultyDevice>(
      new FaultyDevice(std::move(inner), raw, options));
}

FaultyDevice::~FaultyDevice() = default;

Status FaultyDevice::SubmitRead(const IoRequest& req) {
  return lane_->Submit(req, inner_);
}

size_t FaultyDevice::PollCompletions(IoCompletion* out, size_t max) {
  return lane_->Poll(out, max, inner_);
}

Status FaultyDevice::Write(uint64_t offset, const void* data,
                           uint32_t length) {
  return inner_->Write(offset, data, length);
}

uint32_t FaultyDevice::outstanding() const {
  return inner_->outstanding() + lanes_.Outstanding();
}

DeviceStats FaultyDevice::stats() const {
  DeviceStats s = inner_->stats();
  lanes_.Total().AddTo(&s);
  return s;
}

void FaultyDevice::ResetStats() {
  inner_->ResetStats();
  lanes_.Reset();
}

Result<std::unique_ptr<BlockDevice>> FaultyDevice::CreateQueue(
    const QueueOptions& options) {
  E2_ASSIGN_OR_RETURN(auto inner_queue, inner_->CreateQueue(options));
  // Distinct RNG stream per lane for the transient faults; the
  // deterministic corrupt predicate uses options_.seed unchanged, so
  // lane assignment never changes *what* is corrupt.
  const uint64_t lane_seed =
      options_.seed ^ (0xA24BAED4963EE407ULL * ++queue_seq_);
  return std::unique_ptr<BlockDevice>(
      std::make_unique<Queue>(this, std::move(inner_queue), lane_seed));
}

uint64_t FaultyDevice::injected_submit_failures() const {
  return lanes_.Total().submit_failures;
}
uint64_t FaultyDevice::injected_completion_failures() const {
  return lanes_.Total().completion_failures;
}
uint64_t FaultyDevice::injected_corruptions() const {
  return lanes_.Total().corruptions;
}
uint64_t FaultyDevice::injected_stalls() const {
  return lanes_.Total().stalls;
}

}  // namespace e2lshos::storage
