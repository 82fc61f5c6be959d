#include "storage/cache_device.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <deque>
#include <unordered_map>
#include <vector>

#include "util/aligned_buffer.h"

namespace e2lshos::storage {

namespace {

/// SplitMix64 finalizer: block ids are sequential, so shard selection
/// needs a real mix or neighboring blocks would pile into one shard.
inline uint64_t MixBlockId(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

// ---------------------------------------------------------------------------
// Store: the sharded-CLOCK block cache.
// ---------------------------------------------------------------------------

class CacheDevice::Store {
 public:
  Store(uint32_t block_bytes, uint64_t total_slots, uint32_t shards)
      : block_bytes_(block_bytes),
        shards_(std::min<uint64_t>(std::max(1u, shards), total_slots)) {
    const uint64_t per_shard = total_slots / shards_.size();
    for (auto& shard : shards_) {
      shard.ids.assign(per_shard, kFreeSlot);
      shard.ref.assign(per_shard, 0);
      shard.data.Reset(per_shard * block_bytes_, block_bytes_);
      shard.map.reserve(per_shard);
    }
  }

  uint32_t block_bytes() const { return block_bytes_; }
  uint64_t slots() const {
    return shards_.size() * shards_.front().ids.size();
  }
  uint64_t write_epoch() const {
    return write_epoch_.load(std::memory_order_acquire);
  }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  void ResetEvictions() { evictions_.store(0, std::memory_order_relaxed); }
  uint64_t bytes_cached() const {
    return resident_.load(std::memory_order_relaxed) *
           static_cast<uint64_t>(block_bytes_);
  }

  /// Copy [offset, offset+length) into `out` if every covered block is
  /// resident; on the first absent block returns false (bytes already
  /// copied are harmless — the miss path overwrites the whole extent).
  bool ReadIfCached(uint64_t offset, uint32_t length, void* out) {
    const uint64_t first = offset / block_bytes_;
    const uint64_t last = (offset + length - 1) / block_bytes_;
    for (uint64_t b = first; b <= last; ++b) {
      const uint64_t block_start = b * block_bytes_;
      const uint64_t lo = std::max(offset, block_start);
      const uint64_t hi = std::min<uint64_t>(offset + length,
                                             block_start + block_bytes_);
      Shard& shard = ShardOf(b);
      std::lock_guard<std::mutex> lock(shard.mu);
      const auto it = shard.map.find(b);
      if (it == shard.map.end()) return false;
      shard.ref[it->second] = 1;
      std::memcpy(static_cast<uint8_t*>(out) + (lo - offset),
                  shard.data.data() + it->second * block_bytes_ +
                      (lo - block_start),
                  hi - lo);
    }
    return true;
  }

  /// Insert the whole blocks of a completed fill. `epoch` is the write
  /// epoch sampled at submit: if any write landed since, the staged data
  /// may predate it, so the fill is dropped (the resident copy — patched
  /// by the write — is the source of truth; absent blocks simply miss
  /// again and re-read fresh bytes).
  void InsertBlocks(uint64_t offset, uint32_t length, const uint8_t* data,
                    uint64_t epoch) {
    const uint64_t first = offset / block_bytes_;
    const uint64_t count = length / block_bytes_;
    for (uint64_t i = 0; i < count; ++i) {
      const uint64_t b = first + i;
      Shard& shard = ShardOf(b);
      std::lock_guard<std::mutex> lock(shard.mu);
      if (write_epoch_.load(std::memory_order_acquire) != epoch) return;
      if (shard.map.count(b) != 0) continue;
      uint32_t slot;
      if (shard.used < shard.ids.size()) {
        slot = shard.used++;
        resident_.fetch_add(1, std::memory_order_relaxed);
      } else {
        // CLOCK: sweep until a slot with a clear reference bit.
        while (shard.ref[shard.hand] != 0) {
          shard.ref[shard.hand] = 0;
          shard.hand = (shard.hand + 1) % shard.ids.size();
        }
        slot = shard.hand;
        shard.hand = (shard.hand + 1) % shard.ids.size();
        shard.map.erase(shard.ids[slot]);
        evictions_.fetch_add(1, std::memory_order_relaxed);
      }
      shard.ids[slot] = b;
      shard.ref[slot] = 1;
      std::memcpy(shard.data.data() + slot * block_bytes_,
                  data + i * block_bytes_, block_bytes_);
      shard.map.emplace(b, slot);
    }
  }

  /// Write-through coherence: bump the epoch (killing in-flight fills
  /// that may carry pre-write bytes), then patch resident blocks.
  void ApplyWrite(uint64_t offset, const uint8_t* data, uint32_t length) {
    write_epoch_.fetch_add(1, std::memory_order_acq_rel);
    const uint64_t first = offset / block_bytes_;
    const uint64_t last = (offset + length - 1) / block_bytes_;
    for (uint64_t b = first; b <= last; ++b) {
      const uint64_t block_start = b * block_bytes_;
      const uint64_t lo = std::max(offset, block_start);
      const uint64_t hi = std::min<uint64_t>(offset + length,
                                             block_start + block_bytes_);
      Shard& shard = ShardOf(b);
      std::lock_guard<std::mutex> lock(shard.mu);
      const auto it = shard.map.find(b);
      if (it == shard.map.end()) continue;
      std::memcpy(shard.data.data() + it->second * block_bytes_ +
                      (lo - block_start),
                  data + (lo - offset), hi - lo);
    }
  }

 private:
  static constexpr uint64_t kFreeSlot = UINT64_MAX;

  struct Shard {
    std::mutex mu;
    std::unordered_map<uint64_t, uint32_t> map;  ///< block id -> slot.
    std::vector<uint64_t> ids;                   ///< slot -> block id.
    std::vector<uint8_t> ref;                    ///< CLOCK reference bits.
    util::AlignedBuffer data;                    ///< slots * block_bytes.
    uint32_t hand = 0;
    uint32_t used = 0;
  };

  Shard& ShardOf(uint64_t block_id) {
    return shards_[MixBlockId(block_id) % shards_.size()];
  }

  const uint32_t block_bytes_;
  std::deque<Shard> shards_;  ///< deque: Shard is immovable (mutex).
  std::atomic<uint64_t> write_epoch_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> resident_{0};
};

// ---------------------------------------------------------------------------
// Lane: the hit/miss submit-poll path over one inner endpoint. The
// device-level path runs one lane over the inner device; every native
// queue runs its own lane over a private inner queue, so lanes never
// share a lock — only the store's per-shard locks are common ground.
// ---------------------------------------------------------------------------

class CacheDevice::Lane {
 public:
  Lane(Store* store, BlockDevice* endpoint, uint64_t device_capacity,
       uint32_t io_alignment, uint32_t inbox_capacity,
       uint32_t max_cached_read_blocks)
      : store_(store),
        endpoint_(endpoint),
        capacity_(device_capacity),
        align_(io_alignment),
        inbox_capacity_(std::max(1u, inbox_capacity)),
        max_cached_bytes_(static_cast<uint64_t>(max_cached_read_blocks) *
                          store->block_bytes()) {}

  Status SubmitRead(const IoRequest& req) {
    if (req.buf == nullptr || req.length == 0) {
      return Status::InvalidArgument("null buffer or zero length");
    }
    if (!RangeInCapacity(req.offset, req.length, capacity_)) {
      return Status::OutOfRange("read beyond device capacity");
    }
    // Enforce the inner device's alignment contract on the hit path too:
    // a cached copy must not make a request succeed that the bare device
    // would reject.
    if (align_ > 1 &&
        (req.offset % align_ != 0 || req.length % align_ != 0)) {
      return Status::InvalidArgument(
          "read not aligned to the device's io_alignment");
    }
    const uint32_t bb = store_->block_bytes();
    std::lock_guard<std::mutex> lock(mu_);
    if (inbox_.size() + in_flight_ >= inbox_capacity_) {
      return Status::ResourceExhausted("cache queue full");
    }
    const uint64_t widened_off = req.offset / bb * bb;
    const uint64_t widened_end = (req.offset + req.length + bb - 1) / bb * bb;
    // Cacheable = small enough and the widened extent stays on-device
    // (a clamped tail could break the inner alignment contract).
    const bool cacheable = widened_end - widened_off <= max_cached_bytes_ &&
                           widened_end <= capacity_;
    if (cacheable && store_->ReadIfCached(req.offset, req.length, req.buf)) {
      IoCompletion comp;
      comp.user_data = req.user_data;
      comp.code = StatusCode::kOk;
      comp.latency_ns = 0;
      inbox_.push_back(comp);
      ++stats_.reads_submitted;
      ++stats_.reads_completed;
      stats_.bytes_read += req.length;
      ++stats_.cache_hits;
      stats_.read_latency.Add(0);
      return Status::OK();
    }
    const size_t si = AcquireSlot();
    Slot& slot = *slots_[si];
    slot.orig = req;
    slot.epoch = store_->write_epoch();
    slot.bypass = !cacheable;
    IoRequest inner;
    inner.user_data = si;
    if (cacheable) {
      slot.widened_off = widened_off;
      slot.widened_len = static_cast<uint32_t>(widened_end - widened_off);
      if (slot.stage.size() < slot.widened_len) {
        slot.stage.Reset(slot.widened_len, std::max(bb, kSectorBytes));
      }
      inner.offset = widened_off;
      inner.length = slot.widened_len;
      inner.buf = slot.stage.data();
    } else {
      inner.offset = req.offset;
      inner.length = req.length;
      inner.buf = req.buf;
    }
    const Status submitted = endpoint_->SubmitRead(inner);
    if (!submitted.ok()) {
      ReleaseSlot(si);
      return submitted;  // e.g. ResourceExhausted: caller polls and retries
    }
    ++in_flight_;
    ++stats_.reads_submitted;
    ++stats_.cache_misses;
    return Status::OK();
  }

  size_t Poll(IoCompletion* out, size_t max) {
    std::lock_guard<std::mutex> lock(mu_);
    size_t n = 0;
    while (n < max && !inbox_.empty()) {
      out[n++] = inbox_.front();
      inbox_.pop_front();
    }
    if (n >= max || in_flight_ == 0) return n;
    IoCompletion raw[kPollBatch];
    const size_t got =
        endpoint_->PollCompletions(raw, std::min(max - n, kPollBatch));
    for (size_t i = 0; i < got; ++i) {
      const size_t si = static_cast<size_t>(raw[i].user_data);
      Slot& slot = *slots_[si];
      IoCompletion comp = raw[i];
      comp.user_data = slot.orig.user_data;
      if (comp.code == StatusCode::kOk && !slot.bypass) {
        std::memcpy(slot.orig.buf,
                    slot.stage.data() + (slot.orig.offset - slot.widened_off),
                    slot.orig.length);
        store_->InsertBlocks(slot.widened_off, slot.widened_len,
                             slot.stage.data(), slot.epoch);
      }
      ++stats_.reads_completed;
      stats_.bytes_read += slot.orig.length;
      stats_.read_latency.Add(comp.latency_ns);
      ReleaseSlot(si);
      --in_flight_;
      out[n++] = comp;
    }
    return n;
  }

  void AddWriteBytes(uint64_t bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.bytes_written += bytes;
  }

  uint32_t outstanding() const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<uint32_t>(inbox_.size() + in_flight_);
  }

  DeviceStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

  void ResetStats() {
    std::lock_guard<std::mutex> lock(mu_);
    stats_ = DeviceStats{};
  }

 private:
  static constexpr size_t kPollBatch = 64;

  struct Slot {
    util::AlignedBuffer stage;
    IoRequest orig;
    uint64_t widened_off = 0;
    uint32_t widened_len = 0;
    uint64_t epoch = 0;
    bool bypass = false;
  };

  size_t AcquireSlot() {
    if (!free_slots_.empty()) {
      const size_t si = free_slots_.back();
      free_slots_.pop_back();
      return si;
    }
    slots_.push_back(std::make_unique<Slot>());
    return slots_.size() - 1;
  }
  void ReleaseSlot(size_t si) { free_slots_.push_back(si); }

  Store* store_;
  BlockDevice* endpoint_;
  const uint64_t capacity_;
  const uint32_t align_;
  const uint32_t inbox_capacity_;
  const uint64_t max_cached_bytes_;

  mutable std::mutex mu_;
  std::deque<IoCompletion> inbox_;  ///< Hit completions awaiting Poll.
  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<size_t> free_slots_;
  uint32_t in_flight_ = 0;  ///< Miss reads outstanding on the endpoint.
  DeviceStats stats_;
};

// ---------------------------------------------------------------------------
// Queue: one native cache queue = a private lane over one inner queue.
// ---------------------------------------------------------------------------

class CacheDevice::Queue : public BlockDevice {
 public:
  Queue(CacheDevice* parent, std::unique_ptr<BlockDevice> endpoint,
        uint32_t inbox_capacity)
      : parent_(parent),
        endpoint_(std::move(endpoint)),
        lane_(parent->store_.get(), endpoint_.get(), parent->capacity(),
              parent->io_alignment(), inbox_capacity,
              parent->options_.max_cached_read_blocks) {
    id_ = parent_->lanes_.Add(&lane_);
  }
  ~Queue() override { parent_->lanes_.Remove(&lane_); }

  Status SubmitRead(const IoRequest& req) override {
    return lane_.SubmitRead(req);
  }
  size_t PollCompletions(IoCompletion* out, size_t max) override {
    return lane_.Poll(out, max);
  }
  Status Write(uint64_t offset, const void* data, uint32_t length) override {
    return parent_->Write(offset, data, length);
  }
  uint64_t capacity() const override { return parent_->capacity(); }
  uint32_t io_alignment() const override { return parent_->io_alignment(); }
  uint32_t outstanding() const override { return lane_.outstanding(); }
  std::string name() const override {
    return parent_->name() + " nq" + std::to_string(id_);
  }
  DeviceStats stats() const override { return lane_.stats(); }
  void ResetStats() override { lane_.ResetStats(); }

 private:
  CacheDevice* parent_;
  std::unique_ptr<BlockDevice> endpoint_;
  Lane lane_;
  uint32_t id_ = 0;
};

// ---------------------------------------------------------------------------
// CacheDevice.
// ---------------------------------------------------------------------------

CacheDevice::CacheDevice(std::unique_ptr<BlockDevice> owned,
                         BlockDevice* inner, const Options& options)
    : owned_(std::move(owned)), inner_(inner), options_(options) {
  const uint32_t bb = std::max(inner_->io_alignment(), kSectorBytes);
  store_ = std::make_unique<Store>(bb, options_.capacity_bytes / bb,
                                   options_.shards);
  lane_ = std::make_unique<Lane>(store_.get(), inner_, inner_->capacity(),
                                 inner_->io_alignment(),
                                 std::max(1u, options_.queue_capacity),
                                 options_.max_cached_read_blocks);
  lanes_.Add(lane_.get());
}

CacheDevice::~CacheDevice() = default;

Result<std::unique_ptr<CacheDevice>> CacheDevice::Create(
    std::unique_ptr<BlockDevice> inner, const Options& options) {
  if (inner == nullptr) return Status::InvalidArgument("null inner device");
  BlockDevice* raw = inner.get();
  const uint32_t bb = std::max(raw->io_alignment(), kSectorBytes);
  if (options.capacity_bytes < bb) {
    return Status::InvalidArgument(
        "cache capacity " + std::to_string(options.capacity_bytes) +
        " smaller than one cache block (" + std::to_string(bb) + " bytes)");
  }
  if (options.max_cached_read_blocks == 0) {
    return Status::InvalidArgument("max_cached_read_blocks must be >= 1");
  }
  return std::unique_ptr<CacheDevice>(
      new CacheDevice(std::move(inner), raw, options));
}

Result<std::unique_ptr<CacheDevice>> CacheDevice::Wrap(
    BlockDevice* inner, const Options& options) {
  if (inner == nullptr) return Status::InvalidArgument("null inner device");
  const uint32_t bb = std::max(inner->io_alignment(), kSectorBytes);
  if (options.capacity_bytes < bb) {
    return Status::InvalidArgument(
        "cache capacity " + std::to_string(options.capacity_bytes) +
        " smaller than one cache block (" + std::to_string(bb) + " bytes)");
  }
  if (options.max_cached_read_blocks == 0) {
    return Status::InvalidArgument("max_cached_read_blocks must be >= 1");
  }
  return std::unique_ptr<CacheDevice>(
      new CacheDevice(nullptr, inner, options));
}

Status CacheDevice::SubmitRead(const IoRequest& req) {
  return lane_->SubmitRead(req);
}

size_t CacheDevice::PollCompletions(IoCompletion* out, size_t max) {
  return lane_->Poll(out, max);
}

Status CacheDevice::Write(uint64_t offset, const void* data, uint32_t length) {
  E2_RETURN_NOT_OK(inner_->Write(offset, data, length));
  store_->ApplyWrite(offset, static_cast<const uint8_t*>(data), length);
  lane_->AddWriteBytes(length);
  return Status::OK();
}

uint32_t CacheDevice::outstanding() const { return lanes_.Outstanding(); }

std::string CacheDevice::name() const {
  return "cache(" + std::to_string(options_.capacity_bytes) + "B)+" +
         inner_->name();
}

uint32_t CacheDevice::cache_block_bytes() const {
  return store_->block_bytes();
}

DeviceStats CacheDevice::stats() const {
  DeviceStats out = lanes_.Total();
  out.cache_evictions += store_->evictions();
  out.bytes_cached += store_->bytes_cached();
  // The lane counts cache-level reads (hits never reach the device); the
  // inner device's busy time is still the real hardware occupancy.
  out.busy_ns += inner_->stats().busy_ns;
  return out;
}

void CacheDevice::ResetStats() {
  lanes_.Reset();
  store_->ResetEvictions();
  inner_->ResetStats();
}

Result<std::unique_ptr<BlockDevice>> CacheDevice::CreateQueue(
    const QueueOptions& options) {
  E2_ASSIGN_OR_RETURN(auto endpoint, inner_->CreateQueue(options));
  return std::unique_ptr<BlockDevice>(std::make_unique<Queue>(
      this, std::move(endpoint), std::max(1u, options.queue_capacity)));
}

}  // namespace e2lshos::storage
