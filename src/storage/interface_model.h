// Storage access interface models (paper Table 3).
//
// Issuing an I/O consumes CPU time on the submitting core. The paper
// measures, per request:
//
//   io_uring (2.0)      1.0 us   -> 1.0 MIOPS/core max
//   SPDK (21.10)        350 ns   -> 2.9 MIOPS/core
//   XLFDD interface      50 ns   -> 20  MIOPS/core
//
// We reproduce the cost by busy-spinning the submitting core for the
// modeled duration inside SubmitRead (and a small poll cost per harvested
// completion). ChargedDevice wraps any BlockDevice with such a model, so
// the same device can be driven through different "interfaces" — exactly
// the experiment matrix of Figs. 11-13.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "storage/block_device.h"
#include "storage/queue_registry.h"

namespace e2lshos::storage {

/// \brief CPU-cost model of one storage access interface.
struct InterfaceSpec {
  std::string name;
  uint64_t submit_overhead_ns = 0;  ///< CPU time per request submission.
  uint64_t poll_overhead_ns = 0;    ///< CPU time per harvested completion.

  /// Max requests/second one core can issue (the paper's "Max IOPS/core").
  double MaxIopsPerCore() const {
    const uint64_t per_io = submit_overhead_ns + poll_overhead_ns;
    return per_io == 0 ? 0.0 : 1e9 / static_cast<double>(per_io);
  }
};

/// \brief Named interfaces from Table 3 (+ a heavyweight synchronous
/// path approximating page-cache/mmap access, Sec. 6.5).
enum class InterfaceKind { kIoUring, kSpdk, kXlfdd, kMmapSync };

InterfaceSpec GetInterfaceSpec(InterfaceKind kind);
std::vector<std::pair<InterfaceKind, std::string>> AllInterfaceKinds();

/// \brief Wraps a device, charging the interface's CPU cost per I/O.
///
/// Does not own the underlying device by default (the same physical
/// device can back multiple logical views); pass owned=true to take
/// ownership.
class ChargedDevice : public BlockDevice {
 public:
  ChargedDevice(BlockDevice* inner, InterfaceSpec spec)
      : inner_(inner), spec_(std::move(spec)) {}
  ChargedDevice(std::unique_ptr<BlockDevice> inner, InterfaceSpec spec)
      : inner_(inner.get()), owned_(std::move(inner)), spec_(std::move(spec)) {}
  ~ChargedDevice() override;

  Status SubmitRead(const IoRequest& req) override;
  size_t PollCompletions(IoCompletion* out, size_t max) override;
  Status Write(uint64_t offset, const void* data, uint32_t length) override {
    return inner_->Write(offset, data, length);
  }
  uint64_t capacity() const override { return inner_->capacity(); }
  uint32_t io_alignment() const override { return inner_->io_alignment(); }
  uint32_t outstanding() const override { return inner_->outstanding(); }
  std::string name() const override {
    return inner_->name() + " via " + spec_.name;
  }
  DeviceStats stats() const override { return inner_->stats(); }
  void ResetStats() override;

  Status RegisterBuffers(
      const std::vector<std::pair<void*, size_t>>& regions) override {
    return inner_->RegisterBuffers(regions);
  }

  /// Native queues pass through: each inner queue is wrapped in an owning
  /// ChargedDevice with the same spec, so every shard pays the per-core
  /// CPU charge on its own core. Its charges count in io_cpu_ns() here.
  Result<std::unique_ptr<BlockDevice>> CreateQueue(
      const QueueOptions& options) override;

  const InterfaceSpec& spec() const { return spec_; }
  BlockDevice* inner() { return inner_; }

  /// Total CPU time charged for I/O submission/harvest since last reset
  /// (the "I/O cost" bar of Fig. 12), this device's queues included.
  uint64_t io_cpu_ns() const { return charge_.stats() + queues_.Total(); }

 private:
  /// The charge one endpoint accumulated, as a queue-registry lane.
  /// Atomic: one charged view may be driven from several threads.
  struct Charge {
    std::atomic<uint64_t> ns{0};
    void Add(uint64_t n) { ns.fetch_add(n, std::memory_order_relaxed); }
    uint64_t stats() const { return ns.load(std::memory_order_relaxed); }
    uint32_t outstanding() const { return 0; }
    void ResetStats() { ns.store(0, std::memory_order_relaxed); }
  };

  BlockDevice* inner_;
  std::unique_ptr<BlockDevice> owned_;
  InterfaceSpec spec_;
  Charge charge_;
  QueueRegistry<Charge, uint64_t> queues_;
  ChargedDevice* parent_ = nullptr;  ///< Set on queues.
};

}  // namespace e2lshos::storage
