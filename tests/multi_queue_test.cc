// Multi-queue device tests (paper Sec. 6.5: one NVMe queue pair per
// serving thread). Every backend and layer creates native queues through
// BlockDevice::CreateQueue:
//
//   * Per-queue isolation, untouched user_data, many queues, per-queue
//     outstanding()/stats(), and concurrent engines on separate queues —
//     on every backend (mem:, sim:, file:, uring:) and on a
//     fault+retry+cache stack.
//   * Device-level counters cover every queue, live or destroyed: they
//     never go back when a queue is destroyed (only ResetStats lowers
//     them), and live queue names never collide.
//   * Parity: N-shard results over native queues are bit-identical to
//     the 1-shard direct engine across mem:/sim:cssd*4/file:/uring:.
//   * Concurrency hammer: one thread per native queue, each
//     submit-and-polling its own queue (the zero-shared-lock hot path;
//     run under TSan in CI).
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/builder.h"
#include "core/query_engine.h"
#include "core/sharded_engine.h"
#include "data/generators.h"
#include "storage/cache_device.h"
#include "storage/device_registry.h"
#include "storage/faulty_device.h"
#include "storage/file_device.h"
#include "storage/interface_model.h"
#include "storage/memory_device.h"
#include "storage/retry_device.h"
#include "storage/simulated_device.h"
#include "storage/striped_device.h"
#include "storage/uring_device.h"
#include "util/aligned_buffer.h"

namespace e2lshos::storage {
namespace {

constexpr uint64_t kCapacity = 1 << 20;

/// Poll `q` until it yields one completion (or give up after ~seconds).
size_t PollOne(BlockDevice* q, IoCompletion* comp) {
  for (int spin = 0; spin < 2000000; ++spin) {
    if (q->PollCompletions(comp, 1) == 1) return 1;
    if ((spin & 0x3FF) == 0x3FF) std::this_thread::yield();
  }
  return 0;
}

std::unique_ptr<BlockDevice> MakeQueue(BlockDevice* dev,
                                       const QueueOptions& options = {}) {
  auto queue = dev->CreateQueue(options);
  EXPECT_TRUE(queue.ok()) << dev->name() << ": " << queue.status().ToString();
  return queue.ok() ? std::move(queue).value() : nullptr;
}

// ---------------------------------------------------------------------------
// Every backend, plus a layered stack, opened through its device URI.
// ---------------------------------------------------------------------------

struct Backend {
  std::string uri;
  std::unique_ptr<BlockDevice> dev;
  std::string path;  ///< Backing file to remove afterwards, if any.
  ~Backend() {
    dev.reset();
    if (!path.empty()) std::remove(path.c_str());
  }
};

/// mem:, sim:, file:, uring: (where the kernel allows it), a sim: stripe
/// behind an interface charge, and a fault+retry+cache stack whose
/// completion faults are all absorbed by the retry layer. Every sector
/// of the first 64 KiB holds its sector index.
std::vector<std::unique_ptr<Backend>> AllBackends() {
  const std::string tmp = ::testing::TempDir();
  std::vector<std::pair<std::string, std::string>> specs = {
      {"mem:", ""},
      {"sim:cssd", ""},
      {"sim:essd*2?iface=io_uring", ""},
      {"file:" + tmp + "/e2_mq_backend_file.bin", tmp + "/e2_mq_backend_file.bin"},
      {"mem:?fault=complete:0.3,seed:5&retry=20,backoff:1&cache=64k", ""},
  };
  if (UringDevice::Available()) {
    specs.push_back({"uring:" + tmp + "/e2_mq_backend_uring.bin",
                     tmp + "/e2_mq_backend_uring.bin"});
  }
  std::vector<std::unique_ptr<Backend>> out;
  for (const auto& [uri, path] : specs) {
    auto b = std::make_unique<Backend>();
    b->uri = uri;
    b->path = path;
    DeviceUriOpenOptions opt;
    opt.create = true;
    opt.capacity = kCapacity;
    auto dev = OpenDeviceUri(uri, opt);
    EXPECT_TRUE(dev.ok()) << uri << ": " << dev.status().ToString();
    if (!dev.ok()) continue;
    b->dev = std::move(dev).value();
    std::vector<uint8_t> sector(kSectorBytes);
    for (uint64_t s = 0; s < 128; ++s) {
      std::memset(sector.data(), static_cast<int>(s), sector.size());
      EXPECT_TRUE(b->dev->Write(s * kSectorBytes, sector.data(), kSectorBytes)
                      .ok());
    }
    out.push_back(std::move(b));
  }
  return out;
}

/// Read sector `s` through `q` and check the completion and the bytes.
void ReadSector(BlockDevice* q, uint64_t s, uint64_t user_data,
                const std::string& what) {
  util::AlignedBuffer buf(kSectorBytes, kSectorBytes);
  ASSERT_TRUE(q->SubmitRead({s * kSectorBytes, kSectorBytes, buf.data(),
                             user_data})
                  .ok())
      << what;
  IoCompletion comp;
  ASSERT_EQ(PollOne(q, &comp), 1u) << what;
  EXPECT_EQ(comp.user_data, user_data) << what;
  EXPECT_EQ(comp.code, StatusCode::kOk) << what;
  EXPECT_EQ(buf.data()[0], static_cast<uint8_t>(s)) << what;
}

TEST(NativeQueues, CompletionsStayOnSubmittingQueue) {
  for (const auto& b : AllBackends()) {
    auto q0 = MakeQueue(b->dev.get());
    auto q1 = MakeQueue(b->dev.get());
    ASSERT_NE(q0, nullptr);
    ASSERT_NE(q1, nullptr);
    util::AlignedBuffer b0(kSectorBytes, kSectorBytes);
    util::AlignedBuffer b1(kSectorBytes, kSectorBytes);
    ASSERT_TRUE(q0->SubmitRead({0, kSectorBytes, b0.data(), 100}).ok());
    ASSERT_TRUE(q1->SubmitRead({kSectorBytes, kSectorBytes, b1.data(), 200}).ok());

    // q0 polls first and must get only its own completion.
    IoCompletion comp;
    ASSERT_EQ(PollOne(q0.get(), &comp), 1u) << b->uri;
    EXPECT_EQ(comp.user_data, 100u) << b->uri;
    EXPECT_EQ(q0->PollCompletions(&comp, 1), 0u) << b->uri;
    ASSERT_EQ(PollOne(q1.get(), &comp), 1u) << b->uri;
    EXPECT_EQ(comp.user_data, 200u) << b->uri;
    EXPECT_EQ(b0.data()[0], 0u) << b->uri;
    EXPECT_EQ(b1.data()[0], 1u) << b->uri;
  }
}

TEST(NativeQueues, UserDataRoundTripsUntouched) {
  // No bits of user_data are reserved: tags with the top byte set come
  // back exactly as submitted.
  for (const auto& b : AllBackends()) {
    auto q = MakeQueue(b->dev.get());
    ASSERT_NE(q, nullptr);
    for (const uint64_t tag : {1ULL << 60, ~0ULL - 1, 0xFF00000000000007ULL}) {
      ReadSector(q.get(), 3, tag, b->uri);
    }
  }
}

TEST(NativeQueues, ManyQueuesManyReads) {
  constexpr int kQueues = 8;
  constexpr int kReadsPerQueue = 40;
  for (const auto& b : AllBackends()) {
    std::vector<std::unique_ptr<BlockDevice>> queues;
    for (int i = 0; i < kQueues; ++i) {
      queues.push_back(MakeQueue(b->dev.get(), {kReadsPerQueue, 2}));
      ASSERT_NE(queues.back(), nullptr);
    }
    // One destination per read: reads in flight together must not share
    // a buffer.
    std::vector<util::AlignedBuffer> bufs(kQueues);
    for (auto& buf : bufs) buf.Reset(kReadsPerQueue * kSectorBytes, kSectorBytes);
    for (int r = 0; r < kReadsPerQueue; ++r) {
      for (int i = 0; i < kQueues; ++i) {
        ASSERT_TRUE(queues[i]
                        ->SubmitRead({static_cast<uint64_t>(i) * kSectorBytes,
                                      kSectorBytes,
                                      bufs[i].data() + r * kSectorBytes,
                                      static_cast<uint64_t>(i * 1000 + r)})
                        .ok())
            << b->uri;
      }
    }
    IoCompletion comps[16];
    for (int i = 0; i < kQueues; ++i) {
      int received = 0;
      for (int spin = 0; spin < 2000000 && received < kReadsPerQueue; ++spin) {
        const size_t n = queues[i]->PollCompletions(comps, 16);
        for (size_t j = 0; j < n; ++j) {
          EXPECT_EQ(comps[j].user_data / 1000, static_cast<uint64_t>(i))
              << b->uri;
        }
        received += static_cast<int>(n);
        if (n == 0) std::this_thread::yield();
      }
      EXPECT_EQ(received, kReadsPerQueue) << b->uri << " queue " << i;
    }
  }
}

TEST(NativeQueues, PerQueueOutstandingAndStats) {
  // A queue reports only what IT submitted and has not harvested, not the
  // device's global depth: one shard's backpressure must never stall on
  // another shard's in-flight I/O.
  for (const auto& b : AllBackends()) {
    auto q0 = MakeQueue(b->dev.get());
    auto q1 = MakeQueue(b->dev.get());
    ASSERT_NE(q0, nullptr);
    ASSERT_NE(q1, nullptr);
    std::vector<util::AlignedBuffer> bufs(4);
    for (auto& buf : bufs) buf.Reset(kSectorBytes, kSectorBytes);
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(q0->SubmitRead({0, kSectorBytes, bufs[i].data(), 10u + i}).ok());
    }
    ASSERT_TRUE(q1->SubmitRead({kSectorBytes, kSectorBytes, bufs[3].data(), 99}).ok());
    EXPECT_EQ(q0->outstanding(), 3u) << b->uri;
    EXPECT_EQ(q1->outstanding(), 1u) << b->uri;
    EXPECT_EQ(q0->stats().reads_submitted, 3u) << b->uri;
    EXPECT_EQ(q1->stats().reads_submitted, 1u) << b->uri;

    IoCompletion comp;
    for (int i = 0; i < 3; ++i) ASSERT_EQ(PollOne(q0.get(), &comp), 1u) << b->uri;
    EXPECT_EQ(q0->outstanding(), 0u) << b->uri;
    EXPECT_EQ(q1->outstanding(), 1u) << b->uri;  // q1 has not harvested
    EXPECT_EQ(q0->stats().reads_completed, 3u) << b->uri;

    ASSERT_EQ(PollOne(q1.get(), &comp), 1u) << b->uri;
    EXPECT_EQ(comp.user_data, 99u) << b->uri;
    EXPECT_EQ(q1->outstanding(), 0u) << b->uri;
    EXPECT_EQ(q1->stats().reads_completed, 1u) << b->uri;

    // ResetStats is per-queue too: q0's wipe must not touch q1.
    q0->ResetStats();
    EXPECT_EQ(q0->stats().reads_submitted, 0u) << b->uri;
    EXPECT_EQ(q1->stats().reads_submitted, 1u) << b->uri;
  }
}

TEST(NativeQueues, DeviceStatsSurviveQueueDestruction) {
  // A queue's traffic stays in its device's counters after the queue is
  // destroyed: only ResetStats lowers them (windowed `after - before`
  // deltas would underflow otherwise).
  for (const auto& b : AllBackends()) {
    BlockDevice* dev = b->dev.get();
    auto keep = MakeQueue(dev);
    auto doomed = MakeQueue(dev);
    ASSERT_NE(keep, nullptr);
    ASSERT_NE(doomed, nullptr);
    for (uint64_t i = 0; i < 40; ++i) {
      ReadSector(doomed.get(), i % 64, i, b->uri);
      ReadSector(keep.get(), (i + 7) % 64, i, b->uri);
      ReadSector(dev, (i + 13) % 64, i, b->uri);
    }
    const DeviceStats before = dev->stats();
    EXPECT_GE(before.reads_completed, 120u) << b->uri;
    doomed.reset();
    const DeviceStats after = dev->stats();
    EXPECT_EQ(after.reads_submitted, before.reads_submitted) << b->uri;
    EXPECT_EQ(after.reads_completed, before.reads_completed) << b->uri;
    EXPECT_EQ(after.bytes_read, before.bytes_read) << b->uri;
    EXPECT_EQ(after.busy_ns, before.busy_ns) << b->uri;
    EXPECT_EQ(after.cache_hits, before.cache_hits) << b->uri;
    EXPECT_EQ(after.cache_misses, before.cache_misses) << b->uri;
    EXPECT_EQ(after.faults_injected, before.faults_injected) << b->uri;
    EXPECT_EQ(after.retries, before.retries) << b->uri;
    EXPECT_EQ(after.retries_exhausted, before.retries_exhausted) << b->uri;
    EXPECT_EQ(after.read_latency.count(), before.read_latency.count()) << b->uri;

    dev->ResetStats();
    EXPECT_EQ(dev->stats().reads_completed, 0u) << b->uri;
    EXPECT_EQ(dev->stats().retries, 0u) << b->uri;
  }
}

TEST(NativeQueues, FaultRetryCacheStackSurvivesQueueDestruction) {
  // Each layer of a fault+retry+cache stack counts its own share of a
  // queue's traffic, and none of them loses it when the queue goes.
  auto mem = MemoryDevice::Create(kCapacity);
  ASSERT_TRUE(mem.ok());
  std::vector<uint8_t> sector(kSectorBytes);
  for (uint64_t s = 0; s < 32; ++s) {
    std::memset(sector.data(), static_cast<int>(s), sector.size());
    ASSERT_TRUE((*mem)->Write(s * kSectorBytes, sector.data(), kSectorBytes).ok());
  }
  FaultyDevice::Options fopt;
  fopt.completion_fail_rate = 0.3;
  fopt.seed = 5;
  FaultyDevice faulty(mem->get(), fopt);
  RetryDevice::Options ropt;
  ropt.max_attempts = 20;
  ropt.backoff_usec = 1;
  RetryDevice retry(&faulty, ropt);
  CacheDevice::Options copt;
  copt.capacity_bytes = 64 << 10;
  auto cache = CacheDevice::Wrap(&retry, copt);
  ASSERT_TRUE(cache.ok());
  const std::vector<BlockDevice*> layers = {cache->get(), &retry, &faulty,
                                            mem->get()};

  auto q = MakeQueue(cache->get());
  ASSERT_NE(q, nullptr);
  for (uint64_t i = 0; i < 64; ++i) ReadSector(q.get(), i % 32, i, "stack");
  std::vector<DeviceStats> before;
  for (BlockDevice* layer : layers) before.push_back(layer->stats());
  q.reset();
  for (size_t l = 0; l < layers.size(); ++l) {
    const DeviceStats after = layers[l]->stats();
    const std::string what = layers[l]->name();
    EXPECT_EQ(after.reads_submitted, before[l].reads_submitted) << what;
    EXPECT_EQ(after.reads_completed, before[l].reads_completed) << what;
    EXPECT_EQ(after.bytes_read, before[l].bytes_read) << what;
    EXPECT_EQ(after.cache_hits, before[l].cache_hits) << what;
    EXPECT_EQ(after.cache_misses, before[l].cache_misses) << what;
    EXPECT_EQ(after.faults_injected, before[l].faults_injected) << what;
    EXPECT_EQ(after.retries, before[l].retries) << what;
    EXPECT_EQ(after.read_latency.count(), before[l].read_latency.count())
        << what;
  }
  // Every layer really counted something: 32 misses then 32 hits, and
  // each injected completion fault was retried once.
  EXPECT_EQ(before[0].cache_misses, 32u);
  EXPECT_EQ(before[0].cache_hits, 32u);
  EXPECT_GT(before[2].faults_injected, 0u);
  EXPECT_EQ(before[1].retries, before[2].faults_injected);
  EXPECT_EQ(before[1].retries_exhausted, 0u);
  EXPECT_EQ(faulty.injected_completion_failures(), before[2].faults_injected);
  EXPECT_EQ(retry.retries(), before[1].retries);
}

TEST(NativeQueues, LiveQueueNamesAreDistinct) {
  // Destroying one queue and creating another must never hand out the
  // name of a queue that is still live.
  for (const auto& b : AllBackends()) {
    BlockDevice* dev = b->dev.get();
    auto first = MakeQueue(dev);
    auto second = MakeQueue(dev);
    ASSERT_NE(first, nullptr);
    ASSERT_NE(second, nullptr);
    first.reset();
    auto third = MakeQueue(dev);
    ASSERT_NE(third, nullptr);
    const std::set<std::string> names = {dev->name(), second->name(),
                                         third->name()};
    EXPECT_EQ(names.size(), 3u)
        << b->uri << ": " << second->name() << " / " << third->name();
  }
}

TEST(NativeQueues, DeviceStatsAggregateQueueTraffic) {
  auto dev = MemoryDevice::Create(kCapacity);
  ASSERT_TRUE(dev.ok());
  std::vector<uint8_t> data(512, 1);
  ASSERT_TRUE(dev->get()->Write(0, data.data(), data.size()).ok());

  auto q0 = MakeQueue(dev->get());
  auto q1 = MakeQueue(dev->get());
  util::AlignedBuffer buf(512);
  IoCompletion comp;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(q0->SubmitRead({0, 512, buf.data(), 1}).ok());
    ASSERT_EQ(q0->PollCompletions(&comp, 1), 1u);
  }
  ASSERT_TRUE(q1->SubmitRead({0, 512, buf.data(), 2}).ok());
  ASSERT_EQ(q1->PollCompletions(&comp, 1), 1u);

  // Per-queue stats are private; the device folds all queues in.
  EXPECT_EQ(q0->stats().reads_completed, 3u);
  EXPECT_EQ(q1->stats().reads_completed, 1u);
  EXPECT_EQ(dev->get()->stats().reads_completed, 4u);
  EXPECT_EQ(dev->get()->stats().bytes_read, 4u * 512u);

  dev->get()->ResetStats();
  EXPECT_EQ(q0->stats().reads_completed, 0u);
  EXPECT_EQ(dev->get()->stats().reads_completed, 0u);
}

TEST(NativeQueues, ChargedQueuesChargeAndCountInTheParent) {
  auto dev = MemoryDevice::Create(kCapacity);
  ASSERT_TRUE(dev.ok());
  const InterfaceSpec spec = GetInterfaceSpec(InterfaceKind::kXlfdd);
  ChargedDevice charged(dev->get(), spec);
  auto q = MakeQueue(&charged);
  ASSERT_NE(q, nullptr);
  util::AlignedBuffer buf(512);
  ASSERT_TRUE(dev->get()->Write(0, buf.data(), 512).ok());
  ASSERT_TRUE(q->SubmitRead({0, 512, buf.data(), 7}).ok());
  IoCompletion comp;
  ASSERT_EQ(q->PollCompletions(&comp, 1), 1u);
  EXPECT_EQ(comp.user_data, 7u);

  // The queue's charge is the parent's I/O cost, also once it is gone.
  EXPECT_EQ(charged.io_cpu_ns(), spec.submit_overhead_ns);
  q.reset();
  EXPECT_EQ(charged.io_cpu_ns(), spec.submit_overhead_ns);
  charged.ResetStats();
  EXPECT_EQ(charged.io_cpu_ns(), 0u);
}

TEST(NativeQueues, StripedDeviceComposesChildQueues) {
  std::vector<std::unique_ptr<BlockDevice>> children;
  for (int i = 0; i < 4; ++i) {
    auto child = MemoryDevice::Create(kCapacity);
    ASSERT_TRUE(child.ok());
    children.push_back(std::move(child).value());
  }
  auto striped = StripedDevice::Create(std::move(children));
  ASSERT_TRUE(striped.ok());

  std::vector<uint8_t> sector(kSectorBytes);
  for (uint64_t s = 0; s < 8; ++s) {
    std::memset(sector.data(), static_cast<int>('A' + s), sector.size());
    ASSERT_TRUE(
        (*striped)->Write(s * kSectorBytes, sector.data(), sector.size()).ok());
  }

  auto queue = MakeQueue(striped->get());
  ASSERT_NE(queue, nullptr);
  // Reads across all stripes flow through the one queue and land with
  // the right bytes (the queue translates through the same stripe map).
  util::AlignedBuffer buf(kSectorBytes);
  IoCompletion comp;
  for (uint64_t s = 0; s < 8; ++s) {
    ASSERT_TRUE(
        queue->SubmitRead({s * kSectorBytes, kSectorBytes, buf.data(), s}).ok());
    ASSERT_EQ(queue->PollCompletions(&comp, 1), 1u);
    EXPECT_EQ(comp.user_data, s);
    EXPECT_EQ(buf.data()[0], static_cast<uint8_t>('A' + s));
  }
  EXPECT_EQ(queue->stats().reads_completed, 8u);
  EXPECT_EQ((*striped)->stats().reads_completed, 8u);
}

TEST(NativeQueues, CacheParentResetDoesNotDesyncLiveQueues) {
  // A cache parent's ResetStats must be one full reset — lane, live
  // queues, inner (striped) device — with no double-reset of shared
  // children and exact re-aggregation afterwards.
  std::vector<std::unique_ptr<BlockDevice>> children;
  for (int i = 0; i < 2; ++i) {
    auto child = MemoryDevice::Create(kCapacity);
    ASSERT_TRUE(child.ok());
    children.push_back(std::move(child).value());
  }
  auto striped = StripedDevice::Create(std::move(children));
  ASSERT_TRUE(striped.ok());
  std::vector<uint8_t> sector(kSectorBytes, 0x42);
  for (uint64_t s = 0; s < 4; ++s) {
    ASSERT_TRUE(
        (*striped)->Write(s * kSectorBytes, sector.data(), sector.size()).ok());
  }

  CacheDevice::Options copt;
  copt.capacity_bytes = 8 * kSectorBytes;
  auto cache = CacheDevice::Create(std::move(striped).value(), copt);
  ASSERT_TRUE(cache.ok());
  auto q0 = (*cache)->CreateQueue({});
  ASSERT_TRUE(q0.ok());

  util::AlignedBuffer buf(kSectorBytes);
  IoCompletion comp;
  auto read_via = [&](BlockDevice* ep, uint64_t off) {
    ASSERT_TRUE(ep->SubmitRead({off, kSectorBytes, buf.data(), off}).ok());
    ASSERT_EQ(PollOne(ep, &comp), 1u);
  };
  read_via(q0->get(), 0);  // miss through the queue
  read_via(q0->get(), 0);  // hit through the queue
  EXPECT_EQ((*cache)->stats().cache_misses, 1u);
  EXPECT_EQ((*cache)->stats().cache_hits, 1u);

  (*cache)->ResetStats();
  const DeviceStats after = (*cache)->stats();
  EXPECT_EQ(after.cache_hits, 0u);
  EXPECT_EQ(after.cache_misses, 0u);
  EXPECT_EQ(after.reads_completed, 0u);
  EXPECT_EQ((*cache)->inner()->stats().reads_completed, 0u);

  // Re-aggregation is exact: one hit + one miss, each counted once, and
  // only the miss reaches the striped children.
  read_via(q0->get(), 0);                  // hit (contents survive reset)
  read_via(q0->get(), 2 * kSectorBytes);   // miss
  EXPECT_EQ((*cache)->stats().cache_hits, 1u);
  EXPECT_EQ((*cache)->stats().cache_misses, 1u);
  EXPECT_EQ((*cache)->stats().reads_completed, 2u);
  EXPECT_EQ((*cache)->inner()->stats().reads_completed, 1u);
}

// ---------------------------------------------------------------------------
// Engines: shards on native queues must answer exactly like one engine
// on the device itself. s_factor is high enough that the candidate cap
// never binds, so results are deterministic and must be bit-identical
// regardless of queue plumbing.
// ---------------------------------------------------------------------------

struct ParityFixture {
  data::GeneratedData gen;
  lsh::E2lshParams params;
};

ParityFixture MakeParityFixture() {
  data::GeneratorSpec spec;
  spec.kind = data::GeneratorKind::kClustered;
  spec.dim = 24;
  spec.num_clusters = 16;
  spec.cluster_std = 3.0 / std::sqrt(48.0);
  spec.center_spread = 10.0 * std::sqrt(6.0 / 24.0);
  spec.seed = 11;
  auto gen = data::Generate("parity", 2000, 24, spec);

  lsh::E2lshConfig cfg;
  cfg.rho = 0.25;
  cfg.s_factor = 1000.0;  // cap never binds -> deterministic results
  cfg.x_max = gen.base.XMax();
  auto params = lsh::ComputeParams(gen.base.n(), gen.base.dim(), cfg);
  EXPECT_TRUE(params.ok());
  return {std::move(gen), std::move(params).value()};
}

void ExpectBatchesIdentical(const core::BatchResult& a,
                            const core::BatchResult& b, const std::string& what) {
  ASSERT_EQ(a.results.size(), b.results.size()) << what;
  for (size_t q = 0; q < a.results.size(); ++q) {
    ASSERT_EQ(a.results[q].size(), b.results[q].size())
        << what << " query " << q;
    for (size_t i = 0; i < a.results[q].size(); ++i) {
      EXPECT_EQ(a.results[q][i].id, b.results[q][i].id)
          << what << " query " << q << " rank " << i;
      EXPECT_EQ(a.results[q][i].dist, b.results[q][i].dist)
          << what << " query " << q << " rank " << i;
    }
  }
}

TEST(NativeQueues, ConcurrentEnginesMatchSingleEngine) {
  // Two query engines on separate native queues over one simulated SSD,
  // running concurrently from two threads: results must equal the
  // single-engine reference on the device itself.
  ParityFixture fx = MakeParityFixture();
  DeviceModel model{"fast-ssd", 16, 2000, 4096, 256ULL << 20};
  auto dev = SimulatedDevice::Create(model);
  ASSERT_TRUE(dev.ok());
  auto idx = core::IndexBuilder::Build(fx.gen.base, fx.params, dev->get());
  ASSERT_TRUE(idx.ok());

  core::QueryEngine ref_engine(idx->get(), &fx.gen.base);
  auto ref = ref_engine.SearchBatch(fx.gen.queries, 3);
  ASSERT_TRUE(ref.ok());

  auto q0 = MakeQueue(dev->get());
  auto q1 = MakeQueue(dev->get());
  auto view0 = (*idx)->WithDevice(q0.get());
  auto view1 = (*idx)->WithDevice(q1.get());
  Result<core::BatchResult> r0(Status::Internal("unset"));
  Result<core::BatchResult> r1(Status::Internal("unset"));
  std::thread t0([&] {
    core::QueryEngine e(view0.get(), &fx.gen.base);
    r0 = e.SearchBatch(fx.gen.queries, 3);
  });
  std::thread t1([&] {
    core::QueryEngine e(view1.get(), &fx.gen.base);
    r1 = e.SearchBatch(fx.gen.queries, 3);
  });
  t0.join();
  t1.join();
  ASSERT_TRUE(r0.ok());
  ASSERT_TRUE(r1.ok());
  ExpectBatchesIdentical(*r0, *ref, "engine on q0");
  ExpectBatchesIdentical(*r1, *ref, "engine on q1");
}

/// N-shard engines on native queues vs the 1-shard direct engine (the
/// oracle: one QueryEngine straight on the device, no queue at all).
void RunParity(BlockDevice* dev, const ParityFixture& fx, const char* what) {
  auto idx = core::IndexBuilder::Build(fx.gen.base, fx.params, dev);
  ASSERT_TRUE(idx.ok()) << what << ": " << idx.status().message();

  auto run = [&](uint32_t shards) -> Result<core::BatchResult> {
    core::ShardOptions opts;
    opts.num_shards = shards;
    opts.total_contexts = 8 * shards;
    opts.total_inflight_ios = 64 * shards;
    E2_ASSIGN_OR_RETURN(auto engine, core::ShardedQueryEngine::Create(
                                         idx->get(), &fx.gen.base, opts));
    EXPECT_EQ(engine->num_shards(), shards) << what;
    return engine->SearchBatch(fx.gen.queries, 5);
  };
  auto direct = run(1);
  ASSERT_TRUE(direct.ok()) << what << ": " << direct.status().ToString();
  for (uint32_t shards : {2u, 4u}) {
    auto native = run(shards);
    ASSERT_TRUE(native.ok()) << what << ": " << native.status().ToString();
    ExpectBatchesIdentical(*native, *direct,
                           std::string(what) + " shards=" +
                               std::to_string(shards));
  }
}

TEST(MultiQueueParity, MemoryDevice) {
  ParityFixture fx = MakeParityFixture();
  auto dev = MemoryDevice::Create(256 << 20);
  ASSERT_TRUE(dev.ok());
  RunParity(dev->get(), fx, "mem:");
}

TEST(MultiQueueParity, StripedSimulatedCssd) {
  ParityFixture fx = MakeParityFixture();
  // Fast calibration (not Table 2) so the suite stays quick; the stripe
  // geometry and queue plumbing are what's under test.
  DeviceModel model{"cssd-fast", 16, 2000, 4096, 256ULL << 20};
  std::vector<std::unique_ptr<BlockDevice>> children;
  for (int i = 0; i < 4; ++i) {
    auto child = SimulatedDevice::Create(model);
    ASSERT_TRUE(child.ok());
    children.push_back(std::move(child).value());
  }
  auto striped = StripedDevice::Create(std::move(children));
  ASSERT_TRUE(striped.ok());
  RunParity(striped->get(), fx, "sim:cssd*4");
}

TEST(MultiQueueParity, FileDevice) {
  ParityFixture fx = MakeParityFixture();
  const std::string path = ::testing::TempDir() + "/e2_mq_parity_file.bin";
  FileDevice::Options opt;
  opt.capacity = 256 << 20;
  auto dev = FileDevice::Create(path, opt);
  ASSERT_TRUE(dev.ok());
  RunParity(dev->get(), fx, "file:");
  dev->reset();
  std::remove(path.c_str());
}

TEST(MultiQueueParity, UringDevice) {
  if (!UringDevice::Available()) {
    GTEST_SKIP() << "io_uring unavailable on this host";
  }
  ParityFixture fx = MakeParityFixture();
  const std::string path = ::testing::TempDir() + "/e2_mq_parity_uring.bin";
  UringDevice::Options opt;
  opt.capacity = 256 << 20;
  auto dev = UringDevice::Create(path, opt);
  ASSERT_TRUE(dev.ok());
  RunParity(dev->get(), fx, "uring:");
  dev->reset();
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Concurrency hammer: N threads, each owning one native queue, submitting
// and polling with zero cross-thread coordination — the multi-queue hot
// path is lock-free across shards. TSan verifies.
// ---------------------------------------------------------------------------

void HammerDevice(BlockDevice* dev, uint32_t num_queues, int reads_per_queue) {
  // Stamp each sector with its index so every read is verifiable.
  std::vector<uint8_t> sector(kSectorBytes);
  const uint64_t sectors = dev->capacity() / kSectorBytes;
  for (uint64_t s = 0; s < sectors; ++s) {
    std::memset(sector.data(), static_cast<int>(s & 0xFF), sector.size());
    ASSERT_TRUE(dev->Write(s * kSectorBytes, sector.data(), sector.size()).ok());
  }

  std::vector<std::unique_ptr<BlockDevice>> queues;
  for (uint32_t t = 0; t < num_queues; ++t) {
    queues.push_back(MakeQueue(dev));
    ASSERT_NE(queues.back(), nullptr);
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(num_queues);
  for (uint32_t t = 0; t < num_queues; ++t) {
    threads.emplace_back([&, t] {
      BlockDevice* q = queues[t].get();
      util::AlignedBuffer buf(kSectorBytes, kSectorBytes);
      IoCompletion comp;
      for (int r = 0; r < reads_per_queue; ++r) {
        const uint64_t s = (t * 131 + r * 17) % sectors;
        if (!q->SubmitRead({s * kSectorBytes, kSectorBytes, buf.data(),
                            s})
                 .ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        // PollOne yields while polling: a tight mutex-grabbing spin from
        // every hammer thread can starve the backend's I/O threads on an
        // oversubscribed CI host (ctest -j), turning slow into stuck.
        if (PollOne(q, &comp) != 1 || comp.user_data != s ||
            comp.code != StatusCode::kOk ||
            buf.data()[0] != static_cast<uint8_t>(s & 0xFF)) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(dev->stats().reads_completed,
            static_cast<uint64_t>(num_queues) * reads_per_queue);
}

TEST(MultiQueueHammer, MemoryDevice) {
  auto dev = MemoryDevice::Create(kCapacity, /*queue_capacity=*/8192);
  ASSERT_TRUE(dev.ok());
  HammerDevice(dev->get(), 4, 500);
}

TEST(MultiQueueHammer, SimulatedDevice) {
  DeviceModel model{"hammer-ssd", 16, 1000, 8192, kCapacity};
  auto dev = SimulatedDevice::Create(model);
  ASSERT_TRUE(dev.ok());
  HammerDevice(dev->get(), 4, 200);
}

TEST(MultiQueueHammer, FileDevice) {
  const std::string path = ::testing::TempDir() + "/e2_mq_hammer_file.bin";
  FileDevice::Options opt;
  opt.capacity = kCapacity;
  auto dev = FileDevice::Create(path, opt);
  ASSERT_TRUE(dev.ok());
  HammerDevice(dev->get(), 4, 200);
  dev->reset();
  std::remove(path.c_str());
}

TEST(MultiQueueHammer, UringDevice) {
  if (!UringDevice::Available()) {
    GTEST_SKIP() << "io_uring unavailable on this host";
  }
  const std::string path = ::testing::TempDir() + "/e2_mq_hammer_uring.bin";
  UringDevice::Options opt;
  opt.capacity = kCapacity;
  auto dev = UringDevice::Create(path, opt);
  ASSERT_TRUE(dev.ok());
  HammerDevice(dev->get(), 4, 200);
  dev->reset();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace e2lshos::storage
