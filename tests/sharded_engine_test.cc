// Tests for ShardedQueryEngine: sharded execution over a shared device
// must return exactly the results of a single QueryEngine — same ids,
// same distances, in the same query order — for any shard count, and the
// merged BatchResult must aggregate stats and wall time correctly.
#include <gtest/gtest.h>

#include <cmath>

#include "core/builder.h"
#include "core/query_engine.h"
#include "core/sharded_engine.h"
#include "data/generators.h"
#include "storage/simulated_device.h"

namespace e2lshos::core {
namespace {

// One deterministic workload + index on a SimulatedDevice, shared by all
// tests (the build is the expensive part). The candidate cap S is set far
// above the database size so no query ever hits the draining cutoff —
// the per-query candidate set is then independent of I/O completion
// order and results are bit-reproducible across engine configurations.
struct Fixture {
  data::GeneratedData gen;
  lsh::E2lshParams params;
  std::unique_ptr<storage::SimulatedDevice> dev;
  std::unique_ptr<StorageIndex> index;
};

Fixture* GetFixture() {
  static Fixture* f = [] {
    auto* fx = new Fixture();
    data::GeneratorSpec spec;
    spec.kind = data::GeneratorKind::kClustered;
    spec.dim = 24;
    spec.num_clusters = 16;
    spec.cluster_std = 3.0 / std::sqrt(48.0);
    spec.center_spread = 10.0 * std::sqrt(6.0 / 24.0);
    spec.seed = 7;
    fx->gen = data::Generate("sharded", 3000, 30, spec);

    lsh::E2lshConfig cfg;
    cfg.rho = 0.25;
    cfg.s_factor = 1000.0;  // never drain: deterministic candidate sets
    cfg.x_max = fx->gen.base.XMax();
    auto params = lsh::ComputeParams(fx->gen.base.n(), fx->gen.base.dim(), cfg);
    EXPECT_TRUE(params.ok());
    fx->params = *params;

    storage::DeviceModel model{"fast-ssd", 16, 2000, 4096, 2ULL << 30};
    auto dev = storage::SimulatedDevice::Create(model);
    EXPECT_TRUE(dev.ok());
    fx->dev = std::move(dev).value();
    auto idx = IndexBuilder::Build(fx->gen.base, fx->params, fx->dev.get());
    EXPECT_TRUE(idx.ok());
    fx->index = std::move(idx).value();
    return fx;
  }();
  return f;
}

void ExpectBatchesEqual(const BatchResult& got, const BatchResult& want) {
  ASSERT_EQ(got.results.size(), want.results.size());
  for (size_t q = 0; q < want.results.size(); ++q) {
    ASSERT_EQ(got.results[q].size(), want.results[q].size()) << "query " << q;
    for (size_t i = 0; i < want.results[q].size(); ++i) {
      EXPECT_EQ(got.results[q][i].id, want.results[q][i].id)
          << "query " << q << " rank " << i;
      EXPECT_EQ(got.results[q][i].dist, want.results[q][i].dist)
          << "query " << q << " rank " << i;
    }
  }
}

TEST(ShardedQueryEngine, MatchesSingleEngineAcrossShardCountsAndK) {
  Fixture* f = GetFixture();
  for (const uint32_t k : {1u, 10u}) {
    QueryEngine single(f->index.get(), &f->gen.base);
    auto ref = single.SearchBatch(f->gen.queries, k);
    ASSERT_TRUE(ref.ok());

    for (const uint32_t shards : {1u, 2u, 4u, 7u}) {
      ShardOptions opts;
      opts.num_shards = shards;
      auto engine_or =
          ShardedQueryEngine::Create(f->index.get(), &f->gen.base, opts);
      ASSERT_TRUE(engine_or.ok()) << engine_or.status().message();
      ShardedQueryEngine& engine = **engine_or;
      ASSERT_EQ(engine.num_shards(), shards);
      auto got = engine.SearchBatch(f->gen.queries, k);
      ASSERT_TRUE(got.ok()) << "shards=" << shards << " k=" << k;
      ExpectBatchesEqual(*got, *ref);
    }
  }
}

TEST(ShardedQueryEngine, BatchSmallerThanShardCount) {
  Fixture* f = GetFixture();
  data::Dataset small("small", f->gen.queries.dim());
  for (uint64_t q = 0; q < 3; ++q) small.Append(f->gen.queries.Row(q));

  QueryEngine single(f->index.get(), &f->gen.base);
  auto ref = single.SearchBatch(small, 10);
  ASSERT_TRUE(ref.ok());

  ShardOptions opts;
  opts.num_shards = 7;
  auto engine_or =
      ShardedQueryEngine::Create(f->index.get(), &f->gen.base, opts);
  ASSERT_TRUE(engine_or.ok()) << engine_or.status().message();
  ShardedQueryEngine& engine = **engine_or;
  auto got = engine.SearchBatch(small, 10);
  ASSERT_TRUE(got.ok());
  ExpectBatchesEqual(*got, *ref);
}

TEST(ShardedQueryEngine, EmptyBatch) {
  Fixture* f = GetFixture();
  data::Dataset empty("empty", f->gen.queries.dim());
  ShardOptions opts;
  opts.num_shards = 4;
  auto engine_or =
      ShardedQueryEngine::Create(f->index.get(), &f->gen.base, opts);
  ASSERT_TRUE(engine_or.ok()) << engine_or.status().message();
  ShardedQueryEngine& engine = **engine_or;
  auto got = engine.SearchBatch(empty, 10);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->results.empty());
  EXPECT_TRUE(got->stats.empty());
  EXPECT_EQ(got->QueriesPerSecond(), 0.0);
  EXPECT_EQ(got->MeanIos(), 0.0);
}

// Forwards reads to the fixture device but cannot create queues.
class NoQueueDevice : public storage::BlockDevice {
 public:
  explicit NoQueueDevice(storage::BlockDevice* inner) : inner_(inner) {}
  Status SubmitRead(const storage::IoRequest& req) override {
    return inner_->SubmitRead(req);
  }
  size_t PollCompletions(storage::IoCompletion* out, size_t max) override {
    return inner_->PollCompletions(out, max);
  }
  Status Write(uint64_t offset, const void* data, uint32_t length) override {
    return inner_->Write(offset, data, length);
  }
  uint64_t capacity() const override { return inner_->capacity(); }
  uint32_t outstanding() const override { return inner_->outstanding(); }
  std::string name() const override { return "no-queue"; }
  storage::DeviceStats stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }
  Result<std::unique_ptr<storage::BlockDevice>> CreateQueue(
      const storage::QueueOptions&) override {
    return Status::ResourceExhausted("no queue pairs left");
  }

 private:
  storage::BlockDevice* inner_;
};

TEST(ShardedQueryEngine, CreateReturnsQueueCreationFailure) {
  Fixture* f = GetFixture();
  NoQueueDevice dev(f->dev.get());
  auto view = f->index->WithDevice(&dev);
  ShardOptions opts;
  opts.num_shards = 2;
  auto failed = ShardedQueryEngine::Create(view.get(), &f->gen.base, opts);
  EXPECT_EQ(failed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(failed.status().message(), "no queue pairs left");

  // One shard needs no queue: it runs straight on the device.
  opts.num_shards = 1;
  auto direct = ShardedQueryEngine::Create(view.get(), &f->gen.base, opts);
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE((*direct)->SearchBatch(f->gen.queries, 5).ok());
}

TEST(ShardedQueryEngine, RejectsBadArguments) {
  Fixture* f = GetFixture();
  auto engine_or = ShardedQueryEngine::Create(f->index.get(), &f->gen.base, {});
  ASSERT_TRUE(engine_or.ok()) << engine_or.status().message();
  ShardedQueryEngine& engine = **engine_or;
  EXPECT_EQ(engine.SearchBatch(f->gen.queries, 0).status().code(),
            StatusCode::kInvalidArgument);
  data::Dataset wrong_dim("wrong", f->gen.queries.dim() + 1);
  std::vector<float> row(wrong_dim.dim(), 0.0f);
  wrong_dim.Append(row.data());
  EXPECT_EQ(engine.SearchBatch(wrong_dim, 1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardedQueryEngine, DerivesPerShardBudgetsFromGlobalCaps) {
  Fixture* f = GetFixture();
  ShardOptions opts;
  opts.num_shards = 4;
  opts.total_contexts = 32;
  opts.total_inflight_ios = 256;
  auto engine_or =
      ShardedQueryEngine::Create(f->index.get(), &f->gen.base, opts);
  ASSERT_TRUE(engine_or.ok()) << engine_or.status().message();
  ShardedQueryEngine& engine = **engine_or;
  EXPECT_EQ(engine.shard_engine_options().num_contexts, 8u);
  EXPECT_EQ(engine.shard_engine_options().max_inflight_ios, 64u);

  // Budgets smaller than the shard count shed shards instead of
  // overshooting the global caps via a per-shard floor of one.
  opts.num_shards = 7;
  opts.total_contexts = 4;
  opts.total_inflight_ios = 4;
  auto tiny_or = ShardedQueryEngine::Create(f->index.get(), &f->gen.base, opts);
  ASSERT_TRUE(tiny_or.ok()) << tiny_or.status().message();
  ShardedQueryEngine& tiny = **tiny_or;
  EXPECT_EQ(tiny.num_shards(), 4u);
  EXPECT_EQ(tiny.shard_engine_options().num_contexts, 1u);
  EXPECT_EQ(tiny.shard_engine_options().max_inflight_ios, 1u);
}

TEST(ResolveShardCount, MatchesEngineResolution) {
  EXPECT_EQ(ResolveShardCount(3), 3u);
  EXPECT_EQ(ResolveShardCount(kMaxShards + 40), kMaxShards);
  const uint32_t auto_resolved = ResolveShardCount(0);
  EXPECT_GE(auto_resolved, 1u);
  EXPECT_LE(auto_resolved, kMaxShards);
}

TEST(PartitionBatch, ContiguousNearEqualRanges) {
  auto r = PartitionBatch(10, 4);
  ASSERT_EQ(r.size(), 4u);
  EXPECT_EQ(r[0].begin, 0u);
  EXPECT_EQ(r[0].size(), 3u);
  EXPECT_EQ(r[1].size(), 3u);
  EXPECT_EQ(r[2].size(), 2u);
  EXPECT_EQ(r[3].size(), 2u);
  EXPECT_EQ(r[3].end, 10u);
  for (size_t s = 1; s < r.size(); ++s) EXPECT_EQ(r[s].begin, r[s - 1].end);

  // Batch smaller than the shard count: trailing shards get nothing.
  r = PartitionBatch(3, 7);
  ASSERT_EQ(r.size(), 7u);
  for (size_t s = 0; s < 3; ++s) EXPECT_EQ(r[s].size(), 1u);
  for (size_t s = 3; s < 7; ++s) EXPECT_EQ(r[s].size(), 0u);

  // Empty batch.
  r = PartitionBatch(0, 4);
  for (const auto& range : r) EXPECT_EQ(range.size(), 0u);
}

TEST(MergeShardResults, WallTimeIsWholeBatchNotSumOfShards) {
  // Regression: under sharding the batch wall time must come from one
  // clock spanning all shards. Two shards that each ran ~in parallel for
  // 100 and 200 ns within a 250 ns window must merge to 250, not 300.
  std::vector<BatchResult> shards(2);
  shards[0].results.resize(2);
  shards[0].stats.resize(2);
  shards[0].wall_ns = 100;
  shards[0].compute_ns = 40;
  shards[0].results[0] = {{7, 1.0f}};
  shards[0].results[1] = {{8, 2.0f}};
  shards[1].results.resize(1);
  shards[1].stats.resize(1);
  shards[1].wall_ns = 200;
  shards[1].compute_ns = 60;
  shards[1].results[0] = {{9, 3.0f}};

  const std::vector<ShardRange> ranges = {{0, 2}, {2, 3}};
  const uint64_t sum_of_shards = shards[0].wall_ns + shards[1].wall_ns;
  BatchResult merged = MergeShardResults(std::move(shards), ranges, 250);

  EXPECT_EQ(merged.wall_ns, 250u);
  EXPECT_NE(merged.wall_ns, sum_of_shards);
  EXPECT_EQ(merged.compute_ns, 100u);
  ASSERT_EQ(merged.results.size(), 3u);
  EXPECT_EQ(merged.results[0][0].id, 7u);
  EXPECT_EQ(merged.results[1][0].id, 8u);
  EXPECT_EQ(merged.results[2][0].id, 9u);
}

TEST(ShardedQueryEngine, MergedStatsSatisfyInvariants) {
  Fixture* f = GetFixture();
  ShardOptions opts;
  opts.num_shards = 4;
  auto engine_or =
      ShardedQueryEngine::Create(f->index.get(), &f->gen.base, opts);
  ASSERT_TRUE(engine_or.ok()) << engine_or.status().message();
  ShardedQueryEngine& engine = **engine_or;
  auto batch = engine.SearchBatch(f->gen.queries, 10);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->stats.size(), f->gen.queries.n());

  uint64_t total_ios = 0;
  uint64_t total_radii = 0;
  for (size_t q = 0; q < batch->stats.size(); ++q) {
    const QueryStats& s = batch->stats[q];
    // Every I/O is either a table read or a bucket block read.
    EXPECT_EQ(s.ios, s.table_reads + s.bucket_block_reads) << "query " << q;
    EXPECT_GE(s.radii_searched, 1u) << "query " << q;
    EXPECT_GT(s.wall_ns, 0u) << "query " << q;
    total_ios += s.ios;
    total_radii += s.radii_searched;
  }
  const double n = static_cast<double>(batch->stats.size());
  EXPECT_DOUBLE_EQ(batch->MeanIos(), static_cast<double>(total_ios) / n);
  EXPECT_DOUBLE_EQ(batch->MeanRadii(), static_cast<double>(total_radii) / n);
  ASSERT_GT(batch->wall_ns, 0u);
  EXPECT_DOUBLE_EQ(batch->QueriesPerSecond(),
                   n * 1e9 / static_cast<double>(batch->wall_ns));
  EXPECT_GT(batch->compute_ns, 0u);
}

}  // namespace
}  // namespace e2lshos::core
