// Reproduces Figure 16: query throughput with multithreading (1..32
// threads) for SRS, E2LSHoS on cSSD x 4, and E2LSHoS on XLFDD x 12.
//
// E2LSHoS runs on the library's ShardedQueryEngine: one engine shard per
// thread, each on its own NVMe-style queue pair over the shared drives,
// each paying its own per-core interface submission cost (ChargedDevice).
// The query set is replicated once per shard so every shard processes the
// full set — the same per-thread workload the paper measures.
//
// Host caveat: the reproduction machine exposes a single core, so
// measured thread scaling flattens immediately (all shards time-share
// one core). We therefore report BOTH the measured numbers and the
// cost-model projection qps(T) = min(T * qps_1core, IOPS_total / N_IO),
// which is the shape the paper measures on a 32-core box: linear scaling
// until the storage IOPS ceiling, which only E2LSHoS-on-cSSD hits.
#include "common.h"

#include <thread>

#include "core/sharded_engine.h"
#include "util/clock.h"

using namespace e2lshos;

int main(int argc, char** argv) {
  const auto args = bench::Args::Parse(argc, argv);
  auto json = args.OpenJson();
  const std::string name = args.dataset.empty() ? "SIFT" : args.dataset;
  auto spec = data::GetDatasetSpec(name);
  if (!spec.ok()) return 1;
  auto w = bench::MakeWorkload(*spec, args.EffectiveN(*spec),
                               args.queries ? args.queries : 128, 1);
  if (!w.ok()) return 1;

  const std::vector<uint32_t> threads = {1, 2, 4, 8, 16, 32};

  // --- Single-thread baselines.
  auto srs = baselines::Srs::Build(w->gen.base, {});
  if (!srs.ok()) return 1;
  const auto srs_batch = (*srs)->SearchBatch(w->gen.queries, 1);
  const double srs_qps1 = srs_batch.QueriesPerSecond();

  struct OsSetup {
    bench::StorageStack stack;
    std::unique_ptr<core::StorageIndex> index;
    std::unique_ptr<core::StorageIndex> view;  ///< index on stack.charged
    double qps1 = 0;
    double n_io = 0;
    double iops_total = 0;
  };
  // One sharded run: QPS plus the per-shard read counts from the
  // per-queue device counters — the balance evidence behind the
  // one-queue-pair-per-thread claim.
  struct ShardedRun {
    double qps = 0;
    uint64_t shard_reads_min = 0;
    uint64_t shard_reads_max = 0;
    uint64_t shard_reads_total = 0;
  };
  // Shard the batch across `t` engines over the setup's shared drives;
  // per-shard queue pairs come from the engine API, and the charged view
  // makes each queue pay the interface cost on its shard's core.
  auto sharded_run = [&](OsSetup& s, uint32_t t) -> ShardedRun {
    ShardedRun run;
    core::ShardOptions sopts;
    sopts.num_shards = t;
    // Per-shard budgets stay at the paper's per-thread configuration
    // (32 contexts / 256 deep): total queue depth grows with cores.
    sopts.total_contexts = 32 * t;
    sopts.total_inflight_ios = 256 * t;
    auto engine_or =
        core::ShardedQueryEngine::Create(s.view.get(), &w->gen.base, sopts);
    if (!engine_or.ok()) return run;
    core::ShardedQueryEngine& engine = **engine_or;
    // The 1-shard engine reads the shared device directly: start its
    // per-shard counters from zero like a fresh queue's.
    s.stack.device()->ResetStats();

    // Replicate the query set per shard: every shard processes the full
    // set, matching the per-thread workload of the paper's measurement.
    data::Dataset replicated("rep", w->gen.queries.dim());
    replicated.Reserve(w->gen.queries.n() * t);
    for (uint32_t rep = 0; rep < t; ++rep) {
      for (uint64_t q = 0; q < w->gen.queries.n(); ++q) {
        replicated.Append(w->gen.queries.Row(q));
      }
    }
    auto batch = engine.SearchBatch(replicated, 1);
    run.qps = batch.ok() ? batch->QueriesPerSecond() : 0.0;
    for (uint32_t shard = 0; shard < engine.num_shards(); ++shard) {
      const uint64_t reads =
          engine.shard_device(shard)->stats().reads_completed;
      run.shard_reads_min =
          shard == 0 ? reads : std::min(run.shard_reads_min, reads);
      run.shard_reads_max = std::max(run.shard_reads_max, reads);
      run.shard_reads_total += reads;
    }
    return run;
  };
  auto make_os = [&](storage::DeviceKind kind, uint32_t count,
                     storage::InterfaceKind iface) -> Result<OsSetup> {
    OsSetup s;
    E2_ASSIGN_OR_RETURN(s.stack, bench::MakeStack(kind, count, iface));
    // Build on the raw stripe set (construction is not charged), serve
    // through the charged view.
    E2_ASSIGN_OR_RETURN(s.index, core::IndexBuilder::Build(
                                     w->gen.base, w->params, s.stack.raw.get()));
    s.view = s.index->WithDevice(s.stack.device());
    core::ShardOptions one;
    one.num_shards = 1;
    one.total_contexts = 64;
    one.total_inflight_ios = 512;
    E2_ASSIGN_OR_RETURN(auto engine, core::ShardedQueryEngine::Create(
                                         s.view.get(), &w->gen.base, one));
    E2_ASSIGN_OR_RETURN(auto batch, engine->SearchBatch(w->gen.queries, 1));
    s.qps1 = batch.QueriesPerSecond();
    s.n_io = batch.MeanIos();
    s.iops_total = storage::GetDeviceModel(kind).ExpectedIops(128) * count;
    return s;
  };
  auto cssd = make_os(storage::DeviceKind::kCssd, 4,
                      storage::InterfaceKind::kIoUring);
  auto xlfdd = make_os(storage::DeviceKind::kXlfdd, 12,
                       storage::InterfaceKind::kXlfdd);
  if (!cssd.ok() || !xlfdd.ok()) return 1;

  // --- Measured multithreaded runs (threads share this host's core(s)).
  auto measure_threads = [&](uint32_t t, auto run_one) -> double {
    std::vector<std::thread> workers;
    const uint64_t t0 = util::NowNs();
    for (uint32_t i = 0; i < t; ++i) workers.emplace_back(run_one, i);
    for (auto& th : workers) th.join();
    const double secs = static_cast<double>(util::NowNs() - t0) / 1e9;
    return static_cast<double>(w->gen.queries.n()) * t / secs;
  };

  bench::PrintHeader(
      "Figure 16: query speed (QPS) with multithreading (" + name + ")",
      {"threads", "SRS meas", "SRS model", "E2LSHoS cSSDx4 meas",
       "cSSDx4 model", "E2LSHoS XLFDDx12 meas", "XLFDDx12 model"});

  const uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  for (const uint32_t t : threads) {
    // Measured SRS: each thread runs the full query set through the
    // shared index (Srs::Search is const and stateless across calls).
    const double srs_meas = measure_threads(
        t, [&](uint32_t) { (*srs)->SearchBatch(w->gen.queries, 1); });
    // Measured E2LSHoS: t engine shards via ShardedQueryEngine.
    const ShardedRun cssd_run = sharded_run(*cssd, t);
    const ShardedRun xlfdd_run = sharded_run(*xlfdd, t);
    const double cssd_meas = cssd_run.qps;
    const double xlfdd_meas = xlfdd_run.qps;

    // Model: linear in threads until the storage IOPS ceiling.
    const double srs_model = srs_qps1 * t;
    const double cssd_model =
        std::min(cssd->qps1 * t, cssd->iops_total / std::max(1.0, cssd->n_io));
    const double xlfdd_model = std::min(
        xlfdd->qps1 * t, xlfdd->iops_total / std::max(1.0, xlfdd->n_io));

    bench::PrintRow({std::to_string(t), bench::Fmt(srs_meas, 0),
                     bench::Fmt(srs_model, 0), bench::Fmt(cssd_meas, 0),
                     bench::Fmt(cssd_model, 0), bench::Fmt(xlfdd_meas, 0),
                     bench::Fmt(xlfdd_model, 0)});
    if (json != nullptr) {
      json->Write(util::JsonRow()
                      .Set("bench", "fig16")
                      .Set("dataset", name)
                      .Set("threads", t)
                      .Set("hw_threads", hw)
                      .Set("srs_measured_qps", srs_meas)
                      .Set("srs_model_qps", srs_model)
                      .Set("cssd_measured_qps", cssd_meas)
                      .Set("cssd_model_qps", cssd_model)
                      .Set("cssd_shard_reads_min", cssd_run.shard_reads_min)
                      .Set("cssd_shard_reads_max", cssd_run.shard_reads_max)
                      .Set("cssd_shard_reads_total", cssd_run.shard_reads_total)
                      .Set("xlfdd_measured_qps", xlfdd_meas)
                      .Set("xlfdd_model_qps", xlfdd_model)
                      .Set("xlfdd_shard_reads_min", xlfdd_run.shard_reads_min)
                      .Set("xlfdd_shard_reads_max", xlfdd_run.shard_reads_max)
                      .Set("xlfdd_shard_reads_total",
                           xlfdd_run.shard_reads_total));
    }
    if (t == threads.back()) {
      std::printf(
          "\nPer-shard reads at %u threads: cSSDx4 min/max %llu/%llu, "
          "XLFDDx12 min/max %llu/%llu\n",
          t,
          static_cast<unsigned long long>(cssd_run.shard_reads_min),
          static_cast<unsigned long long>(cssd_run.shard_reads_max),
          static_cast<unsigned long long>(xlfdd_run.shard_reads_min),
          static_cast<unsigned long long>(xlfdd_run.shard_reads_max));
    }
  }
  std::printf(
      "\nHost has %u hardware thread(s): measured columns flatten at that "
      "point.\nExpected shape (paper, 32-core host = the 'model' columns): "
      "all methods scale\nlinearly except E2LSHoS on cSSDs, which plateaus "
      "at the device IOPS ceiling;\nE2LSHoS on XLFDDs stays ~10x above SRS "
      "throughout.\n",
      hw);
  return 0;
}
