#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <unordered_set>

#include "data/registry.h"
#include "net/client.h"
#include "net/daemon.h"
#include "storage/device_registry.h"
#include "trace.h"
#include "util/aligned_buffer.h"
#include "util/crc32c.h"
#include "util/distance.h"
#include "util/rng.h"

namespace perfbench {

namespace e2 = e2lshos;

Pinned MakePinned(bool tiny) {
  Pinned p;
  if (tiny) {
    p.n = 3000;
    p.sample = 40;
    p.window_ms = 100;
    p.batch_queries = 200;
    p.zipf_population = 500;
    p.stream_queries = 400;
    p.setups = 2;
    p.batch_probe_inserts = 4;
    p.serve_probe_inserts = 4;
    p.serve_warmup_s = 0.2;
    p.remote_warmup_s = 0.2;
    p.replay_ms = 40;
    // Small n means small L: the floors only catch broken answers here.
    p.recall_floor = 0.30;
    p.ratio_ceiling = 1.30;
  }
  return p;
}

e2::IndexSpec MakeIndexSpec(const Pinned& p, const std::string& uri) {
  e2::IndexSpec spec;
  spec.lsh.rho = p.rho;
  spec.lsh.s_factor = p.s_factor;
  spec.lsh.c = p.c;
  spec.lsh.w = p.w;
  spec.lsh.gamma = p.gamma;
  spec.lsh.seed = p.lsh_seed;
  spec.layout.block_bytes = p.block_bytes;
  spec.layout.table_bits = p.table_bits;
  spec.layout.checksums = p.checksums;
  spec.device_uri = uri;
  spec.device_capacity = 0;  // 32 GiB, demand-paged
  spec.auto_x_max = true;
  return spec;
}

e2::SearchSpec MakeSearchSpec(const Pinned& p) {
  e2::SearchSpec s;
  s.shards = p.shards;
  s.contexts_per_shard = p.contexts_per_shard;
  s.inflight_per_shard = p.inflight_per_shard;
  s.synchronous = false;
  return s;
}

e2::ServeSpec MakeServeSpec(const Pinned& p) {
  e2::ServeSpec s;
  s.k = p.k;
  s.max_batch_size = p.max_batch_size;
  s.max_wait_us = p.max_wait_us;
  s.deadline_us = p.deadline_us;
  s.search = MakeSearchSpec(p);
  s.queue_capacity = p.queue_capacity;
  return s;
}

Inputs MakeInputs(const Pinned& p, uint64_t seed,
                  e2::data::QueryDistribution dist, uint64_t stream_n,
                  uint64_t insert_n) {
  auto spec = e2::data::GetDatasetSpec("SIFT");
  e2::data::GeneratorSpec gen = spec->gen;
  uint64_t mix = seed;
  gen.seed = e2::util::SplitMix64(mix);
  gen.query_dist = dist;
  gen.query_population = p.zipf_population;
  gen.zipf_theta = p.zipf_theta;
  e2::data::PointSampler sampler(gen);

  auto fill = [&](const char* name, uint64_t count, bool query) {
    Dataset d(name, gen.dim);
    d.Reserve(count);
    std::vector<float> row(gen.dim);
    for (uint64_t i = 0; i < count; ++i) {
      if (query) {
        sampler.NextQuery(row.data());
      } else {
        sampler.Next(row.data());
      }
      d.Append(row.data());
    }
    return d;
  };
  Inputs in;
  in.base = fill("base", p.n, false);
  in.sample = fill("sample", p.sample, false);
  in.stream = fill("stream", stream_n, true);
  in.inserts = fill("inserts", insert_n, false);
  in.truth = e2::data::GroundTruth::Compute(in.base, in.sample, p.k, 4);
  return in;
}

void Outcome::Gate(bool ok, const std::string& what) {
  if (!ok) gate_failures.push_back(what);
}

namespace {

// Mean recall@k of `answers` against the exact top-k of the sample.
double RecallAtK(const e2::data::GroundTruth& truth,
                 const std::vector<Answer>& answers, uint32_t k) {
  if (answers.empty()) return 0;
  double sum = 0;
  for (size_t q = 0; q < answers.size(); ++q) {
    const auto& exact = truth.ForQuery(q);
    std::unordered_set<uint32_t> want;
    for (size_t i = 0; i < exact.size() && i < k; ++i) want.insert(exact[i].id);
    uint32_t hit = 0;
    for (size_t i = 0; i < answers[q].size() && i < k; ++i) {
      hit += want.count(answers[q][i].id) ? 1 : 0;
    }
    sum += static_cast<double>(hit) / static_cast<double>(k);
  }
  return sum / static_cast<double>(answers.size());
}

}  // namespace

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void SleepUntilNs(uint64_t t) {
  const uint64_t now = NowNs();
  if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
}

void SpinUntilNs(uint64_t t) {
  while (NowNs() < t) {
  }
}

CpuSplit::CpuSplit() {
  if (sched_getaffinity(0, sizeof(all_), &all_) != 0 || CPU_COUNT(&all_) < 4) return;
  int last = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &all_)) last = c;
  }
  server_ = all_;
  CPU_CLR(last, &server_);
  CPU_ZERO(&client_);
  CPU_SET(last, &client_);
  active_ = true;
}

void CpuSplit::All() const {
  if (active_) sched_setaffinity(0, sizeof(all_), &all_);
}
void CpuSplit::ServerSide() const {
  if (active_) sched_setaffinity(0, sizeof(server_), &server_);
}
void CpuSplit::ClientSide() const {
  if (active_) sched_setaffinity(0, sizeof(client_), &client_);
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  const size_t idx = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx), v.end());
  return v[idx];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

const float* RowSource::Row(uint32_t id) const {
  if (id < base->n()) return base->Row(id);
  const uint64_t j = id - base->n();
  if (inserts != nullptr && j < inserts->n()) return inserts->Row(j);
  return nullptr;
}

std::string CheckAnswer(const RowSource& rows, const float* query,
                        const Answer& answer, uint32_t k) {
  if (answer.size() != k) {
    return "answer holds " + std::to_string(answer.size()) + " of " +
           std::to_string(k) + " neighbors";
  }
  std::unordered_set<uint32_t> seen;
  for (size_t i = 0; i < answer.size(); ++i) {
    const Neighbor& nb = answer[i];
    if (i > 0 && nb.dist < answer[i - 1].dist) return "answer not sorted";
    if (!seen.insert(nb.id).second) return "duplicate id " + std::to_string(nb.id);
    const float* row = rows.Row(nb.id);
    if (row == nullptr) return "unknown id " + std::to_string(nb.id);
    const double exact =
        std::sqrt(static_cast<double>(e2::util::SquaredL2(query, row, rows.base->dim())));
    if (std::fabs(exact - nb.dist) > 1e-4 * std::max(1.0, exact)) {
      return "id " + std::to_string(nb.id) + " reported at distance " +
             std::to_string(nb.dist) + ", true " + std::to_string(exact);
    }
  }
  return "";
}

void ScoreSample(const Pinned& p, const Inputs& in,
                 const std::vector<Answer>& answers, Outcome* out) {
  const RowSource rows{&in.base, nullptr};
  for (size_t q = 0; q < answers.size(); ++q) {
    const std::string bad = CheckAnswer(rows, in.sample.Row(q), answers[q], p.k);
    out->Gate(bad.empty(), "sample query " + std::to_string(q) + ": " + bad);
  }
  const double recall = RecallAtK(in.truth, answers, p.k);
  const double ratio = e2::data::MeanOverallRatio(in.truth, answers, p.k);
  out->Gate(recall >= p.recall_floor,
            "recall_at_10 " + std::to_string(recall) + " below floor");
  out->Gate(ratio <= p.ratio_ceiling,
            "overall_ratio " + std::to_string(ratio) + " above ceiling");
  out->E2e("recall_at_10", recall, "ratio");
  out->E2e("overall_ratio", ratio, "ratio");
}

void InjectTruncate(const Options& o, std::vector<Answer>* answers) {
  if (o.inject == "truncate" && !answers->empty() && !answers->back().empty()) {
    answers->back().pop_back();
  }
}

void EngineTotals::Add(const e2::core::QueryStats& s) {
  ++queries;
  ios += s.ios;
  table_reads += s.table_reads;
  block_reads += s.bucket_block_reads;
  radii += s.radii_searched;
  candidates += s.candidates;
  fp_rejects += s.fp_rejects;
  dup_skips += s.dup_skips;
  wall_us.push_back(static_cast<double>(s.wall_ns) / 1e3);
}

namespace {

// Median over 5 timed rounds of `fn` run `reps` times, in ns per call.
template <typename Fn>
double NsPerCall(uint64_t reps, Fn&& fn) {
  std::vector<double> rounds;
  for (int r = 0; r < 5; ++r) {
    const uint64_t t0 = NowNs();
    for (uint64_t i = 0; i < reps; ++i) fn(i);
    rounds.push_back(static_cast<double>(NowNs() - t0) / static_cast<double>(reps));
  }
  return Median(rounds);
}

volatile uint64_t g_sink = 0;

}  // namespace

void ReportEngineAndKernels(const Pinned& p, const e2::Index& index,
                            const Inputs& in, const EngineTotals& e,
                            double compute_share, double qps, Outcome* out) {
  const uint64_t entries = e.candidates + e.fp_rejects + e.dup_skips;
  out->Layer("engine.ios_per_query", e.PerQuery(e.ios), "count");
  out->Layer("engine.table_reads_per_query", e.PerQuery(e.table_reads), "count");
  out->Layer("engine.block_reads_per_query", e.PerQuery(e.block_reads), "count");
  out->Layer("engine.radii_per_query", e.PerQuery(e.radii), "count");
  out->Layer("engine.candidates_per_query", e.PerQuery(e.candidates), "count");
  out->Layer("engine.fp_reject_ratio",
             entries ? static_cast<double>(e.fp_rejects) / static_cast<double>(entries) : 0,
             "ratio");
  out->Layer("engine.dup_skip_ratio",
             entries ? static_cast<double>(e.dup_skips) / static_cast<double>(entries) : 0,
             "ratio");
  out->Layer("engine.wall_us_p50", Median(e.wall_us), "us");
  out->Layer("engine.compute_share", compute_share, "ratio");

  // Kernel replay on this run's own inputs.
  const auto& family = index.storage_index()->family();
  const uint32_t radii = family.num_radii();
  std::vector<uint32_t> hashes(family.L());
  const uint64_t nq = in.sample.n();
  const double hash_ns = NsPerCall(nq * radii, [&](uint64_t i) {
    family.HashAll(static_cast<uint32_t>(i % radii), in.sample.Row(i / radii % nq),
                   hashes.data());
    g_sink = g_sink + hashes[0];
  });
  const uint64_t n = in.base.n();
  const double crc_ns = NsPerCall(20000, [&](uint64_t i) {
    g_sink = g_sink + e2::util::Crc32c(in.base.Row((i * 7919) % n), p.block_bytes);
  });
  const double l2_ns = NsPerCall(200000, [&](uint64_t i) {
    const float d = e2::util::SquaredL2(in.sample.Row(i % nq), in.base.Row((i * 104729) % n),
                                        in.base.dim());
    g_sink = g_sink + static_cast<uint64_t>(d);
  });
  out->Layer("kernel.hash_all_ns", hash_ns, "ns");
  out->Layer("kernel.crc32c_ns_per_block", crc_ns, "ns");
  out->Layer("kernel.l2_ns_per_candidate", l2_ns, "ns");

  // Share of the shard cores each kernel would take at the measured rate.
  const double per_s = qps / (static_cast<double>(p.shards) * 1e9);
  const double verified = e.PerQuery(e.block_reads + e.table_reads);
  out->Layer("engine.est_share.hash", hash_ns * e.PerQuery(e.radii) * per_s, "ratio");
  out->Layer("engine.est_share.verify", crc_ns * verified * per_s, "ratio");
  out->Layer("engine.est_share.distance", l2_ns * e.PerQuery(e.candidates) * per_s,
             "ratio");
}

StorageWindow OpenStorageWindow(const e2::Index& index) {
  return {index.device_stats(), NowNs()};
}

namespace {

// Random block reads kept `qd` deep through `uri` for `ms`; per-read
// latency (submit to harvested completion) in microseconds.
std::vector<double> ReplayReads(const std::string& uri, uint64_t span,
                                uint32_t block, uint32_t qd, uint64_t ms) {
  std::vector<double> lat;
  e2::storage::DeviceUriOpenOptions opt;
  opt.capacity = (span + (1 << 20) - 1) / (1 << 20) * (1 << 20);
  auto dev = e2::storage::OpenDeviceUri(uri, opt);
  if (!dev.ok()) return lat;
  e2::util::AlignedBuffer arena(static_cast<size_t>(qd) * block, 4096);
  std::vector<uint64_t> submitted(qd, 0);
  std::vector<uint32_t> free_slots;
  for (uint32_t i = 0; i < qd; ++i) free_slots.push_back(i);
  std::vector<e2::storage::IoCompletion> comps(qd);
  e2::util::Rng rng(span ^ qd);
  const uint64_t blocks = std::max<uint64_t>(1, span / block);
  const uint64_t deadline = NowNs() + ms * 1000000ULL;
  uint32_t outstanding = 0;
  while (NowNs() < deadline || outstanding > 0) {
    while (!free_slots.empty() && NowNs() < deadline) {
      const uint32_t slot = free_slots.back();
      e2::storage::IoRequest req;
      req.offset = rng.NextU64Below(blocks) * block;
      req.length = block;
      req.buf = arena.data() + static_cast<size_t>(slot) * block;
      req.user_data = slot;
      submitted[slot] = NowNs();
      if (!(*dev)->SubmitRead(req).ok()) break;
      free_slots.pop_back();
      ++outstanding;
    }
    const size_t got = (*dev)->PollCompletions(comps.data(), comps.size());
    const uint64_t now = NowNs();
    for (size_t i = 0; i < got; ++i) {
      const auto slot = static_cast<uint32_t>(comps[i].user_data);
      lat.push_back(static_cast<double>(now - submitted[slot]) / 1e3);
      free_slots.push_back(slot);
      --outstanding;
    }
  }
  return lat;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

}  // namespace

void ReportStorage(const Pinned& p, const e2::Index& index,
                   const StorageWindow& w, uint64_t queries,
                   const std::string& own_uri, uint64_t user_insert_bytes,
                   Outcome* out) {
  const auto after = index.device_stats();
  const auto& b = w.before;
  const double elapsed_ns = static_cast<double>(NowNs() - w.start_ns);
  const double q = static_cast<double>(std::max<uint64_t>(1, queries));
  const uint64_t hits = after.cache_hits - b.cache_hits;
  const uint64_t misses = after.cache_misses - b.cache_misses;
  const double units =
      own_uri.rfind("sim:cssd", 0) == 0
          ? e2::storage::GetDeviceModel(e2::storage::DeviceKind::kCssd).parallel_units
          : 1.0;
  out->Layer("storage.reads_per_query",
             static_cast<double>(after.reads_completed - b.reads_completed) / q, "count");
  out->Layer("storage.utilization",
             static_cast<double>(after.busy_ns - b.busy_ns) / (elapsed_ns * units), "ratio");
  out->Layer("storage.cache_hit_rate",
             hits + misses ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0,
             "ratio");
  out->Layer("storage.cache_evictions_per_query",
             static_cast<double>(after.cache_evictions - b.cache_evictions) / q, "count");
  out->Layer("storage.retries", static_cast<double>(after.retries - b.retries), "count");

  // URI-layer replay: random block reads at the engine's per-shard
  // context count, over the span of this index's image.
  const uint64_t span = index.sizes().storage_bytes;
  const auto own = ReplayReads(own_uri, span, p.block_bytes, p.replay_qd, p.replay_ms);
  out->Layer("storage.read_p50_us", Percentile(own, 0.50), "us");
  out->Layer("storage.read_p99_us", Percentile(own, 0.99), "us");
  const char* stacks[] = {"sim:cssd", "sim:cssd?iface=io_uring",
                          "sim:cssd?iface=io_uring&retry=2",
                          "sim:cssd?iface=io_uring&retry=2&cache=32m"};
  double means[4];
  for (int i = 0; i < 4; ++i) {
    means[i] = Mean(ReplayReads(stacks[i], span, p.block_bytes, p.replay_qd, p.replay_ms));
  }
  out->Layer("storage.layer_add_us.iface", means[1] - means[0], "us");
  out->Layer("storage.layer_add_us.retry", means[2] - means[1], "us");
  out->Layer("storage.layer_add_us.cache", means[3] - means[2], "us");

  const uint64_t applied = after.updates_applied - b.updates_applied;
  out->Layer("updater.write_amp",
             user_insert_bytes
                 ? static_cast<double>(after.update_staged_bytes - b.update_staged_bytes) /
                       static_cast<double>(user_insert_bytes)
                 : 0,
             "ratio");
  out->Layer("updater.epochs_per_op",
             applied ? static_cast<double>(after.epochs_published - b.epochs_published) /
                           static_cast<double>(applied)
                     : 0,
             "ratio");
}

void ReportNetReplay(const Pinned& p, const Options& o, std::unique_ptr<e2::Index> index,
                     const Inputs& in, Outcome* out) {
  e2::net::DaemonOptions dopt;
  dopt.unix_path = o.work_dir + "/perfbench-" + std::to_string(getpid()) + ".sock";
  dopt.serve = MakeServeSpec(p);
  e2::net::Daemon daemon(dopt);
  e2::Status st = daemon.AddIndex("default", std::move(index));
  if (st.ok()) st = daemon.Start();
  auto client = st.ok() ? e2::net::Client::Connect("unix:" + dopt.unix_path)
                        : e2::Result<std::unique_ptr<e2::net::Client>>(st);
  if (!client.ok()) {
    out->Gate(false, "net replay: " + client.status().ToString());
    return;
  }
  const RowSource rows{&in.base, nullptr};
  std::vector<double> rtt_us, overhead_us;
  const uint64_t deadline = NowNs() + 4 * p.replay_ms * 1000000;
  for (uint64_t i = 0; NowNs() < deadline; ++i) {
    const float* q = in.sample.Row(i % in.sample.n());
    const uint64_t t0 = NowNs();
    auto res = [&] {
      ScopedSpan span("client.Search", 0, i);
      return (*client)->Search("default", q, in.base.dim(), p.k);
    }();
    const uint64_t rtt = NowNs() - t0;
    ++out->attempted;
    if (!res.ok() || !res->status.ok()) {
      ++out->failed;
      continue;
    }
    const std::string bad = CheckAnswer(rows, q, res->neighbors, p.k);
    out->Gate(bad.empty(), "net replay: " + bad);
    rtt_us.push_back(static_cast<double>(rtt) / 1e3);
    overhead_us.push_back(static_cast<double>(rtt - std::min<uint64_t>(rtt, res->latency_ns)) / 1e3);
  }
  client->reset();
  daemon.RequestStop();
  daemon.Wait();
  const double p50 = Percentile(rtt_us, 0.50), p99 = Percentile(rtt_us, 0.99);
  out->Layer("net.overhead_p50_share", p50 > 0 ? Percentile(overhead_us, 0.50) / p50 : 0,
             "ratio");
  out->Layer("net.overhead_p99_share", p99 > 0 ? Percentile(overhead_us, 0.99) / p99 : 0,
             "ratio");
}

namespace {
uint64_t g_probe_phase = 0;
}  // namespace

uint64_t ProbePhase() { return g_probe_phase; }

ProbeResult RunInsertProbe(const Options& o, e2::Index* index, const Dataset& rows,
                           uint32_t count, const SearchFn& search, Outcome* out) {
  ProbeResult r;
  ScopedSpan phase("phase.probe");
  g_probe_phase = phase.id();
  for (uint32_t i = 0; i < count && i < rows.n(); ++i) {
    const float* row = rows.Row(i);
    const uint64_t t0 = NowNs();
    e2::Result<uint32_t> id = [&] {
      ScopedSpan span("index.Insert", phase.id());
      return index->Insert(row);
    }();
    r.insert_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    ++r.ops;
    if (!id.ok()) {
      ++r.failed;
      out->Gate(false, "insert failed: " + id.status().ToString());
      continue;
    }
    r.lag_max = std::max(r.lag_max, index->device_stats().update_lag);
    auto found = search(row);
    ++r.ops;
    out->Gate(found.ok() && !found->empty() && (*found)[0].id == *id &&
                  (*found)[0].dist == 0.0f,
              "inserted id " + std::to_string(*id) + " not found at distance 0");
    e2::Status removed = [&] {
      ScopedSpan span("index.Remove", phase.id());
      return index->Remove(*id);
    }();
    ++r.ops;
    if (!removed.ok()) {
      ++r.failed;
      out->Gate(false, "remove failed: " + removed.ToString());
      continue;
    }
    auto after = search(row);
    ++r.ops;
    if (!found.ok() || !after.ok()) r.failed += (!found.ok()) + (!after.ok());
    if (after.ok()) {
      Answer a = *after;
      if (o.inject == "removed") a.push_back({*id, 0.0f});
      const bool gone = std::none_of(a.begin(), a.end(),
                                     [&](const Neighbor& nb) { return nb.id == *id; });
      out->Gate(gone, "removed id " + std::to_string(*id) + " still returned");
    }
  }
  return r;
}

}  // namespace perfbench
