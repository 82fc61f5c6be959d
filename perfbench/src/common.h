// Shared pieces of the repository benchmark: the pinned configuration,
// seeded inputs, result reporting, answer checks, and the replays that
// measure single layers (kernels, URI layers) through public entry points.
//
// The benchmark drives the system only through its public surfaces —
// e2lshos::Index, Server, net::Daemon / net::Client, the lsh/util
// kernels and storage::OpenDeviceUri — and times the calls into each
// layer from outside.
#pragma once

#include <sched.h>

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "api/index.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "data/ground_truth.h"
#include "util/topk.h"

namespace perfbench {

using e2lshos::data::Dataset;
using e2lshos::util::Neighbor;
using Answer = std::vector<Neighbor>;

/// \brief Every knob the workloads use, written out. Nothing is left to a
/// library default: the ROADMAP plans to unify the CLI and library
/// defaults, and that change must not move the benchmark's inputs.
struct Pinned {
  // Inputs: the registry's SIFT-like clustered generator.
  uint64_t n = 30000;             ///< Base rows.
  uint32_t k = 10;
  uint32_t sample = 500;          ///< Fixed accuracy sample (independent).
  uint32_t batch_queries = 2000;  ///< batch-mem: queries per SearchBatch.
  uint64_t zipf_population = 20000;
  double zipf_theta = 0.8;
  uint32_t stream_queries = 4000;  ///< remote-update reader stream.

  // IndexSpec: the SIFT registry entry's E2LSH knobs.
  double rho = 0.233;
  double s_factor = 4.0;
  double c = 2.0;
  double w = 4.0;
  double gamma = 1.0;
  uint64_t lsh_seed = 20230328;
  uint32_t block_bytes = 512;
  uint32_t table_bits = 0;  ///< 0 = log2(n) - 1.
  bool checksums = true;

  // SearchSpec.
  uint32_t shards = 2;
  uint32_t contexts_per_shard = 32;
  uint32_t inflight_per_shard = 256;

  // ServeSpec.
  uint32_t max_batch_size = 64;
  uint64_t max_wait_us = 200;
  uint64_t deadline_us = 0;  ///< No shedding: every offered query is served.
  size_t queue_capacity = 1024;

  // Device stacks.
  std::string batch_uri = "mem:";
  std::string serve_uri = "sim:cssd?iface=io_uring&retry=2&cache=32m";
  std::string remote_uri = "sim:cssd?iface=io_uring";

  // Set-up is repeated; setup_s reports the median.
  uint32_t setups = 3;

  // serve-cssd open-loop ladder (queries/s) and its p99 limit. The
  // first step is the nominal one (~60% of the knee) and takes
  // `nominal_share` of the run; the others split the rest. A step's p99
  // is the median over `window_ms` windows of each window's p99, so one
  // scheduling stall on a shared host does not decide a whole step.
  std::vector<double> ladder = {4500, 6000, 7000, 8000, 9500};
  double nominal_share = 1.0 / 3.0;
  uint64_t window_ms = 500;
  uint64_t p99_limit_us = 5000;
  double serve_warmup_s = 1.5;

  // Closed-loop latency limits behind max_qps_at_slo (goodput).
  uint64_t batch_limit_us = 20000;
  uint64_t remote_limit_us = 10000;
  uint64_t remote_window_ms = 1000;  ///< Reader figures: medians over windows.

  // remote-update.
  uint32_t readers = 2;
  uint32_t remote_batch = 8;  ///< Queries per reader request (SearchBatch).
  double insert_rate = 10.0;  ///< Writer inserts/s.
  uint32_t remove_lag = 3;    ///< Remove the id inserted this many ticks ago.
  double remote_warmup_s = 1.0;

  // Insert probe on batch-mem / serve-cssd (insert, verify, remove,
  // verify). An insert costs ~1 ms on mem: and ~25 ms on the cSSD stack.
  uint32_t batch_probe_inserts = 300;
  uint32_t serve_probe_inserts = 100;

  // Accuracy floors on the fixed sample.
  double recall_floor = 0.10;
  double ratio_ceiling = 1.10;

  // Layer replays (traced runs only).
  uint32_t replay_qd = 32;
  uint64_t replay_ms = 300;
};

/// The pinned configuration; `tiny` shrinks sizes for the smoke run.
Pinned MakePinned(bool tiny);

/// Index::Build spec from the pinned knobs.
e2lshos::IndexSpec MakeIndexSpec(const Pinned& p, const std::string& uri);
e2lshos::SearchSpec MakeSearchSpec(const Pinned& p);
e2lshos::ServeSpec MakeServeSpec(const Pinned& p);

/// \brief Everything one run feeds the system, from one --seed. One
/// generator stream is cut into disjoint segments: base rows, the
/// accuracy sample, the query stream (for Zipf: its population, then the
/// rank draws), then the rows to insert.
struct Inputs {
  Dataset base;
  Dataset sample;
  Dataset stream;
  Dataset inserts;
  e2lshos::data::GroundTruth truth;  ///< Exact top-k of the sample.
};

Inputs MakeInputs(const Pinned& p, uint64_t seed,
                  e2lshos::data::QueryDistribution dist, uint64_t stream_n,
                  uint64_t insert_n);

/// \brief Ordered metric list: (name, value, unit).
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// \brief What a workload run produced. `gate_failures` non-empty means
/// a correctness gate failed: the run exits nonzero and prints no result.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> gate_failures;

  void Gate(bool ok, const std::string& what);
  void E2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
};

/// \brief Command-line options.
struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  /// Self-test of the gates: corrupt what the benchmark observes
  /// ("truncate": drop the last neighbor of one answer; "removed":
  /// report a removed id as returned). The run must then fail.
  std::string inject;
  std::string work_dir = ".";  ///< Traces and the daemon socket go here.
};

// --- measurement helpers ---------------------------------------------------

uint64_t NowNs();
/// Nearest-rank percentile (q in [0,1]) of unsorted samples; 0 when empty.
double Percentile(std::vector<double> v, double q);
double Median(std::vector<double> v);
double PeakRssMb();
void SleepUntilNs(uint64_t t);
/// Busy-wait until `t`: the open-loop generator's clock. A sleeping
/// thread on a shared host can wake milliseconds late, which would show
/// up as generator lateness rather than as the system's latency.
void SpinUntilNs(uint64_t t);

/// \brief Keeps the load generator off the cores that serve it. With at
/// least 4 usable CPUs, the last one is the client's: threads the
/// system starts while `ServerSide()` is in effect inherit the other
/// CPUs, and the benchmark's own client threads call `ClientSide()`.
/// With fewer CPUs every call is a no-op.
class CpuSplit {
 public:
  CpuSplit();
  void All() const;         ///< Calling thread may run anywhere (Build).
  void ServerSide() const;  ///< Calling thread, and threads it starts.
  void ClientSide() const;

 private:
  bool active_ = false;
  cpu_set_t all_{}, server_{}, client_{};
};

// --- answer checks ---------------------------------------------------------

/// \brief Resolves an id to its row: base rows, then inserted rows.
struct RowSource {
  const Dataset* base = nullptr;
  const Dataset* inserts = nullptr;
  const float* Row(uint32_t id) const;
};

/// Structural and numeric check of one top-k answer: exactly k
/// neighbors, ascending distance, distinct known ids, and each distance
/// equal to the recomputed L2 distance to that row. Returns "" when the
/// answer holds, else what is wrong.
std::string CheckAnswer(const RowSource& rows, const float* query,
                        const Answer& answer, uint32_t k);

/// Record recall_at_10 / overall_ratio of the sample answers and gate
/// them against the floors.
void ScoreSample(const Pinned& p, const Inputs& in,
                 const std::vector<Answer>& answers, Outcome* out);

/// Apply an --inject corruption to an observed answer list (no-op unless
/// `inject` asks for it).
void InjectTruncate(const Options& o, std::vector<Answer>* answers);

// --- engine statistics -----------------------------------------------------

/// \brief Running sums of core::QueryStats.
struct EngineTotals {
  uint64_t queries = 0;
  uint64_t ios = 0, table_reads = 0, block_reads = 0, radii = 0;
  uint64_t candidates = 0, fp_rejects = 0, dup_skips = 0;
  std::vector<double> wall_us;

  void Add(const e2lshos::core::QueryStats& s);
  double PerQuery(uint64_t total) const {
    return queries ? static_cast<double>(total) / static_cast<double>(queries) : 0;
  }
};

/// Per-layer engine.* metrics plus the kernel replay and the derived
/// engine.est_share.* (kernel cost x per-query count x qps / shards).
void ReportEngineAndKernels(const Pinned& p, const e2lshos::Index& index,
                            const Inputs& in, const EngineTotals& engine,
                            double compute_share, double qps, Outcome* out);

/// \brief storage::DeviceStats deltas over a measured window.
struct StorageWindow {
  e2lshos::storage::DeviceStats before;
  uint64_t start_ns = 0;
};
StorageWindow OpenStorageWindow(const e2lshos::Index& index);

/// Per-layer storage.* metrics from a window and the URI-layer replay
/// (read latency through the workload's own stack, and what each of the
/// iface / retry / cache layers of the serve-cssd stack adds per read).
/// Also the updater.* counters of the window.
void ReportStorage(const Pinned& p, const e2lshos::Index& index,
                   const StorageWindow& w, uint64_t queries,
                   const std::string& own_uri, uint64_t user_insert_bytes,
                   Outcome* out);

/// Net-layer replay, for a workload that does not cross the wire: serve
/// `index` (taken) from a net::Daemon on a UNIX socket in `o.work_dir`,
/// send the sample through one net::Client, one query per request, for
/// `p.replay_ms` x 4, and report net.overhead_{p50,p99}_share: (round
/// trip - the daemon's latency_ns) as a share of the round trip.
void ReportNetReplay(const Pinned& p, const Options& o,
                     std::unique_ptr<e2lshos::Index> index, const Inputs& in,
                     Outcome* out);

/// \brief Insert probe: `count` rows inserted one at a time (timed),
/// each searched for right after its ack (must come back first at
/// distance 0), then removed (timed) and searched for again (must be
/// gone). `search` runs one query through the workload's own read path.
struct ProbeResult {
  std::vector<double> insert_ms;
  uint64_t lag_max = 0;  ///< Largest update_lag seen right after an ack.
  uint64_t ops = 0;
  uint64_t failed = 0;
};
using SearchFn = std::function<e2lshos::Result<Answer>(const float* q)>;
/// Span id of the running insert probe (parent of `search`'s spans).
uint64_t ProbePhase();
ProbeResult RunInsertProbe(const Options& o, e2lshos::Index* index,
                           const Dataset& rows, uint32_t count,
                           const SearchFn& search, Outcome* out);

}  // namespace perfbench
