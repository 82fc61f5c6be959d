// serve-cssd: an open loop through Index::Serve from one generator
// thread, over a fixed ladder of arrival rates around the knee, on the
// paper's headline stack (cSSD behind io_uring, retry and a DRAM cache).
// Queries are Zipf-distributed over a fixed population. Latency runs
// from each query's due time to its on_result callback, on the
// benchmark's own clock.
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <limits>
#include <mutex>
#include <unordered_map>

#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace e2 = e2lshos;

namespace {

struct Done {
  uint64_t done_ns = 0;
  e2::core::QueryResult r;
};

// Receives results on the server's worker threads.
class Collector {
 public:
  void Add(e2::core::QueryResult&& r) {
    const uint64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    done_.push_back({now, std::move(r)});
    cv_.notify_all();
  }

  // Wait for `count` results (at most `timeout_ms`); hand over and clear.
  std::vector<Done> Take(size_t count, uint64_t timeout_ms) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                 [&] { return done_.size() >= count; });
    std::vector<Done> out;
    out.swap(done_);
    return out;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Done> done_;
};

// The latency of a failed, shed or partial query: it misses any limit.
constexpr double kMissed = std::numeric_limits<double>::infinity();

struct Step {
  double rate = 0;
  uint64_t offered = 0, ok = 0, failed = 0;
  std::vector<double> latency_us;  ///< From due time; failures are kMissed.
  std::vector<double> late_us;     ///< Generator lateness at each submit.
  std::vector<double> queue_wait_us, served_us;
  double completion_qps = 0;
  size_t depth_max = 0;
  double p50 = 0, p99 = 0, late_p99 = 0;
  bool pass = false;
};

// Offer `rate` queries/s for `seconds`, then wait for every answer.
Step RunStep(const Pinned& p, e2::Server* server, Collector* col, const Inputs& in,
             size_t* cursor, double rate, double seconds, EngineTotals* engine,
             uint64_t parent, Outcome* out) {
  Step st;
  st.rate = rate;
  const RowSource rows{&in.base, &in.inserts};
  struct Sent {
    uint64_t id, due, span;
    size_t row;
  };
  // Latencies per window of due times (the p99 is their windows' median).
  const uint64_t window_ns = p.window_ms * 1000000;
  std::vector<std::vector<double>> windows(
      static_cast<size_t>(seconds * 1e9 / static_cast<double>(window_ns)) + 1);
  std::vector<Sent> sent;
  const auto count = static_cast<uint64_t>(std::max(1.0, rate * seconds));
  sent.reserve(count);
  const double period = 1e9 / rate;
  const uint64_t step_span = NewSpanId();
  const uint64_t start = NowNs() + 1000000;
  for (uint64_t j = 0; j < count; ++j) {
    const uint64_t due = start + static_cast<uint64_t>(static_cast<double>(j) * period);
    SpinUntilNs(due);
    const size_t row = (*cursor)++ % in.stream.n();
    const uint64_t span = NewSpanId();
    const uint64_t t = NowNs();
    auto id = server->Submit(in.stream.Row(row));
    const uint64_t t_end = NowNs();
    st.late_us.push_back(static_cast<double>(t - due) / 1e3);
    ++st.offered;
    if (!id.ok()) {
      ++st.failed;
      st.latency_us.push_back(kMissed);
      windows[std::min(windows.size() - 1, (due - start) / window_ns)].push_back(kMissed);
      continue;
    }
    RecordSpan("server.Submit", t, t_end, span, *id);
    sent.push_back({*id, due, span, row});
    if (j % 16 == 0) st.depth_max = std::max(st.depth_max, server->queue_depth());
  }
  std::vector<Done> done = col->Take(sent.size(), 30000);
  std::unordered_map<uint64_t, Done*> by_id;
  for (auto& d : done) by_id[d.r.id] = &d;
  uint64_t last_done = start;
  for (const Sent& s : sent) {
    auto& window = windows[std::min(windows.size() - 1, (s.due - start) / window_ns)];
    auto it = by_id.find(s.id);
    if (it == by_id.end()) {
      ++st.failed;
      st.latency_us.push_back(kMissed);
      window.push_back(kMissed);
      out->Gate(false, "query " + std::to_string(s.id) + " never answered");
      continue;
    }
    const Done& d = *it->second;
    RecordSpan("serve.query", s.due, d.done_ns, step_span, s.id, s.span);
    const bool ok = d.r.status.ok() && !d.r.stats.partial;
    if (!ok) {
      ++st.failed;
      st.latency_us.push_back(kMissed);
      window.push_back(kMissed);
      continue;
    }
    const std::string bad = CheckAnswer(rows, in.stream.Row(s.row), d.r.neighbors, p.k);
    out->Gate(bad.empty(), "served query " + std::to_string(s.id) + ": " + bad);
    ++st.ok;
    engine->Add(d.r.stats);
    last_done = std::max(last_done, d.done_ns);
    st.latency_us.push_back(static_cast<double>(d.done_ns - s.due) / 1e3);
    window.push_back(st.latency_us.back());
    st.served_us.push_back(static_cast<double>(d.r.latency_ns) / 1e3);
    st.queue_wait_us.push_back(
        static_cast<double>(d.r.latency_ns - std::min(d.r.latency_ns, d.r.stats.wall_ns)) / 1e3);
  }
  RecordSpan("serve.step", start, last_done, parent, static_cast<uint64_t>(rate), step_span);
  st.completion_qps =
      static_cast<double>(st.ok) / (static_cast<double>(last_done - start) / 1e9);
  st.p50 = Percentile(st.latency_us, 0.50);
  std::vector<double> window_p99;
  for (const auto& w : windows) {
    if (!w.empty()) window_p99.push_back(Percentile(w, 0.99));
  }
  st.p99 = Median(window_p99);
  st.late_p99 = Percentile(st.late_us, 0.99);
  const double limit = static_cast<double>(p.p99_limit_us);
  st.pass = st.failed == 0 && st.p99 <= limit && st.late_p99 <= limit;
  out->attempted += st.offered;
  out->failed += st.failed;
  return st;
}

bool SameAnswers(const std::vector<Answer>& a, const std::vector<Answer>& b) {
  if (a.size() != b.size()) return false;
  for (size_t q = 0; q < a.size(); ++q) {
    if (a[q].size() != b[q].size()) return false;
    for (size_t i = 0; i < a[q].size(); ++i) {
      if (a[q][i].id != b[q][i].id || a[q][i].dist != b[q][i].dist) return false;
    }
  }
  return true;
}

// The highest ladder rate meeting the limit, interpolated on p99 toward
// the next step up (which failed, or it would be the highest).
double MaxQpsAtSlo(const std::vector<Step>& steps, double limit) {
  size_t best = steps.size();
  for (size_t i = 0; i < steps.size(); ++i) {
    if (steps[i].pass) best = i;
  }
  if (best == steps.size()) return 0;
  if (best + 1 == steps.size()) return steps.back().rate;
  const Step& a = steps[best];
  const Step& b = steps[best + 1];
  double frac = 0;
  if (std::isfinite(b.p99) && b.p99 > limit && b.p99 > a.p99) {
    frac = std::min(1.0, std::max(0.0, (limit - a.p99) / (b.p99 - a.p99)));
  }
  return a.rate + (b.rate - a.rate) * frac;
}

}  // namespace

Outcome RunServeCssd(const Options& o, const Pinned& p) {
  Outcome out;
  // Seconds per ladder step: the nominal (first) step takes its share.
  std::vector<double> step_s(p.ladder.size(), o.seconds * p.nominal_share);
  for (size_t i = 1; i < step_s.size(); ++i) {
    step_s[i] = o.seconds * (1 - p.nominal_share) / static_cast<double>(step_s.size() - 1);
  }
  const double nominal = p.ladder[0];
  uint64_t stream_n = static_cast<uint64_t>(nominal * p.serve_warmup_s);
  for (size_t i = 0; i < step_s.size(); ++i) {
    stream_n += static_cast<uint64_t>(p.ladder[i] * step_s[i]) + 1;
  }
  const Inputs in = MakeInputs(p, o.seed, e2::data::QueryDistribution::kZipf,
                               std::min<uint64_t>(stream_n, 200000), p.serve_probe_inserts);

  Collector col;  // outlives every Server below
  e2::ServeSpec spec = MakeServeSpec(p);
  spec.on_result = [&col](e2::core::QueryResult&& r) { col.Add(std::move(r)); };

  // Set-up: Build + Serve. Before the last Serve, the sample is searched
  // until two passes agree (the cache is then warm and I/O completion
  // order no longer moves answers): that is the reference the served
  // answers must match bit for bit.
  std::vector<double> setup_s, build_s, start_ms;
  std::unique_ptr<e2::Index> index;
  std::unique_ptr<e2::Server> server;
  std::vector<Answer> reference;
  double compute_share = 0;
  bool stable = false;
  const CpuSplit cpus;
  ScopedSpan setup_phase("phase.setup");
  for (uint32_t i = 0; i < p.setups; ++i) {
    server.reset();
    index.reset();
    cpus.All();
    Dataset base = in.base;
    const uint64_t t0 = NowNs();
    auto built = [&] {
      ScopedSpan span("index.Build", setup_phase.id());
      return e2::Index::Build(MakeIndexSpec(p, p.serve_uri), std::move(base));
    }();
    const uint64_t t1 = NowNs();
    if (!built.ok()) {
      out.Gate(false, "build: " + built.status().ToString());
      return out;
    }
    index = std::move(*built);
    if (i + 1 == p.setups) {
      if (!index->Configure(spec.search).ok()) out.Gate(false, "configure failed");
      for (int pass = 0; pass < 6 && !stable; ++pass) {
        auto br = index->SearchBatch(in.sample, p.k);
        out.attempted += in.sample.n();
        if (!br.ok()) {
          out.Gate(false, "reference batch: " + br.status().ToString());
          return out;
        }
        stable = pass > 0 && SameAnswers(br->results, reference);
        reference = br->results;
        compute_share = static_cast<double>(br->compute_ns) /
                        (static_cast<double>(br->wall_ns) * p.shards);
      }
    }
    cpus.ServerSide();  // the shard workers inherit this
    const uint64_t t2 = NowNs();
    auto served = [&] {
      ScopedSpan span("index.Serve", setup_phase.id());
      return index->Serve(spec);
    }();
    const uint64_t t3 = NowNs();
    if (!served.ok()) {
      out.Gate(false, "serve: " + served.status().ToString());
      return out;
    }
    server = std::move(*served);
    build_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    start_ms.push_back(static_cast<double>(t3 - t2) / 1e6);
    setup_s.push_back(static_cast<double>((t1 - t0) + (t3 - t2)) / 1e9);
  }
  setup_phase.End();
  cpus.ClientSide();  // the generator runs on this thread
  out.Gate(stable, "sample answers did not settle on a warm cache");

  // The sample through the server: bit-identical to the reference.
  std::vector<uint64_t> ids;
  for (uint64_t q = 0; q < in.sample.n(); ++q) {
    auto id = server->Submit(in.sample.Row(q));
    if (!id.ok()) {
      out.Gate(false, "sample submit: " + id.status().ToString());
      return out;
    }
    ids.push_back(*id);
  }
  out.attempted += ids.size();
  std::unordered_map<uint64_t, Answer> got;
  for (auto& d : col.Take(ids.size(), 30000)) {
    if (!d.r.status.ok()) ++out.failed;
    got[d.r.id] = std::move(d.r.neighbors);
  }
  std::vector<Answer> answers;
  for (uint64_t id : ids) answers.push_back(got[id]);
  InjectTruncate(o, &answers);
  out.Gate(SameAnswers(answers, reference),
           "served sample answers differ from the pre-serve SearchBatch");
  ScoreSample(p, in, answers, &out);

  // Warm-up at the nominal rate (fills the cache), excluded.
  size_t cursor = 0;
  EngineTotals warm_engine, engine;
  RunStep(p, server.get(), &col, in, &cursor, nominal, p.serve_warmup_s, &warm_engine, 0,
          &out);
  // A traced run first repeats the nominal step untraced: the overhead base.
  double untraced_p50 = 0;
  if (o.trace) {
    EnableTracing(false);
    untraced_p50 = RunStep(p, server.get(), &col, in, &cursor, nominal, step_s[0],
                           &warm_engine, 0, &out).p50;
    EnableTracing(true);
  }

  const StorageWindow window = OpenStorageWindow(*index);
  std::vector<Step> steps;
  const uint64_t measure_phase = NewSpanId();
  const uint64_t measure_start = NowNs();
  for (size_t i = 0; i < p.ladder.size(); ++i) {
    steps.push_back(RunStep(p, server.get(), &col, in, &cursor, p.ladder[i], step_s[i],
                            &engine, measure_phase, &out));
    const Step& s = steps.back();
    std::fprintf(stderr,
                 "serve-cssd: rate %6.0f/s  p50 %8.1f us  p99 %9.1f us  late_p99 %8.1f us"
                 "  done %6.0f/s  failed %llu  %s\n",
                 s.rate, s.p50, s.p99, s.late_p99, s.completion_qps,
                 static_cast<unsigned long long>(s.failed), s.pass ? "pass" : "FAIL");
  }

  RecordSpan("phase.measure", measure_start, NowNs(), 0, 0, measure_phase);

  // Insert probe while serving; answers come back through the server.
  const SearchFn search = [&](const float* q) -> e2::Result<Answer> {
    ScopedSpan span("server.query", ProbePhase());
    auto id = server->Submit(q);
    if (!id.ok()) return id.status();
    auto done = col.Take(1, 10000);
    if (done.size() != 1 || done[0].r.id != *id) {
      return e2::Status::Internal("probe query not answered");
    }
    if (!done[0].r.status.ok()) return done[0].r.status;
    return std::move(done[0].r.neighbors);
  };
  const ProbeResult probe =
      RunInsertProbe(o, index.get(), in.inserts, p.serve_probe_inserts, search, &out);
  out.attempted += probe.ops;
  out.failed += probe.failed;

  const Step& nom = steps[0];
  if (!o.trace) {
    ReportSetup(setup_s, *index, &out);
    out.E2e("ok_rate",
            static_cast<double>(out.attempted - out.failed) /
                static_cast<double>(out.attempted),
            "ratio");
    out.E2e("qps", steps.back().completion_qps, "1/s");
    out.E2e("p50_us", nom.p50, "us");
    out.E2e("p99_us", nom.p99, "us");
    out.E2e("max_qps_at_slo", MaxQpsAtSlo(steps, static_cast<double>(p.p99_limit_us)),
            "1/s");
    out.E2e("insert_p50_ms", Percentile(probe.insert_ms, 0.50), "ms");
    out.E2e("insert_p95_ms", Percentile(probe.insert_ms, 0.95), "ms");
    return out;
  }

  ReportEngineAndKernels(p, *index, in, engine, compute_share, nom.completion_qps, &out);
  const auto ss = server->stats();
  const double served_p50 = Percentile(nom.served_us, 0.50);
  const double served_p99 = Percentile(nom.served_us, 0.99);
  out.Layer("server.queue_wait_p50_share",
            served_p50 > 0 ? Percentile(nom.queue_wait_us, 0.50) / served_p50 : 0, "ratio");
  out.Layer("server.queue_wait_p99_share",
            served_p99 > 0 ? Percentile(nom.queue_wait_us, 0.99) / served_p99 : 0, "ratio");
  out.Layer("server.mean_batch_size", ss.mean_batch_size, "count");
  size_t depth_max = 0;
  for (const Step& s : steps) depth_max = std::max(depth_max, s.depth_max);
  out.Layer("server.queue_depth_max", static_cast<double>(depth_max), "count");
  out.Layer("server.rejected", static_cast<double>(ss.rejected), "count");
  ReportStorage(p, *index, window, engine.queries + 2 * probe.insert_ms.size(), p.serve_uri,
                probe.insert_ms.size() * in.base.dim() * sizeof(float), &out);
  out.Layer("updater.lag_max", static_cast<double>(probe.lag_max), "count");
  ReportNoNet(&out);
  out.Layer("gen.late_p99_share", nom.late_p99 * 1e3 / (1e9 / nom.rate), "ratio");
  out.Layer("builder.build_s", Median(build_s), "s");
  out.Layer("api.serve_start_ms", Median(start_ms), "ms");
  out.Layer("trace.overhead_share", untraced_p50 > 0 ? nom.p50 / untraced_p50 - 1.0 : 0,
            "ratio");
  return out;
}

}  // namespace perfbench
