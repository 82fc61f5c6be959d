// remote-update: a net::Daemon on a UNIX socket in this process, on the
// bare cSSD behind io_uring. Two net::Client connections run closed-loop
// SearchBatch requests of independent queries while a third paces Insert
// and removes its own earlier ids. It is the only workload that crosses
// the wire and the live updater, with device writes beside reads.
//
// Readers send `Pinned::remote_batch` queries per request: with single
// queries, each answer waits on four thread wake-ups across the socket,
// and on a shared host their delays set the p99 by themselves.
//
// Each of the `Pinned::setups` set-ups is a session of its own: build,
// start the daemon, measure a third of the window, stop. Reader figures
// are medians over 1 s windows of all sessions.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "net/client.h"
#include "net/daemon.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace e2 = e2lshos;

namespace {

// Ids the writer removed, with the time each Remove was acknowledged.
class RemovedIds {
 public:
  void Add(uint32_t id, uint64_t ack_ns) {
    std::lock_guard<std::mutex> lock(mu_);
    acked_[id] = ack_ns;
  }
  // True when `id` was acknowledged removed before `sent_ns`.
  bool RemovedBefore(uint32_t id, uint64_t sent_ns) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = acked_.find(id);
    return it != acked_.end() && it->second < sent_ns;
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<uint32_t, uint64_t> acked_;
};

struct ReaderLog {
  std::vector<double> rtt_us, overhead_us;
  std::vector<uint64_t> sent_ns;  ///< Send time of each measured query.
  std::vector<bool> traced;  ///< Whether each measured query was traced.
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> violations;
};

// What the sessions report. Reader figures are per window of send
// times, over every session; the run reports their medians. Insert
// latencies are pooled.
struct Sessions {
  std::vector<double> setup_s, build_s, start_ms;
  std::vector<double> qps, p50, p99, goodput;
  std::vector<double> insert_ms;
};

}  // namespace

Outcome RunRemoteUpdate(const Options& o, const Pinned& p) {
  Outcome out;
  const double session_s = o.seconds / p.setups;
  const auto ticks = static_cast<uint64_t>(session_s * p.insert_rate) + 2;
  const Inputs in = MakeInputs(p, o.seed, e2::data::QueryDistribution::kIndependent,
                               p.stream_queries, ticks);
  const RowSource rows{&in.base, &in.inserts};
  const uint32_t dim = in.base.dim();
  const uint32_t n0 = static_cast<uint32_t>(in.base.n());
  const std::string sock = o.work_dir + "/perfbench-" + std::to_string(getpid()) + ".sock";
  const CpuSplit cpus;

  e2::net::DaemonOptions dopt;
  dopt.unix_path = sock;
  dopt.serve = MakeServeSpec(p);
  dopt.breaker_trip_ratio = 0.0;
  e2::net::ClientOptions copt;
  copt.recv_timeout_ms = 30000;
  copt.max_retries = 0;  // an insert retried after it ran would apply twice

  Sessions sessions;
  for (uint32_t session = 0; session < p.setups; ++session) {
    const bool last = session + 1 == p.setups;
    // Set-up: Build + Daemon::Start. The last index also answers the
    // sample once before serving: the engine statistics of this stack.
    ScopedSpan setup_phase("phase.setup", 0, session);
    cpus.All();
    Dataset base = in.base;
    const uint64_t t0 = NowNs();
    auto built = [&] {
      ScopedSpan span("index.Build", setup_phase.id());
      return e2::Index::Build(MakeIndexSpec(p, p.remote_uri), std::move(base));
    }();
    const uint64_t t1 = NowNs();
    if (!built.ok()) {
      out.Gate(false, "build: " + built.status().ToString());
      return out;
    }
    std::unique_ptr<e2::Index> owned = std::move(*built);
    e2::Index* index = owned.get();  // owned by the daemon from here on
    EngineTotals engine;
    double compute_share = 0;
    if (last) {
      if (!owned->Configure(dopt.serve.search).ok()) out.Gate(false, "configure failed");
      auto br = owned->SearchBatch(in.sample, p.k);
      out.attempted += in.sample.n();
      if (!br.ok()) {
        out.Gate(false, "engine sample: " + br.status().ToString());
        return out;
      }
      for (const auto& s : br->stats) engine.Add(s);
      compute_share = static_cast<double>(br->compute_ns) /
                      (static_cast<double>(br->wall_ns) * p.shards);
    }
    cpus.ServerSide();  // the daemon's threads inherit this
    const uint64_t t2 = NowNs();
    auto daemon = std::make_unique<e2::net::Daemon>(dopt);
    e2::Status st = [&] {
      ScopedSpan span("daemon.Start", setup_phase.id());
      E2_RETURN_NOT_OK(daemon->AddIndex("default", std::move(owned)));
      return daemon->Start();
    }();
    const uint64_t t3 = NowNs();
    if (!st.ok()) {
      out.Gate(false, "daemon start: " + st.ToString());
      return out;
    }
    sessions.build_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    sessions.start_ms.push_back(static_cast<double>(t3 - t2) / 1e6);
    sessions.setup_s.push_back(static_cast<double>((t1 - t0) + (t3 - t2)) / 1e9);
    setup_phase.End();
    cpus.ClientSide();  // the writer runs on this thread

    std::vector<std::unique_ptr<e2::net::Client>> readers;
    std::unique_ptr<e2::net::Client> writer;
    for (uint32_t i = 0; i <= p.readers; ++i) {
      auto c = e2::net::Client::Connect("unix:" + sock, copt);
      if (!c.ok()) {
        out.Gate(false, "connect: " + c.status().ToString());
        return out;
      }
      if (i < p.readers) {
        readers.push_back(std::move(*c));
      } else {
        writer = std::move(*c);
      }
    }
    // Clients go first; the daemon then drains and stops.
    auto shutdown = [&] {
      readers.clear();
      writer.reset();
      daemon->RequestStop();
      daemon->Wait();
    };

    // Accuracy on the fixed sample, over the wire, before any write.
    if (session == 0) {
      auto res = [&] {
        ScopedSpan span("client.SearchBatch");
        return readers[0]->SearchBatch("default", in.sample.Row(0),
                                       static_cast<uint32_t>(in.sample.n()), dim, p.k);
      }();
      out.attempted += in.sample.n();
      if (!res.ok()) {
        out.Gate(false, "sample: " + res.status().ToString());
        shutdown();
        return out;
      }
      std::vector<Answer> answers;
      for (auto& r : *res) {
        if (!r.status.ok()) ++out.failed;
        answers.push_back(std::move(r.neighbors));
      }
      InjectTruncate(o, &answers);
      ScoreSample(p, in, answers, &out);
    }

    // Readers: closed loops until `until`. Every answer is checked, and
    // no id may come back from a search sent after its Remove was acked.
    RemovedIds removed;
    std::atomic<bool> traced_half{false};
    const uint64_t measure_phase = NewSpanId();
    auto read_loop = [&](uint32_t r, uint64_t until, bool measured, ReaderLog* log) {
      cpus.ClientSide();
      e2::net::Client* c = readers[r].get();
      const uint32_t batch = p.remote_batch;
      for (uint64_t i = 0; NowNs() < until; ++i) {
        // `batch` consecutive stream rows, packed: one request.
        const size_t first = (r * 7919 + i * batch) % (in.stream.n() - batch);
        const uint64_t sent = NowNs();
        auto res = [&] {
          ScopedSpan span("client.SearchBatch", measure_phase,
                          (static_cast<uint64_t>(r) << 32) | i);
          return c->SearchBatch("default", in.stream.Row(first), batch, dim, p.k);
        }();
        const uint64_t rtt = NowNs() - sent;
        log->attempted += batch;
        if (!res.ok() || res->size() != batch) {
          log->failed += batch;
          continue;
        }
        for (uint32_t q = 0; q < batch; ++q) {
          const auto& one = (*res)[q];
          if (!one.status.ok()) {
            ++log->failed;
            continue;
          }
          if (!measured) continue;
          const float* query = in.stream.Row(first + q);
          const std::string bad = CheckAnswer(rows, query, one.neighbors, p.k);
          if (!bad.empty()) log->violations.push_back("remote query: " + bad);
          for (const Neighbor& nb : one.neighbors) {
            if (nb.id >= n0 && removed.RemovedBefore(nb.id, sent)) {
              log->violations.push_back("removed id " + std::to_string(nb.id) + " returned");
            }
          }
          log->rtt_us.push_back(static_cast<double>(rtt) / 1e3);
          log->sent_ns.push_back(sent);
          log->traced.push_back(traced_half.load());
          log->overhead_us.push_back(
              static_cast<double>(rtt - std::min<uint64_t>(rtt, one.latency_ns)) / 1e3);
        }
      }
    };

    // Warm-up, excluded.
    {
      std::vector<ReaderLog> warm(p.readers);
      std::vector<std::thread> threads;
      const uint64_t until = NowNs() + static_cast<uint64_t>(p.remote_warmup_s * 1e9);
      for (uint32_t r = 0; r < p.readers; ++r) {
        threads.emplace_back(read_loop, r, until, false, &warm[r]);
      }
      for (auto& t : threads) t.join();
      for (const auto& l : warm) {
        out.attempted += l.attempted;
        out.failed += l.failed;
      }
    }

    // Measured window: readers + the paced writer on this thread. A
    // traced run records spans only in the second half (the overhead base).
    const StorageWindow window = OpenStorageWindow(*index);
    auto stats0 = writer->Stats("default");
    EnableTracing(false);
    const uint64_t start = NowNs();
    const uint64_t deadline = start + static_cast<uint64_t>(session_s * 1e9);
    std::vector<ReaderLog> logs(p.readers);
    std::vector<std::thread> threads;
    for (uint32_t r = 0; r < p.readers; ++r) {
      threads.emplace_back(read_loop, r, deadline, true, &logs[r]);
    }
    std::vector<double> late_us;
    uint64_t lag_max = 0, depth_max = 0, inserted = 0;
    std::vector<uint32_t> ids;
    const uint64_t period = static_cast<uint64_t>(1e9 / p.insert_rate);
    auto writer_op = [&](bool ok, const std::string& what) {
      ++out.attempted;
      if (!ok) ++out.failed;
      out.Gate(ok, what);
    };
    for (uint64_t j = 0; j < ticks; ++j) {
      const uint64_t due = start + j * period;
      if (due >= deadline) break;
      if (o.trace && due >= start + (deadline - start) / 2 && !traced_half.load()) {
        traced_half.store(true);
        EnableTracing(true);
      }
      SleepUntilNs(due);
      const uint64_t t_ins = NowNs();
      late_us.push_back(static_cast<double>(t_ins - due) / 1e3);
      const float* row = in.inserts.Row(j);
      auto ack = [&] {
        ScopedSpan span("client.Insert", measure_phase, j);
        return writer->Insert("default", row, 1, dim);
      }();
      sessions.insert_ms.push_back(static_cast<double>(NowNs() - t_ins) / 1e6);
      writer_op(ack.ok(), "insert: " + (ack.ok() ? std::string() : ack.status().ToString()));
      if (!ack.ok()) break;
      ++inserted;
      writer_op(ack->first_id == n0 + j, "insert got id " + std::to_string(ack->first_id));
      ids.push_back(ack->first_id);
      auto found = writer->Search("default", row, dim, p.k);
      writer_op(found.ok() && found->status.ok() && !found->neighbors.empty() &&
                    found->neighbors[0].id == ack->first_id &&
                    found->neighbors[0].dist == 0.0f,
                "inserted id " + std::to_string(ack->first_id) + " not found at distance 0");
      if (j >= p.remove_lag) {
        const uint32_t victim = ids[j - p.remove_lag];
        auto rm = [&] {
          ScopedSpan span("client.Remove", measure_phase, j);
          return writer->Remove("default", &victim, 1);
        }();
        writer_op(rm.ok(), "remove failed");
        if (rm.ok()) removed.Add(victim, NowNs());
        auto again = writer->Search("default", in.inserts.Row(j - p.remove_lag), dim, p.k);
        Answer a = again.ok() ? again->neighbors : Answer{};
        if (o.inject == "removed") a.push_back({victim, 0.0f});
        const bool gone = std::none_of(a.begin(), a.end(),
                                       [&](const Neighbor& nb) { return nb.id == victim; });
        writer_op(again.ok() && again->status.ok() && gone,
                  "removed id " + std::to_string(victim) + " still returned");
      }
      auto stats = [&] {
        ScopedSpan span("client.Stats", measure_phase, j);
        return writer->Stats("default");
      }();
      writer_op(stats.ok(), "stats failed");
      if (stats.ok()) {
        lag_max = std::max(lag_max, stats->update_lag);
        depth_max = std::max(depth_max, stats->queue_depth);
      }
    }
    for (auto& t : threads) t.join();
    EnableTracing(o.trace);
    RecordSpan("phase.measure", start, NowNs(), 0, session, measure_phase);
    auto stats1 = writer->Stats("default");

    ReaderLog all;
    for (auto& l : logs) {
      all.attempted += l.attempted;
      all.failed += l.failed;
      all.rtt_us.insert(all.rtt_us.end(), l.rtt_us.begin(), l.rtt_us.end());
      all.traced.insert(all.traced.end(), l.traced.begin(), l.traced.end());
      all.overhead_us.insert(all.overhead_us.end(), l.overhead_us.begin(), l.overhead_us.end());
      for (const auto& v : l.violations) out.Gate(false, v);
    }
    out.attempted += all.attempted;
    out.failed += all.failed;
    const double elapsed_s = static_cast<double>(deadline - start) / 1e9;
    const double qps = static_cast<double>(all.attempted - all.failed) / elapsed_s;
    const uint64_t window_ns = p.remote_window_ms * 1000000;
    std::vector<std::vector<double>> windows((deadline - start) / window_ns);
    for (const auto& l : logs) {
      for (size_t i = 0; i < l.rtt_us.size(); ++i) {
        const uint64_t w = (l.sent_ns[i] - start) / window_ns;
        if (w < windows.size()) windows[w].push_back(l.rtt_us[i]);
      }
    }
    const double window_s = static_cast<double>(window_ns) / 1e9;
    for (const auto& w : windows) {
      const auto good = std::count_if(w.begin(), w.end(), [&](double us) {
        return us <= static_cast<double>(p.remote_limit_us);
      });
      sessions.qps.push_back(static_cast<double>(w.size()) / window_s);
      sessions.goodput.push_back(static_cast<double>(good) / window_s);
      sessions.p50.push_back(Percentile(w, 0.50));
      sessions.p99.push_back(Percentile(w, 0.99));
    }

    if (last && o.trace) {
      ReportEngineAndKernels(p, *index, in, engine, compute_share, qps, &out);
      // Queue wait and service are not separable from outside the daemon.
      out.Layer("server.queue_wait_p50_share", 0, "ratio");
      out.Layer("server.queue_wait_p99_share", 0, "ratio");
      out.Layer("server.mean_batch_size", stats1.ok() ? stats1->mean_batch_size : 0, "count");
      out.Layer("server.queue_depth_max", static_cast<double>(depth_max), "count");
      out.Layer("server.rejected",
                stats0.ok() && stats1.ok()
                    ? static_cast<double>(stats1->rejected - stats0->rejected)
                    : 0,
                "count");
      ReportStorage(p, *index, window, all.attempted + 2 * inserted, p.remote_uri,
                    inserted * dim * sizeof(float), &out);
      out.Layer("updater.lag_max", static_cast<double>(lag_max), "count");
      const double rtt_p50 = Percentile(all.rtt_us, 0.50);
      const double rtt_p99 = Percentile(all.rtt_us, 0.99);
      out.Layer("net.overhead_p50_share",
                rtt_p50 > 0 ? Percentile(all.overhead_us, 0.50) / rtt_p50 : 0, "ratio");
      out.Layer("net.overhead_p99_share",
                rtt_p99 > 0 ? Percentile(all.overhead_us, 0.99) / rtt_p99 : 0, "ratio");
      out.Layer("gen.late_p99_share",
                Percentile(late_us, 0.99) * 1e3 / static_cast<double>(period), "ratio");
      out.Layer("builder.build_s", Median(sessions.build_s), "s");
      out.Layer("api.serve_start_ms", Median(sessions.start_ms), "ms");
      std::vector<double> traced, untraced;
      for (size_t i = 0; i < all.rtt_us.size(); ++i) {
        (all.traced[i] ? traced : untraced).push_back(all.rtt_us[i]);
      }
      out.Layer("trace.overhead_share", Median(traced) / Median(untraced) - 1.0, "ratio");
    }
    shutdown();
    if (last && !o.trace) ReportSetup(sessions.setup_s, *index, &out);
  }

  if (!o.trace) {
    out.E2e("ok_rate",
            static_cast<double>(out.attempted - out.failed) /
                static_cast<double>(out.attempted),
            "ratio");
    out.E2e("qps", Median(sessions.qps), "1/s");
    out.E2e("p50_us", Median(sessions.p50), "us");
    out.E2e("p99_us", Median(sessions.p99), "us");
    out.E2e("max_qps_at_slo", Median(sessions.goodput), "1/s");
    out.E2e("insert_p50_ms", Percentile(sessions.insert_ms, 0.50), "ms");
    out.E2e("insert_p95_ms", Percentile(sessions.insert_ms, 0.95), "ms");
  }
  return out;
}

}  // namespace perfbench
