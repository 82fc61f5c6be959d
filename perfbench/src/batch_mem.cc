// batch-mem: a closed loop of Index::SearchBatch over a fixed set of
// independent queries on mem:. I/O is free, so the engine's CPU path —
// hashing, CRC verify, decode, distance, top-k — does all the work.
#include <cstdio>

#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace e2 = e2lshos;

Outcome RunBatchMem(const Options& o, const Pinned& p) {
  Outcome out;
  const Inputs in = MakeInputs(p, o.seed, e2::data::QueryDistribution::kIndependent,
                               p.batch_queries, p.batch_probe_inserts);
  const RowSource rows{&in.base, &in.inserts};
  Dataset first("first", in.base.dim());
  first.Append(in.stream.Row(0));

  // Set-up: Build, then reshape the engine and answer one query (the
  // engine is created lazily by the first search).
  std::vector<double> setup_s, build_s, start_ms;
  std::unique_ptr<e2::Index> index;
  ScopedSpan setup_phase("phase.setup");
  for (uint32_t i = 0; i < p.setups; ++i) {
    index.reset();
    Dataset base = in.base;
    const uint64_t t0 = NowNs();
    auto built = [&] {
      ScopedSpan span("index.Build", setup_phase.id());
      return e2::Index::Build(MakeIndexSpec(p, p.batch_uri), std::move(base));
    }();
    const uint64_t t1 = NowNs();
    if (!built.ok()) {
      out.Gate(false, "build: " + built.status().ToString());
      return out;
    }
    index = std::move(*built);
    e2::Status st = [&] {
      ScopedSpan span("index.Configure+first", setup_phase.id());
      E2_RETURN_NOT_OK(index->Configure(MakeSearchSpec(p)));
      return index->SearchBatch(first, p.k).status();
    }();
    const uint64_t t2 = NowNs();
    if (!st.ok()) {
      out.Gate(false, "start: " + st.ToString());
      return out;
    }
    build_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    start_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
    setup_s.push_back(static_cast<double>(t2 - t0) / 1e9);
  }

  setup_phase.End();

  // Accuracy on the fixed sample.
  auto sample = index->SearchBatch(in.sample, p.k);
  out.attempted += in.sample.n();
  if (!sample.ok()) {
    out.Gate(false, "sample: " + sample.status().ToString());
    return out;
  }
  std::vector<Answer> answers = sample->results;
  InjectTruncate(o, &answers);
  ScoreSample(p, in, answers, &out);

  // Warm-up, then the measured window. A traced run measures its first
  // half untraced so the tracing overhead can be reported.
  if (!index->SearchBatch(in.stream, p.k).ok()) out.Gate(false, "warm-up batch failed");
  const StorageWindow window = OpenStorageWindow(*index);
  EngineTotals engine;
  // Per-batch figures; the run reports their medians.
  std::vector<double> batch_qps, goodput, batch_p50, batch_p99;
  std::vector<double> wall_untraced_ms, wall_traced_ms;
  uint64_t compute_ns = 0, wall_ns = 0;
  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(o.seconds * 1e9);
  const uint64_t traced_from = o.trace ? start + (deadline - start) / 2 : deadline;
  const double limit_us = static_cast<double>(p.batch_limit_us);
  const uint64_t measure_phase = NewSpanId();
  for (uint64_t b = 0; NowNs() < deadline; ++b) {
    const bool traced = NowNs() >= traced_from;
    EnableTracing(traced);
    auto br = [&] {
      ScopedSpan span("index.SearchBatch", measure_phase, b);
      return index->SearchBatch(in.stream, p.k);
    }();
    out.attempted += in.stream.n();
    if (!br.ok()) {
      out.failed += in.stream.n();
      out.Gate(false, "batch: " + br.status().ToString());
      break;
    }
    uint64_t good = 0;
    std::vector<double> wall_us;
    for (size_t q = 0; q < br->results.size(); ++q) {
      const auto& s = br->stats[q];
      engine.Add(s);
      wall_us.push_back(static_cast<double>(s.wall_ns) / 1e3);
      if (s.partial) ++out.failed;
      if (!s.partial && static_cast<double>(s.wall_ns) / 1e3 <= limit_us) ++good;
      const std::string bad = CheckAnswer(rows, in.stream.Row(q), br->results[q], p.k);
      out.Gate(bad.empty(), "batch query " + std::to_string(q) + ": " + bad);
    }
    batch_p50.push_back(Percentile(wall_us, 0.50));
    batch_p99.push_back(Percentile(wall_us, 0.99));
    const double secs = static_cast<double>(br->wall_ns) / 1e9;
    batch_qps.push_back(static_cast<double>(br->results.size()) / secs);
    goodput.push_back(static_cast<double>(good) / secs);
    (traced ? wall_traced_ms : wall_untraced_ms).push_back(secs * 1e3);
    compute_ns += br->compute_ns;
    wall_ns += br->wall_ns;
  }
  EnableTracing(o.trace);
  RecordSpan("phase.measure", start, NowNs(), 0, 0, measure_phase);

  // Insert probe: Index::Insert on mem:, checked through Index::Search.
  const SearchFn search = [&](const float* q) -> e2::Result<Answer> {
    ScopedSpan span("index.Search", ProbePhase());
    return index->Search(q, p.k);
  };
  const ProbeResult probe =
      RunInsertProbe(o, index.get(), in.inserts, p.batch_probe_inserts, search, &out);
  out.attempted += probe.ops;
  out.failed += probe.failed;

  const double qps = Median(batch_qps);
  if (!o.trace) {
    ReportSetup(setup_s, *index, &out);
    out.E2e("ok_rate",
            static_cast<double>(out.attempted - out.failed) /
                static_cast<double>(out.attempted),
            "ratio");
    out.E2e("qps", qps, "1/s");
    out.E2e("p50_us", Median(batch_p50), "us");
    out.E2e("p99_us", Median(batch_p99), "us");
    out.E2e("max_qps_at_slo", Median(goodput), "1/s");
    out.E2e("insert_p50_ms", Percentile(probe.insert_ms, 0.50), "ms");
    out.E2e("insert_p95_ms", Percentile(probe.insert_ms, 0.95), "ms");
    return out;
  }

  const double compute_share =
      wall_ns ? static_cast<double>(compute_ns) /
                    (static_cast<double>(wall_ns) * p.shards)
              : 0;
  ReportEngineAndKernels(p, *index, in, engine, compute_share, qps, &out);
  ReportNoServer(&out);
  ReportStorage(p, *index, window, engine.queries + 2 * probe.insert_ms.size(),
                p.batch_uri, probe.insert_ms.size() * in.base.dim() * sizeof(float),
                &out);
  out.Layer("updater.lag_max", static_cast<double>(probe.lag_max), "count");
  out.Layer("gen.late_p99_share", 0, "ratio");  // closed loop: no schedule
  out.Layer("builder.build_s", Median(build_s), "s");
  out.Layer("api.serve_start_ms", Median(start_ms), "ms");
  out.Layer("trace.overhead_share",
            Median(wall_traced_ms) / Median(wall_untraced_ms) - 1.0, "ratio");
  ReportNetReplay(p, o, std::move(index), in, &out);
  return out;
}

}  // namespace perfbench
