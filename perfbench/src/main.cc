// perfbench: the repository benchmark.
//
//   perfbench --workload batch-mem|serve-cssd|remote-update --seed N
//             --seconds S --trace 0|1 [--work-dir DIR] [--tiny]
//             [--inject truncate|removed]
//
// Prints a metric table and, as the last line, one JSON object:
// {"correct": true, "attempted": N, "failed": F, "metrics": {...}} with
// every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). A failed correctness gate prints the failures to stderr,
// exits 1 and prints no result. perfbench/run.py builds and runs it.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "trace.h"
#include "workloads.h"

namespace perfbench {

void ReportNoServer(Outcome* out) {
  out->Layer("server.queue_wait_p50_share", 0, "ratio");
  out->Layer("server.queue_wait_p99_share", 0, "ratio");
  out->Layer("server.mean_batch_size", 0, "count");
  out->Layer("server.queue_depth_max", 0, "count");
  out->Layer("server.rejected", 0, "count");
}

void ReportNoNet(Outcome* out) {
  out->Layer("net.overhead_p50_share", 0, "ratio");
  out->Layer("net.overhead_p99_share", 0, "ratio");
}

void ReportSetup(const std::vector<double>& setup_s, const e2lshos::Index& index,
                 Outcome* out) {
  out->E2e("setup_s", Median(setup_s), "s");
  out->E2e("peak_rss_mb", PeakRssMb(), "MB");
  out->E2e("storage_bytes_per_point",
           static_cast<double>(index.sizes().storage_bytes) /
               static_cast<double>(index.base().n()),
           "B");
}

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload batch-mem|serve-cssd|"
               "remote-update --seed N --seconds S --trace 0|1 [--work-dir DIR] "
               "[--tiny] [--inject truncate|removed]\n",
               why);
  return 2;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--tiny") {
      o.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') return Usage("bad --seed");
      have_seed = true;
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(o.seconds > 0) || o.seconds > 600) {
        return Usage("bad --seconds");
      }
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return Usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (a == "--work-dir") {
      o.work_dir = v;
    } else if (a == "--inject") {
      if (v != "truncate" && v != "removed") return Usage("bad --inject");
      o.inject = v;
    } else {
      return Usage(("unknown flag " + a).c_str());
    }
  }
  if (!have_seed) return Usage("--seed is required");

  const Pinned p = MakePinned(o.tiny);
  EnableTracing(o.trace);
  Outcome out;
  if (o.workload == "batch-mem") {
    out = RunBatchMem(o, p);
  } else if (o.workload == "serve-cssd") {
    out = RunServeCssd(o, p);
  } else if (o.workload == "remote-update") {
    out = RunRemoteUpdate(o, p);
  } else {
    return Usage("unknown --workload");
  }
  EnableTracing(false);

  const auto& metrics = o.trace ? out.per_layer : out.end_to_end;
  for (const Metric& m : metrics) {
    out.Gate(std::isfinite(m.value), "metric " + m.name + " is not finite");
  }
  out.Gate(out.attempted > 0, "nothing was attempted");
  if (o.trace) {
    const std::string path = o.work_dir + "/trace-" + o.workload + "-" +
                             std::to_string(o.seed) + ".jsonl";
    out.Gate(WriteTrace(path), "cannot write " + path);
  }
  if (!out.gate_failures.empty()) {
    const size_t shown = std::min<size_t>(out.gate_failures.size(), 20);
    for (size_t i = 0; i < shown; ++i) {
      std::fprintf(stderr, "GATE FAILED: %s\n", out.gate_failures[i].c_str());
    }
    std::fprintf(stderr, "perfbench: %zu gate failure(s); no result\n",
                 out.gate_failures.size());
    return 1;
  }

  for (const Metric& m : metrics) {
    std::printf("%-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
