#include "common.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "model/cost_model.h"
#include "util/aligned_buffer.h"
#include "util/clock.h"
#include "util/rng.h"

namespace e2lshos::bench {

Args Args::Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      return i + 1 < argc ? std::string(argv[++i]) : std::string();
    };
    if (a == "--dataset") {
      args.dataset = next();
    } else if (a == "--n") {
      args.n = std::stoull(next());
    } else if (a == "--queries") {
      args.queries = std::stoull(next());
    } else if (a == "--shards") {
      args.shards = static_cast<uint32_t>(std::stoul(next()));
    } else if (a == "--json") {
      args.json = next();
    } else if (a == "--device") {
      args.device = next();
    } else if (a == "--deadline-us") {
      args.deadline_us = std::stoull(next());
    } else if (a == "--fast") {
      args.fast = true;
    } else if (a == "--help") {
      std::printf(
          "flags: --dataset NAME  --n N  --queries Q  --shards S (multi-core "
          "mode)  --json PATH (JSONL rows)  --device URI (real-SSD mode, "
          "e.g. file: | uring:?direct=1&sqpoll=1 | file:/ssd/img?threads=8; "
          "path defaults per bench)  --deadline-us D (load shedding, serving "
          "benches)  --fast (quarter scale)\n");
      std::exit(0);
    }
  }
  return args;
}

uint64_t Args::EffectiveN(const data::DatasetSpec& spec) const {
  if (n > 0) return n;
  return fast ? std::max<uint64_t>(2000, spec.default_n / 4) : spec.default_n;
}

std::unique_ptr<util::JsonlWriter> Args::OpenJson() const {
  if (json.empty()) return nullptr;
  auto writer = util::JsonlWriter::Open(json);
  if (!writer.ok()) {
    std::fprintf(stderr, "warning: %s\n", writer.status().ToString().c_str());
    return nullptr;
  }
  return std::move(writer).value();
}

std::string Args::EffectiveDevicePath(const std::string& bench_name) const {
  auto uri = storage::ParseDeviceUri(device);
  if (uri.ok() && !uri->path.empty()) return uri->path;
  return "/tmp/e2lshos_" + bench_name + ".img";
}

Result<Workload> MakeWorkload(const data::DatasetSpec& spec, uint64_t n_override,
                              uint64_t nq_override, uint32_t gt_k) {
  Workload w;
  w.spec = spec;
  w.gen = data::MakeDataset(spec, n_override, nq_override);
  w.gt = data::GroundTruth::Compute(w.gen.base, w.gen.queries, gt_k);
  lsh::E2lshConfig cfg = spec.lsh;
  cfg.x_max = w.gen.base.XMax();
  E2_ASSIGN_OR_RETURN(w.params,
                      lsh::ComputeParams(w.gen.base.n(), w.gen.base.dim(), cfg));
  return w;
}

std::vector<double> DefaultSFactors() { return {0.5, 1, 2, 4, 8, 16, 32}; }
std::vector<double> DefaultSrsFractions() {
  return {0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2};
}
std::vector<double> DefaultQalshCs() { return {3.0, 2.5, 2.0, 1.7, 1.5}; }

std::vector<SweepPoint> SweepInMemory(e2lsh::InMemoryE2lsh* index,
                                      const Workload& w, uint32_t k,
                                      const std::vector<double>& s_factors) {
  std::vector<SweepPoint> out;
  for (const double f : s_factors) {
    index->SetCandidateCapFactor(f);
    const auto batch = index->SearchBatch(w.gen.queries, k);
    SweepPoint p;
    p.knob = f;
    p.ratio = data::MeanOverallRatio(w.gt, batch.results, k);
    p.query_ns = static_cast<double>(batch.wall_ns) /
                 static_cast<double>(w.gen.queries.n());
    p.qps = batch.QueriesPerSecond();
    p.mean_ios = batch.MeanIosInfiniteBlock();
    p.mean_radii = batch.MeanRadii();
    p.compute_ns = p.query_ns;  // in-memory: all time is compute
    out.push_back(p);
  }
  return out;
}

std::vector<SweepPoint> SweepOs(core::StorageIndex* index, const Workload& w,
                                uint32_t k, const core::EngineOptions& opts,
                                const std::vector<double>& s_factors,
                                storage::ChargedDevice* charged) {
  std::vector<SweepPoint> out;
  for (const double f : s_factors) {
    index->SetCandidateCapFactor(f);
    core::QueryEngine engine(index, &w.gen.base, opts);
    if (charged != nullptr) charged->ResetStats();
    auto batch = engine.SearchBatch(w.gen.queries, k);
    if (!batch.ok()) continue;
    SweepPoint p;
    p.knob = f;
    p.ratio = data::MeanOverallRatio(w.gt, batch->results, k);
    p.query_ns = static_cast<double>(batch->wall_ns) /
                 static_cast<double>(w.gen.queries.n());
    p.qps = batch->QueriesPerSecond();
    p.mean_ios = batch->MeanIos();
    p.mean_radii = batch->MeanRadii();
    p.compute_ns = static_cast<double>(batch->compute_ns) /
                   static_cast<double>(w.gen.queries.n());
    if (charged != nullptr) {
      p.io_cpu_ns = static_cast<double>(charged->io_cpu_ns()) /
                    static_cast<double>(w.gen.queries.n());
    }
    out.push_back(p);
  }
  return out;
}

std::vector<SweepPoint> SweepSrs(const Workload& w, uint32_t k,
                                 const std::vector<double>& fractions) {
  std::vector<SweepPoint> out;
  for (const double f : fractions) {
    baselines::SrsConfig cfg;
    cfg.max_verify =
        std::max<uint64_t>(k, static_cast<uint64_t>(f * static_cast<double>(w.n())));
    auto srs = baselines::Srs::Build(w.gen.base, cfg);
    if (!srs.ok()) continue;
    const auto batch = (*srs)->SearchBatch(w.gen.queries, k);
    SweepPoint p;
    p.knob = f;
    p.ratio = data::MeanOverallRatio(w.gt, batch.results, k);
    p.query_ns = static_cast<double>(batch.wall_ns) /
                 static_cast<double>(w.gen.queries.n());
    p.qps = batch.QueriesPerSecond();
    out.push_back(p);
  }
  return out;
}

std::vector<SweepPoint> SweepQalsh(const Workload& w, uint32_t k,
                                   const std::vector<double>& cs) {
  std::vector<SweepPoint> out;
  for (const double c : cs) {
    baselines::QalshConfig cfg;
    cfg.c = c;
    auto qalsh = baselines::Qalsh::Build(w.gen.base, cfg);
    if (!qalsh.ok()) continue;
    const auto batch = (*qalsh)->SearchBatch(w.gen.queries, k);
    SweepPoint p;
    p.knob = c;
    p.ratio = data::MeanOverallRatio(w.gt, batch.results, k);
    p.query_ns = static_cast<double>(batch.wall_ns) /
                 static_cast<double>(w.gen.queries.n());
    p.qps = batch.QueriesPerSecond();
    out.push_back(p);
  }
  return out;
}

double IoProfilePoint::IoInf() const {
  return model::IoCountInfiniteBlock(buckets_probed, num_queries);
}

double IoProfilePoint::IoAt(uint32_t objects_per_io) const {
  return model::IoCountForBlockSize(bucket_read_sizes, objects_per_io, num_queries);
}

std::vector<IoProfilePoint> ProfileInMemoryIo(e2lsh::InMemoryE2lsh* index,
                                              const Workload& w, uint32_t k,
                                              const std::vector<double>& s_factors) {
  std::vector<IoProfilePoint> out;
  for (const double f : s_factors) {
    index->SetCandidateCapFactor(f);
    IoProfilePoint p;
    p.s_factor = f;
    p.num_queries = w.gen.queries.n();
    std::vector<std::vector<util::Neighbor>> results(p.num_queries);
    const uint64_t t0 = util::NowNs();
    for (uint64_t q = 0; q < p.num_queries; ++q) {
      e2lsh::SearchStats stats;
      results[q] =
          index->Search(w.gen.queries.Row(q), k, &stats, &p.bucket_read_sizes);
      p.buckets_probed += stats.buckets_probed;
    }
    p.e2lsh_query_ns = static_cast<double>(util::NowNs() - t0) /
                       static_cast<double>(p.num_queries);
    p.ratio = data::MeanOverallRatio(w.gt, results, k);
    out.push_back(std::move(p));
  }
  return out;
}

double FieldAtRatio(const std::vector<SweepPoint>& sweep, double target,
                    double SweepPoint::*field) {
  if (sweep.empty()) return 0.0;
  // Sort by ratio ascending (most accurate first).
  std::vector<SweepPoint> pts = sweep;
  std::sort(pts.begin(), pts.end(),
            [](const SweepPoint& a, const SweepPoint& b) { return a.ratio < b.ratio; });
  if (target <= pts.front().ratio) return pts.front().*field;
  if (target >= pts.back().ratio) return pts.back().*field;
  for (size_t i = 1; i < pts.size(); ++i) {
    if (pts[i].ratio >= target) {
      const double t =
          (target - pts[i - 1].ratio) / (pts[i].ratio - pts[i - 1].ratio + 1e-30);
      return pts[i - 1].*field + t * (pts[i].*field - pts[i - 1].*field);
    }
  }
  return pts.back().*field;
}

double QueryNsAtRatio(const std::vector<SweepPoint>& sweep, double target) {
  return FieldAtRatio(sweep, target, &SweepPoint::query_ns);
}

Result<StorageStack> MakeStack(storage::DeviceKind kind, uint32_t count,
                               storage::InterfaceKind iface,
                               uint32_t queue_capacity) {
  StorageStack stack;
  storage::DeviceModel model = storage::GetDeviceModel(kind);
  model.queue_capacity = queue_capacity;
  if (count == 1) {
    E2_ASSIGN_OR_RETURN(auto dev, storage::SimulatedDevice::Create(model));
    stack.raw = std::move(dev);
  } else {
    std::vector<std::unique_ptr<storage::BlockDevice>> children;
    for (uint32_t i = 0; i < count; ++i) {
      E2_ASSIGN_OR_RETURN(auto dev, storage::SimulatedDevice::Create(model));
      children.push_back(std::move(dev));
    }
    E2_ASSIGN_OR_RETURN(auto striped,
                        storage::StripedDevice::Create(std::move(children)));
    stack.raw = std::move(striped);
  }
  const storage::InterfaceSpec spec = storage::GetInterfaceSpec(iface);
  stack.charged = std::make_unique<storage::ChargedDevice>(stack.raw.get(), spec);
  stack.name = model.name + " x " + std::to_string(count) + " / " + spec.name;
  return stack;
}

Status FillDeviceWithNoise(storage::BlockDevice* dev, uint64_t bytes) {
  util::Rng rng(7);
  util::AlignedBuffer chunk(1 << 20, 4096);
  for (size_t i = 0; i < chunk.size(); i += 4) {
    const uint32_t v = rng.NextU32();
    std::memcpy(chunk.data() + i, &v, 4);
  }
  for (uint64_t off = 0; off < bytes; off += chunk.size()) {
    const uint32_t len =
        static_cast<uint32_t>(std::min<uint64_t>(chunk.size(), bytes - off));
    E2_RETURN_NOT_OK(dev->Write(off, chunk.data(), len));
  }
  return Status::OK();
}

Result<std::unique_ptr<storage::BlockDevice>> MakeRealDevice(
    const Args& args, const std::string& path, uint64_t bytes,
    uint32_t queue_capacity, bool fill_noise) {
  E2_ASSIGN_OR_RETURN(storage::DeviceUri uri,
                      storage::ParseDeviceUri(args.device));
  if (uri.scheme != storage::DeviceUri::Scheme::kFile &&
      uri.scheme != storage::DeviceUri::Scheme::kUring) {
    return Status::InvalidArgument(
        "--device needs a file: or uring: URI for real-device mode, got '" +
        args.device + "'");
  }
  if (uri.path.empty()) uri.path = path;
  storage::DeviceUriOpenOptions opt;
  opt.create = true;
  opt.capacity = (bytes + (1 << 20) - 1) >> 20 << 20;  // whole MiBs
  opt.default_queue_capacity = queue_capacity;
  E2_ASSIGN_OR_RETURN(auto dev, storage::OpenDeviceUri(uri, opt));
  if (fill_noise) {
    // Random reads must hit real extents, not holes.
    const uint64_t fill_bytes = uri.capacity != 0 ? uri.capacity : opt.capacity;
    E2_RETURN_NOT_OK(FillDeviceWithNoise(dev.get(), fill_bytes));
  }
  return dev;
}

Result<MeasuredIops> MeasureRandomReadIops(storage::BlockDevice* dev,
                                           const IopsBenchOptions& options) {
  const uint32_t block = options.block_bytes;
  const uint32_t depth = std::max<uint32_t>(1, options.queue_depth);
  if (block == 0 || block % dev->io_alignment() != 0) {
    return Status::InvalidArgument("block size incompatible with device");
  }
  uint64_t span = options.span_bytes == 0
                      ? dev->capacity()
                      : std::min(options.span_bytes, dev->capacity());
  span = span / block * block;
  if (span < block) return Status::InvalidArgument("device too small");
  const uint64_t blocks = span / block;

  util::AlignedBuffer internal;
  uint8_t* arena = options.arena;
  if (arena == nullptr) {
    internal.Reset(static_cast<size_t>(depth) * block, 4096);
    arena = internal.data();
  } else if (options.arena_bytes < static_cast<size_t>(depth) * block) {
    return Status::InvalidArgument("arena smaller than queue_depth * block");
  }

  util::Rng rng(options.seed);
  dev->ResetStats();
  auto submit_one = [&](uint32_t slot) -> Status {
    storage::IoRequest req;
    req.offset = rng.NextU64Below(blocks) * block;
    req.length = block;
    req.buf = arena + static_cast<size_t>(slot) * block;
    req.user_data = slot;
    return dev->SubmitRead(req);
  };

  std::vector<uint32_t> free_slots;
  free_slots.reserve(depth);
  for (uint32_t i = depth; i > 0; --i) free_slots.push_back(i - 1);

  MeasuredIops out;
  out.block_bytes = block;
  out.queue_depth = depth;
  const uint64_t t0 = util::NowNs();
  const uint64_t t_end = t0 + options.duration_ms * 1000000ull;
  uint32_t inflight = 0;
  uint64_t completed = 0;
  storage::IoCompletion comps[64];

  // On any mid-sweep failure the sweep must still drain: reads in
  // flight target the (possibly function-local) arena, and returning
  // while the device can still write into it is a use-after-free.
  Status sweep_status = Status::OK();
  auto top_up = [&]() {
    while (sweep_status.ok() && !free_slots.empty()) {
      const Status st = submit_one(free_slots.back());
      if (st.ok()) {
        free_slots.pop_back();
        ++inflight;
        continue;
      }
      // Queue shallower than the requested depth: run at what it gives.
      if (st.code() != StatusCode::kResourceExhausted) sweep_status = st;
      return;
    }
  };
  top_up();

  while (sweep_status.ok() && util::NowNs() < t_end) {
    const size_t n = dev->PollCompletions(comps, 64);
    for (size_t i = 0; i < n; ++i) {
      if (comps[i].code != StatusCode::kOk) {
        sweep_status = Status::IoError("read failed during IOPS sweep");
      }
      free_slots.push_back(static_cast<uint32_t>(comps[i].user_data));
    }
    completed += n;
    inflight -= static_cast<uint32_t>(n);
    top_up();
  }
  while (inflight > 0) {
    const size_t n = dev->PollCompletions(comps, 64);
    for (size_t i = 0; i < n; ++i) {
      if (comps[i].code != StatusCode::kOk && sweep_status.ok()) {
        sweep_status = Status::IoError("read failed during IOPS sweep");
      }
    }
    completed += n;
    inflight -= static_cast<uint32_t>(n);
  }
  E2_RETURN_NOT_OK(sweep_status);
  const uint64_t elapsed = util::NowNs() - t0;
  out.reads = completed;
  if (elapsed > 0) {
    const double per_sec =
        static_cast<double>(completed) * 1e9 / static_cast<double>(elapsed);
    out.kiops = per_sec / 1e3;
    out.mbps = per_sec * block / (1 << 20);
  }
  const storage::DeviceStats stats = dev->stats();
  out.mean_lat_us = stats.read_latency.mean() / 1e3;
  out.p99_lat_us = static_cast<double>(stats.read_latency.Quantile(0.99)) / 1e3;
  return out;
}

Status CopyIndexImage(storage::BlockDevice* src, storage::BlockDevice* dst,
                      uint64_t bytes) {
  constexpr uint32_t kChunk = 1 << 20;
  // Aligned staging and alignment-rounded tail so a direct-I/O
  // destination (a real --device file under O_DIRECT) accepts the copy.
  util::AlignedBuffer buf(kChunk, 4096);
  const uint32_t align = std::max<uint32_t>(1, dst->io_alignment());
  uint64_t off = 0;
  while (off < bytes) {
    const uint32_t len =
        static_cast<uint32_t>(std::min<uint64_t>(kChunk, bytes - off));
    const uint32_t padded = (len + align - 1) / align * align;
    if (padded > len) std::memset(buf.data() + len, 0, padded - len);
    E2_RETURN_NOT_OK(src->ReadSync(off, buf.data(), len));
    E2_RETURN_NOT_OK(dst->Write(off, buf.data(), padded));
    off += len;
  }
  return Status::OK();
}

void PrintHeader(const std::string& title, const std::vector<std::string>& cols) {
  std::printf("\n== %s ==\n", title.c_str());
  for (size_t i = 0; i < cols.size(); ++i) {
    std::printf("%s%s", i ? " | " : "", cols[i].c_str());
  }
  std::printf("\n");
  for (size_t i = 0; i < cols.size(); ++i) {
    std::printf("%s%s", i ? "-|-" : "", std::string(cols[i].size(), '-').c_str());
  }
  std::printf("\n");
}

void PrintRow(const std::vector<std::string>& cells) {
  for (size_t i = 0; i < cells.size(); ++i) {
    std::printf("%s%s", i ? " | " : "", cells[i].c_str());
  }
  std::printf("\n");
  std::fflush(stdout);
}

std::string Fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string FmtBytes(uint64_t bytes) {
  char buf[64];
  if (bytes >= (1ULL << 30)) {
    std::snprintf(buf, sizeof(buf), "%.2f GB", static_cast<double>(bytes) / (1 << 30));
  } else if (bytes >= (1ULL << 20)) {
    std::snprintf(buf, sizeof(buf), "%.1f MB", static_cast<double>(bytes) / (1 << 20));
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f KB", static_cast<double>(bytes) / (1 << 10));
  }
  return buf;
}

}  // namespace e2lshos::bench
