#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common.h"

namespace perfbench {

namespace {

struct Span {
  const char* name;
  uint64_t id, parent, request, start_ns, end_ns;
};

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};

// Per-thread buffers, owned here so they outlive the threads that fill them.
std::mutex g_buffers_mu;
std::vector<std::unique_ptr<std::vector<Span>>> g_buffers;

std::vector<Span>* ThreadBuffer() {
  thread_local std::vector<Span>* buf = nullptr;
  if (buf == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::make_unique<std::vector<Span>>());
    buf = g_buffers.back().get();
    buf->reserve(1 << 14);
  }
  return buf;
}

}  // namespace

void EnableTracing(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool TracingEnabled() { return g_enabled.load(std::memory_order_relaxed); }

uint64_t NewSpanId() { return g_next_id.fetch_add(1, std::memory_order_relaxed); }

void RecordSpan(const char* name, uint64_t start_ns, uint64_t end_ns,
                uint64_t parent, uint64_t request, uint64_t id) {
  if (!TracingEnabled()) return;
  ThreadBuffer()->push_back(
      {name, id != 0 ? id : NewSpanId(), parent, request, start_ns, end_ns});
}

ScopedSpan::ScopedSpan(const char* name, uint64_t parent, uint64_t request)
    : name_(name), parent_(parent), request_(request) {
  if (!TracingEnabled()) return;
  id_ = NewSpanId();
  start_ns_ = NowNs();
}

ScopedSpan::~ScopedSpan() { End(); }

void ScopedSpan::End() {
  if (id_ == 0) return;
  RecordSpan(name_, start_ns_, NowNs(), parent_, request_, id_);
  id_ = 0;
}

bool WriteTrace(const std::string& path) {
  std::vector<Span> spans;
  {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    for (const auto& b : g_buffers) spans.insert(spans.end(), b->begin(), b->end());
  }
  // Self time: a span's duration minus the union of its children's
  // intervals, clipped to the span.
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  for (const auto& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  struct Summary {
    uint64_t count = 0, total_ns = 0, self_ns = 0;
  };
  std::map<std::string, Summary> by_name;
  for (const auto& s : spans) {
    std::vector<std::pair<uint64_t, uint64_t>> iv;
    auto it = children.find(s.id);
    if (it != children.end()) {
      for (const Span* c : it->second) {
        const uint64_t a = std::max(c->start_ns, s.start_ns);
        const uint64_t b = std::min(c->end_ns, s.end_ns);
        if (a < b) iv.emplace_back(a, b);
      }
    }
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0, cur_a = 0, cur_b = 0;
    for (const auto& [a, b] : iv) {
      if (a > cur_b) {
        covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    covered += cur_b - cur_a;
    const uint64_t dur = s.end_ns - s.start_ns;
    auto& sum = by_name[s.name];
    sum.count++;
    sum.total_ns += dur;
    sum.self_ns += dur - std::min(dur, covered);
  }

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const auto& s : spans) {
    std::fprintf(f,
                 "{\"span\":\"%s\",\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"start_ns\":%llu,\"end_ns\":%llu}\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  std::fprintf(stderr, "trace: %zu spans -> %s\n", spans.size(), path.c_str());
  std::fprintf(stderr, "trace: %-24s %8s %12s %12s\n", "span", "count",
               "total_ms", "self_ms");
  for (const auto& [name, sum] : by_name) {
    std::fprintf(f,
                 "{\"summary\":\"%s\",\"count\":%llu,\"total_ns\":%llu,"
                 "\"self_ns\":%llu}\n",
                 name.c_str(), static_cast<unsigned long long>(sum.count),
                 static_cast<unsigned long long>(sum.total_ns),
                 static_cast<unsigned long long>(sum.self_ns));
    std::fprintf(stderr, "trace: %-24s %8llu %12.3f %12.3f\n", name.c_str(),
                 static_cast<unsigned long long>(sum.count),
                 static_cast<double>(sum.total_ns) / 1e6,
                 static_cast<double>(sum.self_ns) / 1e6);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
