// In-memory span recorder for the traced run.
//
// A span covers one call into a layer: name, start, end, the span that
// caused it, and the request it belongs to (spans of one request share
// the id). Spans are appended to per-thread buffers while the run goes
// and written out once, when it ends, together with each name's self
// time (its duration minus the part its child spans cover).
//
// With tracing off every call is a branch on one flag.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

void EnableTracing(bool on);
bool TracingEnabled();

/// A fresh span id (0 is "no parent").
uint64_t NewSpanId();

/// Record a finished span. `id` may come from NewSpanId() when children
/// were recorded against it before it finished; 0 assigns one.
void RecordSpan(const char* name, uint64_t start_ns, uint64_t end_ns,
                uint64_t parent, uint64_t request, uint64_t id = 0);

/// \brief RAII span around a synchronous call.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, uint64_t parent = 0, uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }
  /// Finish the span now instead of at scope exit.
  void End();

 private:
  const char* name_;
  uint64_t parent_;
  uint64_t request_;
  uint64_t id_ = 0;
  uint64_t start_ns_ = 0;
};

/// Write every recorded span (JSON lines) and a per-name summary
/// (count, total and self time) to `path`; the summary also goes to
/// stderr. Returns false when the file cannot be written.
bool WriteTrace(const std::string& path);

}  // namespace perfbench
