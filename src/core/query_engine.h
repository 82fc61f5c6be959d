// E2LSHoS query processing (paper Sec. 5.4, Fig. 10).
//
// For each search radius R and compound hash l:
//   Step 1: hash the query, read the bucket address from the on-storage
//           hash table (one I/O) — skipped entirely for empty buckets
//           (DRAM bitmap).
//   Step 2: read the bucket block at that address (one I/O per block,
//           following the chain headers).
//   Step 3: check fingerprints, compute distances to surviving
//           candidates, update the top-k.
//
// To keep the device queue deep (the asynchronous regime of Fig. 1(B)),
// the engine interleaves many query contexts: while one query waits for
// data, others hash, issue, and distance-check. A context moves to the
// next radius only when all its probes for the current radius have
// drained; a query completes when the k-th best distance is within c*R
// (the (R,c)-NN ladder guarantee) or the ladder is exhausted.
//
// The synchronous mode (EngineOptions::synchronous) caps the queue depth
// at one outstanding I/O — the Fig. 1(A) baseline of Sec. 6.5.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_set>
#include <vector>

#include "core/storage_index.h"
#include "data/dataset.h"
#include "util/aligned_buffer.h"
#include "util/topk.h"

namespace e2lshos::core {

struct EngineOptions {
  uint32_t num_contexts = 32;       ///< Queries processed concurrently.
  uint32_t max_inflight_ios = 256;  ///< Outstanding I/O cap (queue depth).
  bool synchronous = false;         ///< Fig. 1(A): one blocking I/O at a time.
  /// Register the engine's I/O arena with the device at construction so
  /// reads can go out as fixed-buffer I/O (UringDevice: READ_FIXED, no
  /// per-I/O page pinning). Best-effort: devices without support — or a
  /// shared device already holding a registration — run unregistered.
  bool register_fixed_buffers = false;
};

/// \brief Per-query instrumentation (drives the Sec. 4 analysis benches).
struct QueryStats {
  uint32_t radii_searched = 0;
  uint64_t ios = 0;                ///< Table reads + bucket block reads.
  uint64_t table_reads = 0;
  uint64_t bucket_block_reads = 0;
  uint64_t buckets_probed = 0;     ///< Non-empty buckets visited.
  uint64_t candidates = 0;         ///< Distinct candidates distance-checked.
  uint64_t fp_rejects = 0;         ///< Fingerprint mismatches discarded.
  uint64_t dup_skips = 0;          ///< Candidates seen more than once.
  uint64_t tombstone_skips = 0;    ///< Removed objects filtered out.
  uint64_t io_errors = 0;          ///< Failed reads / invalid entries skipped.
  uint64_t corrupt_blocks = 0;     ///< CRC-mismatched blocks/sectors dropped.
  uint64_t dropped_candidates = 0; ///< Entries discarded with corrupt blocks.
  /// Probes were dropped (I/O errors or checksum failures): the result is
  /// best-effort over the candidates that survived, never an error.
  bool partial = false;
  uint64_t wall_ns = 0;            ///< Query issue-to-answer latency.
};

/// \brief Results of a batch run.
struct BatchResult {
  std::vector<std::vector<util::Neighbor>> results;
  std::vector<QueryStats> stats;
  uint64_t wall_ns = 0;     ///< Whole-batch wall time.
  uint64_t compute_ns = 0;  ///< CPU time in hashing + distance checking.

  double MeanIos() const {
    if (stats.empty()) return 0.0;
    uint64_t total = 0;
    for (const auto& s : stats) total += s.ios;
    return static_cast<double>(total) / static_cast<double>(stats.size());
  }
  double MeanRadii() const {
    if (stats.empty()) return 0.0;
    uint64_t total = 0;
    for (const auto& s : stats) total += s.radii_searched;
    return static_cast<double>(total) / static_cast<double>(stats.size());
  }
  double QueriesPerSecond() const {
    if (wall_ns == 0) return 0.0;
    return static_cast<double>(results.size()) * 1e9 / static_cast<double>(wall_ns);
  }
};

class QueryEngine {
 public:
  /// The index and base dataset must outlive the engine. The device used
  /// is the one the index was built on.
  QueryEngine(const StorageIndex* index, const data::Dataset* base,
              const EngineOptions& options = {});

  /// Run top-k ANNS for every query in `queries`.
  Result<BatchResult> SearchBatch(const data::Dataset& queries, uint32_t k);

  /// Convenience: single query.
  Result<std::vector<util::Neighbor>> Search(const float* query, uint32_t k,
                                             QueryStats* stats = nullptr);

  /// True when the I/O arena was successfully registered with the device
  /// (EngineOptions::register_fixed_buffers accepted by the backend).
  bool fixed_buffers_active() const { return fixed_buffers_active_; }

 private:
  struct PendingIssue {
    uint64_t addr = 0;
    uint32_t expected_fp = 0;
    bool is_table = false;
    uint32_t chain_budget = 0;  ///< Remaining blocks this chain may span.
  };

  struct Context {
    int64_t query_idx = -1;  // -1 = idle
    const float* q = nullptr;
    std::unique_ptr<util::TopK> topk;
    std::unordered_set<uint32_t> checked;
    uint32_t radius_idx = 0;
    uint64_t checked_in_radius = 0;
    bool draining = false;  // candidate cap S reached for this radius
    uint32_t pending_ios = 0;
    std::deque<PendingIssue> to_issue;
    uint64_t start_ns = 0;
    QueryStats stats;
    std::vector<uint32_t> hashes;  // query hash32 per l at current radius
  };

  struct IoSlot {
    /// Slice of arena_ (slot_bytes wide, device-alignment aligned) — one
    /// contiguous arena, registrable with the device as a single fixed
    /// buffer, instead of per-slot allocations.
    uint8_t* buf = nullptr;
    uint32_t ctx = 0;
    uint32_t expected_fp = 0;
    bool is_table = false;
    bool in_use = false;
    uint32_t chain_budget = 0;
    /// Device byte address of the requested entry/block (pre-widening):
    /// locates the covering table sector for checksum verification.
    uint64_t addr = 0;
    /// Offset of the wanted bytes inside `buf`: table-entry reads are
    /// issued sector-aligned (8-byte extents are rejected by O_DIRECT
    /// devices), so the entry may sit mid-sector.
    uint32_t buf_offset = 0;
  };

  void StartQuery(Context* ctx, int64_t query_idx, const float* q, uint32_t k);
  void BeginRadius(Context* ctx);
  /// Try to submit queued probes; returns true if anything was submitted.
  bool IssueFrom(Context* ctx);
  void HandleCompletion(const storage::IoCompletion& comp, BatchResult* out,
                        const data::Dataset& queries, uint32_t k);
  void ProcessBucketBlock(Context* ctx, const IoSlot& slot);
  /// Radius drained: advance the ladder or finish the query.
  void MaybeAdvance(Context* ctx, BatchResult* out, const data::Dataset& queries,
                    uint32_t k);
  void FinishQuery(Context* ctx, BatchResult* out);

  const StorageIndex* index_;
  const data::Dataset* base_;
  EngineOptions options_;

  std::vector<Context> contexts_;
  /// Backing store for every slot's buffer (slots_ point into it).
  util::AlignedBuffer arena_;
  bool fixed_buffers_active_ = false;
  std::vector<IoSlot> slots_;
  /// A bucket block's entries that passed the filters, with their rows:
  /// ProcessBucketBlock's scratch between its prefetch and distance
  /// passes (objects_per_block() entries, sized once).
  struct Survivor {
    uint32_t id = 0;
    const float* row = nullptr;
  };
  std::vector<Survivor> survivors_;
  std::vector<uint32_t> free_slots_;
  uint32_t inflight_ = 0;

  // Batch progress.
  int64_t next_query_ = 0;
  int64_t total_queries_ = 0;
  int64_t completed_queries_ = 0;
  uint64_t compute_ns_ = 0;
  ObjectInfoCodec codec_;
  /// Epoch pinned for the duration of the current batch (see
  /// core/epoch.h): acquired once per SearchBatch — the micro-batch
  /// boundary — so every query in the batch sees one consistent
  /// snapshot of live mutations. Null when none were published; the
  /// engine then runs the legacy (built-image) path byte for byte.
  std::shared_ptr<const EpochState> epoch_;
  /// Object count the pinned epoch (or the index) vouches for.
  uint64_t effective_n_ = 0;
  uint32_t max_chain_blocks_ = 0;  ///< Chain-cycle guard (corruption).
  /// Granularity of table-entry reads: the device-advertised direct-I/O
  /// alignment (4096 on a 4Kn drive), never below one 512-byte sector.
  uint32_t table_read_bytes_ = storage::kSectorBytes;
};

}  // namespace e2lshos::core
