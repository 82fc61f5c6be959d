#include "core/query_engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>

#include "util/clock.h"
#include "util/distance.h"

namespace e2lshos::core {

QueryEngine::QueryEngine(const StorageIndex* index, const data::Dataset* base,
                         const EngineOptions& options)
    : index_(index), base_(base), options_(options) {
  if (options_.synchronous) {
    options_.num_contexts = 1;
    options_.max_inflight_ios = 1;
  }
  if (options_.num_contexts == 0) options_.num_contexts = 1;
  if (options_.max_inflight_ios == 0) options_.max_inflight_ios = 1;

  contexts_.resize(options_.num_contexts);
  for (auto& ctx : contexts_) {
    ctx.hashes.resize(index_->layout().L);
  }
  max_chain_blocks_ = static_cast<uint32_t>(
      index_->n() / index_->layout().objects_per_block() + 2);
  survivors_.resize(index_->layout().objects_per_block());
  slots_.resize(options_.max_inflight_ios);
  free_slots_.reserve(slots_.size());
  // Table-entry reads are issued at the device's advertised granularity
  // (io_alignment probes 4096 on a 4Kn drive in direct mode); buffers
  // get the matching address alignment so direct submission never
  // bounces.
  table_read_bytes_ = std::max(storage::kSectorBytes,
                               index_->device()->io_alignment());
  // A block not aligned to the device unit is read as the widened span
  // containing it, which can start up to one unit before the block and
  // end up to one unit after: size every slot for the worst case.
  const uint32_t block_span =
      (index_->layout().block_bytes + 2 * table_read_bytes_ - 1) /
      table_read_bytes_ * table_read_bytes_;
  const uint32_t slot_bytes = std::max(block_span, table_read_bytes_);
  // One contiguous arena, sliced into per-slot buffers: slot_bytes is a
  // multiple of table_read_bytes_, so every slice keeps the device
  // alignment — and the whole thing registers with the device as a
  // single fixed-buffer region.
  arena_.Reset(static_cast<size_t>(slot_bytes) * slots_.size(),
               table_read_bytes_);
  for (uint32_t i = 0; i < slots_.size(); ++i) {
    slots_[i].buf = arena_.data() + static_cast<size_t>(i) * slot_bytes;
    free_slots_.push_back(i);
  }
  if (options_.register_fixed_buffers) {
    // Best-effort: Unimplemented (backend has no fixed buffers) and
    // FailedPrecondition (shared device already registered by another
    // engine) both mean "run unregistered", not failure.
    fixed_buffers_active_ =
        index_->device()
            ->RegisterBuffers({{arena_.data(), arena_.size()}})
            .ok();
  }
}

void QueryEngine::StartQuery(Context* ctx, int64_t query_idx, const float* q,
                             uint32_t k) {
  ctx->query_idx = query_idx;
  ctx->q = q;
  ctx->topk = std::make_unique<util::TopK>(k);
  ctx->checked.clear();
  ctx->radius_idx = 0;
  ctx->stats = QueryStats{};
  ctx->start_ns = util::NowNs();
  BeginRadius(ctx);
}

void QueryEngine::BeginRadius(Context* ctx) {
  const IndexLayout& layout = index_->layout();
  const uint64_t t0 = util::NowNs();
  index_->family().HashAll(ctx->radius_idx, ctx->q, ctx->hashes.data());
  compute_ns_ += util::NowNs() - t0;

  ctx->checked_in_radius = 0;
  ctx->draining = false;
  ++ctx->stats.radii_searched;

  const std::unordered_map<uint64_t, uint64_t>* overlay =
      (epoch_ != nullptr && epoch_->overlay != nullptr &&
       !epoch_->overlay->empty())
          ? epoch_->overlay.get()
          : nullptr;
  for (uint32_t l = 0; l < layout.L; ++l) {
    const uint32_t h = ctx->hashes[l];
    const uint32_t slot = layout.fp.TableIndex(h);
    if (overlay != nullptr) {
      // A live mutation redirected this bucket's chain head: go straight
      // to the block, skipping the table read (the on-device entry is
      // stale by design — tables are only rewritten at a quiesced
      // Flush). Checked before the bitmap: a bucket born live has no
      // bitmap bit yet.
      const auto it =
          overlay->find(index_->BucketKey(ctx->radius_idx, l, slot));
      if (it != overlay->end()) {
        ++ctx->stats.buckets_probed;
        PendingIssue p;
        p.addr = it->second;
        p.expected_fp = layout.fp.Fingerprint(h);
        p.is_table = false;
        p.chain_budget = max_chain_blocks_;
        ctx->to_issue.push_back(p);
        continue;
      }
    }
    if (!index_->SlotNonEmpty(ctx->radius_idx, l, slot)) continue;
    PendingIssue p;
    p.addr = layout.TableEntryAddr(ctx->radius_idx, l, slot);
    p.expected_fp = layout.fp.Fingerprint(h);
    p.is_table = true;
    ctx->to_issue.push_back(p);
  }
}

bool QueryEngine::IssueFrom(Context* ctx) {
  bool issued = false;
  while (!ctx->to_issue.empty() && inflight_ < options_.max_inflight_ios &&
         !free_slots_.empty()) {
    const PendingIssue p = ctx->to_issue.front();
    const uint32_t slot_idx = free_slots_.back();
    IoSlot& slot = slots_[slot_idx];

    storage::IoRequest req;
    uint32_t buf_offset = 0;
    if (p.is_table) {
      // A table entry is 8 bytes, but direct-I/O devices reject extents
      // smaller than their advertised alignment: read the whole aligned
      // unit containing the entry and remember where it sits inside the
      // buffer.
      const uint64_t aligned =
          p.addr & ~static_cast<uint64_t>(table_read_bytes_ - 1);
      buf_offset = static_cast<uint32_t>(p.addr - aligned);
      req.offset = aligned;
      req.length = table_read_bytes_;
    } else {
      // Bucket blocks are sized by the layout, not the device: on a
      // device whose alignment exceeds the block size (4Kn direct mode
      // over a 512-byte-block layout) widen the read to the aligned
      // span containing the block, exactly like table entries.
      const uint32_t block_bytes = index_->layout().block_bytes;
      if (p.addr % table_read_bytes_ == 0 &&
          block_bytes % table_read_bytes_ == 0) {
        req.offset = p.addr;
        req.length = block_bytes;
      } else {
        const uint64_t aligned =
            p.addr & ~static_cast<uint64_t>(table_read_bytes_ - 1);
        buf_offset = static_cast<uint32_t>(p.addr - aligned);
        req.offset = aligned;
        req.length = (buf_offset + block_bytes + table_read_bytes_ - 1) /
                     table_read_bytes_ * table_read_bytes_;
      }
    }
    req.buf = slot.buf;
    req.user_data = slot_idx;

    const Status st = index_->device()->SubmitRead(req);
    if (!st.ok()) {
      if (st.code() == StatusCode::kResourceExhausted) {
        // Device queue full: retry after draining completions.
        break;
      }
      // Hard submit error (I/O failure, bad address from a corrupted
      // chain pointer): drop the probe and carry on — a lost bucket
      // costs candidates, never progress.
      ctx->to_issue.pop_front();
      ++ctx->stats.io_errors;
      continue;
    }
    ctx->to_issue.pop_front();
    free_slots_.pop_back();
    slot.in_use = true;
    slot.ctx = static_cast<uint32_t>(ctx - contexts_.data());
    slot.expected_fp = p.expected_fp;
    slot.is_table = p.is_table;
    slot.chain_budget = p.chain_budget;
    slot.buf_offset = buf_offset;
    slot.addr = p.addr;
    ++ctx->pending_ios;
    ++inflight_;
    ++ctx->stats.ios;
    if (p.is_table) {
      ++ctx->stats.table_reads;
    } else {
      ++ctx->stats.bucket_block_reads;
    }
    issued = true;
  }
  return issued;
}

void QueryEngine::ProcessBucketBlock(Context* ctx, const IoSlot& slot) {
  const IndexLayout& layout = index_->layout();
  const ObjectInfoCodec& codec = codec_;

  const uint8_t* block = slot.buf + slot.buf_offset;
  const BlockHeader hdr = BlockHeader::DecodeFrom(block);
  const uint32_t per_block = layout.objects_per_block();
  // Clamp in the uint32_t domain: a uint16_t min would truncate
  // per_block when a large block layout holds > 65535 entries.
  const uint32_t count = std::min<uint32_t>(hdr.count, per_block);

  if (index_->checksums_enabled() &&
      !VerifyBlockCrc(block, layout.block_bytes)) {
    // Bit-rot (or an in-flight scramble) detected: never surface entries
    // from this block, and never trust its next pointer — the chain is
    // truncated here. The clamped count is the best available estimate
    // of what was lost.
    ++ctx->stats.corrupt_blocks;
    ctx->stats.dropped_candidates += count;
    return;
  }

  const uint64_t t0 = util::NowNs();
  // Pass 1: filter the entries and prefetch each surviving row, so the
  // rows' DRAM misses overlap instead of stalling pass 2 one by one. It
  // stops at the survivor that uses up the radius's remaining budget,
  // exactly where a single pass would have started draining. An S of 0
  // (a hand-edited meta) still examines one candidate.
  const uint64_t cap = std::max<uint64_t>(1, index_->params().S);
  const uint64_t budget = ctx->draining ? 0 : cap - ctx->checked_in_radius;
  const size_t row_bytes = sizeof(float) * base_->dim();
  uint32_t survivors = 0;
  const uint8_t* entry = block + kBlockHeaderBytes;
  for (uint32_t e = 0; e < count && survivors < budget;
       ++e, entry += kObjectInfoBytes) {
    const uint64_t v = codec.Read(entry);
    if (layout.fp.fingerprint_bits() > 0 &&
        codec.DecodeFingerprint(v) != slot.expected_fp) {
      ++ctx->stats.fp_rejects;
      continue;
    }
    const uint32_t id = codec.DecodeId(v);
    if (id >= effective_n_) {
      // Corrupted entry (id beyond the database): never dereference it.
      ++ctx->stats.io_errors;
      continue;
    }
    if (!ctx->checked.insert(id).second) {
      ++ctx->stats.dup_skips;
      continue;
    }
    // With an epoch pinned, its tombstone set is the complete live
    // truth; the index's own copy is frozen at built/loaded state.
    const bool deleted =
        epoch_ != nullptr ? epoch_->IsDeleted(id) : index_->IsDeleted(id);
    if (deleted) {
      ++ctx->stats.tombstone_skips;
      continue;
    }
    const float* row = (epoch_ != nullptr && id >= epoch_->base_rows)
                           ? epoch_->RowPtr(id)
                           : base_->Row(id);
    constexpr uintptr_t kCacheLine = 64;
    const uintptr_t row_begin = reinterpret_cast<uintptr_t>(row);
    for (uintptr_t line = row_begin & ~(kCacheLine - 1);
         line < row_begin + row_bytes; line += kCacheLine) {
      __builtin_prefetch(reinterpret_cast<const void*>(line));
    }
    survivors_[survivors++] = {id, row};
  }
  // Pass 2: distances and top-k updates, in entry order.
  for (uint32_t i = 0; i < survivors; ++i) {
    const float dist = std::sqrt(
        util::SquaredL2(survivors_[i].row, ctx->q, base_->dim()));
    ctx->topk->Push(survivors_[i].id, dist);
  }
  ctx->stats.candidates += survivors;
  ctx->checked_in_radius += survivors;
  if (ctx->checked_in_radius >= cap) {
    ctx->draining = true;  // paper: stop after examining S candidates
  }
  compute_ns_ += util::NowNs() - t0;

  if (!ctx->draining && hdr.next != 0) {
    if (slot.chain_budget == 0) {
      // A healthy chain can never exceed ceil(n / objects_per_block)
      // blocks; a longer one is a corrupted (possibly cyclic) pointer.
      ++ctx->stats.io_errors;
      return;
    }
    PendingIssue p;
    p.addr = hdr.next;
    p.expected_fp = slot.expected_fp;
    p.is_table = false;
    p.chain_budget = slot.chain_budget - 1;
    ctx->to_issue.push_back(p);
  }
}

void QueryEngine::HandleCompletion(const storage::IoCompletion& comp,
                                   BatchResult* out, const data::Dataset& queries,
                                   uint32_t k) {
  const uint32_t slot_idx = static_cast<uint32_t>(comp.user_data);
  IoSlot& slot = slots_[slot_idx];
  Context* ctx = &contexts_[slot.ctx];

  --ctx->pending_ios;
  --inflight_;
  slot.in_use = false;

  if (comp.code == StatusCode::kOk && ctx->query_idx >= 0) {
    if (slot.is_table) {
      bool sector_ok = true;
      if (index_->checksums_enabled()) {
        // Verify the 512-byte table sector holding the entry against its
        // DRAM-resident CRC before trusting the chain-head address.
        const uint64_t sec = index_->TableSectorIndex(slot.addr);
        const uint64_t sector_addr = index_->layout().table_base +
                                     sec * storage::kSectorBytes;
        const uint64_t read_base = slot.addr - slot.buf_offset;
        sector_ok = sec < index_->table_crcs().size() &&
                    index_->ComputeTableSectorCrc(
                        sec, slot.buf + (sector_addr - read_base)) ==
                        index_->table_crcs()[sec];
        if (!sector_ok) ++ctx->stats.corrupt_blocks;
      }
      uint64_t addr = 0;
      if (sector_ok) std::memcpy(&addr, slot.buf + slot.buf_offset, 8);
      if (addr != 0 && !ctx->draining) {
        ++ctx->stats.buckets_probed;
        PendingIssue p;
        p.addr = addr;
        p.expected_fp = slot.expected_fp;
        p.is_table = false;
        p.chain_budget = max_chain_blocks_;
        ctx->to_issue.push_back(p);
      }
    } else {
      ProcessBucketBlock(ctx, slot);
    }
  } else if (comp.code != StatusCode::kOk && ctx->query_idx >= 0) {
    ++ctx->stats.io_errors;
  }
  free_slots_.push_back(slot_idx);

  // When draining, queued probes for this radius are abandoned.
  if (ctx->draining) ctx->to_issue.clear();
  MaybeAdvance(ctx, out, queries, k);
}

void QueryEngine::MaybeAdvance(Context* ctx, BatchResult* out,
                               const data::Dataset& queries, uint32_t k) {
  const lsh::E2lshParams& params = index_->params();
  for (;;) {
    if (ctx->query_idx < 0) return;
    if (ctx->pending_ios > 0 || !ctx->to_issue.empty()) return;

    // Radius drained: terminal test of the (R,c)-NN ladder. A query is
    // answered once the k-th best distance is within c*R, or the ladder
    // is exhausted.
    const double radius = params.radii[ctx->radius_idx];
    const bool satisfied =
        ctx->topk->full() && ctx->topk->WorstDist() <= params.c * radius;
    const bool last = ctx->radius_idx + 1 >= params.num_radii();
    if (satisfied || last) {
      FinishQuery(ctx, out);
      if (next_query_ >= total_queries_) return;
      const int64_t idx = next_query_++;
      StartQuery(ctx, idx, queries.Row(idx), k);
      continue;  // the new query may begin with an all-empty radius
    }
    ++ctx->radius_idx;
    BeginRadius(ctx);
    // Loop: the next radius may also have zero non-empty probes.
  }
}

void QueryEngine::FinishQuery(Context* ctx, BatchResult* out) {
  ctx->stats.wall_ns = util::NowNs() - ctx->start_ns;
  ctx->stats.partial =
      ctx->stats.corrupt_blocks > 0 || ctx->stats.io_errors > 0;
  out->results[ctx->query_idx] = ctx->topk->SortedResults();
  out->stats[ctx->query_idx] = ctx->stats;
  ctx->query_idx = -1;
  ++completed_queries_;
}

Result<BatchResult> QueryEngine::SearchBatch(const data::Dataset& queries,
                                             uint32_t k) {
  if (queries.dim() != base_->dim()) {
    return Status::InvalidArgument("query dimension mismatch");
  }
  if (k == 0) return Status::InvalidArgument("k must be > 0");
  {
    auto codec = ObjectInfoCodec::MakeWithIdBits(index_->layout().id_bits,
                                                 index_->layout().fp);
    if (!codec.ok()) return codec.status();
    codec_ = codec.value();
  }
  // Pin the current epoch for the whole batch (the micro-batch boundary
  // of the live-update scheme — see core/epoch.h). Chain budgets follow
  // the epoch's n: live inserts lengthen chains.
  epoch_ = index_->epoch_publisher()->Acquire();
  effective_n_ = epoch_ != nullptr ? epoch_->n : index_->n();
  max_chain_blocks_ = static_cast<uint32_t>(
      effective_n_ / index_->layout().objects_per_block() + 2);

  BatchResult out;
  out.results.resize(queries.n());
  out.stats.resize(queries.n());
  next_query_ = 0;
  total_queries_ = static_cast<int64_t>(queries.n());
  completed_queries_ = 0;
  compute_ns_ = 0;
  inflight_ = 0;

  const uint64_t batch_start = util::NowNs();

  // Prime the contexts.
  for (auto& ctx : contexts_) {
    if (next_query_ >= total_queries_) break;
    const int64_t idx = next_query_++;
    StartQuery(&ctx, idx, queries.Row(idx), k);
    MaybeAdvance(&ctx, &out, queries, k);
  }

  std::vector<storage::IoCompletion> comps(64);
  uint32_t idle_spins = 0;
  while (completed_queries_ < total_queries_) {
    bool progressed = false;
    for (auto& ctx : contexts_) {
      if (ctx.query_idx < 0) continue;
      progressed |= IssueFrom(&ctx);
      // If every probe of the radius was dropped at submission (hard I/O
      // errors), no completion will arrive to advance this context — do
      // it here. No-op while I/Os are pending or queued.
      if (ctx.pending_ios == 0 && ctx.to_issue.empty()) {
        MaybeAdvance(&ctx, &out, queries, k);
        progressed = true;
      }
    }
    const size_t n = index_->device()->PollCompletions(comps.data(), comps.size());
    for (size_t i = 0; i < n; ++i) {
      HandleCompletion(comps[i], &out, queries, k);
    }
    progressed |= n > 0;
    if (progressed) {
      idle_spins = 0;
    } else {
#if defined(__x86_64__)
      __builtin_ia32_pause();
#endif
      // After a long dry spell, yield the core: when several engines
      // share fewer cores than threads, pure spin-polling would starve
      // whichever thread could actually make progress.
      if (++idle_spins >= 512) {
        idle_spins = 0;
        std::this_thread::yield();
      }
    }
  }

  out.wall_ns = util::NowNs() - batch_start;
  out.compute_ns = compute_ns_;
  epoch_.reset();  // let superseded epochs die between batches
  return out;
}

Result<std::vector<util::Neighbor>> QueryEngine::Search(const float* query,
                                                        uint32_t k,
                                                        QueryStats* stats) {
  data::Dataset one("single", base_->dim());
  one.Append(query);
  E2_ASSIGN_OR_RETURN(BatchResult batch, SearchBatch(one, k));
  if (stats != nullptr) *stats = batch.stats[0];
  return batch.results[0];
}

}  // namespace e2lshos::core
