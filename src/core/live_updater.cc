#include "core/live_updater.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "util/aligned_buffer.h"

namespace e2lshos::core {

// ---------------------------------------------------------------------------
// StagedIo — a read-modify-write page cache over the device for one row.
//
// Pages are page_bytes_-sized, absolutely aligned (page_off % page == 0),
// so a flushed page can never straddle the private-block boundary that
// PublishLocked maintains. Reads materialize the covering pages from the
// device (through the updater's private read queue) and serve from them,
// which also makes a row's later (radius, l) pairs see blocks its earlier
// pairs wrote. Writes only dirty cached pages; nothing reaches the device
// until Flush() issues every dirty page as one WriteBatch burst.
// ---------------------------------------------------------------------------
class LiveUpdater::StagedIo {
 public:
  StagedIo(storage::BlockDevice* read_dev, storage::BlockDevice* write_dev,
           uint32_t page_bytes)
      : read_dev_(read_dev), write_dev_(write_dev), page_(page_bytes) {}

  Status Read(uint64_t offset, void* out, uint32_t length) {
    return Access(offset, out, length, /*write=*/false);
  }

  Status Write(uint64_t offset, const void* data, uint32_t length) {
    return Access(offset, const_cast<void*>(data), length, /*write=*/true);
  }

  /// Write every dirty page to the device in one burst; returns the
  /// bytes written. The cache is cleared either way — a partially failed
  /// burst leaves only writer-private bytes behind.
  Result<uint64_t> Flush() {
    std::vector<storage::WriteOp> ops;
    uint64_t bytes = 0;
    for (const auto& page : pages_) {
      if (!page->dirty) continue;
      ops.push_back({page->off, page->buf.data(), page->len});
      bytes += page->len;
    }
    std::sort(ops.begin(), ops.end(),
              [](const storage::WriteOp& a, const storage::WriteOp& b) {
                return a.offset < b.offset;
              });
    const Status st = write_dev_->WriteBatch(ops.data(), ops.size());
    pages_.clear();
    by_offset_.clear();
    E2_RETURN_NOT_OK(st);
    return bytes;
  }

 private:
  struct Page {
    uint64_t off = 0;
    uint32_t len = 0;  ///< page_ clamped at device capacity.
    bool dirty = false;
    util::AlignedBuffer buf;
  };

  Status Access(uint64_t offset, void* data, uint32_t length, bool write) {
    uint8_t* cursor = static_cast<uint8_t*>(data);
    uint64_t cur = offset;
    uint32_t left = length;
    while (left > 0) {
      E2_ASSIGN_OR_RETURN(Page * page, Materialize(cur / page_ * page_));
      const uint32_t in_page = static_cast<uint32_t>(cur - page->off);
      if (in_page >= page->len) {
        return Status::OutOfRange("staged I/O beyond device capacity");
      }
      const uint32_t take = std::min(left, page->len - in_page);
      if (write) {
        std::memcpy(page->buf.data() + in_page, cursor, take);
        page->dirty = true;
      } else {
        std::memcpy(cursor, page->buf.data() + in_page, take);
      }
      cursor += take;
      cur += take;
      left -= take;
    }
    return Status::OK();
  }

  Result<LiveUpdater::StagedIo::Page*> Materialize(uint64_t page_off) {
    auto it = by_offset_.find(page_off);
    if (it != by_offset_.end()) return pages_[it->second].get();
    const uint64_t cap = read_dev_->capacity();
    if (page_off >= cap) {
      return Status::OutOfRange("staged I/O beyond device capacity");
    }
    auto page = std::make_unique<Page>();
    page->off = page_off;
    page->len = static_cast<uint32_t>(std::min<uint64_t>(page_, cap - page_off));
    page->buf.Reset(page_, std::max<size_t>(page_, storage::kSectorBytes));
    E2_RETURN_NOT_OK(read_dev_->ReadSync(page_off, page->buf.data(), page->len));
    by_offset_.emplace(page_off, pages_.size());
    pages_.push_back(std::move(page));
    return pages_.back().get();
  }

  storage::BlockDevice* read_dev_;
  storage::BlockDevice* write_dev_;
  const uint32_t page_;
  std::vector<std::unique_ptr<Page>> pages_;
  std::unordered_map<uint64_t, size_t> by_offset_;
};

LiveUpdater::LiveUpdater(StorageIndex* index) : index_(index) {
  const IndexLayout& layout = index_->layout_;
  auto codec = ObjectInfoCodec::MakeWithIdBits(layout.id_bits, layout.fp);
  codec_ = *codec;  // layout came from a built index; cannot fail
  page_bytes_ = std::max(index_->device_->io_alignment(), storage::kSectorBytes);
  next_id_ = index_->n_;
  base_rows_ = index_->n_;
  next_block_ = index_->next_block_idx_;
  tombstones_ = index_->tombstones_;
  {
    storage::QueueOptions opts;
    opts.queue_capacity = 8;
    opts.io_threads = 1;
    auto queue = index_->device_->CreateQueue(opts);
    if (queue.ok()) read_queue_ = std::move(*queue);
  }
  // Round the private boundary up so no staging RMW window covers a
  // byte of the built image (tables included: for block 0 the window
  // can reach below bucket_base).
  const uint64_t built_end = layout.BlockAddr(next_block_);
  while (layout.BlockAddr(next_block_) / page_bytes_ * page_bytes_ < built_end) {
    ++next_block_;
  }
  private_floor_ = next_block_;
}

Result<uint32_t> LiveUpdater::Insert(const float* row) {
  if (row == nullptr) return Status::InvalidArgument("null row");
  std::lock_guard<std::mutex> lock(mu_);
  uint32_t id = 0;
  const uint64_t cursor = next_block_;
  if (Status st = StageInsertLocked(row, &id); !st.ok()) {
    next_block_ = cursor;  // nothing committed points at the new blocks
    return st;
  }
  PublishLocked();
  return id;
}

Result<uint32_t> LiveUpdater::InsertBatch(const float* rows, uint32_t count) {
  if (rows == nullptr || count == 0) {
    return Status::InvalidArgument("empty insert batch");
  }
  std::lock_guard<std::mutex> lock(mu_);
  const uint32_t dim = index_->dim_;
  uint32_t first = 0;
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t id = 0;
    const uint64_t cursor = next_block_;
    if (Status st = StageInsertLocked(rows + static_cast<size_t>(i) * dim, &id);
        !st.ok()) {
      next_block_ = cursor;
      // Rows staged before the failure stay inserted: publish them.
      if (i > 0) PublishLocked();
      return st;
    }
    if (i == 0) first = id;
  }
  PublishLocked();
  return first;
}

Status LiveUpdater::Remove(uint32_t id) {
  return RemoveBatch(&id, 1);
}

Status LiveUpdater::RemoveBatch(const uint32_t* ids, uint32_t count) {
  if (ids == nullptr && count > 0) {
    return Status::InvalidArgument("null id list");
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (uint32_t i = 0; i < count; ++i) {
    if (tombstones_.insert(ids[i]).second) tombstones_dirty_ = true;
    ++counters_.removes;
    ++counters_.pending_ops;
  }
  PublishLocked();
  return Status::OK();
}

Status LiveUpdater::Restore(uint32_t id) {
  return RestoreBatch(&id, 1);
}

Status LiveUpdater::RestoreBatch(const uint32_t* ids, uint32_t count) {
  if (ids == nullptr && count > 0) {
    return Status::InvalidArgument("null id list");
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (uint32_t i = 0; i < count; ++i) {
    if (tombstones_.erase(ids[i]) > 0) tombstones_dirty_ = true;
    ++counters_.restores;
    ++counters_.pending_ops;
  }
  PublishLocked();
  return Status::OK();
}

Status LiveUpdater::StageInsertLocked(const float* row, uint32_t* id_out) {
  const IndexLayout& layout = index_->layout_;
  storage::BlockDevice* device = index_->device_;
  if (next_id_ >= (1ULL << codec_.id_bits)) {
    return Status::FailedPrecondition(
        "id exceeds the id space fixed at build time; rebuild the index");
  }
  const uint32_t id = static_cast<uint32_t>(next_id_);
  const uint32_t per_block = layout.objects_per_block();
  const uint32_t block_bytes = layout.block_bytes;

  StagedIo io(read_queue_ != nullptr ? read_queue_.get() : device, device,
              page_bytes_);
  std::vector<uint8_t> block(block_bytes);
  // Row-local state, committed only when every pair succeeds.
  std::unordered_map<uint64_t, uint64_t> delta;
  uint64_t new_blocks = 0;
  uint64_t new_slots = 0;

  auto alloc_block = [&]() -> Result<uint64_t> {
    const uint64_t addr = layout.BlockAddr(next_block_);
    if (!storage::RangeInCapacity(addr, block_bytes, device->capacity())) {
      return Status::OutOfRange("device full; cannot grow the index");
    }
    ++next_block_;
    ++new_blocks;
    return addr;
  };

  for (uint32_t r = 0; r < layout.num_radii; ++r) {
    for (uint32_t l = 0; l < layout.L; ++l) {
      const uint32_t h = index_->family_.Get(r, l).Hash32(row);
      const uint32_t slot = layout.fp.TableIndex(h);
      const uint32_t fp = layout.fp.Fingerprint(h);
      const uint64_t key = index_->BucketKey(r, l, slot);

      uint64_t head = 0;
      if (auto dit = delta.find(key); dit != delta.end()) {
        head = dit->second;
      } else if (auto oit = overlay_.find(key); oit != overlay_.end()) {
        head = oit->second;
      } else if (index_->SlotNonEmpty(r, l, slot)) {
        E2_RETURN_NOT_OK(
            io.Read(layout.TableEntryAddr(r, l, slot), &head, sizeof(head)));
      }

      bool placed = false;
      if (head != 0) {
        E2_RETURN_NOT_OK(io.Read(head, block.data(), block_bytes));
        BlockHeader hdr = BlockHeader::DecodeFrom(block.data());
        const uint32_t count = std::min<uint32_t>(hdr.count, per_block);
        if (count < per_block) {
          codec_.Write(block.data() + kBlockHeaderBytes +
                           static_cast<size_t>(count) * kObjectInfoBytes,
                       id, fp);
          hdr.count = static_cast<uint16_t>(count + 1);
          hdr.EncodeTo(block.data());
          if (index_->checksums_enabled_) {
            StampBlockCrc(block.data(), block_bytes);
          }
          const uint64_t head_idx = (head - layout.bucket_base) / block_bytes;
          if (head_idx >= private_floor_) {
            // Writer-private head: append in place.
            E2_RETURN_NOT_OK(io.Write(head, block.data(), block_bytes));
          } else {
            // Published head: copy-on-write to a fresh private block.
            // The published block leaks until a rebuild.
            E2_ASSIGN_OR_RETURN(const uint64_t copy_addr, alloc_block());
            E2_RETURN_NOT_OK(io.Write(copy_addr, block.data(), block_bytes));
            delta[key] = copy_addr;
          }
          placed = true;
        }
      }
      if (!placed) {
        // Empty bucket or full head: prepend a fresh private block.
        E2_ASSIGN_OR_RETURN(const uint64_t new_addr, alloc_block());
        BlockHeader hdr;
        hdr.next = head;
        hdr.count = 1;
        hdr.EncodeTo(block.data());
        codec_.Write(block.data() + kBlockHeaderBytes, id, fp);
        std::memset(block.data() + kBlockHeaderBytes + kObjectInfoBytes, 0,
                    block_bytes - kBlockHeaderBytes - kObjectInfoBytes);
        if (index_->checksums_enabled_) {
          StampBlockCrc(block.data(), block_bytes);
        }
        E2_RETURN_NOT_OK(io.Write(new_addr, block.data(), block_bytes));
        delta[key] = new_addr;
        if (head == 0) ++new_slots;
      }
    }
  }

  // Durable before visible: the burst completes before any commit, so a
  // published overlay address always resolves to device bytes.
  E2_ASSIGN_OR_RETURN(const uint64_t flushed, io.Flush());

  for (const auto& [key, addr] : delta) overlay_[key] = addr;
  if (!delta.empty()) overlay_dirty_ = true;
  AppendRowLocked(row);
  if (tombstones_.erase(id) > 0) tombstones_dirty_ = true;
  staged_blocks_ += new_blocks;
  staged_new_slots_ += new_slots;
  staged_entries_ += static_cast<uint64_t>(layout.num_radii) * layout.L;
  counters_.staged_bytes += flushed;
  ++counters_.inserts;
  ++counters_.pending_ops;
  ++next_id_;
  *id_out = id;
  return Status::OK();
}

void LiveUpdater::AppendRowLocked(const float* row) {
  const uint32_t dim = index_->dim_;
  const uint64_t chunk = rows_ / kRowsPerChunk;
  if (chunk == row_chunks_.size()) {
    row_chunks_.push_back(
        std::make_unique<float[]>(static_cast<size_t>(kRowsPerChunk) * dim));
    rows_dirty_ = true;  // the chunk-pointer table grew
  }
  // Rows past the published n are unreferenced by any reader, so filling
  // the tail of a published chunk races with nothing.
  std::memcpy(
      row_chunks_[chunk].get() + (rows_ % kRowsPerChunk) * static_cast<size_t>(dim),
      row, sizeof(float) * dim);
  ++rows_;
}

void LiveUpdater::PublishLocked() {
  auto state = std::make_shared<EpochState>();
  state->seq = ++seq_;
  state->n = next_id_;
  state->base_rows = base_rows_;
  state->dim = index_->dim_;
  state->rows_per_chunk = kRowsPerChunk;
  if (rows_dirty_ || pub_chunks_ == nullptr) {
    auto chunks = std::make_shared<std::vector<const float*>>();
    chunks->reserve(row_chunks_.size());
    for (const auto& c : row_chunks_) chunks->push_back(c.get());
    pub_chunks_ = std::move(chunks);
    rows_dirty_ = false;
  }
  state->row_chunks = pub_chunks_;
  if (tombstones_dirty_ || pub_tombstones_ == nullptr) {
    pub_tombstones_ =
        std::make_shared<const std::unordered_set<uint32_t>>(tombstones_);
    tombstones_dirty_ = false;
  }
  state->tombstones = pub_tombstones_;
  if (overlay_dirty_ || pub_overlay_ == nullptr) {
    pub_overlay_ =
        std::make_shared<const std::unordered_map<uint64_t, uint64_t>>(overlay_);
    overlay_dirty_ = false;
  }
  state->overlay = pub_overlay_;
  index_->epoch_publisher_->Publish(std::move(state));
  ++counters_.epochs_published;
  counters_.pending_ops = 0;
  // Everything allocated so far is now reader-visible: round the private
  // boundary up past the last RMW window covering published bytes.
  const uint64_t pub_end = index_->layout_.BlockAddr(next_block_);
  while (index_->layout_.BlockAddr(next_block_) / page_bytes_ * page_bytes_ <
         pub_end) {
    ++next_block_;
  }
  private_floor_ = next_block_;
}

Status LiveUpdater::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  const IndexLayout& layout = index_->layout_;
  if (!overlay_.empty()) {
    StagedIo io(read_queue_ != nullptr ? read_queue_.get() : index_->device_,
                index_->device_, page_bytes_);
    std::unordered_set<uint64_t> dirty_sectors;
    const uint64_t slots = layout.slots_per_table();
    for (const auto& [key, addr] : overlay_) {
      const uint64_t pair = key / slots;
      const uint32_t slot = static_cast<uint32_t>(key % slots);
      const uint32_t r = static_cast<uint32_t>(pair / layout.L);
      const uint32_t l = static_cast<uint32_t>(pair % layout.L);
      const uint64_t table_addr = layout.TableEntryAddr(r, l, slot);
      E2_RETURN_NOT_OK(io.Write(table_addr, &addr, sizeof(addr)));
      index_->bitmap_[key >> 6] |= 1ULL << (key & 63);
      if (index_->checksums_enabled_) {
        dirty_sectors.insert(index_->TableSectorIndex(table_addr));
      }
    }
    E2_ASSIGN_OR_RETURN(const uint64_t flushed, io.Flush());
    counters_.staged_bytes += flushed;
    // Recompute the dirty table-sector CRCs from the device bytes (the
    // flush above made them current).
    for (const uint64_t sec : dirty_sectors) {
      uint8_t sector[storage::kSectorBytes];
      const uint32_t valid = index_->TableSectorValidBytes(sec);
      E2_RETURN_NOT_OK(io.Read(
          layout.table_base + sec * storage::kSectorBytes, sector, valid));
      index_->table_crcs_[sec] = index_->ComputeTableSectorCrc(sec, sector);
    }
    overlay_.clear();
    overlay_dirty_ = true;
  }
  index_->n_ = next_id_;
  index_->next_block_idx_ = next_block_;
  index_->tombstones_ = tombstones_;
  index_->sizes_.bucket_bytes += staged_blocks_ * layout.block_bytes;
  index_->sizes_.storage_bytes += staged_blocks_ * layout.block_bytes;
  index_->sizes_.total_entries += staged_entries_;
  index_->sizes_.nonempty_slots += staged_new_slots_;
  staged_blocks_ = 0;
  staged_entries_ = 0;
  staged_new_slots_ = 0;
  PublishLocked();
  return Status::OK();
}

LiveUpdater::Counters LiveUpdater::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

uint64_t LiveUpdater::epoch_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seq_;
}

uint64_t LiveUpdater::n() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_;
}

}  // namespace e2lshos::core
