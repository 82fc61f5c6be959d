#include "core/updater.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "util/aligned_buffer.h"

namespace e2lshos::core {

namespace {

/// \brief Updater I/O through a device whose io_alignment() may exceed
/// the extents the updater touches (8-byte table entries, block-sized
/// bucket blocks): sub-unit extents are staged through the covering
/// aligned window with a read-modify-write. Devices with alignment 1,
/// and extents already on unit boundaries, take the direct path — the
/// historical behavior, byte for byte.
class AlignedIo {
 public:
  explicit AlignedIo(storage::BlockDevice* device)
      : device_(device), unit_(device->io_alignment()) {}

  Status Read(uint64_t offset, void* out, uint32_t length) {
    if (unit_ <= 1) return device_->ReadSync(offset, out, length);
    if (Aligned(offset, length)) {
      // Aligned extent, but the caller's buffer pointer may not satisfy
      // the direct-I/O memory-alignment rule: bounce through the window.
      Reserve(length);
      E2_RETURN_NOT_OK(device_->ReadSync(offset, win_.data(), length));
      std::memcpy(out, win_.data(), length);
      return Status::OK();
    }
    E2_RETURN_NOT_OK(Stage(offset, length));
    std::memcpy(out, win_.data() + (offset - win_off_), length);
    return Status::OK();
  }

  /// Write `length` bytes at `offset`; returns the bytes that actually
  /// hit the device (the whole window when staged — the honest
  /// endurance number).
  Result<uint64_t> Write(uint64_t offset, const void* data, uint32_t length) {
    if (unit_ <= 1) {
      E2_RETURN_NOT_OK(device_->Write(offset, data, length));
      return static_cast<uint64_t>(length);
    }
    if (Aligned(offset, length)) {
      Reserve(length);
      std::memcpy(win_.data(), data, length);
      E2_RETURN_NOT_OK(device_->Write(offset, win_.data(), length));
      return static_cast<uint64_t>(length);
    }
    E2_RETURN_NOT_OK(Stage(offset, length));
    std::memcpy(win_.data() + (offset - win_off_), data, length);
    E2_RETURN_NOT_OK(device_->Write(win_off_, win_.data(), win_len_));
    return static_cast<uint64_t>(win_len_);
  }

 private:
  bool Aligned(uint64_t offset, uint32_t length) const {
    return offset % unit_ == 0 && length % unit_ == 0;
  }

  void Reserve(uint32_t length) {
    if (win_.size() < length) {
      win_.Reset(length, std::max(unit_, storage::kSectorBytes));
    }
  }

  Status Stage(uint64_t offset, uint32_t length) {
    const uint64_t lo = offset / unit_ * unit_;
    const uint64_t hi = (offset + length + unit_ - 1) / unit_ * unit_;
    win_off_ = lo;
    win_len_ = static_cast<uint32_t>(hi - lo);
    Reserve(win_len_);
    return device_->ReadSync(lo, win_.data(), win_len_);
  }

  storage::BlockDevice* device_;
  uint32_t unit_;
  uint64_t win_off_ = 0;
  uint32_t win_len_ = 0;
  util::AlignedBuffer win_;
};

}  // namespace

Status IndexUpdater::Insert(const data::Dataset& base, uint32_t id) {
  if (index_ == nullptr) return Status::InvalidArgument("null index");
  if (id >= base.n()) {
    return Status::InvalidArgument("dataset does not hold the inserted row yet");
  }
  const IndexLayout& layout = index_->layout_;
  E2_ASSIGN_OR_RETURN(const ObjectInfoCodec codec,
                      ObjectInfoCodec::MakeWithIdBits(layout.id_bits, layout.fp));
  if (id >= (1ULL << codec.id_bits)) {
    return Status::FailedPrecondition(
        "id exceeds the id space fixed at build time; rebuild the index");
  }

  storage::BlockDevice* device = index_->device_;
  AlignedIo io(device);
  const uint32_t per_block = layout.objects_per_block();
  std::vector<uint8_t> block(layout.block_bytes);
  const float* row = base.Row(id);

  std::vector<uint32_t> hashes(layout.L);
  for (uint32_t r = 0; r < layout.num_radii; ++r) {
    index_->family_.HashAll(r, row, hashes.data());
    for (uint32_t l = 0; l < layout.L; ++l) {
      const uint32_t h = hashes[l];
      const uint32_t slot = layout.fp.TableIndex(h);
      const uint32_t fp = layout.fp.Fingerprint(h);
      const uint64_t table_addr = layout.TableEntryAddr(r, l, slot);

      uint64_t head = 0;
      if (index_->SlotNonEmpty(r, l, slot)) {
        E2_RETURN_NOT_OK(io.Read(table_addr, &head, 8));
      }

      bool appended_in_place = false;
      if (head != 0) {
        // Try to extend the head block in place.
        E2_RETURN_NOT_OK(io.Read(head, block.data(), layout.block_bytes));
        BlockHeader hdr = BlockHeader::DecodeFrom(block.data());
        if (hdr.count < per_block) {
          codec.Write(block.data() + kBlockHeaderBytes +
                          static_cast<size_t>(hdr.count) * kObjectInfoBytes,
                      id, fp);
          ++hdr.count;
          hdr.EncodeTo(block.data());
          if (index_->checksums_enabled_) {
            StampBlockCrc(block.data(), layout.block_bytes);
          }
          E2_ASSIGN_OR_RETURN(
              const uint64_t written,
              io.Write(head, block.data(), layout.block_bytes));
          bytes_written_ += written;
          appended_in_place = true;
        }
      }

      if (!appended_in_place) {
        // Prepend a fresh head block pointing at the old head (0 if the
        // bucket was empty).
        const uint64_t new_block = index_->next_block_idx_++;
        const uint64_t new_addr = layout.BlockAddr(new_block);
        if (new_addr + layout.block_bytes > device->capacity()) {
          return Status::OutOfRange("device full; cannot grow the index");
        }
        BlockHeader hdr;
        hdr.next = head;
        hdr.count = 1;
        hdr.EncodeTo(block.data());
        codec.Write(block.data() + kBlockHeaderBytes, id, fp);
        std::memset(block.data() + kBlockHeaderBytes + kObjectInfoBytes, 0,
                    layout.block_bytes - kBlockHeaderBytes - kObjectInfoBytes);
        if (index_->checksums_enabled_) {
          StampBlockCrc(block.data(), layout.block_bytes);
        }
        E2_ASSIGN_OR_RETURN(
            const uint64_t block_written,
            io.Write(new_addr, block.data(), layout.block_bytes));
        E2_ASSIGN_OR_RETURN(const uint64_t entry_written,
                            io.Write(table_addr, &new_addr, 8));
        if (index_->checksums_enabled_) {
          // The 8-byte entry changed its covering table sector: refresh
          // that sector's DRAM-resident CRC from the device bytes.
          const uint64_t sec = index_->TableSectorIndex(table_addr);
          const uint64_t sec_addr =
              layout.table_base + sec * storage::kSectorBytes;
          uint8_t sector[storage::kSectorBytes];
          const uint32_t valid = index_->TableSectorValidBytes(sec);
          E2_RETURN_NOT_OK(io.Read(sec_addr, sector, valid));
          index_->table_crcs_[sec] = index_->ComputeTableSectorCrc(sec, sector);
        }
        bytes_written_ += block_written + entry_written;
        index_->sizes_.bucket_bytes += layout.block_bytes;
        index_->sizes_.storage_bytes += layout.block_bytes;
        if (head == 0) {
          const uint64_t bit = index_->BitIndex(r, l, slot);
          index_->bitmap_[bit >> 6] |= 1ULL << (bit & 63);
          ++index_->sizes_.nonempty_slots;
        }
      }
      ++index_->sizes_.total_entries;
    }
  }
  // If the id was previously tombstoned, the insert re-activates it.
  index_->tombstones_.erase(id);
  // Grow the addressable range so the engine accepts the new id.
  if (id >= index_->n_) index_->n_ = id + 1;
  ++inserts_;
  return Status::OK();
}

Status IndexUpdater::Remove(uint32_t id) {
  if (index_ == nullptr) return Status::InvalidArgument("null index");
  index_->tombstones_.insert(id);
  return Status::OK();
}

Status IndexUpdater::Restore(uint32_t id) {
  if (index_ == nullptr) return Status::InvalidArgument("null index");
  index_->tombstones_.erase(id);
  return Status::OK();
}

}  // namespace e2lshos::core
