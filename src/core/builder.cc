#include "core/builder.h"

#include <algorithm>
#include <vector>

#include "util/crc32c.h"

namespace e2lshos::core {

namespace {

// (slot, hash32, id) triple used to group objects into buckets.
struct Entry {
  uint32_t slot;
  uint32_t hash32;
  uint32_t id;
};

// Streams the table region (written pair by pair in ascending address
// order) into per-512-byte-sector CRC32Cs without materializing the
// whole region: sectors may straddle (radius, l) pair boundaries when a
// table is smaller than a sector.
class SectorCrcAccumulator {
 public:
  void Append(const uint8_t* data, uint64_t len) {
    while (len > 0) {
      const uint64_t take =
          std::min<uint64_t>(len, storage::kSectorBytes - filled_);
      crc_ = util::Crc32cExtend(crc_, data, take);
      filled_ += static_cast<uint32_t>(take);
      data += take;
      len -= take;
      if (filled_ == storage::kSectorBytes) Flush();
    }
  }

  /// Pad the trailing partial sector with zeros (matching the zeroed
  /// table-to-bucket alignment gap on the device) and return the CRCs.
  std::vector<uint32_t> Finish() {
    if (filled_ != 0) {
      static constexpr uint8_t kZeros[64] = {};
      while (filled_ != 0) {
        const uint32_t take = std::min<uint32_t>(
            sizeof(kZeros), storage::kSectorBytes - filled_);
        crc_ = util::Crc32cExtend(crc_, kZeros, take);
        filled_ += take;
        if (filled_ == storage::kSectorBytes) Flush();
      }
    }
    return std::move(crcs_);
  }

 private:
  void Flush() {
    crcs_.push_back(crc_ ^ 0xFFFFFFFFu);
    crc_ = 0xFFFFFFFFu;
    filled_ = 0;
  }

  uint32_t crc_ = 0xFFFFFFFFu;
  uint32_t filled_ = 0;
  std::vector<uint32_t> crcs_;
};

}  // namespace

Result<std::unique_ptr<StorageIndex>> IndexBuilder::Build(
    const data::Dataset& base, const lsh::E2lshParams& params,
    storage::BlockDevice* device, const BuildOptions& options) {
  if (base.n() == 0) return Status::InvalidArgument("empty dataset");
  if (device == nullptr) return Status::InvalidArgument("null device");
  if (base.n() > (1ULL << 32)) {
    return Status::InvalidArgument("object ids limited to 32 bits");
  }
  if (options.block_bytes < kBlockHeaderBytes + kObjectInfoBytes) {
    return Status::InvalidArgument("block size too small");
  }
  if (options.block_bytes % device->io_alignment() != 0) {
    return Status::InvalidArgument(
        "block size " + std::to_string(options.block_bytes) +
        " is not a multiple of the device I/O alignment (" +
        std::to_string(device->io_alignment()) + ")");
  }

  auto index = std::make_unique<StorageIndex>();
  index->params_ = params;
  index->device_ = device;
  index->n_ = base.n();
  index->dim_ = base.dim();
  index->family_ = lsh::HashFamily(base.dim(), params);

  IndexLayout& layout = index->layout_;
  layout.num_radii = params.num_radii();
  layout.L = params.L;
  layout.block_bytes = options.block_bytes;
  layout.fp = options.table_bits > 0
                  ? lsh::FingerprintScheme{options.table_bits}
                  : lsh::FingerprintScheme::ForDatabaseSize(base.n());
  layout.table_base = 0;
  layout.bucket_base = layout.total_table_bytes();
  // Keep the bucket region block-aligned.
  layout.bucket_base =
      (layout.bucket_base + layout.block_bytes - 1) / layout.block_bytes *
      layout.block_bytes;

  E2_ASSIGN_OR_RETURN(const ObjectInfoCodec codec,
                      ObjectInfoCodec::Make(base.n(), layout.fp));
  layout.id_bits = codec.id_bits;

  const uint64_t slots = layout.slots_per_table();
  const uint32_t num_pairs = layout.num_radii * layout.L;
  index->bitmap_.assign((static_cast<uint64_t>(num_pairs) * slots + 63) / 64, 0);

  const uint32_t per_block = layout.objects_per_block();
  std::vector<Entry> entries(base.n());
  std::vector<uint64_t> table(slots);
  std::vector<uint8_t> block(layout.block_bytes);
  uint64_t next_block_idx = 0;  // bump allocator over the bucket region
  index->checksums_enabled_ = options.checksums;
  SectorCrcAccumulator table_crc;

  IndexSizes& sizes = index->sizes_;

  // One radius's hashes for every point, [i * L + l]: each point is
  // projected once per radius, then the tables are sorted one l at a time.
  std::vector<uint32_t> hashes(base.n() * layout.L);
  for (uint32_t r = 0; r < layout.num_radii; ++r) {
    for (uint64_t i = 0; i < base.n(); ++i) {
      index->family_.HashAll(r, base.Row(i), hashes.data() + i * layout.L);
    }
    for (uint32_t l = 0; l < layout.L; ++l) {
      for (uint64_t i = 0; i < base.n(); ++i) {
        const uint32_t h = hashes[i * layout.L + l];
        entries[i] = {layout.fp.TableIndex(h), h, static_cast<uint32_t>(i)};
      }
      std::sort(entries.begin(), entries.end(),
                [](const Entry& a, const Entry& b) { return a.slot < b.slot; });

      std::fill(table.begin(), table.end(), 0);

      // Emit one chain per non-empty slot.
      uint64_t i = 0;
      while (i < entries.size()) {
        const uint32_t slot = entries[i].slot;
        uint64_t j = i;
        while (j < entries.size() && entries[j].slot == slot) ++j;
        const uint64_t count = j - i;

        const uint64_t blocks_needed = (count + per_block - 1) / per_block;
        const uint64_t first_block = next_block_idx;
        next_block_idx += blocks_needed;
        if (layout.BlockAddr(next_block_idx) > device->capacity()) {
          return Status::OutOfRange("device too small for index");
        }

        uint64_t remaining = count;
        uint64_t src = i;
        for (uint64_t b = 0; b < blocks_needed; ++b) {
          const uint16_t in_block =
              static_cast<uint16_t>(std::min<uint64_t>(remaining, per_block));
          BlockHeader hdr;
          hdr.count = in_block;
          hdr.next =
              (b + 1 < blocks_needed) ? layout.BlockAddr(first_block + b + 1) : 0;
          hdr.EncodeTo(block.data());
          uint8_t* dst = block.data() + kBlockHeaderBytes;
          for (uint16_t e = 0; e < in_block; ++e, ++src, dst += kObjectInfoBytes) {
            codec.Write(dst, entries[src].id,
                        layout.fp.Fingerprint(entries[src].hash32));
          }
          // Zero the tail so blocks are deterministic on storage.
          std::memset(dst, 0,
                      layout.block_bytes - kBlockHeaderBytes -
                          static_cast<size_t>(in_block) * kObjectInfoBytes);
          if (options.checksums) {
            StampBlockCrc(block.data(), layout.block_bytes);
          }
          E2_RETURN_NOT_OK(device->Write(layout.BlockAddr(first_block + b),
                                         block.data(), layout.block_bytes));
          remaining -= in_block;
        }

        table[slot] = layout.BlockAddr(first_block);
        const uint64_t bit = index->BitIndex(r, l, slot);
        index->bitmap_[bit >> 6] |= 1ULL << (bit & 63);
        ++sizes.nonempty_slots;
        sizes.total_entries += count;
        i = j;
      }

      // Write the table for this (radius, l) pair.
      E2_RETURN_NOT_OK(device->Write(layout.TableEntryAddr(r, l, 0),
                                     table.data(), static_cast<uint32_t>(slots * 8)));
      if (options.checksums) {
        table_crc.Append(reinterpret_cast<const uint8_t*>(table.data()),
                         slots * 8);
      }
    }
  }

  // Zero the table-to-bucket alignment gap so the image is deterministic
  // end to end and the last table sector's CRC (computed over zero
  // padding) matches what a widened read returns.
  if (layout.bucket_base > layout.total_table_bytes()) {
    const std::vector<uint8_t> gap(
        static_cast<size_t>(layout.bucket_base - layout.total_table_bytes()), 0);
    E2_RETURN_NOT_OK(device->Write(layout.total_table_bytes(), gap.data(),
                                   static_cast<uint32_t>(gap.size())));
  }
  if (options.checksums) index->table_crcs_ = table_crc.Finish();

  index->next_block_idx_ = next_block_idx;
  sizes.table_bytes = layout.total_table_bytes();
  sizes.bucket_bytes = next_block_idx * layout.block_bytes;
  // The image spans table region + alignment gap + bucket region; the
  // bare table_bytes + bucket_bytes sum undercounted whenever bucket_base
  // was rounded up, truncating the last blocks from saved images.
  sizes.storage_bytes = layout.bucket_base + sizes.bucket_bytes;
  sizes.dram_index_bytes = index->bitmap_.size() * 8 +
                           index->family_.MemoryBytes() +
                           index->table_crcs_.size() * 4;
  return index;
}

}  // namespace e2lshos::core
