#include "core/persistence.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

namespace e2lshos::core {

namespace {

// v3 adds the checksum flag + per-sector table CRCs after the tombstone
// list; v2 files (no checksums) still load — see LoadIndexMeta.
constexpr char kMagicV2[8] = {'E', '2', 'O', 'S', 'I', 'D', 'X', '2'};
constexpr char kMagicV3[8] = {'E', '2', 'O', 'S', 'I', 'D', 'X', '3'};

// Minimal buffered binary writer/reader with error capture.
class Writer {
 public:
  explicit Writer(std::FILE* f) : f_(f) {}
  template <typename T>
  void Pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (ok_ && std::fwrite(&v, sizeof(T), 1, f_) != 1) ok_ = false;
  }
  void Bytes(const void* p, size_t len) {
    if (ok_ && len > 0 && std::fwrite(p, 1, len, f_) != len) ok_ = false;
  }
  bool ok() const { return ok_; }

 private:
  std::FILE* f_;
  bool ok_ = true;
};

class Reader {
 public:
  explicit Reader(std::FILE* f) : f_(f) {}
  template <typename T>
  void Pod(T* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (ok_ && std::fread(v, sizeof(T), 1, f_) != 1) ok_ = false;
  }
  void Bytes(void* p, size_t len) {
    if (ok_ && len > 0 && std::fread(p, 1, len, f_) != len) ok_ = false;
  }
  bool ok() const { return ok_; }

 private:
  std::FILE* f_;
  bool ok_ = true;
};

}  // namespace

Status SaveIndexMeta(const StorageIndex& index, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot open " + path + " for write");
  Writer w(f);
  w.Bytes(kMagicV3, sizeof(kMagicV3));

  w.Pod(index.n_);
  w.Pod(index.dim_);

  const IndexLayout& layout = index.layout_;
  w.Pod(layout.num_radii);
  w.Pod(layout.L);
  w.Pod(layout.fp.u);
  w.Pod(layout.id_bits);
  w.Pod(layout.block_bytes);
  w.Pod(layout.table_base);
  w.Pod(layout.bucket_base);

  const lsh::E2lshParams& p = index.params_;
  w.Pod(p.c);
  w.Pod(p.w);
  w.Pod(p.gamma);
  w.Pod(p.s_factor);
  w.Pod(p.seed);
  w.Pod(p.p1);
  w.Pod(p.p2);
  w.Pod(p.rho);
  w.Pod(p.m);
  w.Pod(p.L);
  w.Pod(p.S);
  const uint32_t num_radii = static_cast<uint32_t>(p.radii.size());
  w.Pod(num_radii);
  w.Bytes(p.radii.data(), num_radii * sizeof(double));

  w.Pod(index.sizes_);

  const uint64_t bitmap_words = index.bitmap_.size();
  w.Pod(bitmap_words);
  w.Bytes(index.bitmap_.data(), bitmap_words * sizeof(uint64_t));

  w.Pod(index.next_block_idx_);
  const uint64_t tombstones = index.tombstones_.size();
  w.Pod(tombstones);
  for (const uint32_t id : index.tombstones_) w.Pod(id);

  const uint8_t checksums = index.checksums_enabled_ ? 1 : 0;
  w.Pod(checksums);
  const uint64_t table_crcs = index.table_crcs_.size();
  w.Pod(table_crcs);
  w.Bytes(index.table_crcs_.data(), table_crcs * sizeof(uint32_t));

  const bool ok = w.ok();
  std::fclose(f);
  if (!ok) return Status::IoError("short write to " + path);
  return Status::OK();
}

Result<std::unique_ptr<StorageIndex>> LoadIndexMeta(const std::string& path,
                                                    storage::BlockDevice* device) {
  if (device == nullptr) return Status::InvalidArgument("null device");
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open " + path);
  Reader r(f);

  char magic[8];
  r.Bytes(magic, sizeof(magic));
  const bool v3 = r.ok() && std::memcmp(magic, kMagicV3, sizeof(kMagicV3)) == 0;
  if (!r.ok() ||
      (!v3 && std::memcmp(magic, kMagicV2, sizeof(kMagicV2)) != 0)) {
    std::fclose(f);
    return Status::InvalidArgument(path + " is not an E2LSHoS index meta file");
  }

  auto index = std::make_unique<StorageIndex>();
  index->device_ = device;
  r.Pod(&index->n_);
  r.Pod(&index->dim_);

  IndexLayout& layout = index->layout_;
  r.Pod(&layout.num_radii);
  r.Pod(&layout.L);
  r.Pod(&layout.fp.u);
  r.Pod(&layout.id_bits);
  r.Pod(&layout.block_bytes);
  r.Pod(&layout.table_base);
  r.Pod(&layout.bucket_base);

  lsh::E2lshParams& p = index->params_;
  r.Pod(&p.c);
  r.Pod(&p.w);
  r.Pod(&p.gamma);
  r.Pod(&p.s_factor);
  r.Pod(&p.seed);
  r.Pod(&p.p1);
  r.Pod(&p.p2);
  r.Pod(&p.rho);
  r.Pod(&p.m);
  r.Pod(&p.L);
  r.Pod(&p.S);
  uint32_t num_radii = 0;
  r.Pod(&num_radii);
  if (!r.ok() || num_radii == 0 || num_radii > 64) {
    std::fclose(f);
    return Status::InvalidArgument("corrupt radius schedule in " + path);
  }
  // The hash family is sized from the params, the engine's per-radius
  // hash buffers and the tables from the layout: they must agree.
  if (p.L != layout.L || num_radii != layout.num_radii || p.m == 0) {
    std::fclose(f);
    return Status::InvalidArgument("hash parameters disagree with the layout in " +
                                   path);
  }
  p.radii.resize(num_radii);
  r.Bytes(p.radii.data(), num_radii * sizeof(double));

  r.Pod(&index->sizes_);

  uint64_t bitmap_words = 0;
  r.Pod(&bitmap_words);
  const uint64_t expected_words =
      (static_cast<uint64_t>(layout.num_radii) * layout.L *
           layout.slots_per_table() + 63) / 64;
  if (!r.ok() || bitmap_words != expected_words) {
    std::fclose(f);
    return Status::InvalidArgument("corrupt bitmap in " + path);
  }
  index->bitmap_.resize(bitmap_words);
  r.Bytes(index->bitmap_.data(), bitmap_words * sizeof(uint64_t));

  r.Pod(&index->next_block_idx_);
  uint64_t tombstones = 0;
  r.Pod(&tombstones);
  if (!r.ok() || tombstones > index->n_ + (1ULL << 20)) {
    std::fclose(f);
    return Status::InvalidArgument("corrupt tombstone list in " + path);
  }
  for (uint64_t i = 0; i < tombstones; ++i) {
    uint32_t id = 0;
    r.Pod(&id);
    index->tombstones_.insert(id);
  }

  if (v3) {
    uint8_t checksums = 0;
    r.Pod(&checksums);
    uint64_t table_crcs = 0;
    r.Pod(&table_crcs);
    const uint64_t expected_crcs =
        checksums != 0
            ? (layout.total_table_bytes() + storage::kSectorBytes - 1) /
                  storage::kSectorBytes
            : 0;
    if (!r.ok() || checksums > 1 || table_crcs != expected_crcs) {
      std::fclose(f);
      return Status::InvalidArgument("corrupt table checksums in " + path);
    }
    index->checksums_enabled_ = checksums != 0;
    index->table_crcs_.resize(table_crcs);
    r.Bytes(index->table_crcs_.data(), table_crcs * sizeof(uint32_t));
  }
  // v2: checksums_enabled_ stays false — the image predates block CRCs
  // and is served without verification.

  const bool ok = r.ok();
  std::fclose(f);
  if (!ok) return Status::IoError("short read from " + path);

  if (index->sizes_.storage_bytes > device->capacity()) {
    return Status::OutOfRange("device smaller than the stored index image");
  }
  // No block-size-vs-alignment gate here: the query engine widens any
  // read (table entry or bucket block) to the device's advertised
  // alignment unit, so an index laid out at 128- or 512-byte blocks
  // serves correctly from a direct device with a coarser granularity.

  // The hash family is fully determined by (dim, params): regenerate it.
  index->family_ = lsh::HashFamily(index->dim_, p);
  return index;
}

namespace {

/// Fill `buf` with device bytes [off, off+len). Reads are issued
/// per-unit — max(sector, io_alignment()) — because a StripedDevice
/// rejects any request crossing its 512-byte stripe unit; many units
/// are kept in flight so wall-clock-gated simulated devices drain at
/// their parallel bandwidth rather than one service time per sector.
Status ReadImageChunk(storage::BlockDevice* device, uint64_t off, uint32_t len,
                      uint8_t* buf) {
  const uint32_t unit =
      std::max<uint32_t>(storage::kSectorBytes, device->io_alignment());
  const uint32_t total = (len + unit - 1) / unit;
  uint32_t next = 0, submitted = 0, completed = 0;
  storage::IoCompletion comps[64];
  Status st;
  while (completed < total && st.ok()) {
    while (next < total) {
      const uint64_t rel = static_cast<uint64_t>(next) * unit;
      storage::IoRequest req;
      req.offset = off + rel;
      req.length = static_cast<uint32_t>(std::min<uint64_t>(unit, len - rel));
      req.buf = buf + rel;
      req.user_data = next;
      const Status submit = device->SubmitRead(req);
      if (submit.code() == StatusCode::kResourceExhausted) break;
      if (!submit.ok()) {
        st = submit;
        break;
      }
      ++next;
      ++submitted;
    }
    const size_t n = device->PollCompletions(comps, 64);
    for (size_t i = 0; i < n; ++i) {
      if (comps[i].code != StatusCode::kOk && st.ok()) {
        st = Status::IoError("image read failed");
      }
    }
    completed += static_cast<uint32_t>(n);
  }
  // On error the remaining in-flight reads still target `buf`: drain
  // before returning or the device writes into freed memory.
  while (completed < submitted) {
    completed += static_cast<uint32_t>(device->PollCompletions(comps, 64));
  }
  return st;
}

}  // namespace

Status SaveIndexImage(const StorageIndex& index, const std::string& path) {
  storage::BlockDevice* device = index.device();
  if (device == nullptr) return Status::InvalidArgument("index has no device");
  const uint64_t bytes = index.sizes().storage_bytes;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot open " + path + " for write");
  constexpr uint32_t kChunk = 1 << 20;
  std::vector<uint8_t> buf(kChunk);
  Status st;
  for (uint64_t off = 0; off < bytes && st.ok(); off += kChunk) {
    const uint32_t len =
        static_cast<uint32_t>(std::min<uint64_t>(kChunk, bytes - off));
    st = ReadImageChunk(device, off, len, buf.data());
    if (st.ok() && std::fwrite(buf.data(), 1, len, f) != len) {
      st = Status::IoError("short write to " + path);
    }
  }
  std::fclose(f);
  return st;
}

Result<uint64_t> LoadIndexImage(const std::string& path,
                                storage::BlockDevice* device) {
  if (device == nullptr) return Status::InvalidArgument("null device");
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open image " + path);
  constexpr uint32_t kChunk = 1 << 20;
  std::vector<uint8_t> buf(kChunk);
  uint64_t off = 0;
  Status st;
  for (;;) {
    const size_t got = std::fread(buf.data(), 1, kChunk, f);
    if (got == 0) {
      if (std::ferror(f) != 0) st = Status::IoError("read error on " + path);
      break;
    }
    st = device->Write(off, buf.data(), static_cast<uint32_t>(got));
    if (!st.ok()) break;
    off += got;
  }
  std::fclose(f);
  if (!st.ok()) return st;
  return off;
}

}  // namespace e2lshos::core
