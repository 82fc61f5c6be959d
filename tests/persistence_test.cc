// Tests for index persistence: build an index on a real file, save the
// metadata, reopen everything in a "new process" (fresh objects), and
// verify queries produce identical answers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>

#include "core/builder.h"
#include "core/persistence.h"
#include "core/query_engine.h"
#include "data/generators.h"
#include "storage/file_device.h"
#include "storage/memory_device.h"
#include "util/crc32c.h"

namespace e2lshos::core {
namespace {

struct TestData {
  data::GeneratedData gen;
  lsh::E2lshParams params;
};

TestData MakeData(uint64_t n = 3000, uint32_t dim = 24) {
  TestData t;
  data::GeneratorSpec spec;
  spec.kind = data::GeneratorKind::kClustered;
  spec.dim = dim;
  spec.num_clusters = 16;
  spec.cluster_std = 3.0 / std::sqrt(2.0 * dim);
  spec.center_spread = 10.0 * std::sqrt(6.0 / dim);
  spec.seed = 9;
  t.gen = data::Generate("persist", n, 25, spec);
  lsh::E2lshConfig cfg;
  cfg.rho = 0.25;
  cfg.s_factor = 1000.0;  // no truncation: answers must match exactly
  cfg.x_max = t.gen.base.XMax();
  auto params = lsh::ComputeParams(n, dim, cfg);
  EXPECT_TRUE(params.ok());
  t.params = *params;
  return t;
}

TEST(Persistence, SaveLoadRoundTripsMetadata) {
  auto t = MakeData();
  auto dev = storage::MemoryDevice::Create(2ULL << 30);
  ASSERT_TRUE(dev.ok());
  auto idx = IndexBuilder::Build(t.gen.base, t.params, dev->get());
  ASSERT_TRUE(idx.ok());

  const std::string meta = ::testing::TempDir() + "/e2_meta_roundtrip.bin";
  ASSERT_TRUE(SaveIndexMeta(**idx, meta).ok());
  auto loaded = LoadIndexMeta(meta, dev->get());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ((*loaded)->n(), (*idx)->n());
  EXPECT_EQ((*loaded)->dim(), (*idx)->dim());
  EXPECT_EQ((*loaded)->layout().L, (*idx)->layout().L);
  EXPECT_EQ((*loaded)->layout().fp.u, (*idx)->layout().fp.u);
  EXPECT_EQ((*loaded)->params().S, (*idx)->params().S);
  EXPECT_EQ((*loaded)->params().radii.size(), (*idx)->params().radii.size());
  EXPECT_EQ((*loaded)->sizes().storage_bytes, (*idx)->sizes().storage_bytes);
  std::remove(meta.c_str());
}

TEST(Persistence, ReopenedFileIndexAnswersIdentically) {
  auto t = MakeData();
  const std::string image = ::testing::TempDir() + "/e2_persist_image.bin";
  const std::string meta = ::testing::TempDir() + "/e2_persist_meta.bin";

  std::vector<std::vector<util::Neighbor>> before;
  {
    storage::FileDevice::Options opt;
    opt.capacity = 2ULL << 30;
    opt.io_threads = 2;
    auto dev = storage::FileDevice::Create(image, opt);
    ASSERT_TRUE(dev.ok());
    auto idx = IndexBuilder::Build(t.gen.base, t.params, dev->get());
    ASSERT_TRUE(idx.ok());
    ASSERT_TRUE(SaveIndexMeta(**idx, meta).ok());

    QueryEngine engine(idx->get(), &t.gen.base);
    auto batch = engine.SearchBatch(t.gen.queries, 5);
    ASSERT_TRUE(batch.ok());
    before = batch->results;
  }  // device and index destroyed: "process exit"

  {
    storage::FileDevice::Options opt;
    opt.io_threads = 2;
    auto dev = storage::FileDevice::Open(image, opt);
    ASSERT_TRUE(dev.ok()) << dev.status().ToString();
    auto idx = LoadIndexMeta(meta, dev->get());
    ASSERT_TRUE(idx.ok()) << idx.status().ToString();

    QueryEngine engine(idx->get(), &t.gen.base);
    auto batch = engine.SearchBatch(t.gen.queries, 5);
    ASSERT_TRUE(batch.ok());
    ASSERT_EQ(batch->results.size(), before.size());
    for (size_t q = 0; q < before.size(); ++q) {
      ASSERT_EQ(batch->results[q].size(), before[q].size()) << "query " << q;
      for (size_t i = 0; i < before[q].size(); ++i) {
        EXPECT_EQ(batch->results[q][i].id, before[q][i].id);
        EXPECT_FLOAT_EQ(batch->results[q][i].dist, before[q][i].dist);
      }
    }
  }
  std::remove(image.c_str());
  std::remove(meta.c_str());
}

TEST(Persistence, RejectsCorruptMagic) {
  const std::string path = ::testing::TempDir() + "/e2_bad_magic.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("NOTANIDX-GARBAGE", f);
  std::fclose(f);
  auto dev = storage::MemoryDevice::Create(1 << 20);
  ASSERT_TRUE(dev.ok());
  EXPECT_FALSE(LoadIndexMeta(path, dev->get()).ok());
  std::remove(path.c_str());
}

TEST(Persistence, RejectsMissingFileAndNullDevice) {
  auto dev = storage::MemoryDevice::Create(1 << 20);
  ASSERT_TRUE(dev.ok());
  EXPECT_EQ(LoadIndexMeta("/nonexistent/meta.bin", dev->get()).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(LoadIndexMeta("/tmp/whatever.bin", nullptr).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Persistence, RejectsTooSmallDevice) {
  auto t = MakeData();
  auto dev = storage::MemoryDevice::Create(2ULL << 30);
  ASSERT_TRUE(dev.ok());
  auto idx = IndexBuilder::Build(t.gen.base, t.params, dev->get());
  ASSERT_TRUE(idx.ok());
  const std::string meta = ::testing::TempDir() + "/e2_meta_small.bin";
  ASSERT_TRUE(SaveIndexMeta(**idx, meta).ok());
  auto tiny = storage::MemoryDevice::Create(1 << 16);
  ASSERT_TRUE(tiny.ok());
  EXPECT_EQ(LoadIndexMeta(meta, tiny->get()).status().code(),
            StatusCode::kOutOfRange);
  std::remove(meta.c_str());
}

TEST(Persistence, TruncatedFileRejected) {
  auto t = MakeData(800);
  auto dev = storage::MemoryDevice::Create(2ULL << 30);
  ASSERT_TRUE(dev.ok());
  auto idx = IndexBuilder::Build(t.gen.base, t.params, dev->get());
  ASSERT_TRUE(idx.ok());
  const std::string meta = ::testing::TempDir() + "/e2_meta_trunc.bin";
  ASSERT_TRUE(SaveIndexMeta(**idx, meta).ok());
  // Truncate the tail off.
  ::truncate(meta.c_str(), 64);
  EXPECT_FALSE(LoadIndexMeta(meta, dev->get()).ok());
  std::remove(meta.c_str());
}

std::vector<uint8_t> ReadWholeFile(const std::string& path) {
  std::vector<uint8_t> bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  uint8_t buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + got);
  }
  std::fclose(f);
  return bytes;
}

void WriteWholeFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

// A 2000-point mem: build's image and meta, pinned by size and CRC32C as
// recorded before the packed hash kernels and the hardware CRC: the same
// inputs must keep producing the same bytes, so saved v3 images still
// answer identically.
TEST(Persistence, SavedImageAndMetaMatchPinnedChecksums) {
  auto t = MakeData(2000);
  auto dev = storage::MemoryDevice::Create(1ULL << 30);
  ASSERT_TRUE(dev.ok());
  auto idx = IndexBuilder::Build(t.gen.base, t.params, dev->get());
  ASSERT_TRUE(idx.ok());
  const std::string meta = ::testing::TempDir() + "/e2_pinned_meta.bin";
  const std::string image = ::testing::TempDir() + "/e2_pinned_image.bin";
  ASSERT_TRUE(SaveIndexMeta(**idx, meta).ok());
  ASSERT_TRUE(SaveIndexImage(**idx, image).ok());
  const auto meta_bytes = ReadWholeFile(meta);
  const auto image_bytes = ReadWholeFile(image);
  EXPECT_EQ(meta_bytes.size(), 2629u);
  EXPECT_EQ(util::Crc32c(meta_bytes.data(), meta_bytes.size()), 0xe11f3dd4u);
  EXPECT_EQ(image_bytes.size(), 3601920u);
  EXPECT_EQ(util::Crc32c(image_bytes.data(), image_bytes.size()), 0x2840997au);
  std::remove(meta.c_str());
  std::remove(image.c_str());
}

// params.L sizes the hash family, layout.L the engine's per-radius hash
// buffer: a meta where one byte of params.L flipped must be refused, not
// served (it used to overflow that buffer).
TEST(Persistence, RejectsParamsThatDisagreeWithLayout) {
  auto t = MakeData(2000);
  auto dev = storage::MemoryDevice::Create(1ULL << 30);
  ASSERT_TRUE(dev.ok());
  auto idx = IndexBuilder::Build(t.gen.base, t.params, dev->get());
  ASSERT_TRUE(idx.ok());
  const std::string meta = ::testing::TempDir() + "/e2_flipped_meta.bin";
  ASSERT_TRUE(SaveIndexMeta(**idx, meta).ok());
  auto bytes = ReadWholeFile(meta);
  // params.L is the little-endian uint32 at byte 124 of the v3 meta.
  constexpr size_t kParamsLOffset = 124;
  ASSERT_GT(bytes.size(), kParamsLOffset + 4);
  uint32_t stored_l = 0;
  std::memcpy(&stored_l, bytes.data() + kParamsLOffset, sizeof(stored_l));
  ASSERT_EQ(stored_l, t.params.L);
  bytes[kParamsLOffset + 1] ^= 0x01;
  WriteWholeFile(meta, bytes);
  auto loaded = LoadIndexMeta(meta, dev->get());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
      << loaded.status().ToString();
  std::remove(meta.c_str());
}

}  // namespace
}  // namespace e2lshos::core
