// Tests for util/crc32c.h (the checksum under format v3) and the block
// CRC helpers in core/layout.h: known-answer vectors pin the polynomial
// and bit order, incremental extension must match one-shot hashing, the
// hardware path must equal the table path byte for byte, and a stamped
// block must verify until any byte — header or payload — flips.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/layout.h"
#include "util/crc32c.h"

namespace e2lshos {
namespace {

TEST(Crc32c, KnownAnswerVectors) {
  // The canonical CRC32C (Castagnoli) check value.
  const char* check = "123456789";
  EXPECT_EQ(util::Crc32c(check, 9), 0xE3069283u);
  // Empty input.
  EXPECT_EQ(util::Crc32c(nullptr, 0), 0x00000000u);
  // RFC 7143 (iSCSI) test patterns: 32 bytes of zeros / ones.
  std::vector<uint8_t> buf(32, 0x00);
  EXPECT_EQ(util::Crc32c(buf.data(), buf.size()), 0x8A9136AAu);
  std::fill(buf.begin(), buf.end(), 0xFF);
  EXPECT_EQ(util::Crc32c(buf.data(), buf.size()), 0x62A8AB43u);
}

TEST(Crc32c, IncrementalExtendMatchesOneShot) {
  std::vector<uint8_t> data(1023);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  const uint32_t oneshot = util::Crc32c(data.data(), data.size());
  // Split at every alignment-interesting boundary.
  for (const size_t split : {0ul, 1ul, 3ul, 4ul, 511ul, 512ul, 1022ul}) {
    uint32_t state = util::Crc32cExtend(0xFFFFFFFFu, data.data(), split);
    state = util::Crc32cExtend(state, data.data() + split,
                               data.size() - split);
    EXPECT_EQ(state ^ 0xFFFFFFFFu, oneshot) << "split at " << split;
  }
}

TEST(Crc32c, BlockStampAndVerify) {
  std::vector<uint8_t> block(core::kDefaultBlockBytes);
  for (size_t i = 0; i < block.size(); ++i) {
    block[i] = static_cast<uint8_t>(i ^ (i >> 3));
  }
  core::StampBlockCrc(block.data(), block.size());
  EXPECT_TRUE(core::VerifyBlockCrc(block.data(), block.size()));

  // Any single flipped byte — header field, CRC field itself, payload,
  // last byte — must break verification.
  for (const size_t pos : {0ul, 5ul, static_cast<size_t>(core::kBlockCrcOffset),
                           64ul, block.size() - 1}) {
    block[pos] ^= 0x40;
    EXPECT_FALSE(core::VerifyBlockCrc(block.data(), block.size()))
        << "flip at byte " << pos;
    block[pos] ^= 0x40;
    EXPECT_TRUE(core::VerifyBlockCrc(block.data(), block.size()));
  }
}

TEST(Crc32c, StampIsIdempotent) {
  std::vector<uint8_t> block(1024, 0xA5);
  core::StampBlockCrc(block.data(), block.size());
  std::vector<uint8_t> again = block;
  core::StampBlockCrc(again.data(), again.size());
  EXPECT_EQ(block, again);
}

// Every length 0..1100 and a few 4 KiB-scale ones, at every start offset
// 0..7, whole and split in two: the dispatched path (and the hardware one,
// when the CPU has it) must equal the table reference, chaining included.
TEST(Crc32c, HardwareAndDispatchedPathsMatchTable) {
  std::vector<size_t> lengths;
  for (size_t len = 0; len <= 1100; ++len) lengths.push_back(len);
  for (const size_t len : {4079ul, 4080ul, 4096ul, 8160ul, 12345ul}) lengths.push_back(len);
  std::vector<uint8_t> data(12345 + 8);
  uint32_t x = 0x9E3779B9u;
  for (auto& b : data) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<uint8_t>(x >> 24);
  }
  std::vector<util::crc_internal::Crc32cExtendFn> paths = {util::Crc32cExtend};
  if (auto hw = util::crc_internal::HardwareCrc32cExtend()) paths.push_back(hw);
  for (size_t off = 0; off < 8; ++off) {
    for (const size_t len : lengths) {
      const uint8_t* p = data.data() + off;
      const uint32_t want =
          util::crc_internal::Crc32cExtendTable(0xFFFFFFFFu, p, len);
      const size_t split = len / 3;
      for (const auto extend : paths) {
        ASSERT_EQ(extend(0xFFFFFFFFu, p, len), want) << "off " << off << " len " << len;
        const uint32_t head = extend(0xFFFFFFFFu, p, split);
        ASSERT_EQ(extend(head, p + split, len - split), want)
            << "off " << off << " len " << len << " split " << split;
      }
    }
  }
}

}  // namespace
}  // namespace e2lshos
