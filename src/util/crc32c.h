// CRC32C (Castagnoli) — the checksum used for on-device block integrity.
//
// Crc32cExtend picks its path once, from CPUID: the SSE4.2 `crc32`
// instruction where the CPU has it, else the table-based slice-by-4
// reference below (also the path on non-x86 hosts). Both compute the
// same polynomial (0x1EDC6F41, reflected 0x82F63B78; iSCSI/ext4/LevelDB)
// over the same internal state, so the path never changes a stored
// checksum: images stamped on one host verify on any other.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace e2lshos::util {

namespace crc_internal {

struct Crc32cTables {
  std::array<std::array<uint32_t, 256>, 4> t;

  constexpr Crc32cTables() : t{} {
    constexpr uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int j = 0; j < 8; ++j) {
        crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      t[1][i] = (t[0][i] >> 8) ^ t[0][t[0][i] & 0xFFu];
      t[2][i] = (t[1][i] >> 8) ^ t[0][t[1][i] & 0xFFu];
      t[3][i] = (t[2][i] >> 8) ^ t[0][t[2][i] & 0xFFu];
    }
  }
};

inline constexpr Crc32cTables kCrc32cTables{};

/// The slice-by-4 table path: the reference every other path must match.
inline uint32_t Crc32cExtendTable(uint32_t crc, const void* data, size_t len) {
  const auto& t = kCrc32cTables.t;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  while (len >= 4) {
    crc ^= static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
    crc = t[3][crc & 0xFFu] ^ t[2][(crc >> 8) & 0xFFu] ^
          t[1][(crc >> 16) & 0xFFu] ^ t[0][crc >> 24];
    p += 4;
    len -= 4;
  }
  while (len-- > 0) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p++) & 0xFFu];
  }
  return crc;
}

using Crc32cExtendFn = uint32_t (*)(uint32_t crc, const void* data, size_t len);

/// The hardware path (SSE4.2), or nullptr when this CPU has none.
Crc32cExtendFn HardwareCrc32cExtend();

}  // namespace crc_internal

/// Extend a running CRC32C over `len` bytes. Start (and finish) with
/// the one-shot Crc32c() unless incrementally checksumming a stream;
/// `crc` here is the *internal* (pre-finalization) state, i.e.
/// Crc32cExtend(Crc32cExtend(0xFFFFFFFF, a), b) finalized equals
/// Crc32c over a||b.
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t len);

/// One-shot CRC32C of a buffer (standard init 0xFFFFFFFF, final xor).
inline uint32_t Crc32c(const void* data, size_t len) {
  return Crc32cExtend(0xFFFFFFFFu, data, len) ^ 0xFFFFFFFFu;
}

}  // namespace e2lshos::util
