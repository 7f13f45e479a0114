#include "common/crc32.h"

#include "common/bytes.h"

namespace tc {
namespace {

constexpr uint32_t kPoly = 0x82f63b78;  // reflected CRC32-C polynomial

// Slicing-by-8: t[0] is the classic byte-at-a-time table; t[k][b] is the CRC
// of byte b followed by k zero bytes, so eight table lookups fold eight input
// bytes into the running CRC at once.
struct Crc32Tables {
  uint32_t t[8][256];
  constexpr Crc32Tables() : t{} {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int k = 0; k < 8; ++k) crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
      }
    }
  }
};

constexpr Crc32Tables kTables{};

}  // namespace

uint32_t Crc32c(const void* data, size_t n, uint32_t seed) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  const auto& t = kTables.t;
  uint32_t crc = ~seed;
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t w = GetFixed64(p) ^ crc;
    crc = t[7][w & 0xff] ^ t[6][(w >> 8) & 0xff] ^ t[5][(w >> 16) & 0xff] ^
          t[4][(w >> 24) & 0xff] ^ t[3][(w >> 32) & 0xff] ^
          t[2][(w >> 40) & 0xff] ^ t[1][(w >> 48) & 0xff] ^ t[0][w >> 56];
  }
  for (; n > 0; --n) crc = (crc >> 8) ^ t[0][(crc ^ *p++) & 0xff];
  return ~crc;
}

}  // namespace tc
