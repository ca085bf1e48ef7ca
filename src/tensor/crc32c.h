#pragma once
// CRC32C (Castagnoli polynomial, reflected form) — the integrity checksum
// used by the v4 model-image format (nn/serialize) and the TEE transfer
// frames (tee/optee_api). Software slicing-by-8 (Kounavis & Berry, 2005):
// eight 256-entry tables fold eight input bytes per step, several times the
// speed of the one-table loop over the megabytes a deploy checksums, with
// the same values. Bytes are assembled into words explicitly, so the loop is
// portable: no SSE4.2 dependency, no ISA dispatch, no endianness assumption.

#include <array>
#include <cstddef>
#include <cstdint>

namespace tbnet {
namespace detail {

/// t[0] is the classic byte table; t[k][b] is the CRC of byte b followed by
/// k zero bytes, so one step looks up each of eight bytes at its distance
/// from the end of the step.
using Crc32cTables = std::array<std::array<uint32_t, 256>, 8>;

inline const Crc32cTables& crc32c_tables() {
  static const Crc32cTables tables = [] {
    Crc32cTables t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0x82f63b78u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (size_t k = 1; k < t.size(); ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        const uint32_t prev = t[k - 1][i];
        t[k][i] = (prev >> 8) ^ t[0][prev & 0xffu];
      }
    }
    return t;
  }();
  return tables;
}

/// The four bytes at `p` as a little-endian word.
inline uint32_t load_le32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace detail

/// CRC32C of `len` bytes. Chainable: pass a previous result as `seed` to
/// extend the checksum over a second buffer.
inline uint32_t crc32c(const void* data, size_t len, uint32_t seed = 0) {
  const auto& t = detail::crc32c_tables();
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t c = ~seed;
  for (; len >= 8; p += 8, len -= 8) {
    const uint32_t lo = detail::load_le32(p) ^ c;
    const uint32_t hi = detail::load_le32(p + 4);
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
        t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
        t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  return ~c;
}

}  // namespace tbnet
