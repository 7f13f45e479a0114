// Little-endian byte encoding helpers, varints, and zigzag coding shared by the
// record formats, the WAL, and the on-disk page layouts.
#ifndef TC_COMMON_BYTES_H_
#define TC_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace tc {

using Buffer = std::vector<uint8_t>;

inline void PutU8(Buffer* b, uint8_t v) { b->push_back(v); }

// The fixed-width writers assemble the little-endian bytes locally and append
// them with one insert: a push_back per byte re-checks capacity per byte and
// keeps the compiler from merging the stores.
template <typename T>
inline void PutFixedLE(Buffer* b, T v) {
  uint8_t le[sizeof(T)];
  for (size_t i = 0; i < sizeof(T); ++i) le[i] = static_cast<uint8_t>(v >> (8 * i));
  b->insert(b->end(), le, le + sizeof(T));
}

inline void PutFixed16(Buffer* b, uint16_t v) { PutFixedLE(b, v); }

inline void PutFixed32(Buffer* b, uint32_t v) { PutFixedLE(b, v); }

inline void PutFixed64(Buffer* b, uint64_t v) { PutFixedLE(b, v); }

inline void PutDouble(Buffer* b, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutFixed64(b, bits);
}

inline void PutFloat(Buffer* b, float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutFixed32(b, bits);
}

inline void PutBytes(Buffer* b, const void* data, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  b->insert(b->end(), p, p + n);
}

inline void PutString(Buffer* b, std::string_view s) { PutBytes(b, s.data(), s.size()); }

inline uint16_t GetFixed16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}

inline uint32_t GetFixed32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

inline uint64_t GetFixed64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

inline double GetDouble(const uint8_t* p) {
  uint64_t bits = GetFixed64(p);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

inline float GetFloat(const uint8_t* p) {
  uint32_t bits = GetFixed32(p);
  float v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// Overwrite helpers for back-patching headers after the body is serialized.
inline void OverwriteFixed32(Buffer* b, size_t pos, uint32_t v) {
  for (int i = 0; i < 4; ++i) (*b)[pos + i] = static_cast<uint8_t>(v >> (8 * i));
}

/// LEB128 unsigned varint (Protocol Buffers / Thrift Compact wire encoding).
inline void PutVarint64(Buffer* b, uint64_t v) {
  uint8_t bytes[10];
  size_t n = 0;
  while (v >= 0x80) {
    bytes[n++] = static_cast<uint8_t>(v) | 0x80;
    v >>= 7;
  }
  bytes[n++] = static_cast<uint8_t>(v);
  b->insert(b->end(), bytes, bytes + n);
}

inline void PutVarint32(Buffer* b, uint32_t v) { PutVarint64(b, v); }

/// Decodes a varint; returns bytes consumed, 0 on malformed input.
inline size_t GetVarint64(const uint8_t* p, const uint8_t* limit, uint64_t* out) {
  uint64_t v = 0;
  int shift = 0;
  const uint8_t* start = p;
  while (p < limit && shift <= 63) {
    uint8_t byte = *p++;
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *out = v;
      return static_cast<size_t>(p - start);
    }
    shift += 7;
  }
  return 0;
}

inline uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

inline int64_t ZigzagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

/// Minimum number of bits needed to represent v (0 needs 0 bits).
inline int BitsFor(uint64_t v) {
  int bits = 0;
  while (v != 0) {
    ++bits;
    v >>= 1;
  }
  return bits;
}

}  // namespace tc

#endif  // TC_COMMON_BYTES_H_
