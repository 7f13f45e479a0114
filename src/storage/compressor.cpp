#include "storage/compressor.h"

#include <cstring>
#include <vector>

#ifdef TC_HAVE_ZSTD
#include <zstd.h>
#endif
#ifdef TC_HAVE_LZ4
#include <lz4.h>
#endif

namespace tc {
namespace {

// ---------------------------------------------------------------------------
// Noop codec
// ---------------------------------------------------------------------------

class NoneCompressor final : public Compressor {
 public:
  CompressionKind kind() const override { return CompressionKind::kNone; }
  std::string name() const override { return "none"; }

  Status Compress(const uint8_t* in, size_t n, Buffer* out) const override {
    PutBytes(out, in, n);
    return Status::OK();
  }

  Status Decompress(const uint8_t* in, size_t n, uint8_t* out, size_t out_cap,
                    size_t* out_size) const override {
    if (n > out_cap) return Status::Corruption("none: output buffer too small");
    if (n > 0) std::memcpy(out, in, n);  // an empty page may have no buffer
    *out_size = n;
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// Shared LZ77 stream layout (snappy + heavy codecs).
//
// Stream layout: varint(uncompressed_length) then a sequence of tagged ops:
//   literal:   tag = (len-1) << 2 | 0 for len <= 60; tag 60<<2 means one extra
//              length byte follows (len-1), tag 61<<2 means two bytes.
//   copy:      tag = (len-4) << 2 | 2, followed by a 2-byte little-endian
//              offset; 4 <= len <= 64, 1 <= offset < 65536.
//   long copy: tag & 3 == 1 (heavy codec only): one extra length byte,
//              len = (((tag >> 2) | (extra << 6)) + 4) up to 16387, then the
//              same 2-byte offset. The heavy stream is a superset of the
//              snappy stream, so one decoder serves both.
// ---------------------------------------------------------------------------

constexpr int kHashBits = 14;
constexpr size_t kHashTableSize = 1u << kHashBits;
constexpr size_t kMaxCopyLen = 64;
constexpr size_t kMaxLongCopyLen = 16387;  // 14-bit (len-4) + 4
constexpr size_t kMaxOffset = 65535;
constexpr size_t kMinMatch = 4;
constexpr size_t kBlock = 60 * 1024;  // positions + 1 fit in uint16_t

inline uint32_t Load32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline uint64_t Load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

inline uint32_t HashOf(uint32_t v) { return (v * 0x1e35a7bdu) >> (32 - kHashBits); }

// Worst-case body length (everything after the length varint) of either
// homegrown stream for an `n`-byte input; compressor.h states the bound and
// why it holds. Each compressor sizes its output to this once and trims.
size_t MaxBodyLength(size_t n) { return n + n / 65 + 3 * ((n + kBlock - 1) / kBlock); }

// The length of the common prefix of `a` and `b`, from `len` (already known
// equal) up to `max_len`: 8 bytes per step, the first differing byte found
// by the lowest set bit of the XOR (the highest on a big-endian host).
inline size_t MatchLength(const uint8_t* a, const uint8_t* b, size_t len,
                          size_t max_len) {
  while (len + 8 <= max_len) {
    uint64_t diff = Load64(a + len) ^ Load64(b + len);
    if (diff != 0) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
      return len + static_cast<size_t>(__builtin_clzll(diff)) / 8;
#else
      return len + static_cast<size_t>(__builtin_ctzll(diff)) / 8;
#endif
    }
    len += 8;
  }
  while (len < max_len && a[len] == b[len]) ++len;
  return len;
}

// The emitters write at `op`, which the caller sized by MaxBodyLength, and
// return the position after what they wrote.
uint8_t* EmitLiteral(const uint8_t* p, size_t len, uint8_t* op) {
  while (len > 0) {
    size_t chunk = len;
    if (chunk <= 60) {
      *op++ = static_cast<uint8_t>((chunk - 1) << 2);
    } else if (chunk <= 256) {
      *op++ = 60 << 2;
      *op++ = static_cast<uint8_t>(chunk - 1);
    } else {
      if (chunk > 65536) chunk = 65536;
      *op++ = 61 << 2;
      *op++ = static_cast<uint8_t>((chunk - 1) & 0xff);
      *op++ = static_cast<uint8_t>((chunk - 1) >> 8);
    }
    std::memcpy(op, p, chunk);
    op += chunk;
    p += chunk;
    len -= chunk;
  }
  return op;
}

inline uint8_t* EmitOffset(size_t offset, uint8_t* op) {
  op[0] = static_cast<uint8_t>(offset & 0xff);
  op[1] = static_cast<uint8_t>(offset >> 8);
  return op + 2;
}

uint8_t* EmitCopy(size_t offset, size_t len, uint8_t* op) {
  while (len >= kMinMatch) {
    size_t chunk = len < kMaxCopyLen ? len : kMaxCopyLen;
    // Avoid leaving a sub-minimum tail: shrink this op so the tail is emittable.
    if (len - chunk > 0 && len - chunk < kMinMatch) chunk = len - kMinMatch;
    *op++ = static_cast<uint8_t>(((chunk - 4) << 2) | 2);
    op = EmitOffset(offset, op);
    len -= chunk;
  }
  return op;
}

// Heavy-codec copy emitter: short copies keep the 3-byte snappy op, longer
// matches use the 4-byte long-copy op instead of a run of 64-byte ops.
uint8_t* EmitLongCopy(size_t offset, size_t len, uint8_t* op) {
  while (len >= kMinMatch) {
    size_t chunk = len < kMaxLongCopyLen ? len : kMaxLongCopyLen;
    if (len - chunk > 0 && len - chunk < kMinMatch) chunk = len - kMinMatch;
    if (chunk <= kMaxCopyLen) {
      *op++ = static_cast<uint8_t>(((chunk - 4) << 2) | 2);
    } else {
      size_t v = chunk - 4;
      *op++ = static_cast<uint8_t>(((v & 0x3f) << 2) | 1);
      *op++ = static_cast<uint8_t>(v >> 6);
    }
    op = EmitOffset(offset, op);
    len -= chunk;
  }
  return op;
}

// Appends the length varint, sizes `out` for the worst-case body, runs
// `compress_blocks(op)` (which returns the end of what it wrote) and trims
// `out` to the bytes written.
template <typename CompressBlocks>
void WriteStream(const uint8_t* in, size_t n, Buffer* out,
                 CompressBlocks compress_blocks) {
  PutVarint64(out, n);
  if (n == 0) return;
  const size_t start = out->size();
  out->resize(start + MaxBodyLength(n));
  uint8_t* op = out->data() + start;
  op = n < kMinMatch + 4 ? EmitLiteral(in, n, op) : compress_blocks(op);
  out->resize(static_cast<size_t>(op - out->data()));
}

// One decoder for both homegrown streams; `allow_long` rejects the heavy
// codec's long-copy op when decoding a snappy stream.
Status DecodeLz77(const char* who, bool allow_long, const uint8_t* in, size_t n,
                  uint8_t* out, size_t out_cap, size_t* out_size) {
  const uint8_t* p = in;
  const uint8_t* limit = in + n;
  uint64_t expected = 0;
  size_t consumed = GetVarint64(p, limit, &expected);
  if (consumed == 0) return Status::Corruption(std::string(who) + ": bad length varint");
  if (expected > out_cap) return Status::Corruption(std::string(who) + ": output too small");
  p += consumed;
  size_t pos = 0;
  while (p < limit) {
    uint8_t tag = *p++;
    if ((tag & 3) == 0) {  // literal
      size_t len = (tag >> 2) + 1;
      if (len == 61) {
        if (p >= limit) return Status::Corruption(std::string(who) + ": truncated literal len");
        len = static_cast<size_t>(*p++) + 1;
      } else if (len == 62) {
        if (p + 2 > limit) return Status::Corruption(std::string(who) + ": truncated literal len");
        len = static_cast<size_t>(p[0] | (p[1] << 8)) + 1;
        p += 2;
      }
      if (p + len > limit || pos + len > expected) {
        return Status::Corruption(std::string(who) + ": literal overruns buffer");
      }
      std::memcpy(out + pos, p, len);
      p += len;
      pos += len;
    } else if ((tag & 3) == 2 || ((tag & 3) == 1 && allow_long)) {  // copy
      size_t len;
      if ((tag & 3) == 2) {
        len = ((tag >> 2) & 0x3f) + 4;
      } else {
        if (p >= limit) return Status::Corruption(std::string(who) + ": truncated long copy");
        len = (((tag >> 2) & 0x3f) | (static_cast<size_t>(*p++) << 6)) + 4;
      }
      if (p + 2 > limit) return Status::Corruption(std::string(who) + ": truncated copy");
      size_t offset = static_cast<size_t>(p[0] | (p[1] << 8));
      p += 2;
      if (offset == 0 || offset > pos || pos + len > expected) {
        return Status::Corruption(std::string(who) + ": bad copy");
      }
      uint8_t* dst = out + pos;
      const uint8_t* src = dst - offset;
      size_t i = 0;
      if (offset >= 8) {
        // A word never reads bytes this copy has yet to write: the source
        // trails the destination by at least its width. Where the output
        // has room, the last word may run past the match; the bytes it
        // spills are rewritten by the ops that follow and never read first.
        const size_t words_end = expected - pos >= len + 7 ? len : len & ~size_t{7};
        for (; i < words_end; i += 8) std::memcpy(dst + i, src + i, 8);
      }
      for (; i < len; ++i) dst[i] = src[i];  // tail, or an overlap under 8
      pos += len;
    } else {
      return Status::Corruption(std::string(who) + ": unknown tag");
    }
  }
  if (pos != expected) return Status::Corruption(std::string(who) + ": length mismatch");
  *out_size = pos;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Snappy-like codec: single-probe hash table, greedy, short copies only.
// ---------------------------------------------------------------------------

class SnappyLikeCompressor final : public Compressor {
 public:
  CompressionKind kind() const override { return CompressionKind::kSnappy; }
  std::string name() const override { return "snappy-like"; }

  Status Compress(const uint8_t* in, size_t n, Buffer* out) const override {
    WriteStream(in, n, out, [in, n](uint8_t* op) {
      // Positions are stored +1 so 0 means "empty"; works for inputs < 64 KiB.
      // For larger inputs we compress in 60 KiB blocks, each starting from an
      // empty table.
      uint16_t table[kHashTableSize];
      size_t block_start = 0;
      while (block_start < n) {
        size_t block_len = n - block_start < kBlock ? n - block_start : kBlock;
        std::memset(table, 0, sizeof(table));
        op = CompressBlock(in + block_start, block_len, table, op);
        block_start += block_len;
      }
      return op;
    });
    return Status::OK();
  }

  Status Decompress(const uint8_t* in, size_t n, uint8_t* out, size_t out_cap,
                    size_t* out_size) const override {
    return DecodeLz77("snappy", /*allow_long=*/false, in, n, out, out_cap, out_size);
  }

 private:
  static uint8_t* CompressBlock(const uint8_t* in, size_t n, uint16_t* table,
                                uint8_t* op) {
    size_t ip = 0;
    size_t literal_start = 0;
    if (n >= kMinMatch + 4) {
      size_t ip_limit = n - kMinMatch - 4;
      while (ip <= ip_limit) {
        const uint32_t cur = Load32(in + ip);
        const uint32_t h = HashOf(cur);
        const size_t candidate = table[h];
        table[h] = static_cast<uint16_t>(ip + 1);
        // Whether a slot is still empty (0) is a coin flip while a block
        // fills its table, so it takes no branch: an empty slot compares the
        // current word against itself with one bit flipped, which never
        // matches. A filled slot is an earlier position of this block, so its
        // offset is in [1, kBlock) and always encodable.
        const size_t empty = candidate == 0;
        const size_t cpos = candidate - 1 + empty * (ip + 1);
        if ((Load32(in + cpos) ^ static_cast<uint32_t>(empty)) == cur) {
          size_t max_len = n - ip;
          if (max_len > kMaxCopyLen) max_len = kMaxCopyLen;
          size_t len = MatchLength(in + cpos, in + ip, kMinMatch, max_len);
          op = EmitLiteral(in + literal_start, ip - literal_start, op);
          op = EmitCopy(ip - cpos, len, op);
          ip += len;
          literal_start = ip;
          continue;
        }
        ++ip;
      }
    }
    return EmitLiteral(in + literal_start, n - literal_start, op);
  }
};

// ---------------------------------------------------------------------------
// Heavy codec: hash-chain matching (up to kMaxChain candidates per position,
// longest wins), long-copy ops, every matched position inserted into the
// chain. Several times slower than the snappy tier, noticeably smaller output
// on structured data — which is exactly the trade the merge recompression
// tier wants for cold bottom-level components that are written once and read
// for a long time.
// ---------------------------------------------------------------------------

constexpr size_t kMaxChain = 16;

class HeavyCompressor final : public Compressor {
 public:
  CompressionKind kind() const override { return CompressionKind::kHeavy; }
  std::string name() const override { return "heavy"; }

  Status Compress(const uint8_t* in, size_t n, Buffer* out) const override {
    WriteStream(in, n, out, [in, n](uint8_t* op) {
      // Both tables are reused per thread (too big for the stack). `head` is
      // cleared per block; `prev` needs no clearing, since the chain only
      // reads entries of positions this block has already inserted.
      thread_local std::vector<uint16_t> head(kHashTableSize);
      thread_local std::vector<uint16_t> prev(kBlock);
      size_t block_start = 0;
      while (block_start < n) {
        size_t block_len = n - block_start < kBlock ? n - block_start : kBlock;
        std::fill(head.begin(), head.end(), 0);
        op = CompressBlock(in + block_start, block_len, head.data(), prev.data(), op);
        block_start += block_len;
      }
      return op;
    });
    return Status::OK();
  }

  Status Decompress(const uint8_t* in, size_t n, uint8_t* out, size_t out_cap,
                    size_t* out_size) const override {
    return DecodeLz77("heavy", /*allow_long=*/true, in, n, out, out_cap, out_size);
  }

 private:
  static uint8_t* CompressBlock(const uint8_t* in, size_t n, uint16_t* head,
                                uint16_t* prev, uint8_t* op) {
    size_t ip = 0;
    size_t literal_start = 0;
    while (ip + kMinMatch <= n && ip + 4 <= n) {
      uint32_t h = HashOf(Load32(in + ip));
      size_t best_len = 0;
      size_t best_off = 0;
      size_t candidate = head[h];
      size_t chain = 0;
      size_t max_len = n - ip;
      if (max_len > kMaxLongCopyLen) max_len = kMaxLongCopyLen;
      while (candidate != 0 && chain < kMaxChain) {
        size_t cpos = candidate - 1;
        size_t offset = ip - cpos;
        if (offset == 0) break;  // stale self-entry; chain ends here
        if (offset <= kMaxOffset && Load32(in + cpos) == Load32(in + ip)) {
          size_t len = MatchLength(in + cpos, in + ip, kMinMatch, max_len);
          if (len > best_len) {
            best_len = len;
            best_off = offset;
          }
        }
        candidate = prev[cpos];
        ++chain;
      }
      prev[ip] = head[h];
      head[h] = static_cast<uint16_t>(ip + 1);
      if (best_len >= kMinMatch) {
        op = EmitLiteral(in + literal_start, ip - literal_start, op);
        op = EmitLongCopy(best_off, best_len, op);
        // Insert interior match positions so later data can reference them.
        size_t stop = ip + best_len;
        for (size_t j = ip + 1; j + 4 <= stop && j + 4 <= n; ++j) {
          uint32_t hj = HashOf(Load32(in + j));
          prev[j] = head[hj];
          head[hj] = static_cast<uint16_t>(j + 1);
        }
        ip = stop;
        literal_start = ip;
      } else {
        ++ip;
      }
    }
    return EmitLiteral(in + literal_start, n - literal_start, op);
  }
};

// ---------------------------------------------------------------------------
// Real-library wrappers, present only when CMake found the library.
// ---------------------------------------------------------------------------

#ifdef TC_HAVE_ZSTD
class ZstdCompressor final : public Compressor {
 public:
  CompressionKind kind() const override { return CompressionKind::kZstd; }
  std::string name() const override { return "zstd"; }

  Status Compress(const uint8_t* in, size_t n, Buffer* out) const override {
    size_t bound = ZSTD_compressBound(n);
    size_t old = out->size();
    out->resize(old + bound);
    size_t r = ZSTD_compress(out->data() + old, bound, in, n, /*level=*/3);
    if (ZSTD_isError(r)) {
      out->resize(old);
      return Status::IOError(std::string("zstd: ") + ZSTD_getErrorName(r));
    }
    out->resize(old + r);
    return Status::OK();
  }

  Status Decompress(const uint8_t* in, size_t n, uint8_t* out, size_t out_cap,
                    size_t* out_size) const override {
    size_t r = ZSTD_decompress(out, out_cap, in, n);
    if (ZSTD_isError(r)) {
      return Status::Corruption(std::string("zstd: ") + ZSTD_getErrorName(r));
    }
    *out_size = r;
    return Status::OK();
  }
};
#endif  // TC_HAVE_ZSTD

#ifdef TC_HAVE_LZ4
// LZ4's block API does not carry the uncompressed length, so the stream gets
// the same varint prefix as the homegrown codecs.
class Lz4Compressor final : public Compressor {
 public:
  CompressionKind kind() const override { return CompressionKind::kLz4; }
  std::string name() const override { return "lz4"; }

  Status Compress(const uint8_t* in, size_t n, Buffer* out) const override {
    if (n > static_cast<size_t>(LZ4_MAX_INPUT_SIZE)) {
      return Status::InvalidArgument("lz4: input too large");
    }
    PutVarint64(out, n);
    int bound = LZ4_compressBound(static_cast<int>(n));
    size_t old = out->size();
    out->resize(old + static_cast<size_t>(bound));
    int r = LZ4_compress_default(reinterpret_cast<const char*>(in),
                                 reinterpret_cast<char*>(out->data() + old),
                                 static_cast<int>(n), bound);
    if (r <= 0 && n > 0) {
      out->resize(old);
      return Status::IOError("lz4: compress failed");
    }
    out->resize(old + static_cast<size_t>(r));
    return Status::OK();
  }

  Status Decompress(const uint8_t* in, size_t n, uint8_t* out, size_t out_cap,
                    size_t* out_size) const override {
    const uint8_t* p = in;
    uint64_t expected = 0;
    size_t consumed = GetVarint64(p, in + n, &expected);
    if (consumed == 0) return Status::Corruption("lz4: bad length varint");
    if (expected > out_cap) return Status::Corruption("lz4: output too small");
    int r = LZ4_decompress_safe(reinterpret_cast<const char*>(in + consumed),
                                reinterpret_cast<char*>(out),
                                static_cast<int>(n - consumed),
                                static_cast<int>(out_cap));
    if (r < 0 || static_cast<uint64_t>(r) != expected) {
      return Status::Corruption("lz4: decompress failed");
    }
    *out_size = static_cast<size_t>(r);
    return Status::OK();
  }
};
#endif  // TC_HAVE_LZ4

}  // namespace

std::shared_ptr<const Compressor> GetCompressor(CompressionKind kind) {
  static const auto none = std::make_shared<NoneCompressor>();
  static const auto snappy = std::make_shared<SnappyLikeCompressor>();
  static const auto heavy = std::make_shared<HeavyCompressor>();
#ifdef TC_HAVE_ZSTD
  static const auto zstd = std::make_shared<ZstdCompressor>();
#endif
#ifdef TC_HAVE_LZ4
  static const auto lz4 = std::make_shared<Lz4Compressor>();
#endif
  switch (kind) {
    case CompressionKind::kNone:
      return none;
    case CompressionKind::kSnappy:
      return snappy;
    case CompressionKind::kHeavy:
      return heavy;
    case CompressionKind::kZstd:
#ifdef TC_HAVE_ZSTD
      return zstd;
#else
      return nullptr;
#endif
    case CompressionKind::kLz4:
#ifdef TC_HAVE_LZ4
      return lz4;
#else
      return nullptr;
#endif
  }
  return none;
}

bool CompressorAvailable(CompressionKind kind) {
  return GetCompressor(kind) != nullptr;
}

const char* CompressionKindName(CompressionKind kind) {
  switch (kind) {
    case CompressionKind::kNone:
      return "none";
    case CompressionKind::kSnappy:
      return "snappy";
    case CompressionKind::kHeavy:
      return "heavy";
    case CompressionKind::kZstd:
      return "zstd";
    case CompressionKind::kLz4:
      return "lz4";
  }
  return "unknown";
}

}  // namespace tc
