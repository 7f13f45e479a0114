// Block compressors for page-level compression (paper §2.4). The paper uses
// Snappy; this repo implements a from-scratch LZ77 codec with Snappy-style
// literal/copy tagging (offline environment, no third-party code), a heavier
// hash-chain variant of it for the cold-component recompression tier
// (DatasetOptions::merge_recompress), and a noop codec. Real zstd / lz4
// wrappers are compiled in when CMake finds the libraries (TC_HAVE_ZSTD /
// TC_HAVE_LZ4) — never a hard dependency. Pages are compressed on write at
// the buffer-cache boundary and decompressed to their fixed configured size
// on read; the codec a file was written with is persisted in its LAF
// sidecar, so components recompressed at merge stay readable by a tree
// configured with any codec.
//
// The homegrown codecs' output bytes are a format contract, not just their
// stream layout: the same input always compresses to the same bytes (same
// hash, table, 60 KiB block, greedy match rules and no skip-ahead), so a
// component rebuilt from the same records is byte-identical and its
// stored size is reproducible. Tests pin hashes of compressed workload
// pages; a faster compressor must reproduce them exactly.
//
// Worst case: an `n`-byte input compresses to at most
//   10 + n + floor(n / 65) + 3 * ceil(n / 61440)
// bytes at both tiers: a varint length of at most 10 bytes, then per 60 KiB
// block the input bytes plus one byte per 65 (a literal over 60 bytes costs
// two tag bytes, and the copy of at least 4 bytes that must follow it saves
// at least one) plus the final literal's tag of at most 3 bytes.
#ifndef TC_STORAGE_COMPRESSOR_H_
#define TC_STORAGE_COMPRESSOR_H_

#include <memory>
#include <string>

#include "common/bytes.h"
#include "common/status.h"

namespace tc {

/// Numeric values are persisted in LAF sidecars — append only, never
/// renumber.
enum class CompressionKind {
  kNone = 0,
  kSnappy = 1,  // the from-scratch snappy-like codec
  kHeavy = 2,   // hash-chain LZ77 with long copies: slower, smaller output
  kZstd = 3,    // real zstd, only when built with TC_HAVE_ZSTD
  kLz4 = 4,     // real lz4, only when built with TC_HAVE_LZ4
};

class Compressor {
 public:
  virtual ~Compressor() = default;
  virtual CompressionKind kind() const = 0;
  virtual std::string name() const = 0;

  /// Appends the compressed form of `in[0, n)` to `out`.
  virtual Status Compress(const uint8_t* in, size_t n, Buffer* out) const = 0;

  /// Decompresses into `out[0, out_cap)`; `*out_size` receives the original
  /// length. Fails if the original data does not fit `out_cap`.
  virtual Status Decompress(const uint8_t* in, size_t n, uint8_t* out,
                            size_t out_cap, size_t* out_size) const = 0;
};

/// Returns a process-wide shared instance for `kind`, or null when the codec
/// was not compiled in (zstd/lz4 without the library present).
std::shared_ptr<const Compressor> GetCompressor(CompressionKind kind);

/// Whether GetCompressor(kind) returns a real codec in this build.
bool CompressorAvailable(CompressionKind kind);

const char* CompressionKindName(CompressionKind kind);

}  // namespace tc

#endif  // TC_STORAGE_COMPRESSOR_H_
