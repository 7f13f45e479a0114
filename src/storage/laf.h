// Look-Aside File (paper §2.4, Figure 6): sidecar of (offset, length) entry
// pairs locating arbitrary-size compressed pages inside a data file, so the
// engine's fixed-size page abstraction survives compression. Entries are 12
// bytes (u64 offset + u32 length), exactly as in the paper.
//
// The header names the codec the data file was written with, so a compressed
// file describes itself: a component recompressed with the heavy tier at
// merge time stays readable by a tree configured for any codec. A file
// without a LAF is uncompressed.
#ifndef TC_STORAGE_LAF_H_
#define TC_STORAGE_LAF_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "storage/compressor.h"
#include "storage/file.h"

namespace tc {

struct LafEntry {
  uint64_t offset = 0;
  uint32_t length = 0;
};

struct LafData {
  std::vector<LafEntry> entries;
  /// Codec the data file's pages were compressed with.
  CompressionKind codec = CompressionKind::kNone;
};

/// Writes `entries` plus the data file's codec to `path` with a checksum
/// trailer.
Status WriteLaf(FileSystem* fs, const std::string& path,
                const std::vector<LafEntry>& entries, CompressionKind codec);

/// Loads a LAF; verifies the magic, the size and the checksum.
Result<LafData> LoadLaf(FileSystem* fs, const std::string& path);

}  // namespace tc

#endif  // TC_STORAGE_LAF_H_
