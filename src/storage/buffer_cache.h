// Paged files and the buffer cache (paper §2.4). On-disk pages may be
// compressed to arbitrary sizes (located through a LAF); in-memory pages are
// always the fixed configured size. Compression and decompression happen here,
// at the buffer-cache boundary, exactly as the paper describes.
#ifndef TC_STORAGE_BUFFER_CACHE_H_
#define TC_STORAGE_BUFFER_CACHE_H_

#include <atomic>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "storage/compressor.h"
#include "storage/file.h"
#include "storage/laf.h"

namespace tc {

/// An immutable store of fixed-size logical pages, optionally compressed.
/// Components are built once (AppendPage... Finish) and never modified —
/// matching LSM on-disk component immutability (§2.2).
class PagedFile {
 public:
  /// Starts a new page file at `path` for writing.
  static Result<std::unique_ptr<PagedFile>> Create(
      std::shared_ptr<FileSystem> fs, const std::string& path, size_t page_size,
      std::shared_ptr<const Compressor> compressor);

  /// Opens an existing, finished page file for reading. The file describes
  /// itself: a LAF sidecar means compressed with the codec the LAF names, no
  /// LAF means uncompressed. This is what lets a merge recompress a component
  /// with a heavier codec than the tree's configured one and still have
  /// every reader open it correctly.
  static Result<std::unique_ptr<PagedFile>> Open(
      std::shared_ptr<FileSystem> fs, const std::string& path, size_t page_size);

  /// Deletes the data file and its LAF (if any).
  static Status Remove(FileSystem* fs, const std::string& path);

  /// Appends one logical page (exactly page_size bytes).
  Status AppendPage(const uint8_t* data);

  /// Seals the file: writes the LAF for compressed files and syncs.
  Status Finish();

  /// Reads one logical page into `out` (page_size bytes), decompressing if
  /// needed. Valid on finished or currently-being-written files.
  Status ReadPage(uint32_t page_no, uint8_t* out) const;

  uint32_t page_count() const { return static_cast<uint32_t>(entries_.size()); }
  size_t page_size() const { return page_size_; }
  /// Physical on-disk footprint: data file + LAF (the Figure 16 metric).
  uint64_t physical_bytes() const;
  uint64_t file_id() const { return file_id_; }
  const std::string& path() const { return path_; }
  bool compressed() const { return compressor_->kind() != CompressionKind::kNone; }
  CompressionKind compression() const { return compressor_->kind(); }
  /// CPU nanoseconds spent inside the codec by AppendPage (write side only;
  /// feeds the flush and merge compress-stage counters).
  uint64_t compress_nanos() const { return compress_nanos_; }

 private:
  PagedFile() = default;

  std::shared_ptr<FileSystem> fs_;
  std::unique_ptr<File> file_;
  std::string path_;
  size_t page_size_ = 0;
  std::shared_ptr<const Compressor> compressor_;
  std::vector<LafEntry> entries_;  // kept for uncompressed files too (trivial)
  uint64_t append_offset_ = 0;
  uint64_t laf_bytes_ = 0;
  uint64_t compress_nanos_ = 0;  // single-writer: only AppendPage touches it
  bool finished_ = false;
  uint64_t file_id_ = 0;
};

/// Process-wide LRU cache of decompressed fixed-size pages, keyed by
/// (file_id, page_no). Readers receive shared ownership of the page buffer, so
/// eviction never invalidates an in-use page.
class BufferCache {
 public:
  using PageRef = std::shared_ptr<const Buffer>;

  BufferCache(size_t page_size, size_t capacity_pages)
      : page_size_(page_size), capacity_(capacity_pages) {}

  /// When `disk_read` is non-null it is set to true iff the page had to be
  /// fetched from the file (a cache miss), false on a hit.
  Result<PageRef> GetPage(const PagedFile* file, uint32_t page_no,
                          bool* disk_read = nullptr);

  /// Like GetPage, but marks the entry pinned: it lives outside the LRU list
  /// and does not count against `capacity_pages`, so it stays memory-resident
  /// until InvalidateFile drops it. Used for B-tree interior pages on the
  /// point-lookup fast path.
  Result<PageRef> GetPinnedPage(const PagedFile* file, uint32_t page_no);

  /// Drops all cached pages of a file, pinned ones included (called when a
  /// component is deleted or its last handle closes).
  void InvalidateFile(uint64_t file_id);

  uint64_t hits() const { return hits_.load(); }
  uint64_t misses() const { return misses_.load(); }
  size_t page_size() const { return page_size_; }
  /// Pages currently held pinned (outside the LRU budget).
  size_t pinned_pages() const;

 private:
  struct Key {
    uint64_t file_id;
    uint32_t page_no;
    bool operator==(const Key& o) const {
      return file_id == o.file_id && page_no == o.page_no;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return std::hash<uint64_t>()(k.file_id * 1000003 + k.page_no);
    }
  };
  struct Entry {
    PageRef page;
    std::list<Key>::iterator lru_pos;  // valid only when !pinned
    bool pinned = false;
  };

  const size_t page_size_;
  const size_t capacity_;
  mutable std::mutex mu_;
  std::unordered_map<Key, Entry, KeyHash> map_;
  std::list<Key> lru_;  // front = most recent; excludes pinned entries
  size_t pinned_count_ = 0;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

}  // namespace tc

#endif  // TC_STORAGE_BUFFER_CACHE_H_
