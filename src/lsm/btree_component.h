// Immutable on-disk LSM component: a B+-tree built bottom-up from sorted
// entries (paper §2.2). Leaf pages are chained for range scans; the last page
// is a footer locating the root and the component metadata (component ID,
// entry counts, key range / fences, and — for inferred datasets — the
// serialized schema persisted at flush time, §3.1.1) and a per-component
// bloom filter (CRC-guarded filter pages between the schema blob and the
// footer). There is one footer layout, and the component's files are the
// only source of truth for reading it: the page codec comes from the LAF
// sidecar (storage/laf.h), and no LAF means uncompressed. A sidecar ".valid"
// marker file plays the role of the paper's validity bit: it is written only
// after the component is fully durable, so crash recovery can identify and
// remove INVALID components.
#ifndef TC_LSM_BTREE_COMPONENT_H_
#define TC_LSM_BTREE_COMPONENT_H_

#include <memory>
#include <optional>
#include <string>

#include "common/bytes.h"
#include "common/status.h"
#include "lsm/bloom_filter.h"
#include "storage/buffer_cache.h"

namespace tc {

/// 128-bit composite key. Primary indexes use {pk, 0}; secondary indexes use
/// {secondary_key, pk} so duplicates of the secondary key stay unique.
struct BtreeKey {
  int64_t a = 0;
  int64_t b = 0;

  bool operator==(const BtreeKey& o) const { return a == o.a && b == o.b; }
  bool operator<(const BtreeKey& o) const {
    return a != o.a ? a < o.a : b < o.b;
  }
  bool operator<=(const BtreeKey& o) const { return !(o < *this); }
};

/// Component identity and statistics stored in the footer. Flushed components
/// get cid_min == cid_max; merged components span the merged range (§2.2).
struct ComponentMeta {
  uint64_t cid_min = 0;
  uint64_t cid_max = 0;
  uint64_t n_entries = 0;   // live records
  uint64_t n_anti = 0;      // anti-matter entries
  BtreeKey min_key;
  BtreeKey max_key;
  Buffer schema_blob;       // serialized Schema; empty for non-inferred datasets
};

/// Streams strictly-increasing keyed entries into a new component.
class BtreeComponentBuilder {
 public:
  /// The component is written to `path` via a fresh PagedFile. `filter`
  /// controls the bloom filter built alongside the tree (bits_per_key == 0
  /// writes none).
  static Result<std::unique_ptr<BtreeComponentBuilder>> Create(
      std::shared_ptr<FileSystem> fs, const std::string& path, size_t page_size,
      std::shared_ptr<const Compressor> compressor,
      BloomFilterConfig filter = {});

  /// Adds one entry; keys must be strictly increasing. `anti` marks an
  /// anti-matter (delete) entry whose payload must be empty.
  Status Add(const BtreeKey& key, bool anti, std::string_view payload);

  /// Seals the tree and writes footer + metadata. After this the data is
  /// durable but the component is still INVALID until MarkValid is called.
  Status Finish(uint64_t cid_min, uint64_t cid_max, const Buffer& schema_blob);

  /// Writes the validity marker (the paper's validity bit).
  Status MarkValid();

  uint64_t added() const { return n_entries_ + n_anti_; }
  /// Codec CPU spent by page writes so far (the build's compress stage;
  /// subtracted from wall-clock write time for the write stage).
  uint64_t compress_nanos() const { return file_->compress_nanos(); }

 private:
  BtreeComponentBuilder() = default;

  Status FlushLeaf();
  Status BuildInterior();
  // Appends `blob` as zero-padded whole pages (none when it is empty).
  Status AppendBlobPages(const Buffer& blob);

  std::shared_ptr<FileSystem> fs_;
  std::unique_ptr<PagedFile> file_;
  std::string path_;
  size_t page_size_ = 0;

  Buffer leaf_;                 // current leaf page under construction
  std::vector<uint16_t> leaf_offsets_;
  std::vector<std::pair<BtreeKey, uint32_t>> level_;  // (first_key, page) of leaves
  uint32_t next_page_ = 0;
  uint32_t root_page_ = UINT32_MAX;
  uint32_t leaf_count_ = 0;

  uint64_t n_entries_ = 0;
  uint64_t n_anti_ = 0;
  bool has_min_ = false;
  BtreeKey min_key_;
  BtreeKey max_key_;
  bool finished_ = false;

  // Bloom filter accumulated over every added key — anti-matter included,
  // since a filter skip on a tombstone would resurrect older versions.
  BloomFilterBuilder filter_builder_{0};
};

/// Read-only handle to a finished component. Page reads go through the shared
/// buffer cache.
class BtreeComponent {
 public:
  /// With a cache, interior pages are pinned in it at open time (outside its
  /// LRU budget), so a hot point lookup costs at most one disk read — the
  /// leaf. The on-disk filter, if any, is always loaded and stays
  /// memory-resident. A filter whose CRC or header does not check out is
  /// dropped — the component still opens and serves correct (if slower)
  /// lookups, with filter_degraded() set. A footer with a bad magic or CRC,
  /// or one that locates pages outside the file, fails with Corruption.
  static Result<std::shared_ptr<BtreeComponent>> Open(
      std::shared_ptr<FileSystem> fs, BufferCache* cache, const std::string& path,
      size_t page_size);

  ~BtreeComponent();

  /// True when `path` has a validity marker (flush/merge completed).
  static bool IsValid(FileSystem* fs, const std::string& path);

  /// Removes the component's files (data, LAF, validity marker).
  static Status Destroy(FileSystem* fs, const std::string& path);

  struct LookupResult {
    bool anti = false;
    Buffer payload;
  };
  /// Point lookup; nullopt when the key is not in this component. Consults
  /// the fences and the bloom filter before touching any page. When
  /// `pages_read` is non-null it accumulates the number of pages fetched
  /// from DISK (buffer-cache hits and pinned pages are free).
  Result<std::optional<LookupResult>> Get(const BtreeKey& key,
                                          uint64_t* pages_read = nullptr) const;

  /// Filter-only probe, no I/O: false proves the key is absent; true when it
  /// may be present (or the component has no filter).
  bool MayContain(const BtreeKey& key) const {
    return filter_ == nullptr || filter_->MayContainHash(BloomKeyHash(key.a, key.b));
  }
  /// Fence check, no I/O: false when the key lies outside [min_key, max_key]
  /// (or the component is empty).
  bool KeyInFence(const BtreeKey& key) const {
    return root_page_ != UINT32_MAX && !(key < meta_.min_key) &&
           !(meta_.max_key < key);
  }
  bool has_filter() const { return filter_ != nullptr; }
  /// True when the component carried a filter that failed its CRC/header
  /// validation and was dropped at open time.
  bool filter_degraded() const { return filter_degraded_; }
  const BloomFilter* filter() const { return filter_.get(); }
  /// Interior pages held memory-resident for the lookup fast path.
  size_t pinned_interior_pages() const { return pinned_interior_.size(); }

  /// Forward iterator over leaf entries in key order. Holds page pins; the
  /// payload view is valid until the next call to Next/Seek.
  class Iterator {
   public:
    explicit Iterator(const BtreeComponent* component) : c_(component) {}
    Status SeekToFirst();
    Status Seek(const BtreeKey& key);  // first entry with key >= `key`
    bool Valid() const { return valid_; }
    Status Next();
    const BtreeKey& key() const { return key_; }
    bool anti() const { return anti_; }
    std::string_view payload() const { return payload_; }

   private:
    Status LoadEntry();
    Status AdvancePage();

    const BtreeComponent* c_;
    BufferCache::PageRef page_;
    uint32_t page_no_ = 0;
    uint16_t n_ = 0;  // the current leaf's slot count, range-checked
    uint16_t slot_ = 0;
    bool valid_ = false;
    BtreeKey key_;
    bool anti_ = false;
    std::string_view payload_;
  };

  const ComponentMeta& meta() const { return meta_; }
  uint64_t physical_bytes() const { return file_->physical_bytes(); }
  /// The codec this component's pages are stored with (named by its LAF
  /// sidecar; kNone without one) — what the merge scheduler's
  /// recompressible-bytes estimate keys on.
  CompressionKind compression() const { return file_->compression(); }
  const std::string& path() const { return path_; }
  uint64_t file_id() const { return file_->file_id(); }
  uint32_t page_count() const { return file_->page_count(); }

 private:
  BtreeComponent() = default;

  Result<uint32_t> FindLeaf(const BtreeKey& key, uint64_t* pages_read) const;

  std::shared_ptr<FileSystem> fs_;
  BufferCache* cache_ = nullptr;
  std::unique_ptr<PagedFile> file_;
  std::string path_;
  size_t page_size_ = 0;
  uint32_t root_page_ = UINT32_MAX;
  uint32_t leaf_count_ = 0;
  ComponentMeta meta_;
  // Memory-resident lookup state: the loaded bloom filter and (when pinning
  // is on) the interior pages [leaf_count_, root_page_], held as cache pins
  // so FindLeaf descends without I/O.
  std::shared_ptr<const BloomFilter> filter_;
  bool filter_degraded_ = false;
  std::vector<BufferCache::PageRef> pinned_interior_;
};

}  // namespace tc

#endif  // TC_LSM_BTREE_COMPONENT_H_
