#include "lsm/btree_component.h"

#include <algorithm>
#include <cstring>

#include "common/crc32.h"

namespace tc {
namespace {

constexpr uint8_t kLeafPage = 1;
constexpr uint8_t kInteriorPage = 2;
constexpr uint8_t kMetaBlobPage = 3;
// Footer: root/leaf/schema-blob locators, counts, fences and CID range, then
// the filter locator (filter pages sit between the schema-blob pages and the
// footer), then a CRC over everything before it.
constexpr uint32_t kFooterMagic = 0x32424354;  // "TCB2"
constexpr uint32_t kNoPage = UINT32_MAX;
constexpr size_t kFooterFixed =
    4 + 4 + 4 + 4 + 4 + 8 + 8 + 16 + 16 + 8 + 8 + 4 + 4 + 4;
constexpr size_t kMinPageSize = kFooterFixed + 4;  // the footer fits a page

constexpr size_t kLeafHeader = 7;       // type + n + next_leaf
constexpr size_t kInteriorHeader = 3;   // type + n
constexpr size_t kEntryFixed = 16 + 1 + 4;  // key + flags + payload_len
constexpr size_t kInteriorEntry = 16 + 4;   // first_key + child

void PutKey(Buffer* b, const BtreeKey& k) {
  PutFixed64(b, static_cast<uint64_t>(k.a));
  PutFixed64(b, static_cast<uint64_t>(k.b));
}

BtreeKey GetKey(const uint8_t* p) {
  return BtreeKey{static_cast<int64_t>(GetFixed64(p)),
                  static_cast<int64_t>(GetFixed64(p + 8))};
}

std::string ValidPath(const std::string& path) { return path + ".valid"; }

// Pages carry no CRC (an uncompressed component's leaf is read as stored),
// so readers range-check every count, offset, length and page number they
// follow against the page size: a corrupt page fails with Corruption instead
// of reading outside its buffer. A leaf of `n` slots keeps its entries below
// its slot table, which starts at page_size - 2n.

// Checks a leaf page's type and slot count (each entry needs its fixed part
// and a slot) and returns the count.
Result<uint16_t> LeafSlotCount(const uint8_t* p, size_t page_size) {
  if (p[0] != kLeafPage) return Status::Corruption("expected leaf page");
  const uint16_t n = GetFixed16(p + 1);
  if (kLeafHeader + size_t{n} * (kEntryFixed + 2) > page_size) {
    return Status::Corruption("leaf slot count out of range");
  }
  return n;
}

// Reads the offset of slot `i` (< n); false when the entry's fixed part
// would overrun the slot table.
inline bool LeafEntryAt(const uint8_t* p, size_t page_size, size_t n, size_t i,
                        size_t* off) {
  *off = GetFixed16(p + page_size - 2 * (i + 1));
  return *off + kEntryFixed <= page_size - 2 * n;
}

// Reads the payload of the entry at `off` (checked by LeafEntryAt); false
// when its length would overrun the slot table.
inline bool LeafPayloadAt(const uint8_t* p, size_t page_size, size_t n, size_t off,
                          std::string_view* payload) {
  const uint32_t len = GetFixed32(p + off + 17);
  if (len > page_size - 2 * n - off - kEntryFixed) return false;
  *payload = std::string_view(reinterpret_cast<const char*>(p + off + kEntryFixed), len);
  return true;
}

Status BadLeafEntry() { return Status::Corruption("leaf entry offset out of range"); }
Status BadLeafPayload() { return Status::Corruption("leaf payload length out of range"); }

// Reads the `len`-byte blob stored in whole pages from page `start` on.
Status ReadBlobPages(const PagedFile& file, uint32_t start, uint32_t len,
                     Buffer* out) {
  const size_t page_size = file.page_size();
  out->resize(len);
  Buffer page(page_size);
  for (size_t pos = 0; pos < len; pos += page_size) {
    TC_RETURN_IF_ERROR(file.ReadPage(start++, page.data()));
    std::memcpy(out->data() + pos, page.data(), std::min<size_t>(page_size, len - pos));
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

Result<std::unique_ptr<BtreeComponentBuilder>> BtreeComponentBuilder::Create(
    std::shared_ptr<FileSystem> fs, const std::string& path, size_t page_size,
    std::shared_ptr<const Compressor> compressor, BloomFilterConfig filter) {
  if (page_size < kMinPageSize) {
    return Status::InvalidArgument("page size cannot hold the component footer");
  }
  auto b = std::unique_ptr<BtreeComponentBuilder>(new BtreeComponentBuilder());
  b->fs_ = fs;
  b->path_ = path;
  b->page_size_ = page_size;
  b->filter_builder_ = BloomFilterBuilder(filter.bits_per_key);
  TC_ASSIGN_OR_RETURN(b->file_,
                      PagedFile::Create(std::move(fs), path, page_size,
                                        std::move(compressor)));
  b->leaf_.reserve(page_size);
  return b;
}

Status BtreeComponentBuilder::Add(const BtreeKey& key, bool anti,
                                  std::string_view payload) {
  TC_CHECK(!finished_);
  if (anti && !payload.empty()) {
    return Status::InvalidArgument("anti-matter entries carry no payload");
  }
  if (has_min_ && !(max_key_ < key)) {
    return Status::InvalidArgument("btree builder keys must be strictly increasing");
  }
  size_t entry_size = kEntryFixed + payload.size();
  if (kLeafHeader + entry_size + 2 > page_size_) {
    return Status::InvalidArgument(
        "record too large for page size " + std::to_string(page_size_) +
        " (payload " + std::to_string(payload.size()) + " bytes)");
  }
  size_t needed = leaf_.empty() ? kLeafHeader + entry_size + 2
                                : leaf_.size() + entry_size +
                                      2 * (leaf_offsets_.size() + 1);
  if (!leaf_.empty() && needed > page_size_) {
    TC_RETURN_IF_ERROR(FlushLeaf());
  }
  if (leaf_.empty()) {
    PutU8(&leaf_, kLeafPage);
    PutFixed16(&leaf_, 0);      // n, patched at flush
    PutFixed32(&leaf_, kNoPage);  // next_leaf, patched at flush
    level_.emplace_back(key, next_page_);
  }
  leaf_offsets_.push_back(static_cast<uint16_t>(leaf_.size()));
  PutKey(&leaf_, key);
  PutU8(&leaf_, anti ? 1 : 0);
  PutFixed32(&leaf_, static_cast<uint32_t>(payload.size()));
  PutString(&leaf_, payload);

  if (!has_min_) {
    min_key_ = key;
    has_min_ = true;
  }
  max_key_ = key;
  if (filter_builder_.bits_per_key() > 0) {
    filter_builder_.AddHash(BloomKeyHash(key.a, key.b));
  }
  if (anti) {
    ++n_anti_;
  } else {
    ++n_entries_;
  }
  return Status::OK();
}

Status BtreeComponentBuilder::FlushLeaf() {
  if (leaf_.empty()) return Status::OK();
  // Patch n and next_leaf (the next leaf, if any, will be the next page).
  uint16_t n = static_cast<uint16_t>(leaf_offsets_.size());
  leaf_[1] = static_cast<uint8_t>(n);
  leaf_[2] = static_cast<uint8_t>(n >> 8);
  // next_leaf is set optimistically; the final leaf is re-written by Finish.
  uint32_t next = next_page_ + 1;
  OverwriteFixed32(&leaf_, 3, next);
  // Slot table at the page tail.
  leaf_.resize(page_size_, 0);
  for (size_t i = 0; i < leaf_offsets_.size(); ++i) {
    size_t pos = page_size_ - 2 * (i + 1);
    leaf_[pos] = static_cast<uint8_t>(leaf_offsets_[i]);
    leaf_[pos + 1] = static_cast<uint8_t>(leaf_offsets_[i] >> 8);
  }
  TC_RETURN_IF_ERROR(file_->AppendPage(leaf_.data()));
  ++next_page_;
  ++leaf_count_;
  leaf_.clear();
  leaf_offsets_.clear();
  return Status::OK();
}

Status BtreeComponentBuilder::BuildInterior() {
  if (level_.empty()) {
    root_page_ = kNoPage;
    return Status::OK();
  }
  // The final leaf currently claims a next_leaf that does not exist; fix by
  // convention instead: readers stop after leaf_count_ pages (leaves occupy
  // pages [0, leaf_count_)), so a next pointer beyond that range means "end".
  while (level_.size() > 1) {
    std::vector<std::pair<BtreeKey, uint32_t>> parent;
    Buffer page;
    page.reserve(page_size_);
    size_t i = 0;
    while (i < level_.size()) {
      page.clear();
      PutU8(&page, kInteriorPage);
      PutFixed16(&page, 0);
      uint16_t n = 0;
      BtreeKey first = level_[i].first;
      while (i < level_.size() &&
             page.size() + kInteriorEntry <= page_size_) {
        PutKey(&page, level_[i].first);
        PutFixed32(&page, level_[i].second);
        ++n;
        ++i;
      }
      page[1] = static_cast<uint8_t>(n);
      page[2] = static_cast<uint8_t>(n >> 8);
      page.resize(page_size_, 0);
      TC_RETURN_IF_ERROR(file_->AppendPage(page.data()));
      parent.emplace_back(first, next_page_);
      ++next_page_;
    }
    level_ = std::move(parent);
  }
  root_page_ = level_[0].second;
  return Status::OK();
}

Status BtreeComponentBuilder::Finish(uint64_t cid_min, uint64_t cid_max,
                                     const Buffer& schema_blob) {
  TC_CHECK(!finished_);
  TC_RETURN_IF_ERROR(FlushLeaf());
  TC_RETURN_IF_ERROR(BuildInterior());

  uint32_t meta_start = schema_blob.empty() ? kNoPage : next_page_;
  TC_RETURN_IF_ERROR(AppendBlobPages(schema_blob));

  // Bloom filter pages, between the schema blob and the footer. The filter
  // blob carries its own CRC in the footer so a torn/corrupted filter can be
  // dropped at open time without condemning the component.
  Buffer filter_blob;
  filter_builder_.Finish(&filter_blob);
  uint32_t filter_start = filter_blob.empty() ? kNoPage : next_page_;
  uint32_t filter_crc =
      filter_blob.empty() ? 0 : Crc32c(filter_blob.data(), filter_blob.size());
  TC_RETURN_IF_ERROR(AppendBlobPages(filter_blob));

  // Footer; the CRC covers everything before it.
  Buffer footer;
  footer.reserve(page_size_);
  PutFixed32(&footer, kFooterMagic);
  PutFixed32(&footer, root_page_);
  PutFixed32(&footer, leaf_count_);
  PutFixed32(&footer, meta_start);
  PutFixed32(&footer, static_cast<uint32_t>(schema_blob.size()));
  PutFixed64(&footer, n_entries_);
  PutFixed64(&footer, n_anti_);
  PutKey(&footer, min_key_);
  PutKey(&footer, max_key_);
  PutFixed64(&footer, cid_min);
  PutFixed64(&footer, cid_max);
  PutFixed32(&footer, filter_start);
  PutFixed32(&footer, static_cast<uint32_t>(filter_blob.size()));
  PutFixed32(&footer, filter_crc);
  PutFixed32(&footer, Crc32c(footer.data(), footer.size()));
  footer.resize(page_size_, 0);
  TC_RETURN_IF_ERROR(file_->AppendPage(footer.data()));
  ++next_page_;

  TC_RETURN_IF_ERROR(file_->Finish());
  finished_ = true;
  return Status::OK();
}

Status BtreeComponentBuilder::AppendBlobPages(const Buffer& blob) {
  Buffer page(page_size_);
  for (size_t pos = 0; pos < blob.size(); pos += page_size_) {
    size_t chunk = std::min(page_size_, blob.size() - pos);
    std::fill(page.begin(), page.end(), 0);
    std::memcpy(page.data(), blob.data() + pos, chunk);
    TC_RETURN_IF_ERROR(file_->AppendPage(page.data()));
    ++next_page_;
  }
  return Status::OK();
}

Status BtreeComponentBuilder::MarkValid() {
  TC_CHECK(finished_);
  TC_ASSIGN_OR_RETURN(auto f, fs_->Create(ValidPath(path_)));
  uint8_t byte = 1;
  TC_RETURN_IF_ERROR(f->Write(0, &byte, 1));
  return f->Sync();
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

Result<std::shared_ptr<BtreeComponent>> BtreeComponent::Open(
    std::shared_ptr<FileSystem> fs, BufferCache* cache, const std::string& path,
    size_t page_size) {
  if (page_size < kMinPageSize) {
    return Status::InvalidArgument("page size cannot hold the component footer");
  }
  auto c = std::shared_ptr<BtreeComponent>(new BtreeComponent());
  c->fs_ = fs;
  c->cache_ = cache;
  c->path_ = path;
  c->page_size_ = page_size;
  TC_ASSIGN_OR_RETURN(c->file_, PagedFile::Open(std::move(fs), path, page_size));
  if (c->file_->page_count() == 0) {
    return Status::Corruption("component has no footer: " + path);
  }
  const uint32_t footer_page = c->file_->page_count() - 1;
  Buffer footer(page_size);
  TC_RETURN_IF_ERROR(c->file_->ReadPage(footer_page, footer.data()));
  const uint8_t* p = footer.data();
  if (GetFixed32(p) != kFooterMagic) {
    return Status::Corruption("bad footer magic: " + path);
  }
  if (Crc32c(p, kFooterFixed) != GetFixed32(p + kFooterFixed)) {
    return Status::Corruption("footer checksum mismatch: " + path);
  }
  c->root_page_ = GetFixed32(p + 4);
  c->leaf_count_ = GetFixed32(p + 8);
  uint32_t meta_start = GetFixed32(p + 12);
  uint32_t meta_len = GetFixed32(p + 16);
  c->meta_.n_entries = GetFixed64(p + 20);
  c->meta_.n_anti = GetFixed64(p + 28);
  c->meta_.min_key = GetKey(p + 36);
  c->meta_.max_key = GetKey(p + 52);
  c->meta_.cid_min = GetFixed64(p + 68);
  c->meta_.cid_max = GetFixed64(p + 76);
  uint32_t filter_start = GetFixed32(p + 84);
  uint32_t filter_len = GetFixed32(p + 88);
  uint32_t filter_crc = GetFixed32(p + 92);
  // A CRC-clean footer can still locate pages the file does not have: check
  // every locator against the page count before sizing anything from it. A
  // blob of `len` bytes from page `start` must end before the footer.
  auto blob_in_file = [&](uint32_t start, uint32_t len) {
    return start + (uint64_t{len} + page_size - 1) / page_size <= footer_page;
  };
  if (c->leaf_count_ > footer_page ||
      (c->root_page_ == kNoPage) != (c->leaf_count_ == 0) ||
      (c->root_page_ != kNoPage && c->root_page_ >= footer_page)) {
    return Status::Corruption("footer tree locator out of range: " + path);
  }
  bool has_meta = meta_start != kNoPage && meta_len > 0;
  if (has_meta && !blob_in_file(meta_start, meta_len)) {
    return Status::Corruption("footer schema-blob range out of range: " + path);
  }
  bool has_filter = filter_start != kNoPage && filter_len > 0;
  if (has_filter && !blob_in_file(filter_start, filter_len)) {
    return Status::Corruption("footer filter range out of range: " + path);
  }
  if (has_meta) {
    TC_RETURN_IF_ERROR(
        ReadBlobPages(*c->file_, meta_start, meta_len, &c->meta_.schema_blob));
  }
  if (has_filter) {
    // A filter that fails its read, CRC or header check is dropped, not
    // fatal: the component still answers lookups correctly, just without
    // pruning.
    Buffer blob;
    if (ReadBlobPages(*c->file_, filter_start, filter_len, &blob).ok() &&
        Crc32c(blob.data(), blob.size()) == filter_crc) {
      auto loaded = BloomFilter::Load(blob.data(), blob.size());
      if (loaded.ok()) c->filter_ = std::move(loaded).value();
    }
    c->filter_degraded_ = c->filter_ == nullptr;
  }
  // Point-lookup fast path: pin interior pages [leaf_count_, root_page_] so a
  // descent touches disk only for the leaf. Skipped for empty or single-leaf
  // trees (the root IS the leaf then).
  if (cache != nullptr && c->root_page_ != kNoPage &&
      c->root_page_ >= c->leaf_count_) {
    c->pinned_interior_.reserve(c->root_page_ - c->leaf_count_ + 1);
    for (uint32_t page_no = c->leaf_count_; page_no <= c->root_page_; ++page_no) {
      TC_ASSIGN_OR_RETURN(auto ref, cache->GetPinnedPage(c->file_.get(), page_no));
      c->pinned_interior_.push_back(std::move(ref));
    }
  }
  return c;
}

BtreeComponent::~BtreeComponent() {
  // Drop pins before invalidating so the pinned entries are reclaimable; the
  // invalidate keeps retired components (and their pinned pages) from
  // lingering in the cache when opened outside a tree.
  pinned_interior_.clear();
  if (cache_ != nullptr && file_ != nullptr) {
    cache_->InvalidateFile(file_->file_id());
  }
}

bool BtreeComponent::IsValid(FileSystem* fs, const std::string& path) {
  return fs->Exists(ValidPath(path));
}

Status BtreeComponent::Destroy(FileSystem* fs, const std::string& path) {
  if (fs->Exists(ValidPath(path))) {
    TC_RETURN_IF_ERROR(fs->Delete(ValidPath(path)));
  }
  return PagedFile::Remove(fs, path);
}

Result<uint32_t> BtreeComponent::FindLeaf(const BtreeKey& key,
                                          uint64_t* pages_read) const {
  if (root_page_ == kNoPage) return Status::NotFound("empty component");
  uint32_t page_no = root_page_;
  // Leaves occupy pages [0, leaf_count_); anything else is interior.
  while (page_no >= leaf_count_) {
    BufferCache::PageRef page;
    if (!pinned_interior_.empty() && page_no >= leaf_count_ &&
        page_no - leaf_count_ < pinned_interior_.size()) {
      page = pinned_interior_[page_no - leaf_count_];
    } else {
      bool disk_read = false;
      TC_ASSIGN_OR_RETURN(page, cache_->GetPage(file_.get(), page_no, &disk_read));
      if (disk_read && pages_read != nullptr) ++*pages_read;
    }
    const uint8_t* p = page->data();
    if (p[0] != kInteriorPage) {
      return Status::Corruption("expected interior page in " + path_);
    }
    uint16_t n = GetFixed16(p + 1);
    if (n == 0) return Status::Corruption("empty interior page");
    if (kInteriorHeader + size_t{n} * kInteriorEntry > page_size_) {
      return Status::Corruption("interior slot count out of range");
    }
    // Last child whose first_key <= key (or the first child).
    uint32_t lo = 0, hi = n;  // invariant: answer in [lo, hi)
    while (hi - lo > 1) {
      uint32_t mid = (lo + hi) / 2;
      BtreeKey mk = GetKey(p + kInteriorHeader + kInteriorEntry * mid);
      if (mk <= key) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    // Children precede their parent in the file, so a descent only moves
    // toward page 0 and ends at a leaf.
    const uint32_t child = GetFixed32(p + kInteriorHeader + kInteriorEntry * lo + 16);
    if (child >= page_no) return Status::Corruption("interior child page out of range");
    page_no = child;
  }
  return page_no;
}

Result<std::optional<BtreeComponent::LookupResult>> BtreeComponent::Get(
    const BtreeKey& key, uint64_t* pages_read) const {
  if (root_page_ == kNoPage) return std::optional<LookupResult>{};
  if (key < meta_.min_key || meta_.max_key < key) {
    return std::optional<LookupResult>{};
  }
  if (filter_ != nullptr && !filter_->MayContainHash(BloomKeyHash(key.a, key.b))) {
    return std::optional<LookupResult>{};
  }
  TC_ASSIGN_OR_RETURN(uint32_t leaf_no, FindLeaf(key, pages_read));
  bool disk_read = false;
  TC_ASSIGN_OR_RETURN(auto page, cache_->GetPage(file_.get(), leaf_no, &disk_read));
  if (disk_read && pages_read != nullptr) ++*pages_read;
  const uint8_t* p = page->data();
  TC_ASSIGN_OR_RETURN(uint16_t n, LeafSlotCount(p, page_size_));
  uint32_t lo = 0, hi = n;
  while (lo < hi) {
    uint32_t mid = (lo + hi) / 2;
    size_t off;
    if (!LeafEntryAt(p, page_size_, n, mid, &off)) return BadLeafEntry();
    BtreeKey mk = GetKey(p + off);
    if (mk < key) {
      lo = mid + 1;
    } else if (key < mk) {
      hi = mid;
    } else {
      std::string_view payload;
      if (!LeafPayloadAt(p, page_size_, n, off, &payload)) return BadLeafPayload();
      LookupResult r;
      r.anti = p[off + 16] != 0;
      const uint8_t* data = p + off + kEntryFixed;
      r.payload.assign(data, data + payload.size());
      return std::optional<LookupResult>{std::move(r)};
    }
  }
  return std::optional<LookupResult>{};
}

Status BtreeComponent::Iterator::SeekToFirst() {
  valid_ = false;
  if (c_->leaf_count_ == 0) return Status::OK();
  page_no_ = 0;
  slot_ = 0;
  TC_ASSIGN_OR_RETURN(page_, c_->cache_->GetPage(c_->file_.get(), page_no_));
  TC_ASSIGN_OR_RETURN(n_, LeafSlotCount(page_->data(), c_->page_size_));
  return LoadEntry();
}

Status BtreeComponent::Iterator::Seek(const BtreeKey& key) {
  valid_ = false;
  if (c_->leaf_count_ == 0) return Status::OK();
  if (c_->meta_.max_key < key) return Status::OK();
  auto leaf = c_->FindLeaf(key, nullptr);
  if (!leaf.ok()) return leaf.status();
  page_no_ = leaf.value();
  TC_ASSIGN_OR_RETURN(page_, c_->cache_->GetPage(c_->file_.get(), page_no_));
  const uint8_t* p = page_->data();
  TC_ASSIGN_OR_RETURN(n_, LeafSlotCount(p, c_->page_size_));
  // First slot with entry key >= key.
  uint16_t lo = 0, hi = n_;
  while (lo < hi) {
    uint16_t mid = static_cast<uint16_t>((lo + hi) / 2);
    size_t off;
    if (!LeafEntryAt(p, c_->page_size_, n_, mid, &off)) return BadLeafEntry();
    if (GetKey(p + off) < key) {
      lo = static_cast<uint16_t>(mid + 1);
    } else {
      hi = mid;
    }
  }
  slot_ = lo;
  return LoadEntry();
}

Status BtreeComponent::Iterator::Next() {
  TC_CHECK(valid_);
  ++slot_;
  return LoadEntry();
}

Status BtreeComponent::Iterator::AdvancePage() {
  const uint8_t* p = page_->data();
  uint32_t next = GetFixed32(p + 3);
  if (next >= c_->leaf_count_) {  // past the last leaf
    valid_ = false;
    return Status::OK();
  }
  // Leaves are chained in file order; a link back would loop forever.
  if (next <= page_no_) return Status::Corruption("leaf next page out of range");
  page_no_ = next;
  slot_ = 0;
  TC_ASSIGN_OR_RETURN(page_, c_->cache_->GetPage(c_->file_.get(), page_no_));
  TC_ASSIGN_OR_RETURN(n_, LeafSlotCount(page_->data(), c_->page_size_));
  return LoadEntry();
}

Status BtreeComponent::Iterator::LoadEntry() {
  valid_ = false;  // until the entry checks out
  if (slot_ >= n_) return AdvancePage();
  const uint8_t* p = page_->data();
  size_t off;
  if (!LeafEntryAt(p, c_->page_size_, n_, slot_, &off)) return BadLeafEntry();
  if (!LeafPayloadAt(p, c_->page_size_, n_, off, &payload_)) return BadLeafPayload();
  key_ = GetKey(p + off);
  anti_ = p[off + 16] != 0;
  valid_ = true;
  return Status::OK();
}

}  // namespace tc
