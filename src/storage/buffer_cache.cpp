#include "storage/buffer_cache.h"

#include <atomic>
#include <chrono>

namespace tc {
namespace {

uint64_t NextFileId() {
  static std::atomic<uint64_t> counter{1};
  return counter.fetch_add(1);
}

std::string LafPath(const std::string& path) { return path + ".laf"; }

}  // namespace

Result<std::unique_ptr<PagedFile>> PagedFile::Create(
    std::shared_ptr<FileSystem> fs, const std::string& path, size_t page_size,
    std::shared_ptr<const Compressor> compressor) {
  auto pf = std::unique_ptr<PagedFile>(new PagedFile());
  pf->fs_ = std::move(fs);
  pf->path_ = path;
  pf->page_size_ = page_size;
  pf->compressor_ = compressor != nullptr
                        ? std::move(compressor)
                        : GetCompressor(CompressionKind::kNone);
  pf->file_id_ = NextFileId();
  TC_ASSIGN_OR_RETURN(pf->file_, pf->fs_->Create(path));
  return pf;
}

Result<std::unique_ptr<PagedFile>> PagedFile::Open(
    std::shared_ptr<FileSystem> fs, const std::string& path, size_t page_size) {
  auto pf = std::unique_ptr<PagedFile>(new PagedFile());
  pf->fs_ = std::move(fs);
  pf->path_ = path;
  pf->page_size_ = page_size;
  pf->compressor_ = GetCompressor(CompressionKind::kNone);
  pf->file_id_ = NextFileId();
  pf->finished_ = true;
  TC_ASSIGN_OR_RETURN(pf->file_, pf->fs_->Open(path));
  // The file alone says how to read it: a LAF names the codec, no LAF means
  // uncompressed.
  if (pf->fs_->Exists(LafPath(path))) {
    TC_ASSIGN_OR_RETURN(LafData laf, LoadLaf(pf->fs_.get(), LafPath(path)));
    pf->entries_ = std::move(laf.entries);
    pf->compressor_ = GetCompressor(laf.codec);
    if (pf->compressor_ == nullptr) {
      return Status::NotSupported(
          std::string("paged file codec not compiled in: ") +
          CompressionKindName(laf.codec) + ": " + path);
    }
    TC_ASSIGN_OR_RETURN(pf->laf_bytes_, pf->fs_->FileSize(LafPath(path)));
    pf->append_offset_ = pf->file_->Size();
  } else {
    uint64_t size = pf->file_->Size();
    if (size % page_size != 0) {
      return Status::Corruption("paged file size not page-aligned: " + path);
    }
    pf->entries_.resize(size / page_size);
    for (size_t i = 0; i < pf->entries_.size(); ++i) {
      pf->entries_[i] = {i * page_size, static_cast<uint32_t>(page_size)};
    }
    pf->append_offset_ = size;
  }
  return pf;
}

Status PagedFile::Remove(FileSystem* fs, const std::string& path) {
  TC_RETURN_IF_ERROR(fs->Delete(path));
  if (fs->Exists(LafPath(path))) TC_RETURN_IF_ERROR(fs->Delete(LafPath(path)));
  return Status::OK();
}

Status PagedFile::AppendPage(const uint8_t* data) {
  TC_CHECK(!finished_);
  if (compressed()) {
    Buffer out;  // the codec sizes it to its own worst case
    auto t0 = std::chrono::steady_clock::now();
    TC_RETURN_IF_ERROR(compressor_->Compress(data, page_size_, &out));
    compress_nanos_ += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    TC_RETURN_IF_ERROR(file_->Write(append_offset_, out.data(), out.size()));
    entries_.push_back({append_offset_, static_cast<uint32_t>(out.size())});
    append_offset_ += out.size();
  } else {
    TC_RETURN_IF_ERROR(file_->Write(append_offset_, data, page_size_));
    entries_.push_back({append_offset_, static_cast<uint32_t>(page_size_)});
    append_offset_ += page_size_;
  }
  return Status::OK();
}

Status PagedFile::Finish() {
  TC_CHECK(!finished_);
  TC_RETURN_IF_ERROR(file_->Sync());
  if (compressed()) {
    TC_RETURN_IF_ERROR(
        WriteLaf(fs_.get(), LafPath(path_), entries_, compressor_->kind()));
    TC_ASSIGN_OR_RETURN(laf_bytes_, fs_->FileSize(LafPath(path_)));
  }
  finished_ = true;
  return Status::OK();
}

Status PagedFile::ReadPage(uint32_t page_no, uint8_t* out) const {
  if (page_no >= entries_.size()) {
    return Status::OutOfRange("page " + std::to_string(page_no) + " of " +
                              std::to_string(entries_.size()));
  }
  const LafEntry& e = entries_[page_no];
  if (!compressed()) {
    return file_->Read(e.offset, page_size_, out);
  }
  Buffer raw(e.length);
  TC_RETURN_IF_ERROR(file_->Read(e.offset, e.length, raw.data()));
  size_t out_size = 0;
  TC_RETURN_IF_ERROR(
      compressor_->Decompress(raw.data(), raw.size(), out, page_size_, &out_size));
  if (out_size != page_size_) {
    return Status::Corruption("page decompressed to unexpected size");
  }
  return Status::OK();
}

uint64_t PagedFile::physical_bytes() const { return append_offset_ + laf_bytes_; }

Result<BufferCache::PageRef> BufferCache::GetPage(const PagedFile* file,
                                                  uint32_t page_no,
                                                  bool* disk_read) {
  TC_CHECK(file->page_size() == page_size_);
  if (disk_read != nullptr) *disk_read = false;
  Key key{file->file_id(), page_no};
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      if (!it->second.pinned) {
        lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      }
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second.page;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  if (disk_read != nullptr) *disk_read = true;
  auto page = std::make_shared<Buffer>(page_size_);
  TC_RETURN_IF_ERROR(file->ReadPage(page_no, page->data()));
  PageRef ref = page;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (map_.find(key) == map_.end()) {
      lru_.push_front(key);
      map_[key] = Entry{ref, lru_.begin(), /*pinned=*/false};
      // Pinned entries live outside the LRU budget.
      while (map_.size() - pinned_count_ > capacity_ && !lru_.empty()) {
        Key victim = lru_.back();
        lru_.pop_back();
        map_.erase(victim);
      }
    }
  }
  return ref;
}

Result<BufferCache::PageRef> BufferCache::GetPinnedPage(const PagedFile* file,
                                                        uint32_t page_no) {
  TC_CHECK(file->page_size() == page_size_);
  Key key{file->file_id(), page_no};
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      if (!it->second.pinned) {  // promote an LRU entry in place
        lru_.erase(it->second.lru_pos);
        it->second.pinned = true;
        ++pinned_count_;
      }
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second.page;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  auto page = std::make_shared<Buffer>(page_size_);
  TC_RETURN_IF_ERROR(file->ReadPage(page_no, page->data()));
  PageRef ref = page;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) {
      map_[key] = Entry{ref, lru_.end(), /*pinned=*/true};
      ++pinned_count_;
    } else if (!it->second.pinned) {
      // Raced with a plain GetPage insert: promote that entry instead.
      lru_.erase(it->second.lru_pos);
      it->second.pinned = true;
      ++pinned_count_;
      return it->second.page;
    } else {
      return it->second.page;
    }
  }
  return ref;
}

void BufferCache::InvalidateFile(uint64_t file_id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = map_.begin(); it != map_.end();) {
    if (it->first.file_id == file_id) {
      if (it->second.pinned) {
        --pinned_count_;
      } else {
        lru_.erase(it->second.lru_pos);
      }
      it = map_.erase(it);
    } else {
      ++it;
    }
  }
}

size_t BufferCache::pinned_pages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pinned_count_;
}

}  // namespace tc
