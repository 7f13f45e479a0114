#include "storage/laf.h"

#include "common/bytes.h"
#include "common/crc32.h"

namespace tc {
namespace {
constexpr uint32_t kLafMagic = 0x54434c32;  // "TCL2"
constexpr uint64_t kHeader = 12;            // magic + codec + count
constexpr uint32_t kMaxCodecValue = 255;    // sanity bound for the field
}  // namespace

Status WriteLaf(FileSystem* fs, const std::string& path,
                const std::vector<LafEntry>& entries, CompressionKind codec) {
  Buffer buf;
  PutFixed32(&buf, kLafMagic);
  PutFixed32(&buf, static_cast<uint32_t>(codec));
  PutFixed32(&buf, static_cast<uint32_t>(entries.size()));
  for (const LafEntry& e : entries) {
    PutFixed64(&buf, e.offset);
    PutFixed32(&buf, e.length);
  }
  PutFixed32(&buf, Crc32c(buf.data(), buf.size()));
  TC_ASSIGN_OR_RETURN(auto file, fs->Create(path));
  TC_RETURN_IF_ERROR(file->Write(0, buf.data(), buf.size()));
  return file->Sync();
}

Result<LafData> LoadLaf(FileSystem* fs, const std::string& path) {
  TC_ASSIGN_OR_RETURN(auto file, fs->Open(path));
  uint64_t size = file->Size();
  if (size < kHeader + 4) return Status::Corruption("laf: file too small");
  Buffer buf(size);
  TC_RETURN_IF_ERROR(file->Read(0, size, buf.data()));
  if (GetFixed32(buf.data()) != kLafMagic) return Status::Corruption("laf: bad magic");
  uint32_t codec = GetFixed32(buf.data() + 4);
  if (codec > kMaxCodecValue) return Status::Corruption("laf: bad codec field");
  uint32_t count = GetFixed32(buf.data() + 8);
  if (size != kHeader + static_cast<uint64_t>(count) * 12 + 4) {
    return Status::Corruption("laf: size mismatch");
  }
  uint32_t stored_crc = GetFixed32(buf.data() + size - 4);
  if (Crc32c(buf.data(), size - 4) != stored_crc) {
    return Status::Corruption("laf: checksum mismatch");
  }
  LafData data;
  data.codec = static_cast<CompressionKind>(codec);
  data.entries.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    const uint8_t* p = buf.data() + kHeader + 12 * static_cast<size_t>(i);
    data.entries[i].offset = GetFixed64(p);
    data.entries[i].length = GetFixed32(p + 8);
  }
  return data;
}

}  // namespace tc
