#include "lsm/bloom_filter.h"

#include <algorithm>
#include <cmath>

namespace tc {
namespace {

// Serialized layout (little-endian):
//   [0]      version (1)
//   [1]      n_probes
//   [2..4)   reserved (0)
//   [4..12)  n_bits (multiple of 64)
//   [12..)   n_bits/8 bytes of bit data, 64-bit words
constexpr uint8_t kFilterVersion = 1;
constexpr size_t kFilterHeader = 12;

}  // namespace

uint32_t BloomFilter::ProbesForBitsPerKey(size_t bits_per_key) {
  uint32_t k = static_cast<uint32_t>(bits_per_key * 0.69);  // ln 2 ≈ 0.693
  return std::max<uint32_t>(1, std::min<uint32_t>(30, k));
}

double BloomFilter::ExpectedFpr(size_t bits_per_key) {
  if (bits_per_key == 0) return 1.0;
  double k = static_cast<double>(ProbesForBitsPerKey(bits_per_key));
  return std::pow(1.0 - std::exp(-k / static_cast<double>(bits_per_key)), k);
}

Result<std::shared_ptr<const BloomFilter>> BloomFilter::Load(const uint8_t* data,
                                                             size_t size) {
  if (size < kFilterHeader) {
    return Status::Corruption("bloom filter blob too short");
  }
  if (data[0] != kFilterVersion) {
    return Status::Corruption("unknown bloom filter version");
  }
  uint32_t n_probes = data[1];
  uint64_t n_bits = GetFixed64(data + 4);
  if (n_probes < 1 || n_probes > 30 || n_bits == 0 || n_bits % 64 != 0 ||
      size != kFilterHeader + n_bits / 8) {
    return Status::Corruption("inconsistent bloom filter header");
  }
  auto f = std::shared_ptr<BloomFilter>(new BloomFilter());
  f->n_probes_ = n_probes;
  f->n_bits_ = n_bits;
  f->words_.resize(n_bits / 64);
  for (size_t i = 0; i < f->words_.size(); ++i) {
    f->words_[i] = GetFixed64(data + kFilterHeader + 8 * i);
  }
  return std::shared_ptr<const BloomFilter>(std::move(f));
}

void BloomFilterBuilder::Finish(Buffer* out) const {
  out->clear();
  if (hashes_.empty() || bits_per_key_ == 0) return;
  uint64_t n_bits = std::max<uint64_t>(
      64, static_cast<uint64_t>(hashes_.size()) * bits_per_key_);
  n_bits = (n_bits + 63) / 64 * 64;
  uint32_t n_probes = BloomFilter::ProbesForBitsPerKey(bits_per_key_);
  std::vector<uint64_t> words(n_bits / 64, 0);
  for (uint64_t h : hashes_) {
    uint64_t delta = (h >> 17) | (h << 47);
    for (uint32_t i = 0; i < n_probes; ++i) {
      uint64_t bit = h % n_bits;
      words[bit >> 6] |= 1ull << (bit & 63);
      h += delta;
    }
  }
  out->reserve(kFilterHeader + 8 * words.size());
  PutU8(out, kFilterVersion);
  PutU8(out, static_cast<uint8_t>(n_probes));
  PutFixed16(out, 0);
  PutFixed64(out, n_bits);
  for (uint64_t w : words) PutFixed64(out, w);
}

}  // namespace tc
