#include "common/hash.h"

#include <bit>
#include <cstring>

namespace ldmo::common {

Fnv1a& Fnv1a::bytes(const void* data, std::size_t len) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = state_;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= static_cast<std::uint64_t>(p[i]);
    h *= kFnv1aPrime;
  }
  state_ = h;
  return *this;
}

Fnv1a& Fnv1a::u64(std::uint64_t v) {
  unsigned char le[8];
  for (int i = 0; i < 8; ++i)
    le[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xffu);
  return bytes(le, sizeof(le));
}

Fnv1a& Fnv1a::f64(double v) { return u64(std::bit_cast<std::uint64_t>(v)); }

Fnv1a& Fnv1a::str(std::string_view s) {
  u64(s.size());
  return bytes(s.data(), s.size());
}

std::uint64_t fnv1a(const void* data, std::size_t len) {
  return Fnv1a().bytes(data, len).digest();
}

std::uint64_t fnv1a(std::string_view s) { return fnv1a(s.data(), s.size()); }

namespace {

constexpr std::uint64_t kXxPrime1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kXxPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kXxPrime3 = 0x165667B19E3779F9ull;
constexpr std::uint64_t kXxPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr std::uint64_t kXxPrime5 = 0x27D4EB2F165667C5ull;

/// Little-endian word at `p`. On a little-endian host one memcpy, which
/// compiles to a single unaligned load (a shift loop compiles to byte
/// loads, and a reinterpret_cast load is misaligned UB); other hosts
/// assemble the bytes.
template <typename Word>
Word load_le(const unsigned char* p) {
  Word v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(v));
  } else {
    for (std::size_t i = 0; i < sizeof(v); ++i)
      v |= static_cast<Word>(p[i]) << (8 * i);
  }
  return v;
}

std::uint64_t xx_round(std::uint64_t acc, std::uint64_t input) {
  acc += input * kXxPrime2;
  return std::rotl(acc, 31) * kXxPrime1;
}

std::uint64_t xx_merge(std::uint64_t acc, std::uint64_t lane) {
  acc ^= xx_round(0, lane);
  return acc * kXxPrime1 + kXxPrime4;
}

}  // namespace

std::uint64_t xxh64(const void* data, std::size_t len) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + len;
  std::uint64_t h;
  if (len >= 32) {
    // Four lanes over 32-byte stripes.
    std::uint64_t v1 = kXxPrime1 + kXxPrime2;
    std::uint64_t v2 = kXxPrime2;
    std::uint64_t v3 = 0;
    std::uint64_t v4 = 0 - kXxPrime1;
    for (; end - p >= 32; p += 32) {
      v1 = xx_round(v1, load_le<std::uint64_t>(p));
      v2 = xx_round(v2, load_le<std::uint64_t>(p + 8));
      v3 = xx_round(v3, load_le<std::uint64_t>(p + 16));
      v4 = xx_round(v4, load_le<std::uint64_t>(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = xx_merge(h, v1);
    h = xx_merge(h, v2);
    h = xx_merge(h, v3);
    h = xx_merge(h, v4);
  } else {
    h = kXxPrime5;
  }
  h += static_cast<std::uint64_t>(len);
  // The tail: 8-byte words, one 4-byte word, then single bytes.
  for (; end - p >= 8; p += 8)
    h = std::rotl(h ^ xx_round(0, load_le<std::uint64_t>(p)), 27) *
            kXxPrime1 +
        kXxPrime4;
  if (end - p >= 4) {
    h ^= static_cast<std::uint64_t>(load_le<std::uint32_t>(p)) * kXxPrime1;
    h = std::rotl(h, 23) * kXxPrime2 + kXxPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    h ^= static_cast<std::uint64_t>(*p) * kXxPrime5;
    h = std::rotl(h, 11) * kXxPrime1;
  }
  // Avalanche.
  h ^= h >> 33;
  h *= kXxPrime2;
  h ^= h >> 29;
  h *= kXxPrime3;
  h ^= h >> 32;
  return h;
}

}  // namespace ldmo::common
