// Stable content hashing: 64-bit FNV-1a, and XXH64 for integrity checks.
//
// The serving layer's content-addressed caches key on these digests, so the
// contract is stronger than "a good hash function": the digest of a given
// byte sequence is identical across runs, platforms and build types. All
// multi-byte feeds serialize explicitly to little-endian bytes (never via
// memcpy of in-memory representations), and floating-point values hash
// their exact IEEE-754 bit pattern — two doubles hash equal iff they
// compare bit-identical, which matches the repo-wide bit-identity
// determinism contract.
//
// XXH64 is the published 4-lane, 8-byte-word hash (seed 0). It reads its
// input as little-endian words, so its digest is platform-independent too,
// and it hashes about an order of magnitude faster than byte-serial FNV-1a.
// It checks frame payloads in transit (net/frame.h); it is an integrity
// check, not a MAC. FNV-1a stays wherever its digests are pinned contracts:
// cache keys, route keys, fingerprints and the on-disk record log.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace ldmo::common {

inline constexpr std::uint64_t kFnv1aOffsetBasis = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnv1aPrime = 0x100000001b3ull;

/// Incremental 64-bit FNV-1a hasher. Feeds return *this so key derivations
/// chain: Fnv1a().str("v1").u64(a).f64(b).digest().
class Fnv1a {
 public:
  /// Raw bytes, in order.
  Fnv1a& bytes(const void* data, std::size_t len);

  /// Fixed-width little-endian integer feeds (8 bytes each, so u64(1) and
  /// str("\1") hash differently and field boundaries cannot alias).
  Fnv1a& u64(std::uint64_t v);
  Fnv1a& i64(std::int64_t v) { return u64(static_cast<std::uint64_t>(v)); }

  /// Exact IEEE-754 bit pattern of `v` (8 bytes).
  Fnv1a& f64(double v);

  /// Length-prefixed string feed: str("ab").str("c") differs from
  /// str("a").str("bc").
  Fnv1a& str(std::string_view s);

  std::uint64_t digest() const { return state_; }

 private:
  std::uint64_t state_ = kFnv1aOffsetBasis;
};

/// One-shot digest of a byte range.
std::uint64_t fnv1a(const void* data, std::size_t len);

/// One-shot digest of a string's bytes (no length prefix; matches the
/// classic FNV-1a reference vectors).
std::uint64_t fnv1a(std::string_view s);

/// One-shot XXH64 digest (seed 0) of a byte range; matches the reference
/// implementation's vectors (XXH64("") = 0xEF46DB3751D8E999).
std::uint64_t xxh64(const void* data, std::size_t len);

}  // namespace ldmo::common
