// Result-cache snapshot file: persists a worker's warm cache across a
// process restart, so a rolling restart does not cost the cluster its hit
// rate.
//
// File layout (wire.h encoding):
//
//   magic "LDSN", u16 snapshot version = 1,
//   u64 config fingerprint of the server that exported the entries,
//   u32 entry count, then per entry: u64 cache key + "rs1" result message.
//
// Entries are stored least-recently-used first (the export order of
// ShardedLruCache::export_entries), so replaying them through put() in file
// order reconstructs the recency ranking. Loading validates magic, version
// and byte-exact decode; the config fingerprint lets the loader refuse a
// snapshot taken under a different configuration (those keys could never be
// looked up — carrying them would only burn cache budget).
//
// Saving goes through common::replace_file, so a failed or interrupted
// save never destroys the previous snapshot.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/ldmo_flow.h"

namespace ldmo::net {

struct CacheSnapshot {
  std::uint64_t config_fingerprint = 0;
  std::vector<std::pair<std::uint64_t, core::LdmoResult>> entries;
};

/// Serializes `snapshot` to `path` (common::replace_file). Throws
/// ldmo::Error on I/O failure, leaving any previous file intact.
void save_cache_snapshot(const std::string& path,
                         const CacheSnapshot& snapshot);

/// Loads a snapshot. Returns nullopt when `path` does not exist (a cold
/// start, not an error). Throws FlowException(kNet) — message carries the
/// path and byte offset — on truncation, corruption or version mismatch,
/// and ldmo::Error when the file cannot be read.
std::optional<CacheSnapshot> load_cache_snapshot(const std::string& path);

}  // namespace ldmo::net
