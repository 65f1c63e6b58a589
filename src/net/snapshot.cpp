#include "net/snapshot.h"

#include <filesystem>
#include <ostream>

#include "common/flow_error.h"
#include "common/record_file.h"
#include "net/wire.h"

namespace ldmo::net {

namespace {

constexpr char kSnapshotMagic[4] = {'L', 'D', 'S', 'N'};
constexpr std::uint16_t kSnapshotVersion = 1;

}  // namespace

void save_cache_snapshot(const std::string& path,
                         const CacheSnapshot& snapshot) {
  WireWriter w;
  for (char magic : kSnapshotMagic)
    w.u8(static_cast<std::uint8_t>(magic));
  w.u16(kSnapshotVersion);
  w.u64(snapshot.config_fingerprint);
  // Degraded results never persist: the live server refuses to cache them
  // (a recovered predictor should re-rank the layout, not replay a
  // heuristic fallback), and the snapshot must not resurrect across a
  // restart what the cache policy evicted at serve time. Counted first so
  // the header count matches the records written.
  std::uint32_t kept = 0;
  for (const auto& [key, result] : snapshot.entries)
    if (!result.degraded) ++kept;
  w.u32(kept);
  for (const auto& [key, result] : snapshot.entries) {
    if (result.degraded) continue;
    w.u64(key);
    write_result(w, result);
  }

  common::replace_file(path, [&](std::ostream& out) {
    out.write(reinterpret_cast<const char*>(w.bytes().data()),
              static_cast<std::streamsize>(w.size()));
  });
}

std::optional<CacheSnapshot> load_cache_snapshot(const std::string& path) {
  if (!std::filesystem::exists(path)) return std::nullopt;  // cold start
  const std::vector<std::uint8_t> bytes = common::read_file(path);
  WireReader r(bytes, path);
  for (char magic : kSnapshotMagic) {
    if (r.u8() != static_cast<std::uint8_t>(magic))
      r.fail("bad snapshot magic (not an LDSN file)");
  }
  const std::uint16_t version = r.u16();
  if (version != kSnapshotVersion)
    r.fail("snapshot version " + std::to_string(version) +
           " (this build reads " + std::to_string(kSnapshotVersion) + ")");

  CacheSnapshot snapshot;
  snapshot.config_fingerprint = r.u64();
  // Each entry starts with its 8-byte key, so a count the remaining bytes
  // cannot hold is corrupt. No reserve: a decoded entry is far larger in
  // memory than on disk.
  const std::uint32_t count = r.u32();
  if (static_cast<std::size_t>(count) * 8 > r.remaining())
    r.fail("snapshot entry count " + std::to_string(count) +
           " exceeds remaining payload");
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint64_t key = r.u64();
    snapshot.entries.emplace_back(key, read_result(r));
  }
  r.expect_end();
  return snapshot;
}

}  // namespace ldmo::net
