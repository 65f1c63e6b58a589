// On-disk framing for the repo's data files (DESIGN.md, "On-disk
// formats"): weight files and cache snapshots are whole files written by
// replace_file; the warm-start corpus and the flywheel log are record logs:
//
//   header:  8-byte magic + u32 little-endian dimension (8..4096)
//   records: payload_bytes(dimension) bytes + u64 LE FNV-1a of them
//
// The record count derives from the file size. A crash mid-append leaves a
// torn tail: a partial final record, or a whole one whose checksum fails.
// A checksum failure before the final record is bit rot and always throws.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ldmo::common {

/// The low `bytes` bytes of `v`, little-endian, and back: the byte order of
/// record-log framing and payload fields.
void store_le(std::uint64_t v, std::byte* out, std::size_t bytes);
std::uint64_t load_le(const std::byte* in, std::size_t bytes);

/// The whole file at `path`. Throws ldmo::Error when it cannot be read.
std::vector<std::uint8_t> read_file(const std::string& path);

/// Atomically replaces `path` with what `write` streams into `<path>.tmp`,
/// which is closed, checked and renamed over `path`. On any failure (`write`
/// throwing included) the tmp file is removed, `path` is left as it was and
/// the error propagates; I/O failures throw ldmo::Error.
void replace_file(const std::string& path,
                  const std::function<void(std::ostream&)>& write);

/// One record-log format.
struct RecordLogFormat {
  std::string_view magic;  ///< exactly 8 bytes
  std::string_view name;   ///< error-message prefix, e.g. "flywheel log"
  std::size_t (*payload_bytes)(std::uint32_t dimension);
};

/// record_log_shape: whole records by size; torn_tail = a partial record
/// trails them. read_record_log: records visited; torn_tail = a partial
/// record trails them or the final record's checksum fails.
struct RecordLogInfo {
  std::uint32_t dimension = 0;
  std::size_t records = 0;
  bool torn_tail = false;
};

/// Header and size only. Throws ldmo::Error when the file cannot be opened
/// or its header does not match `format`, as the other calls do.
RecordLogInfo record_log_shape(const std::string& path,
                               const RecordLogFormat& format);

/// Calls `visit` with each whole record's verified payload, in order, one
/// record in memory at a time. A torn tail is reported, not visited.
RecordLogInfo read_record_log(
    const std::string& path, const RecordLogFormat& format,
    const std::function<void(std::span<const std::byte>)>& visit);

/// Appends records to one log file.
class RecordLogWriter {
 public:
  /// Creates `path` with a header when it is absent or empty; otherwise
  /// validates the header and cuts a torn tail, so appends land after the
  /// last record read_record_log trusts.
  RecordLogWriter(std::string path, const RecordLogFormat& format,
                  std::uint32_t dimension);

  /// Appends one record whose payload is `parts` in order (sizes summing
  /// to the format's payload size) and its checksum, then flushes.
  void append(std::initializer_list<std::span<const std::byte>> parts);

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  RecordLogFormat format_;
  std::size_t payload_bytes_ = 0;
};

}  // namespace ldmo::common
