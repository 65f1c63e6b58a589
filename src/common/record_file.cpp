#include "common/record_file.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/error.h"
#include "common/hash.h"
#include "common/log.h"

namespace ldmo::common {
namespace {

constexpr std::size_t kMagicBytes = 8;
constexpr std::size_t kHeaderBytes = kMagicBytes + 4;
constexpr std::size_t kChecksumBytes = 8;

void require_dimension(std::uint32_t dimension, const RecordLogFormat& format,
                       const std::string& path) {
  require(dimension >= 8 && dimension <= 4096,
          std::string(format.name) + ": implausible dimension " +
              std::to_string(dimension) + " in " + path);
}

/// A log opened for reading: header validated, positioned at record 0.
struct LogReader {
  LogReader(const std::string& path, const RecordLogFormat& format)
      : path(path), in(path, std::ios::binary | std::ios::ate) {
    const std::string name(format.name);
    require(in.good(), name + ": cannot open " + path);
    size = static_cast<std::size_t>(in.tellg());
    require(size >= kHeaderBytes, name + ": file shorter than header: " + path);
    in.seekg(0);
    std::byte header[kHeaderBytes] = {};
    in.read(reinterpret_cast<char*>(header), kHeaderBytes);
    require(in.good() &&
                std::memcmp(header, format.magic.data(), kMagicBytes) == 0,
            name + ": bad magic in " + path);
    dimension = static_cast<std::uint32_t>(load_le(header + kMagicBytes, 4));
    require_dimension(dimension, format, path);
    record_bytes = format.payload_bytes(dimension) + kChecksumBytes;
    records = (size - kHeaderBytes) / record_bytes;
  }

  bool partial_tail() const {
    return size != kHeaderBytes + records * record_bytes;
  }

  /// Reads the next whole record; true when its checksum holds.
  bool next() {
    record.resize(record_bytes);
    in.read(reinterpret_cast<char*>(record.data()),
            static_cast<std::streamsize>(record_bytes));
    if (!in.good()) raise("record log: short read in " + path);
    return fnv1a(record.data(), record_bytes - kChecksumBytes) ==
           load_le(record.data() + record_bytes - kChecksumBytes,
                   kChecksumBytes);
  }

  std::string path;
  std::ifstream in;
  std::size_t size = 0;
  std::uint32_t dimension = 0;
  std::size_t record_bytes = 0;
  std::size_t records = 0;        ///< whole records, by size
  std::vector<std::byte> record;  ///< the last one next() read
};

}  // namespace

void store_le(std::uint64_t v, std::byte* out, std::size_t bytes) {
  for (std::size_t i = 0; i < bytes; ++i)
    out[i] = static_cast<std::byte>(v >> (8 * i));
}

std::uint64_t load_le(const std::byte* in, std::size_t bytes) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bytes; ++i)
    v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  return v;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  require(in.is_open(), "cannot open " + path);
  std::vector<std::uint8_t> bytes;
  char chunk[1 << 16];
  while (in.read(chunk, sizeof chunk) || in.gcount() > 0)
    bytes.insert(bytes.end(), chunk, chunk + in.gcount());
  require(!in.bad(), "cannot read " + path);
  return bytes;
}

void replace_file(const std::string& path,
                  const std::function<void(std::ostream&)>& write) {
  // The rename is atomic on POSIX filesystems: a crash at any point leaves
  // either the previous file or the new one at `path`.
  const std::string tmp = path + ".tmp";
  try {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    require(out.is_open(), "cannot open " + tmp + " for writing");
    write(out);
    out.close();
    require(!out.fail(), "write to " + tmp + " failed");
    require(std::rename(tmp.c_str(), path.c_str()) == 0,
            "cannot rename " + tmp + " to " + path);
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
}

RecordLogInfo record_log_shape(const std::string& path,
                               const RecordLogFormat& format) {
  const LogReader log(path, format);
  return {log.dimension, log.records, log.partial_tail()};
}

RecordLogInfo read_record_log(
    const std::string& path, const RecordLogFormat& format,
    const std::function<void(std::span<const std::byte>)>& visit) {
  LogReader log(path, format);
  RecordLogInfo info{log.dimension, 0, log.partial_tail()};
  for (; info.records < log.records; ++info.records) {
    if (!log.next()) {
      // The final record: a torn append that happened to end on a record
      // boundary. Anywhere earlier: bit rot.
      require(info.records + 1 == log.records,
              std::string(format.name) + ": checksum mismatch in record " +
                  std::to_string(info.records) + " of " + path);
      info.torn_tail = true;
      break;
    }
    visit({log.record.data(), log.record_bytes - kChecksumBytes});
  }
  return info;
}

RecordLogWriter::RecordLogWriter(std::string path,
                                 const RecordLogFormat& format,
                                 std::uint32_t dimension)
    : path_(std::move(path)), format_(format) {
  require_dimension(dimension, format_, path_);
  payload_bytes_ = format_.payload_bytes(dimension);
  const std::string name(format_.name);
  std::error_code missing;
  if (std::filesystem::file_size(path_, missing) > 0 && !missing) {
    LogReader log(path_, format_);
    require(log.dimension == dimension,
            name + ": " + path_ + " has dimension " +
                std::to_string(log.dimension) + ", expected " +
                std::to_string(dimension));
    // Cut the torn tail read_record_log would drop: a trailing partial
    // record, and a final whole record whose checksum fails — kept, it
    // would become bit rot the moment another record lands behind it.
    std::size_t whole = log.records;
    if (whole > 0) {
      log.in.seekg(static_cast<std::streamoff>(
          kHeaderBytes + (whole - 1) * log.record_bytes));
      if (!log.next()) --whole;
    }
    const std::size_t kept = kHeaderBytes + whole * log.record_bytes;
    if (kept != log.size) {
      log_warn(name, ": truncating torn tail of ", path_, " (",
               log.size - kept, " bytes)");
      std::filesystem::resize_file(path_, kept);
    }
    return;
  }
  std::byte header[kHeaderBytes];
  std::memcpy(header, format_.magic.data(), kMagicBytes);
  store_le(dimension, header + kMagicBytes, 4);
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(header), kHeaderBytes);
  out.flush();
  require(out.good(), name + ": cannot create " + path_);
}

void RecordLogWriter::append(
    std::initializer_list<std::span<const std::byte>> parts) {
  Fnv1a checksum;
  std::size_t bytes = 0;
  for (const std::span<const std::byte> part : parts) {
    checksum.bytes(part.data(), part.size());
    bytes += part.size();
  }
  if (bytes != payload_bytes_)
    raise(std::string(format_.name) + ": record payload is " +
          std::to_string(bytes) + " bytes, expected " +
          std::to_string(payload_bytes_));
  std::byte sum[kChecksumBytes];
  store_le(checksum.digest(), sum, kChecksumBytes);
  std::ofstream out(path_, std::ios::binary | std::ios::app);
  for (const std::span<const std::byte> part : parts)
    out.write(reinterpret_cast<const char*>(part.data()),
              static_cast<std::streamsize>(part.size()));
  out.write(reinterpret_cast<const char*>(sum), kChecksumBytes);
  out.flush();
  if (!out.good())
    raise(std::string(format_.name) + ": append failed for " + path_);
}

}  // namespace ldmo::common
