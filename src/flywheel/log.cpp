#include "flywheel/log.h"

#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/error.h"
#include "common/failpoint.h"
#include "common/hash.h"
#include "common/log.h"

namespace ldmo::flywheel {
namespace {

constexpr char kMagic[8] = {'L', 'D', 'M', 'O', 'F', 'W', 'L', '1'};
constexpr std::size_t kHeaderBytes = sizeof(kMagic) + 4;

std::size_t image_bytes(int image_size) {
  return static_cast<std::size_t>(image_size) * image_size * sizeof(float);
}

std::uint64_t score_bits(double score) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(score));
  std::memcpy(&bits, &score, sizeof(bits));
  return bits;
}

double score_from_bits(std::uint64_t bits) {
  double score = 0.0;
  std::memcpy(&score, &bits, sizeof(score));
  return score;
}

std::uint64_t pair_checksum(const TrainingPair& pair, int image_size) {
  common::Fnv1a h;
  h.bytes(pair.image.data(), image_bytes(image_size));
  const std::uint64_t bits = score_bits(pair.score);
  unsigned char b[8];
  for (int i = 0; i < 8; ++i)
    b[i] = static_cast<unsigned char>(bits >> (8 * i));
  h.bytes(b, sizeof(b));
  return h.digest();
}

void write_u32_le(std::ostream& out, std::uint32_t v) {
  unsigned char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
  out.write(reinterpret_cast<const char*>(b), 4);
}

void write_u64_le(std::ostream& out, std::uint64_t v) {
  unsigned char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
  out.write(reinterpret_cast<const char*>(b), 8);
}

std::uint32_t read_u32_le(std::istream& in) {
  unsigned char b[4] = {};
  in.read(reinterpret_cast<char*>(b), 4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
  return v;
}

std::uint64_t read_u64_le(std::istream& in) {
  unsigned char b[8] = {};
  in.read(reinterpret_cast<char*>(b), 8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
  return v;
}

/// Opens `path` for validated reading: checks magic and image size only
/// (size tolerance is the reader's job). `size_out` gets the file size.
int open_validated(const std::string& path, std::ifstream& in,
                   std::size_t& size_out) {
  in.open(path, std::ios::binary | std::ios::ate);
  require(in.good(), "flywheel log: cannot open " + path);
  size_out = static_cast<std::size_t>(in.tellg());
  require(size_out >= kHeaderBytes,
          "flywheel log: file shorter than header: " + path);
  in.seekg(0);
  char magic[sizeof(kMagic)] = {};
  in.read(magic, sizeof(magic));
  require(std::memcmp(magic, kMagic, sizeof(kMagic)) == 0,
          "flywheel log: bad magic in " + path);
  const std::uint32_t image_size = read_u32_le(in);
  require(in.good() && image_size >= 8 && image_size <= 4096,
          "flywheel log: implausible image size in " + path);
  return static_cast<int>(image_size);
}

/// Reads the next record into `pair`; false when its checksum fails.
bool read_record(std::istream& in, int image_size, TrainingPair& pair,
                 const std::string& path) {
  pair.image.resize(static_cast<std::size_t>(image_size) *
                    static_cast<std::size_t>(image_size));
  in.read(reinterpret_cast<char*>(pair.image.data()),
          static_cast<std::streamsize>(image_bytes(image_size)));
  pair.score = score_from_bits(read_u64_le(in));
  const std::uint64_t stored = read_u64_le(in);
  require(in.good(), "flywheel log: short read in " + path);
  return stored == pair_checksum(pair, image_size);
}

}  // namespace

std::size_t training_log_record_bytes(int image_size) {
  return image_bytes(image_size) + 2 * sizeof(std::uint64_t);
}

TrainingLogWriter::TrainingLogWriter(std::string path, int image_size)
    : path_(std::move(path)), image_size_(image_size) {
  require(image_size_ >= 8 && image_size_ <= 4096,
          "TrainingLogWriter: implausible image size");
  std::ifstream existing(path_, std::ios::binary);
  if (existing.good() &&
      existing.peek() != std::ifstream::traits_type::eof()) {
    existing.close();
    std::ifstream check;
    std::size_t size = 0;
    const int file_size = open_validated(path_, check, size);
    require(file_size == image_size_,
            "TrainingLogWriter: existing log " + path_ + " has image size " +
                std::to_string(file_size) + ", expected " +
                std::to_string(image_size_));
    // A torn tail (crashed append) is truncated away so the next append
    // starts on a whole-record boundary. The writer drops exactly what the
    // reader drops: a trailing partial record, and a final whole record
    // whose checksum fails — kept, it would become bit rot the moment
    // another record lands behind it.
    const std::size_t record = training_log_record_bytes(image_size_);
    std::size_t whole = (size - kHeaderBytes) / record;
    if (whole > 0) {
      check.seekg(static_cast<std::streamoff>(kHeaderBytes +
                                              (whole - 1) * record));
      TrainingPair last;
      if (!read_record(check, image_size_, last, path_)) --whole;
    }
    check.close();
    const std::size_t kept = kHeaderBytes + whole * record;
    if (kept != size) {
      log_warn("flywheel log: truncating torn tail of ", path_, " (",
               size - kept, " bytes)");
      std::filesystem::resize_file(path_, kept);
    }
    return;  // header already present, appends go to the end
  }
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  require(out.good(), "TrainingLogWriter: cannot create " + path_);
  out.write(kMagic, sizeof(kMagic));
  write_u32_le(out, static_cast<std::uint32_t>(image_size_));
  out.flush();
  require(out.good(), "TrainingLogWriter: header write failed for " + path_);
}

void TrainingLogWriter::append(const TrainingPair& pair) {
  const std::size_t n = static_cast<std::size_t>(image_size_) *
                        static_cast<std::size_t>(image_size_);
  require(pair.image.size() == n,
          "TrainingLogWriter::append: image size does not match header");
  fail::maybe_fail("flywheel.log.append", FlowStage::kCache);
  std::ofstream out(path_, std::ios::binary | std::ios::app);
  require(out.good(), "TrainingLogWriter: cannot append to " + path_);
  out.write(reinterpret_cast<const char*>(pair.image.data()),
            static_cast<std::streamsize>(image_bytes(image_size_)));
  write_u64_le(out, score_bits(pair.score));
  write_u64_le(out, pair_checksum(pair, image_size_));
  out.flush();
  require(out.good(), "TrainingLogWriter: append failed for " + path_);
  ++appended_;
}

TrainingLog read_training_log(const std::string& path) {
  std::ifstream in;
  std::size_t size = 0;
  TrainingLog log;
  log.image_size = open_validated(path, in, size);
  const std::size_t record = training_log_record_bytes(log.image_size);
  const std::size_t payload = size - kHeaderBytes;
  const std::size_t count = payload / record;
  log.torn_tail = payload % record != 0;
  log.pairs.reserve(count);
  for (std::size_t r = 0; r < count; ++r) {
    TrainingPair pair;
    if (!read_record(in, log.image_size, pair, path)) {
      // Final record: a torn append that happened to land on a record
      // boundary. Anywhere earlier: bit rot — refuse the whole log.
      require(r + 1 == count,
              "flywheel log: checksum mismatch in record " +
                  std::to_string(r) + " of " + path);
      log.torn_tail = true;
      break;
    }
    log.pairs.push_back(std::move(pair));
  }
  return log;
}

std::size_t training_log_record_count(const std::string& path) {
  std::ifstream in;
  std::size_t size = 0;
  const int image_size = open_validated(path, in, size);
  return (size - kHeaderBytes) / training_log_record_bytes(image_size);
}

}  // namespace ldmo::flywheel
