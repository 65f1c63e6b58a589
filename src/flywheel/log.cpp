#include "flywheel/log.h"

#include <bit>
#include <cstring>
#include <span>

#include "common/error.h"
#include "common/failpoint.h"

namespace ldmo::flywheel {
namespace {

constexpr std::size_t kScoreBytes = sizeof(std::uint64_t);

std::size_t payload_bytes(std::uint32_t image_size) {
  return static_cast<std::size_t>(image_size) * image_size * sizeof(float) +
         kScoreBytes;
}

constexpr common::RecordLogFormat kFormat{"LDMOFWL1", "flywheel log",
                                          payload_bytes};

}  // namespace

std::size_t training_log_record_bytes(int image_size) {
  // The payload and its u64 checksum.
  return payload_bytes(static_cast<std::uint32_t>(image_size)) +
         sizeof(std::uint64_t);
}

TrainingLogWriter::TrainingLogWriter(std::string path, int image_size)
    : log_(std::move(path), kFormat, static_cast<std::uint32_t>(image_size)),
      image_size_(image_size) {}

void TrainingLogWriter::append(const TrainingPair& pair) {
  require(pair.image.size() == static_cast<std::size_t>(image_size_) *
                                   static_cast<std::size_t>(image_size_),
          "TrainingLogWriter::append: image size does not match header");
  fail::maybe_fail("flywheel.log.append", FlowStage::kCache);
  std::byte score[kScoreBytes];
  common::store_le(std::bit_cast<std::uint64_t>(pair.score), score,
                   kScoreBytes);
  log_.append({std::as_bytes(std::span(pair.image)), score});
  ++appended_;
}

TrainingLog read_training_log(const std::string& path) {
  TrainingLog log;
  const common::RecordLogInfo info = common::read_record_log(
      path, kFormat, [&](std::span<const std::byte> payload) {
        const std::size_t image = payload.size() - kScoreBytes;
        TrainingPair pair;
        pair.image.resize(image / sizeof(float));
        std::memcpy(pair.image.data(), payload.data(), image);
        pair.score = std::bit_cast<double>(
            common::load_le(payload.data() + image, kScoreBytes));
        log.pairs.push_back(std::move(pair));
      });
  log.image_size = static_cast<int>(info.dimension);
  log.torn_tail = info.torn_tail;
  return log;
}

std::size_t training_log_record_count(const std::string& path) {
  return common::record_log_shape(path, kFormat).records;
}

}  // namespace ldmo::flywheel
