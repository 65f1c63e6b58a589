// Append-only binary training log for the online-learning flywheel: a
// common/record_file record log, magic "LDMOFWL1", dimension image_size.
// Each record's payload is the image_size^2 float32 decomposition image,
// then the f64 actual score as its little-endian IEEE-754 bits.
//
// The serve-time capture sink (sink.h) appends; the fine-tuner (tuner.h)
// reads. Unlike the corpus, the reader TOLERATES A TORN TAIL: a live
// server can crash (or hit the flywheel.log.append failpoint) mid-record,
// and losing the newest pair must not strand the earlier ones. The tail is
// dropped and flagged; bit rot before it still throws.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/record_file.h"

namespace ldmo::flywheel {

/// One captured training pair: the flattened row-major [image_size^2]
/// grayscale decomposition image and the actual post-ILT printability
/// score (raw Eq. 9 units, lower = better).
struct TrainingPair {
  std::vector<float> image;
  double score = 0.0;
};

/// A validated in-memory training log.
struct TrainingLog {
  int image_size = 0;
  std::vector<TrainingPair> pairs;
  /// True when the file ended in a partial or checksum-failed final record
  /// (dropped from `pairs`). Expected after a crash mid-append; the next
  /// writer truncates exactly that tail, so its appends land after the
  /// last record the reader trusts.
  bool torn_tail = false;
};

/// Appends pairs to `path`, creating the file (with header) when absent.
/// Opening an existing file validates magic and image size and cuts the
/// torn tail read_training_log would drop, so subsequent appends land on a
/// trusted record boundary.
class TrainingLogWriter {
 public:
  TrainingLogWriter(std::string path, int image_size);

  /// Appends one pair (image must be image_size^2 floats). Runs the
  /// "flywheel.log.append" failpoint first, then writes and flushes, so a
  /// fired failpoint models a fault BEFORE any bytes land. Throws on I/O
  /// failure; a crash mid-write loses at most this record.
  void append(const TrainingPair& pair);

  int image_size() const { return image_size_; }
  std::size_t appended() const { return appended_; }
  const std::string& path() const { return log_.path(); }

 private:
  common::RecordLogWriter log_;
  int image_size_ = 0;
  std::size_t appended_ = 0;
};

/// Reads a training log, dropping (and flagging) a torn tail. Throws
/// ldmo::Error on bad magic, implausible image size, or a checksum
/// mismatch anywhere before the final record.
TrainingLog read_training_log(const std::string& path);

/// Whole-record count of a log file from header and size alone (a torn
/// tail rounds down; header validation only).
std::size_t training_log_record_count(const std::string& path);

/// On-disk size of one record at this image size (sizing/telemetry).
std::size_t training_log_record_bytes(int image_size);

}  // namespace ldmo::flywheel
