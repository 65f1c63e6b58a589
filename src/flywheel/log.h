// Append-only binary training log for the online-learning flywheel.
//
// The serve-time capture sink (sink.h) appends (decomposition image,
// actual ILT score) pairs here; the background fine-tuner (tuner.h) reads
// them back. Layout mirrors the warm-start corpus framing discipline
// (warmstart/corpus.h):
//
//   header:  magic "LDMOFWL1" (8 bytes) + u32 little-endian image_size
//   records: image_size^2 float32 grayscale decomposition image
//            + f64 actual score (little-endian IEEE-754 bit pattern)
//            + u64 FNV-1a checksum of the image and score bytes.
//
// Records are fixed-size, so the count derives from the file size. Unlike
// the corpus reader, the flywheel reader is TOLERANT OF A TORN TAIL: the
// log is appended by a live server that can crash (or hit the
// flywheel.log.append failpoint) mid-record, and losing the newest pair
// must not strand every previously captured one. A trailing partial record
// or a final record with a bad checksum is dropped and reported via
// TrainingLog::torn_tail; corruption anywhere BEFORE the tail still throws
// — that is bit rot, not a torn append, and must not train a model.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

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
/// Opening an existing file validates magic and image size and truncates
/// the torn tail read_training_log would drop (a partial record, and a
/// final whole record whose checksum fails), so subsequent appends land on
/// a trusted record boundary.
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
  const std::string& path() const { return path_; }

 private:
  std::string path_;
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
