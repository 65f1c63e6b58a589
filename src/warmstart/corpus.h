// Append-only binary training corpus for the warm-start MaskNet: a
// common/record_file record log, magic "LDMOWSC1", dimension grid_size.
// Each record's payload is 5 float32 planes of grid_size^2 each, in order
// target, raster1, raster2, mask1, mask2.
//
// The harvester appends with CorpusWriter; training reads the whole file
// with read_corpus, which refuses a torn tail as well as bit rot, so a
// corrupt corpus never trains a model halfway. No index, no compaction —
// the corpus is write-once data that retrains a model, not a database.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/record_file.h"

namespace ldmo::warmstart {

/// One harvested training triple, flattened row-major (grid^2 floats per
/// plane): the rasterized target, the two decomposition mask rasters, and
/// the two ILT-optimized binary masks the flow produced for them.
struct ClipRecord {
  std::vector<float> target;
  std::vector<float> raster1;
  std::vector<float> raster2;
  std::vector<float> mask1;
  std::vector<float> mask2;
};

/// A fully validated in-memory corpus.
struct Corpus {
  int grid_size = 0;
  std::vector<ClipRecord> records;
};

/// Appends records to `path`, creating the file (with header) when absent.
/// Opening an existing file validates its header against `grid_size` and
/// cuts a torn tail.
class CorpusWriter {
 public:
  CorpusWriter(std::string path, int grid_size);

  /// Appends one record (all planes must be grid_size^2) and flushes it.
  void append(const ClipRecord& record);

  int grid_size() const { return grid_size_; }
  std::size_t appended() const { return appended_; }
  const std::string& path() const { return log_.path(); }

 private:
  common::RecordLogWriter log_;
  int grid_size_ = 0;
  std::size_t appended_ = 0;
};

/// Reads and validates an entire corpus file. Throws ldmo::Error on bad
/// magic, bad grid size, a torn tail, or any checksum mismatch.
Corpus read_corpus(const std::string& path);

/// Record count of a corpus file without reading the payload (header and
/// size validation only; a partial trailing record throws).
std::size_t corpus_record_count(const std::string& path);

}  // namespace ldmo::warmstart
