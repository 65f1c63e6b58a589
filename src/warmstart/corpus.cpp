#include "warmstart/corpus.h"

#include <cstring>
#include <span>

#include "common/error.h"

namespace ldmo::warmstart {
namespace {

/// The five planes of a record, in payload order.
constexpr std::vector<float> ClipRecord::*kPlanes[] = {
    &ClipRecord::target, &ClipRecord::raster1, &ClipRecord::raster2,
    &ClipRecord::mask1, &ClipRecord::mask2};

std::size_t payload_bytes(std::uint32_t grid_size) {
  return std::size(kPlanes) * grid_size * grid_size * sizeof(float);
}

constexpr common::RecordLogFormat kFormat{"LDMOWSC1", "warmstart corpus",
                                          payload_bytes};

/// The corpus refuses a torn tail: training reads whole corpora only.
std::size_t untorn(const common::RecordLogInfo& info, const std::string& path) {
  require(!info.torn_tail,
          "warmstart corpus: size is not a whole number of good records "
          "(truncated or torn append): " + path);
  return info.records;
}

}  // namespace

CorpusWriter::CorpusWriter(std::string path, int grid_size)
    : log_(std::move(path), kFormat, static_cast<std::uint32_t>(grid_size)),
      grid_size_(grid_size) {}

void CorpusWriter::append(const ClipRecord& record) {
  const std::size_t n = static_cast<std::size_t>(grid_size_) * grid_size_;
  for (const auto plane : kPlanes)
    require((record.*plane).size() == n,
            "CorpusWriter::append: plane size does not match grid");
  log_.append({std::as_bytes(std::span(record.target)),
               std::as_bytes(std::span(record.raster1)),
               std::as_bytes(std::span(record.raster2)),
               std::as_bytes(std::span(record.mask1)),
               std::as_bytes(std::span(record.mask2))});
  ++appended_;
}

Corpus read_corpus(const std::string& path) {
  Corpus corpus;
  const common::RecordLogInfo info = common::read_record_log(
      path, kFormat, [&](std::span<const std::byte> payload) {
        const std::size_t plane_bytes = payload.size() / std::size(kPlanes);
        ClipRecord record;
        const std::byte* next = payload.data();
        for (const auto plane : kPlanes) {
          (record.*plane).resize(plane_bytes / sizeof(float));
          std::memcpy((record.*plane).data(), next, plane_bytes);
          next += plane_bytes;
        }
        corpus.records.push_back(std::move(record));
      });
  untorn(info, path);
  corpus.grid_size = static_cast<int>(info.dimension);
  return corpus;
}

std::size_t corpus_record_count(const std::string& path) {
  return untorn(common::record_log_shape(path, kFormat), path);
}

}  // namespace ldmo::warmstart
