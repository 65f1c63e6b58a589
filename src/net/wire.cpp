#include "net/wire.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace ldmo::net {

namespace {

/// Decoded dimensions above this are a corrupt frame, not a real grid (the
/// largest simulator grid is 128; 1<<14 leaves generous headroom while
/// keeping a hostile length from requesting terabytes).
constexpr int kMaxGridSide = 1 << 14;

std::uint64_t f64_bits(double v) { return std::bit_cast<std::uint64_t>(v); }
double bits_f64(std::uint64_t v) { return std::bit_cast<double>(v); }

}  // namespace

// --- WireWriter ---

WireWriter& WireWriter::u8(std::uint8_t v) {
  bytes_.push_back(v);
  return *this;
}

WireWriter& WireWriter::u16(std::uint16_t v) {
  bytes_.push_back(static_cast<std::uint8_t>(v & 0xff));
  bytes_.push_back(static_cast<std::uint8_t>(v >> 8));
  return *this;
}

WireWriter& WireWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    bytes_.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
  return *this;
}

WireWriter& WireWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    bytes_.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
  return *this;
}

WireWriter& WireWriter::f64(double v) { return u64(f64_bits(v)); }

WireWriter& WireWriter::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  bytes_.insert(bytes_.end(), s.begin(), s.end());
  return *this;
}

WireWriter& WireWriter::blob(const std::vector<std::uint8_t>& b) {
  u32(static_cast<std::uint32_t>(b.size()));
  bytes_.insert(bytes_.end(), b.begin(), b.end());
  return *this;
}

WireWriter& WireWriter::grid(const GridF& g) {
  i32(g.height()).i32(g.width());
  if constexpr (std::endian::native == std::endian::little) {
    const auto* cells = reinterpret_cast<const std::uint8_t*>(g.data());
    bytes_.insert(bytes_.end(), cells, cells + g.size() * sizeof(double));
  } else {
    for (std::size_t i = 0; i < g.size(); ++i) f64(g[i]);
  }
  return *this;
}

// --- WireReader ---

void WireReader::fail(const std::string& what) const {
  throw DecodeError("wire decode (" + context_ + "): " + what + " at byte " +
                    std::to_string(offset_) + " of " +
                    std::to_string(size_));
}

std::uint8_t WireReader::u8() {
  if (offset_ + 1 > size_) fail("short read (u8)");
  return data_[offset_++];
}

std::uint16_t WireReader::u16() {
  if (offset_ + 2 > size_) fail("short read (u16)");
  std::uint16_t v = 0;
  for (int i = 0; i < 2; ++i)
    v = static_cast<std::uint16_t>(
        v | static_cast<std::uint16_t>(data_[offset_ + i]) << (8 * i));
  offset_ += 2;
  return v;
}

std::uint32_t WireReader::u32() {
  if (offset_ + 4 > size_) fail("short read (u32)");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(data_[offset_ + i]) << (8 * i);
  offset_ += 4;
  return v;
}

std::uint64_t WireReader::u64() {
  if (offset_ + 8 > size_) fail("short read (u64)");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(data_[offset_ + i]) << (8 * i);
  offset_ += 8;
  return v;
}

double WireReader::f64() { return bits_f64(u64()); }

std::string WireReader::str() {
  const std::uint32_t len = u32();
  if (static_cast<std::size_t>(len) > remaining())
    fail("string length " + std::to_string(len) + " exceeds remaining " +
         std::to_string(remaining()) + " bytes");
  std::string s(reinterpret_cast<const char*>(data_ + offset_), len);
  offset_ += len;
  return s;
}

std::vector<std::uint8_t> WireReader::blob() {
  const std::uint32_t len = u32();
  if (static_cast<std::size_t>(len) > remaining())
    fail("blob length " + std::to_string(len) + " exceeds remaining " +
         std::to_string(remaining()) + " bytes");
  std::vector<std::uint8_t> b(data_ + offset_, data_ + offset_ + len);
  offset_ += len;
  return b;
}

GridF WireReader::grid() {
  const std::int32_t h = i32();
  const std::int32_t w = i32();
  if (h < 0 || w < 0 || h > kMaxGridSide || w > kMaxGridSide)
    fail("implausible grid shape " + std::to_string(h) + "x" +
         std::to_string(w));
  const std::size_t cells =
      static_cast<std::size_t>(h) * static_cast<std::size_t>(w);
  if (cells * 8 > remaining())
    fail("grid payload " + std::to_string(cells * 8) +
         " bytes exceeds remaining " + std::to_string(remaining()));
  GridF g(h, w);
  if constexpr (std::endian::native == std::endian::little) {
    if (cells != 0) std::memcpy(g.data(), data_ + offset_, cells * 8);
    offset_ += cells * 8;
  } else {
    for (std::size_t i = 0; i < cells; ++i) g[i] = f64();
  }
  return g;
}

void WireReader::expect_tag(std::string_view tag) {
  const std::string got = str();
  if (got != tag)
    fail("message tag mismatch (want '" + std::string(tag) + "', got '" +
         got + "')");
}

void WireReader::expect_end() const {
  if (offset_ != size_)
    fail("trailing garbage: " + std::to_string(size_ - offset_) +
         " unconsumed bytes");
}

// --- layout ---

void write_layout(WireWriter& w, const layout::Layout& layout) {
  w.str("ly1");
  w.str(layout.name);
  w.i64(layout.clip.lo.x).i64(layout.clip.lo.y);
  w.i64(layout.clip.hi.x).i64(layout.clip.hi.y);
  w.u32(static_cast<std::uint32_t>(layout.patterns.size()));
  for (const layout::Pattern& p : layout.patterns) {
    w.i64(p.shape.lo.x).i64(p.shape.lo.y);
    w.i64(p.shape.hi.x).i64(p.shape.hi.y);
  }
}

layout::Layout read_layout(WireReader& r) {
  r.expect_tag("ly1");
  layout::Layout layout;
  layout.name = r.str();
  geometry::Point lo, hi;
  lo.x = r.i64();
  lo.y = r.i64();
  hi.x = r.i64();
  hi.y = r.i64();
  layout.clip = geometry::Rect::make(lo, hi);
  const std::uint32_t count = r.u32();
  // 32 bytes per pattern: a count beyond the remaining payload is corrupt.
  if (static_cast<std::size_t>(count) * 32 > r.remaining())
    r.fail("pattern count " + std::to_string(count) +
           " exceeds remaining payload");
  for (std::uint32_t i = 0; i < count; ++i) {
    lo.x = r.i64();
    lo.y = r.i64();
    hi.x = r.i64();
    hi.y = r.i64();
    layout.add_pattern(geometry::Rect::make(lo, hi));
  }
  return layout;
}

// --- request ---

void write_request(WireWriter& w, const serve::ServeRequest& request) {
  w.str("rq1");
  write_layout(w, request.layout);
  w.u8(static_cast<std::uint8_t>(request.priority));
  w.f64(request.deadline_seconds);
}

serve::ServeRequest read_request(WireReader& r) {
  r.expect_tag("rq1");
  serve::ServeRequest request;
  request.layout = read_layout(r);
  const std::uint8_t priority = r.u8();
  if (priority >= serve::kPriorityClasses)
    r.fail("priority class " + std::to_string(priority) + " out of range");
  request.priority = static_cast<serve::Priority>(priority);
  request.deadline_seconds = r.f64();
  return request;
}

// --- result ---

namespace {

void write_flow_error(WireWriter& w, const FlowError& error) {
  w.u8(static_cast<std::uint8_t>(error.stage));
  w.str(error.message);
}

FlowError read_flow_error(WireReader& r) {
  FlowError error;
  const std::uint8_t stage = r.u8();
  if (stage >= kFlowStageCount)
    r.fail("flow stage " + std::to_string(stage) + " out of range");
  error.stage = static_cast<FlowStage>(stage);
  error.message = r.str();
  return error;
}

void write_report(WireWriter& w, const litho::PrintabilityReport& report) {
  w.f64(report.l2);
  w.i32(report.epe.violation_count);
  w.f64(report.epe.max_epe_nm).f64(report.epe.mean_epe_nm);
  w.u32(static_cast<std::uint32_t>(report.epe.measurements.size()));
  for (const litho::EpeMeasurement& m : report.epe.measurements) {
    w.f64(m.checkpoint.x_nm).f64(m.checkpoint.y_nm);
    w.f64(m.checkpoint.normal_x).f64(m.checkpoint.normal_y);
    w.i32(m.checkpoint.pattern_id);
    w.f64(m.epe_nm);
    w.u8(m.violation ? 1 : 0).u8(m.contour_found ? 1 : 0);
  }
  w.i32(report.violations.missing);
  w.i32(report.violations.bridges);
  w.i32(report.violations.extra);
}

litho::PrintabilityReport read_report(WireReader& r) {
  litho::PrintabilityReport report;
  report.l2 = r.f64();
  report.epe.violation_count = r.i32();
  report.epe.max_epe_nm = r.f64();
  report.epe.mean_epe_nm = r.f64();
  const std::uint32_t measurements = r.u32();
  if (static_cast<std::size_t>(measurements) * 46 > r.remaining())
    r.fail("EPE measurement count exceeds remaining payload");
  report.epe.measurements.reserve(measurements);
  for (std::uint32_t i = 0; i < measurements; ++i) {
    litho::EpeMeasurement m;
    m.checkpoint.x_nm = r.f64();
    m.checkpoint.y_nm = r.f64();
    m.checkpoint.normal_x = r.f64();
    m.checkpoint.normal_y = r.f64();
    m.checkpoint.pattern_id = r.i32();
    m.epe_nm = r.f64();
    m.violation = r.u8() != 0;
    m.contour_found = r.u8() != 0;
    report.epe.measurements.push_back(m);
  }
  report.violations.missing = r.i32();
  report.violations.bridges = r.i32();
  report.violations.extra = r.i32();
  return report;
}

}  // namespace

void write_result(WireWriter& w, const core::LdmoResult& result) {
  w.str("rs1");
  w.u32(static_cast<std::uint32_t>(result.chosen.size()));
  for (int mask : result.chosen) w.i32(mask);

  w.grid(result.ilt.mask1).grid(result.ilt.mask2).grid(result.ilt.response);
  write_report(w, result.ilt.report);
  w.u32(static_cast<std::uint32_t>(result.ilt.trajectory.size()));
  for (const opc::IltIterationStats& s : result.ilt.trajectory) {
    w.i32(s.iteration).f64(s.l2);
    w.i32(s.epe_violations).i32(s.print_violations);
  }
  w.i32(result.ilt.iterations_run);
  w.u8(result.ilt.aborted_on_violation ? 1 : 0);
  w.u8(result.ilt.cancelled ? 1 : 0);

  w.i32(result.candidates_generated).i32(result.candidates_tried);
  // Phase buckets in sorted order: PhaseTimer iteration order is
  // unordered_map order, which is not canonical.
  std::vector<std::string> phases = result.timing.phases();
  std::sort(phases.begin(), phases.end());
  w.u32(static_cast<std::uint32_t>(phases.size()));
  for (const std::string& phase : phases) {
    w.str(phase);
    w.f64(result.timing.get(phase)).f64(result.timing.get_cpu(phase));
  }
  w.f64(result.total_seconds);
  w.u8(result.cancelled ? 1 : 0);
  w.u8(result.failed ? 1 : 0);
  write_flow_error(w, result.error);
  w.u8(result.degraded ? 1 : 0);
}

core::LdmoResult read_result(WireReader& r) {
  r.expect_tag("rs1");
  core::LdmoResult result;
  const std::uint32_t chosen = r.u32();
  if (static_cast<std::size_t>(chosen) * 4 > r.remaining())
    r.fail("assignment length exceeds remaining payload");
  result.chosen.reserve(chosen);
  for (std::uint32_t i = 0; i < chosen; ++i)
    result.chosen.push_back(r.i32());

  result.ilt.mask1 = r.grid();
  result.ilt.mask2 = r.grid();
  result.ilt.response = r.grid();
  result.ilt.report = read_report(r);
  const std::uint32_t trajectory = r.u32();
  if (static_cast<std::size_t>(trajectory) * 20 > r.remaining())
    r.fail("trajectory length exceeds remaining payload");
  result.ilt.trajectory.reserve(trajectory);
  for (std::uint32_t i = 0; i < trajectory; ++i) {
    opc::IltIterationStats s;
    s.iteration = r.i32();
    s.l2 = r.f64();
    s.epe_violations = r.i32();
    s.print_violations = r.i32();
    result.ilt.trajectory.push_back(s);
  }
  result.ilt.iterations_run = r.i32();
  result.ilt.aborted_on_violation = r.u8() != 0;
  result.ilt.cancelled = r.u8() != 0;

  result.candidates_generated = r.i32();
  result.candidates_tried = r.i32();
  const std::uint32_t phases = r.u32();
  for (std::uint32_t i = 0; i < phases; ++i) {
    const std::string phase = r.str();
    const double wall = r.f64();
    const double cpu = r.f64();
    result.timing.add(phase, wall, cpu);
  }
  result.total_seconds = r.f64();
  result.cancelled = r.u8() != 0;
  result.failed = r.u8() != 0;
  result.error = read_flow_error(r);
  result.degraded = r.u8() != 0;
  return result;
}

// --- response ---

void write_response(WireWriter& w, const serve::ServeResponse& response) {
  w.str("rp1");
  w.u8(static_cast<std::uint8_t>(response.status));
  w.u64(response.request_id).u64(response.cache_key);
  w.u64(response.completion_sequence);
  w.f64(response.queue_seconds).f64(response.service_seconds);
  w.f64(response.total_seconds);
  w.i32(response.attempts);
  w.u8(response.degraded ? 1 : 0);
  write_flow_error(w, response.error);
  // The result payload travels only when it is populated (kOk / kCached);
  // terminal failures stay compact.
  w.u8(response.ok() ? 1 : 0);
  if (response.ok()) write_result(w, response.result);
}

serve::ServeResponse read_response(WireReader& r) {
  r.expect_tag("rp1");
  serve::ServeResponse response;
  const std::uint8_t status = r.u8();
  if (status >= serve::kServeStatusCount)
    r.fail("serve status " + std::to_string(status) + " out of range");
  response.status = static_cast<serve::ServeStatus>(status);
  response.request_id = r.u64();
  response.cache_key = r.u64();
  response.completion_sequence = r.u64();
  response.queue_seconds = r.f64();
  response.service_seconds = r.f64();
  response.total_seconds = r.f64();
  response.attempts = r.i32();
  response.degraded = r.u8() != 0;
  response.error = read_flow_error(r);
  if (r.u8() != 0) response.result = read_result(r);
  return response;
}

// --- stats ---

void write_stats(WireWriter& w, const WorkerStats& stats) {
  w.str("st1");
  w.u64(stats.config_fingerprint).u64(stats.weights_version);
  w.str(stats.predictor);
  for (long long count : stats.status_counts) w.i64(count);
  w.i64(stats.cache_hits).i64(stats.cache_misses);
  w.u64(stats.cache_entries).u64(stats.queue_depth);
  w.u64(stats.warm_start_version);
}

WorkerStats read_stats(WireReader& r) {
  r.expect_tag("st1");
  WorkerStats stats;
  stats.config_fingerprint = r.u64();
  stats.weights_version = r.u64();
  stats.predictor = r.str();
  for (long long& count : stats.status_counts) count = r.i64();
  stats.cache_hits = r.i64();
  stats.cache_misses = r.i64();
  stats.cache_entries = r.u64();
  stats.queue_depth = r.u64();
  stats.warm_start_version = r.u64();
  return stats;
}

// --- weight swap ---

void write_weight_swap(WireWriter& w, const WeightSwap& swap) {
  w.u64(swap.version).blob(swap.cnn);
  if (!swap.warm.empty()) w.blob(swap.warm);
}

WeightSwap read_weight_swap(WireReader& r) {
  WeightSwap swap;
  swap.version = r.u64();
  swap.cnn = r.blob();
  if (r.remaining() > 0) swap.warm = r.blob();
  return swap;
}

// --- swap ack and error ---

void write_swap_ack(WireWriter& w, std::uint64_t version) { w.u64(version); }

std::uint64_t read_swap_ack(WireReader& r) { return r.u64(); }

void write_error(WireWriter& w, int stage, std::string_view message) {
  w.u8(static_cast<std::uint8_t>(stage));
  w.str(message);
}

FlowError read_error(WireReader& r) {
  FlowError error;
  const std::uint8_t stage = r.u8();
  error.stage = stage < static_cast<std::uint8_t>(FlowStage::kUnknown)
                    ? static_cast<FlowStage>(stage)
                    : FlowStage::kUnknown;
  error.message = r.str();
  return error;
}

}  // namespace ldmo::net
