// Flight recorder: a fixed-capacity ring of recent request events for
// postmortems. The server records one event per terminal response; on a
// failure (and at shutdown) the ring is dumped as JSON, so the last N
// requests leading up to an incident are always recoverable.
//
// The record path is lock-minimal: one relaxed fetch_add claims a slot,
// then a per-slot mutex guards the field copy — writers only contend when
// the ring wraps fast enough that two of them land on the same slot, and
// readers (snapshot/dump on the admin thread) take each slot lock for one
// trivially-copyable struct copy. Events hold fixed-size char buffers, not
// std::string, so recording never allocates.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ldmo::obs {

/// One recorded request outcome. `status`/`stage` are short caller-chosen
/// tags (e.g. "failed" / "ilt"); `error` is truncated to fit.
struct FlightEvent {
  std::uint64_t sequence = 0;  ///< 1-based global record order (set by ring)
  std::uint64_t id = 0;        ///< caller's request id
  double t = 0.0;              ///< seconds since recorder construction
  double queue_seconds = 0.0;
  double total_seconds = 0.0;
  int attempts = 1;
  bool degraded = false;
  char status[24] = {};
  char stage[24] = {};
  char error[104] = {};

  /// Truncating setters for the fixed-size tag buffers.
  void set_status(const char* s) { copy_tag(status, sizeof status, s); }
  void set_stage(const char* s) { copy_tag(stage, sizeof stage, s); }
  void set_error(const std::string& s) {
    copy_tag(error, sizeof error, s.c_str());
  }

 private:
  // Copies at most cap-1 bytes and zero-fills the rest of the buffer.
  // Byte by byte while scanning: a memcpy of the scanned length reads as
  // possibly out of bounds to GCC's -Warray-bounds under UBSan.
  static void copy_tag(char* dst, std::size_t cap, const char* src) {
    std::size_t len = 0;
    for (; len + 1 < cap && src[len] != '\0'; ++len) dst[len] = src[len];
    std::memset(dst + len, 0, cap - len);
  }
};

class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity = 256);

  /// Records `event` (sequence and t are stamped here). Never allocates.
  void record(FlightEvent event);

  /// The retained events, oldest first. Taken under per-slot locks, so a
  /// snapshot racing the ring wrapping may miss a just-overwritten slot —
  /// it is a postmortem view, not a transaction.
  std::vector<FlightEvent> snapshot() const;

  /// {"capacity":N,"recorded":M,"events":[...]} via JsonWriter.
  std::string to_json() const;

  std::size_t capacity() const { return capacity_; }
  /// Total events ever recorded (recorded - capacity have been overwritten).
  std::uint64_t recorded() const {
    return next_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    mutable std::mutex mu;
    FlightEvent event;
    bool filled = false;
  };

  const std::size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> next_{0};
  const std::chrono::steady_clock::time_point start_;
};

}  // namespace ldmo::obs
