// Shared pieces of ldmo_perfbench: options, metric sets,
// latency summaries, registry-counter deltas, the in-memory span recorder,
// the CNN set-up and the host/provenance block.
//
// The benchmark only calls the library through its public entry points
// (core::FlowEngine, serve::Server, net::ServeDaemon + net::Router +
// net::Client) plus the module functions the traced layer probes time.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/predictor.h"
#include "layout/layout.h"
#include "litho/config.h"
#include "obs/json.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Named facts (provenance, details, trace metadata), printed as one JSON
/// object of strings.
using Notes = std::vector<std::pair<std::string, std::string>>;
/// Writes `notes` as an object value (after a key, or at the top level).
void write_notes(ldmo::obs::JsonWriter& w, const Notes& notes);

double seconds_between(Clock::time_point a, Clock::time_point b);
double seconds_since(Clock::time_point t0);

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Build the workload's set-up, report setup_s and the weight digest,
  /// and exit without a timed phase (run.py repeats set-up this way).
  bool setup_only = false;
  /// Scratch directory for weights, snapshots and the Chrome trace.
  std::string work_dir = ".bench_work";
  std::string git_sha = "unknown";
  std::string git_dirty = "unknown";
  std::string source_digest = "unknown";
  /// Flip one mask pixel of one returned result before the output checks
  /// (proves that a corrupted result fails the run).
  bool corrupt = false;
};

/// One named metric with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// What one workload run hands back to main().
struct Outcome {
  double setup_seconds = 0.0;
  std::uint64_t weights_digest = 0;
  long long attempted = 0;
  long long failed = 0;
  MetricSet end_to_end;
  MetricSet per_layer;
  /// Free-form facts printed in the details line (sample counts, tail
  /// percentile, rates).
  Notes notes;
  void note(const std::string& key, const std::string& value);
  void note(const std::string& key, double value);
};

/// Median and tail of a latency sample. The tail is the highest
/// percentile that still has at least ten samples beyond it, capped at
/// p95: past p95 the loopback cluster's tail follows host scheduling
/// stalls (its p99 moved between 6 and 13 ms across runs minutes apart).
struct LatencySummary {
  std::size_t count = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_percentile = 0.0;  ///< in [0, 100]
};
LatencySummary summarize(std::vector<double> samples);
double percentile(std::vector<double> samples, double q);
double mean_of(const std::vector<double>& samples);

/// Records end-to-end metrics common to every workload and the summary
/// notes that say how the tail was taken.
void report_latency(Outcome& out, const std::vector<double>& latencies);

/// Registry deltas over an interval: snapshot at construction, read
/// differences later from fresh snapshots.
class CounterDelta {
 public:
  CounterDelta();
  /// Delta of counter `name`. Throws when the program exports no counter
  /// of that name, so a renamed counter fails the run instead of reading 0.
  double counter(const std::string& name) const;
  /// Delta of a counter the program registers only when it first fires
  /// (retries, failovers): an unregistered name reads 0.
  double counter_or_zero(const std::string& name) const;
  /// Deltas of every counter whose name starts with `prefix` and ends with
  /// `suffix`.
  std::vector<double> matching(const std::string& prefix,
                               const std::string& suffix) const;

 private:
  /// Delta of `name`; `*found` tells whether it is registered.
  double delta(const std::string& name, bool* found) const;
  std::map<std::string, long long> before_;
};

double safe_ratio(double num, double den);

/// In-memory span store, written once at the end as a Chrome trace.
class TraceRecorder {
 public:
  bool enabled() const { return enabled_; }
  void enable(std::string workload);
  void span(const std::string& name, const std::string& category,
            Clock::time_point start, Clock::time_point end, int tid,
            std::vector<std::pair<std::string, std::string>> args = {});
  std::size_t size() const;
  void write(const std::string& path, const Notes& meta) const;

 private:
  struct Event {
    std::string name;
    std::string category;
    double start_us = 0.0;
    double dur_us = 0.0;
    int tid = 0;
    std::vector<std::pair<std::string, std::string>> args;
  };
  bool enabled_ = false;
  std::string workload_;
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Event> events_;
};

TraceRecorder& recorder();

/// 128 px at 8 nm: the experiment-grade model (LithoConfig defaults).
ldmo::litho::LithoConfig litho_128();
/// 64 px at 16 nm: the serving / CLI model.
ldmo::litho::LithoConfig litho_64();

/// Distinct clips of one input stream: clip i of stream s under seed n is
/// always the same layout.
std::vector<ldmo::layout::Layout> make_clips(std::uint64_t seed,
                                             std::uint64_t stream, int count);

/// The quality clips: a fixed set, the same under every seed, that every
/// workload serves among its seeded inputs. mean_score averages the Eq. 9
/// score of their returned masks, so it compares across seeds and moves
/// only when mask quality moves.
inline constexpr int kQualityClips = 8;
std::vector<ldmo::layout::Layout> quality_clips();

/// `seeded` prefixed by the quality clips.
std::vector<ldmo::layout::Layout> with_quality_clips(
    std::vector<ldmo::layout::Layout> seeded);

/// The paper's predictor, trained during set-up on the 64-px model. The
/// training set and schedule are fixed, not drawn from --seed: the model
/// is part of the system under test, and seed-dependent weights would move
/// the ranking, the fallback chains and mean_score with the seed. Training
/// repeats bit for bit; the weights are written to `weights_path` (for the
/// daemons) and digested so two commits can be shown to score with the
/// same weights.
struct TrainedPredictor {
  std::string weights_path;
  std::uint64_t digest = 0;
};
TrainedPredictor train_predictor(const std::string& weights_path);
/// A fresh CnnPredictor holding the trained weights.
std::unique_ptr<ldmo::core::CnnPredictor> load_predictor(
    const std::string& weights_path);

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

/// Host and provenance block printed with every output.
Notes provenance(const Options& options);
/// False when the binary was not built as Release.
bool release_build();

std::string hex64(std::uint64_t v);
std::string fmt(double v);

}  // namespace perfbench
