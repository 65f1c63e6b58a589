#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <numeric>
#include <random>

#include "common/hash.h"
#include "kernels/kernels.h"
#include "layout/generator.h"
#include "mpl/decomposition_generator.h"
#include "nn/resnet.h"
#include "nn/trainer.h"
#include "obs/metrics.h"
#include "opc/ilt.h"
#include "runtime/thread_pool.h"
#include "sampling/training_set.h"

namespace perfbench {

using namespace ldmo;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

void MetricSet::set(const std::string& name, double value,
                    const std::string& unit) {
  items_.push_back({name, value, unit});
}

void Outcome::note(const std::string& key, const std::string& value) {
  notes.emplace_back(key, value);
}

void Outcome::note(const std::string& key, double value) {
  notes.emplace_back(key, fmt(value));
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  // Linear interpolation between closest ranks.
  const double pos = q * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double mean_of(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

LatencySummary summarize(std::vector<double> samples) {
  LatencySummary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = percentile(samples, 0.5);
  // The tail sample is the one with exactly ten samples above it (the
  // maximum with fewer than eleven samples), or the p95 sample if that is
  // lower.
  const std::size_t n = samples.size();
  const std::size_t p95 = static_cast<std::size_t>(
      std::ceil(0.95 * static_cast<double>(n))) - 1;
  const std::size_t index = std::min(n > 10 ? n - 11 : n - 1, p95);
  s.tail = samples[index];
  s.tail_percentile = 100.0 * static_cast<double>(index + 1) /
                      static_cast<double>(n);
  return s;
}

void report_latency(Outcome& out, const std::vector<double>& latencies) {
  const LatencySummary s = summarize(latencies);
  out.end_to_end.set("latency_p50_s", s.p50, "s");
  out.end_to_end.set("latency_tail_s", s.tail, "s");
  out.note("latency_samples", static_cast<double>(s.count));
  out.note("latency_tail_percentile", s.tail_percentile);
  out.note("latency_tail_samples_beyond",
           s.count - std::ceil(s.tail_percentile / 100.0 * s.count));
  for (const double q : {0.90, 0.95, 0.99})
    out.note("latency_p" + std::to_string(static_cast<int>(q * 100)) + "_s",
             percentile(latencies, q));
}

CounterDelta::CounterDelta() {
  for (const obs::CounterSample& c : obs::registry().snapshot().counters)
    before_[c.name] = c.value;
}

double CounterDelta::delta(const std::string& name, bool* found) const {
  for (const obs::CounterSample& c : obs::registry().snapshot().counters) {
    if (c.name != name) continue;
    *found = true;
    const auto it = before_.find(name);
    return static_cast<double>(c.value -
                               (it == before_.end() ? 0 : it->second));
  }
  *found = false;
  return 0.0;
}

double CounterDelta::counter(const std::string& name) const {
  bool found = false;
  const double d = delta(name, &found);
  if (!found)
    throw std::runtime_error("the program exports no counter " + name);
  return d;
}

double CounterDelta::counter_or_zero(const std::string& name) const {
  bool found = false;
  return delta(name, &found);
}

std::vector<double> CounterDelta::matching(const std::string& prefix,
                                           const std::string& suffix) const {
  std::vector<double> out;
  for (const obs::CounterSample& c : obs::registry().snapshot().counters) {
    if (c.name.rfind(prefix, 0) != 0) continue;
    if (c.name.size() < prefix.size() + suffix.size() ||
        c.name.compare(c.name.size() - suffix.size(), suffix.size(),
                       suffix) != 0)
      continue;
    const auto it = before_.find(c.name);
    out.push_back(
        static_cast<double>(c.value - (it == before_.end() ? 0 : it->second)));
  }
  return out;
}

double safe_ratio(double num, double den) {
  return den != 0.0 ? num / den : 0.0;
}

void write_notes(obs::JsonWriter& w, const Notes& notes) {
  w.begin_object();
  for (const auto& [key, value] : notes) w.kv(key, value);
  w.end_object();
}

// ---------------------------------------------------------------------------
// Trace recorder

void TraceRecorder::enable(std::string workload) {
  enabled_ = true;
  workload_ = std::move(workload);
  origin_ = Clock::now();
}

void TraceRecorder::span(
    const std::string& name, const std::string& category,
    Clock::time_point start, Clock::time_point end, int tid,
    std::vector<std::pair<std::string, std::string>> args) {
  if (!enabled_) return;
  Event e;
  e.name = name;
  e.category = category;
  e.start_us = seconds_between(origin_, start) * 1e6;
  e.dur_us = seconds_between(start, end) * 1e6;
  e.tid = tid;
  e.args = std::move(args);
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(e));
}

std::size_t TraceRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

void TraceRecorder::write(const std::string& path, const Notes& meta) const {
  // obs::to_chrome_trace lays spans out from their durations alone; these
  // spans keep their measured start times, so they are written here.
  obs::JsonWriter w;
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("otherData");
  write_notes(w, meta);
  w.key("traceEvents");
  w.begin_array();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Event& e : events_) {
      w.begin_object();
      w.kv("name", e.name);
      w.kv("cat", e.category);
      w.kv("ph", "X");
      w.kv("ts", e.start_us);
      w.kv("dur", e.dur_us);
      w.kv("pid", 1);
      w.kv("tid", e.tid);
      w.key("args");
      w.begin_object();
      w.kv("workload", workload_);
      for (const auto& [k, v] : e.args) w.kv(k, v);
      w.end_object();
      w.end_object();
    }
  }
  w.end_array();
  w.end_object();
  std::ofstream out(path, std::ios::trunc);
  out << w.str() << '\n';
  if (!out) throw std::runtime_error("cannot write trace " + path);
}

TraceRecorder& recorder() {
  static TraceRecorder r;
  return r;
}

// ---------------------------------------------------------------------------
// Inputs and the trained predictor

litho::LithoConfig litho_128() { return litho::LithoConfig{}; }

litho::LithoConfig litho_64() {
  litho::LithoConfig cfg;
  cfg.grid_size = 64;
  cfg.pixel_nm = 16.0;
  return cfg;
}

std::vector<layout::Layout> make_clips(std::uint64_t seed,
                                       std::uint64_t stream, int count) {
  // Contact counts are stratified: each run of consecutive clips as long as
  // the generator's size range holds every count once, in a seeded order.
  // Placement and pitches stay seeded, but any prefix of the stream carries
  // the same size mix under every seed, and clip size sets most of a clip's
  // cost.
  const layout::GeneratorConfig defaults;
  const int sizes = defaults.max_contacts - defaults.min_contacts + 1;
  std::mt19937_64 rng(common::Fnv1a().str("perfbench.sizes").u64(seed).u64(
      stream).digest());
  std::vector<int> block(static_cast<std::size_t>(sizes));
  std::vector<layout::Layout> clips;
  clips.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    if (i % sizes == 0) {
      std::iota(block.begin(), block.end(), defaults.min_contacts);
      std::shuffle(block.begin(), block.end(), rng);
    }
    layout::GeneratorConfig config;
    config.min_contacts = config.max_contacts =
        block[static_cast<std::size_t>(i % sizes)];
    const std::uint64_t clip_seed = common::Fnv1a()
                                        .str("perfbench.clip")
                                        .u64(seed)
                                        .u64(stream)
                                        .u64(static_cast<std::uint64_t>(i))
                                        .digest();
    clips.push_back(layout::LayoutGenerator(config).generate(clip_seed));
    clips.back().name =
        "s" + std::to_string(stream) + "c" + std::to_string(i);
  }
  return clips;
}

std::vector<layout::Layout> quality_clips() {
  std::vector<layout::Layout> clips =
      make_clips(/*seed=*/0, /*stream=*/0, kQualityClips);
  for (std::size_t i = 0; i < clips.size(); ++i)
    clips[i].name = "q" + std::to_string(i);
  return clips;
}

std::vector<layout::Layout> with_quality_clips(
    std::vector<layout::Layout> seeded) {
  std::vector<layout::Layout> clips = quality_clips();
  clips.insert(clips.end(), std::make_move_iterator(seeded.begin()),
               std::make_move_iterator(seeded.end()));
  return clips;
}

namespace {

// Training-set size and schedule: small enough that set-up stays a few
// seconds, large enough that the network learns a ranking.
constexpr int kTrainLayouts = 8;
constexpr int kCandidatesPerLayout = 5;
constexpr int kLabelIterations = 20;
constexpr int kTrainEpochs = 3;
constexpr std::uint64_t kTrainingSeed = 1;
constexpr std::uint64_t kTrainingStream = 99;

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

}  // namespace

TrainedPredictor train_predictor(const std::string& weights_path) {
  const litho::LithoSimulator simulator(litho_64());
  // Short labeling schedule, annealed to the same terminal mask steepness
  // as the full 50-iteration evaluation schedule.
  opc::IltConfig label_cfg;
  const double terminal =
      std::pow(label_cfg.theta_m_anneal, label_cfg.max_iterations);
  label_cfg.max_iterations = kLabelIterations;
  label_cfg.theta_m_anneal = std::pow(terminal, 1.0 / kLabelIterations);
  const opc::IltEngine engine(simulator, label_cfg);

  const std::vector<layout::Layout> layouts =
      make_clips(kTrainingSeed, kTrainingStream, kTrainLayouts);
  std::vector<std::vector<layout::Assignment>> decompositions;
  for (const layout::Layout& l : layouts) {
    const std::vector<layout::Assignment> all =
        mpl::generate_decompositions(l).candidates;
    std::vector<layout::Assignment> picked;
    const std::size_t n = all.size();
    const std::size_t want =
        std::min<std::size_t>(n, kCandidatesPerLayout);
    for (std::size_t k = 0; k < want; ++k) picked.push_back(all[k * n / want]);
    decompositions.push_back(std::move(picked));
  }
  sampling::TrainingSetConfig tcfg;
  tcfg.image_size = nn::ResNetConfig{}.input_size;
  tcfg.per_layout_zscore = true;
  const sampling::TrainingSet set =
      sampling::build_training_set(layouts, decompositions, engine, tcfg);

  core::CnnPredictor predictor(std::make_unique<nn::ResNetRegressor>());
  nn::TrainerConfig train_cfg;
  train_cfg.epochs = kTrainEpochs;
  train_cfg.batch_size = 8;
  train_cfg.adam.learning_rate = 2e-3;
  train_cfg.lr_decay_per_epoch = 0.8;
  train_cfg.shuffle_seed = kTrainingSeed;
  nn::train_regressor(predictor.network(), set.examples, train_cfg);
  predictor.save(weights_path);

  TrainedPredictor out;
  out.weights_path = weights_path;
  const std::vector<std::uint8_t> bytes = read_bytes(weights_path);
  out.digest = common::Fnv1a().bytes(bytes.data(), bytes.size()).digest();
  return out;
}

std::unique_ptr<core::CnnPredictor> load_predictor(
    const std::string& weights_path) {
  auto predictor = std::make_unique<core::CnnPredictor>(
      std::make_unique<nn::ResNetRegressor>());
  predictor->load(weights_path);
  return predictor;
}

// ---------------------------------------------------------------------------
// Host, provenance, misc

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool release_build() {
  return std::string(PERFBENCH_BUILD_TYPE) == "Release";
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

Notes provenance(const Options& options) {
  return {
      {"workload", options.workload},
      {"seed", std::to_string(options.seed)},
      {"seconds", fmt(options.seconds)},
      {"trace", options.trace ? "1" : "0"},
      {"nproc", std::to_string(runtime::hardware_threads())},
      {"threads", std::to_string(runtime::thread_count())},
      {"cpu_model", cpu_model()},
      {"cpu_features", kernels::cpu_features()},
      {"kernel_backend", kernels::to_string(kernels::active())},
      {"git_sha", options.git_sha},
      {"git_dirty", options.git_dirty},
      {"source_digest", options.source_digest},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"compiler", compiler()},
      {"valid", release_build() ? "true" : "false"},
  };
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace perfbench
