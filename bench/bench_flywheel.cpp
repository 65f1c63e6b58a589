// Online-learning flywheel acceptance (ROADMAP item 5, ISSUE-10):
//
//   1. Capture-overhead drill: fresh-run serve latency with the training-
//      log sink attached vs without. Single passes cannot resolve a
//      sub-percent effect on a loaded box, so the two configurations run
//      as interleaved trials (A B A B ...) against long-lived servers and
//      the MEDIAN p95s are compared. Acceptance: |delta| < 2%.
//
//   2. Recovery drill: a deliberately mistrained predictor CNN (trained on
//      inverted labels, so its held-out rank correlation is deeply
//      negative) serves live traffic; the capture sink logs (decomposition
//      image, actual ILT score) pairs; the background fine-tuner fires a
//      round and the promotion gate swaps in the recovered candidate —
//      while the server keeps answering requests with zero failures.
//      Acceptance: the round promotes, held-out rank correlation recovers
//      (candidate > incumbent), and the swap is visible in the predictor
//      identity ("cnn@v1").
//
// Uses the 32-pixel serving-tier lithography model (same budget as
// test_serve.cpp): the acceptance criteria are ratios and correlations,
// not absolute quality numbers. Writes flywheel_capture.txt and
// flywheel_recovery.txt into --report-dir (default ".").
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/log.h"
#include "core/predictor.h"
#include "flywheel/log.h"
#include "flywheel/sink.h"
#include "flywheel/tuner.h"
#include "kernels/kernels.h"
#include "layout/generator.h"
#include "nn/serialize.h"
#include "nn/trainer.h"
#include "runtime/thread_pool.h"
#include "serve/server.h"

namespace {

using namespace ldmo;

const char* flag_value(int argc, char** argv, const char* name,
                       const char* fallback) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], name) == 0 && i + 1 < argc) return argv[i + 1];
  return fallback;
}

litho::LithoConfig fast_litho() {
  litho::LithoConfig cfg;
  cfg.grid_size = 32;
  cfg.pixel_nm = 32.0;  // 32 px x 32 nm = the generator's 1024nm clip
  return cfg;
}

serve::ServeConfig fast_serve_config() {
  serve::ServeConfig cfg;
  cfg.engine.litho = fast_litho();
  cfg.dispatchers = 2;
  return cfg;
}

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

/// One trial: `count` FRESH sequential requests (globally unique seeds, so
/// neither server ever serves from cache); returns the trial's p95 latency.
double fresh_p95(serve::Server& server, std::uint64_t& next_seed, int count) {
  layout::LayoutGenerator generator;
  std::vector<double> latencies;
  latencies.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    serve::ServeRequest request;
    request.layout = generator.generate(next_seed++);
    const auto t0 = std::chrono::steady_clock::now();
    const serve::ServeResponse response =
        server.submit(std::move(request)).response.get();
    const auto t1 = std::chrono::steady_clock::now();
    if (response.status != serve::ServeStatus::kOk) {
      std::fprintf(stderr, "bench_flywheel: fresh run not kOk\n");
      std::exit(1);
    }
    latencies.push_back(std::chrono::duration<double>(t1 - t0).count());
  }
  std::sort(latencies.begin(), latencies.end());
  return percentile(latencies, 0.95);
}

}  // namespace

int main(int argc, char** argv) {
  runtime::apply_threads_flag(argc, argv);
  kernels::apply_backend_flag(argc, argv);
  set_log_level(LogLevel::Warn);

  const int trials = std::atoi(flag_value(argc, argv, "--trials", "9"));
  const int per_trial = std::atoi(flag_value(argc, argv, "--per-trial", "16"));
  const int corpus = std::atoi(flag_value(argc, argv, "--corpus", "24"));
  const std::string report_dir = flag_value(argc, argv, "--report-dir", ".");
  const std::string log_path = "ldmo_bench_flywheel.log";
  std::remove(log_path.c_str());

  // --- 1. capture-overhead drill -------------------------------------------
  std::uint64_t next_seed = 7000;
  serve::Server plain_server(fast_serve_config());

  auto overhead_sink = std::make_shared<flywheel::TrainingLogSink>(
      flywheel::SinkConfig{.path = log_path,
                           .image_size = 32,
                           .sample_every = 1,
                           .max_records = 0});
  serve::ServeConfig captured_cfg = fast_serve_config();
  captured_cfg.capture = overhead_sink;
  serve::Server captured_server(captured_cfg);

  // One unmeasured warmup pass each (thread pools, kernel dispatch, BN
  // statistics all settle), then interleaved measured trials.
  (void)fresh_p95(plain_server, next_seed, per_trial);
  (void)fresh_p95(captured_server, next_seed, per_trial);
  std::vector<double> plain_p95s, captured_p95s;
  for (int t = 0; t < trials; ++t) {
    plain_p95s.push_back(fresh_p95(plain_server, next_seed, per_trial));
    captured_p95s.push_back(fresh_p95(captured_server, next_seed, per_trial));
    std::printf("trial %d: p95 capture-off %.3fs  capture-on %.3fs\n", t + 1,
                plain_p95s.back(), captured_p95s.back());
  }
  overhead_sink->drain();
  std::sort(plain_p95s.begin(), plain_p95s.end());
  std::sort(captured_p95s.begin(), captured_p95s.end());
  const double base_p95 = plain_p95s[static_cast<std::size_t>(trials / 2)];
  const double cap_p95 = captured_p95s[static_cast<std::size_t>(trials / 2)];
  const double delta_pct = (cap_p95 - base_p95) / base_p95 * 100.0;
  const bool overhead_ok = delta_pct < 2.0;

  const std::string capture_path = report_dir + "/flywheel_capture.txt";
  if (std::FILE* f = std::fopen(capture_path.c_str(), "w")) {
    std::fprintf(f,
                 "# Flywheel capture overhead (ISSUE-10 acceptance)\n#\n"
                 "# Fresh-run p95 latency, training-log sink attached vs "
                 "absent.\n# Medians of %d interleaved trials x %d "
                 "all-distinct fresh runs\n# each, long-lived servers, "
                 "unmeasured warmup pass per server.\n#\n"
                 "# The sink's request-path cost is one sampling check and "
                 "a bounded\n# queue push of copies; rasterization and "
                 "file I/O run on its own\n# writer thread.\n\n",
                 trials, per_trial);
    std::fprintf(f, "capture-off p95 %.3fs  (min %.3f  max %.3f)\n", base_p95,
                 plain_p95s.front(), plain_p95s.back());
    std::fprintf(f, "capture-on  p95 %.3fs  (min %.3f  max %.3f)\n", cap_p95,
                 captured_p95s.front(), captured_p95s.back());
    std::fprintf(f, "delta: %+.2f%% (acceptance: < 2%%) -> %s\n", delta_pct,
                 overhead_ok ? "PASS" : "FAIL");
    std::fprintf(f, "pairs captured during the drill: %lld, dropped: %lld\n",
                 overhead_sink->captured(), overhead_sink->dropped());
    std::fclose(f);
  }
  std::printf("capture overhead: p95 %.3fs -> %.3fs (%+.2f%%)\n", base_p95,
              cap_p95, delta_pct);

  // --- 2. recovery drill ---------------------------------------------------
  std::remove(log_path.c_str());
  const nn::ResNetConfig network = [] {
    nn::ResNetConfig cfg;
    cfg.input_size = 32;
    cfg.width_multiplier = 0.125;
    return cfg;
  }();

  auto sink = std::make_shared<flywheel::TrainingLogSink>(
      flywheel::SinkConfig{.path = log_path,
                           .image_size = 32,
                           .sample_every = 1,
                           .max_records = 0});
  serve::ServeConfig cfg = fast_serve_config();
  cfg.capture = sink;
  serve::Server server(
      cfg, std::make_unique<core::CnnPredictor>(
               std::make_unique<nn::ResNetRegressor>(network)));

  std::printf("serving %d fresh layouts to build the training log...\n",
              corpus);
  layout::LayoutGenerator generator;
  for (int i = 0; i < corpus; ++i) {
    serve::ServeRequest request;
    request.layout = generator.generate(8000 + static_cast<std::uint64_t>(i));
    const serve::ServeResponse response =
        server.submit(std::move(request)).response.get();
    if (response.status != serve::ServeStatus::kOk || response.degraded) {
      std::fprintf(stderr, "bench_flywheel: corpus run %d not clean\n", i);
      return 1;
    }
  }
  sink->drain();

  // Mistrain an incumbent on the captured pairs with INVERTED labels: its
  // held-out rank correlation lands deeply negative — the worst realistic
  // starting point for the flywheel.
  std::printf("mistraining the incumbent on inverted labels...\n");
  const flywheel::TrainingLog log = flywheel::read_training_log(log_path);
  nn::ResNetRegressor mistrained(network);
  {
    std::vector<double> scores;
    for (const flywheel::TrainingPair& pair : log.pairs)
      scores.push_back(pair.score);
    const double lo = *std::min_element(scores.begin(), scores.end());
    const double hi = *std::max_element(scores.begin(), scores.end());
    const double span = hi > lo ? hi - lo : 1.0;
    std::vector<nn::Example> inverted;
    for (const flywheel::TrainingPair& pair : log.pairs) {
      nn::Example example;
      example.image = nn::Tensor({1, 32, 32});
      std::copy(pair.image.begin(), pair.image.end(), example.image.data());
      example.label =
          static_cast<float>(1.0 - 2.0 * (pair.score - lo) / span);
      inverted.push_back(std::move(example));
    }
    nn::TrainerConfig tcfg;
    tcfg.epochs = 12;
    tcfg.batch_size = 6;
    tcfg.adam.learning_rate = 3e-3;
    nn::train_regressor(mistrained, inverted, tcfg);
  }
  const std::vector<std::uint8_t> mistrained_blob =
      nn::encode_parameters(mistrained.parameters());

  // Deploy the mistrained model (versioned v0) and point the tuner at it.
  server.swap_backend(core::versioned_cnn(mistrained_blob, 0, network));

  flywheel::TunerConfig tcfg;
  tcfg.log_path = log_path;
  tcfg.network = network;
  tcfg.trainer.epochs = 8;
  tcfg.trainer.batch_size = 6;
  tcfg.trainer.adam.learning_rate = 3e-3;
  tcfg.min_new_records = static_cast<std::size_t>(corpus);
  tcfg.holdout_every = 4;
  tcfg.poll_interval_ms = 50;
  flywheel::FineTuner tuner(tcfg, flywheel::local_promoter(server, network));
  tuner.set_incumbent(mistrained_blob);

  // The flywheel round runs while the server keeps taking traffic — the
  // drill's availability clause: the swap must cost zero failed requests.
  std::printf("running the flywheel round during live traffic...\n");
  const long long failed_before =
      server.status_count(serve::ServeStatus::kFailed);
  std::atomic<bool> done{false};
  std::atomic<long long> traffic_served{0};
  std::thread traffic([&] {
    std::uint64_t traffic_seed = 9000;
    layout::LayoutGenerator traffic_generator;
    while (!done.load()) {
      serve::ServeRequest request;
      request.layout = traffic_generator.generate(traffic_seed++);
      (void)server.submit(std::move(request)).response.get();
      traffic_served.fetch_add(1);
    }
  });
  const flywheel::TuneRound round = tuner.run_once();
  done.store(true);
  traffic.join();
  const long long failed_during =
      server.status_count(serve::ServeStatus::kFailed) - failed_before;

  const bool promoted = round.promoted && tuner.promotions() > 0;
  const bool recovered = round.candidate_corr > round.incumbent_corr;
  const std::string recovery_path = report_dir + "/flywheel_recovery.txt";
  if (std::FILE* f = std::fopen(recovery_path.c_str(), "w")) {
    std::fprintf(f,
                 "# Flywheel recovery drill (ISSUE-10 acceptance)\n#\n"
                 "# A CNN predictor mistrained on inverted labels serves "
                 "live traffic;\n# the capture sink logs %d (decomposition "
                 "image, actual ILT score)\n# pairs; the background "
                 "fine-tuner fires a gated round and promotes\n# the "
                 "recovered candidate through Server::swap_backend."
                 "\n\n",
                 corpus);
    std::fprintf(f,
                 "training log: %zu pairs (%zu train / %zu held out per "
                 "round)\n",
                 round.records, round.train_count, round.holdout_count);
    std::fprintf(f, "held-out rank correlation: incumbent %+.3f -> "
                 "candidate %+.3f\n",
                 round.incumbent_corr, round.candidate_corr);
    std::fprintf(f, "promotions: %lld (version v%llu)\n", tuner.promotions(),
                 static_cast<unsigned long long>(tuner.version()));
    std::fprintf(f, "live predictor after the drill: %s\n",
                 server.predictor_name().c_str());
    std::fprintf(f, "backend swaps observed by the server: %lld\n",
                 server.backend_swaps());
    std::fprintf(f,
                 "requests served while the round ran: %lld, failed: %lld\n",
                 traffic_served.load(), failed_during);
    std::fprintf(f, "ACCEPTANCE %s\n",
                 (promoted && recovered && failed_during == 0) ? "PASS"
                                                               : "FAIL");
    std::fclose(f);
  }

  std::printf("recovery: promoted=%s corr %+.3f -> %+.3f live=%s "
              "failed-during=%lld\n",
              promoted ? "yes" : "NO", round.incumbent_corr,
              round.candidate_corr, server.predictor_name().c_str(),
              failed_during);
  std::remove(log_path.c_str());

  const bool pass = overhead_ok && promoted && recovered &&
                    failed_during == 0;
  std::printf("SHAPE flywheel_acceptance=%s\n", pass ? "pass" : "FAIL");
  return pass ? 0 : 1;
}
