// serve_mixed_64: in-process serve::Server at the 64-px serving model (two
// dispatchers, result/score caches and the inference batcher on), driven
// open-loop by one generator thread on a seeded Poisson schedule at a fixed
// rate. Nine requests in ten repeat a small hot set whose results were
// cached during set-up (result-cache reads); the rest are new clips
// (compute plus cache writes). Hits and misses queue in the same FIFO, so
// p50 follows the read path and the tail follows the compute path. Each
// request is timed from when it was due.
#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <thread>

#include "probes.h"
#include "serve/server.h"
#include "workloads.h"

namespace perfbench {

using namespace ldmo;

namespace {

/// Nine requests in ten repeat one of the 6 hot layouts of
/// bench/bench_serve (which repeats three in four); one in ten is new.
/// A hit that arrives while a new clip is computing shares the cores with
/// the ILT pool and takes about ten times longer than one that finds them
/// free. p50 must sit well inside the free-core hits: at three hits in
/// four, new clips kept the cores busy 37% of the time and p50 was the
/// hit at the 67th percentile of hits, so a host that ran slower flipped
/// it from 0.15 ms to 0.5 ms. At nine in ten, p50 is the hit at the 56th
/// percentile, and stays a free-core hit until the cores are busy 44% of
/// the time (three times today's share).
constexpr double kHotShare = 0.9;
constexpr int kHotClips = 6;
/// Offered load. New clips arrive at kRate * (1 - kHotShare) = 1 req/s,
/// under a tenth of the server's capacity on new clips alone (13 req/s on
/// a 4-core AVX-512 host; `miss_capacity_rps` in the details line
/// re-measures it), so two computes seldom overlap. The tail (ten
/// samples beyond it) is then the eleventh-slowest new clip.
constexpr double kRate = 10.0;
/// How long before each due time the generator stops sleeping and spins.
constexpr std::chrono::microseconds kSpin{300};
constexpr std::uint64_t kHotStream = 2;
constexpr std::uint64_t kMissStream = 3;
constexpr std::uint64_t kTracedMissStream = 4;
/// New clips come from a fixed corpus, sent in a seeded order: with about
/// a few dozen new clips per run, the latency quantiles moved by ±10% with the
/// clips drawn, which hid everything else. The seed still sets the arrival
/// times, the order of the new clips and the hot picks.
constexpr std::uint64_t kCorpusSeed = 0;

serve::ServeConfig serve_config() {
  serve::ServeConfig cfg;
  cfg.engine.litho = litho_64();
  cfg.dispatchers = 2;
  cfg.queue_capacity = 256;
  cfg.overflow = serve::OverflowPolicy::kReject;
  cfg.batcher.enabled = true;
  cfg.result_cache.enabled = true;
  cfg.score_cache.enabled = true;
  return cfg;
}

struct Planned {
  double due = 0.0;       ///< seconds after the pass start
  int hot = -1;           ///< hot-set index, or -1 for a new clip
  std::size_t miss = 0;   ///< index into the miss clips when hot < 0
};

int planned_requests(double seconds) {
  return std::max(1, static_cast<int>(std::lround(kRate * seconds)));
}

int planned_hot(int requests) {
  return static_cast<int>(std::lround(kHotShare * requests));
}

/// Arrival times of one Poisson stream of `count` requests over `seconds`.
/// The gaps are the exponential distribution's quantiles at (i + 0.5) /
/// count, in a seeded order, scaled to fill the pass: every seed offers the
/// same mix of gaps, and the seed sets which requests bunch up. With fifty
/// new clips a run, independently drawn gaps moved how often computes
/// overlapped, and the tail's quartile spread over five seeds was 25%.
std::vector<double> arrivals(int count, double seconds, std::mt19937_64& rng) {
  std::vector<double> gaps(static_cast<std::size_t>(count));
  double total = 0.0;
  for (int i = 0; i < count; ++i) {
    gaps[static_cast<std::size_t>(i)] = -std::log(1.0 - (i + 0.5) / count);
    total += gaps[static_cast<std::size_t>(i)];
  }
  std::shuffle(gaps.begin(), gaps.end(), rng);
  std::vector<double> at;
  double t = 0.0;
  for (const double gap : gaps) at.push_back(t += gap * seconds / total);
  return at;
}

/// kRate * seconds requests: a hot stream of exactly kHotShare of them,
/// each on a seeded pick of the hot set, merged with a stream of new clips
/// (the first (1 - kHotShare) share of the corpus, in a seeded order).
std::vector<Planned> plan(std::uint64_t seed, double seconds) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 17);
  const int n = planned_requests(seconds);
  const int hot = planned_hot(n);
  std::vector<Planned> out;
  std::uniform_int_distribution<int> pick(0, kHotClips - 1);
  for (const double due : arrivals(hot, seconds, rng))
    out.push_back({due, pick(rng), 0});
  std::vector<std::size_t> order(static_cast<std::size_t>(n - hot));
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng);
  const std::vector<double> miss_due = arrivals(n - hot, seconds, rng);
  for (std::size_t i = 0; i < order.size(); ++i)
    out.push_back({miss_due[i], -1, order[i]});
  std::stable_sort(out.begin(), out.end(),
                   [](const Planned& a, const Planned& b) {
                     return a.due < b.due;
                   });
  return out;
}

struct Pass {
  std::vector<Planned> schedule;
  const std::vector<layout::Layout>* misses = nullptr;
  std::vector<serve::ServeResponse> responses;
  std::vector<double> latencies;  ///< due -> terminal state
  std::vector<double> lateness;   ///< due -> submit
  double wall = 0.0;              ///< pass start -> last terminal state
  double queue_depth_max = 0.0;
};

Pass run_pass(serve::Server& server, const std::vector<layout::Layout>& hot,
              const std::vector<layout::Layout>& misses,
              std::vector<Planned> schedule) {
  Pass pass;
  pass.schedule = std::move(schedule);
  pass.misses = &misses;
  const std::size_t n = pass.schedule.size();
  std::vector<serve::RequestTicket> tickets(n);
  std::vector<Clock::time_point> submitted(n);
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    const Planned& p = pass.schedule[i];
    const Clock::time_point due =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(p.due));
    serve::ServeRequest request;
    request.layout = p.hot >= 0 ? hot[static_cast<std::size_t>(p.hot)]
                                : misses[p.miss];
    // Sleep to just short of the due time, then spin: a plain sleep woke
    // about 0.15 ms late, as long as the cache read it was timing.
    std::this_thread::sleep_until(due - kSpin);
    while (Clock::now() < due) {
    }
    submitted[i] = Clock::now();
    tickets[i] = server.submit(std::move(request));
    pass.queue_depth_max = std::max(
        pass.queue_depth_max, static_cast<double>(server.queue_depth()));
    pass.lateness.push_back(seconds_between(due, submitted[i]));
  }
  Clock::time_point last = t0;
  for (std::size_t i = 0; i < n; ++i) {
    serve::ServeResponse r = tickets[i].response.get();
    const Clock::time_point done =
        submitted[i] + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(r.total_seconds));
    last = std::max(last, done);
    pass.latencies.push_back(pass.lateness[i] + r.total_seconds);
    if (recorder().enabled()) {
      const Clock::time_point due = submitted[i] -
          std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double>(pass.lateness[i]));
      const std::string id = std::to_string(r.request_id);
      const std::string clip = pass.schedule[i].hot >= 0
                                   ? hot[static_cast<std::size_t>(
                                             pass.schedule[i].hot)].name
                                   : misses[pass.schedule[i].miss].name;
      const int tid = static_cast<int>(i % 8);
      recorder().span("serve.Server.submit", "serve", due, done, tid,
                      {{"request", id},
                       {"clip", clip},
                       {"status", serve::status_name(r.status)}});
      const Clock::time_point dispatched =
          submitted[i] + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(r.queue_seconds));
      recorder().span("serve.queue", "serve", submitted[i], dispatched, tid,
                      {{"request", id}, {"clip", clip}});
      recorder().span("serve.service", "serve", dispatched, done, tid,
                      {{"request", id}, {"clip", clip}});
    }
    pass.responses.push_back(std::move(r));
  }
  pass.wall = seconds_between(t0, last);
  return pass;
}

}  // namespace

Outcome run_serve_mixed(const Options& options, Clock::time_point start) {
  Outcome out;
  const std::string weights = options.work_dir + "/predictor.weights";
  const TrainedPredictor trained = train_predictor(weights);
  const serve::ServeConfig cfg = serve_config();
  serve::Server server(cfg, load_predictor(weights));
  const std::vector<layout::Layout> hot =
      make_clips(options.seed, kHotStream, kHotClips);
  // Cache fill: the first computed result per hot layout is the reference
  // every later hit must match byte for byte.
  std::vector<serve::RequestTicket> fill;
  for (const layout::Layout& l : hot) {
    serve::ServeRequest request;
    request.layout = l;
    fill.push_back(server.submit(std::move(request)));
  }
  std::vector<serve::ServeResponse> reference;
  for (serve::RequestTicket& t : fill) reference.push_back(t.response.get());
  out.setup_seconds = seconds_since(start);
  out.weights_digest = trained.digest;

  const litho::LithoSimulator simulator(cfg.engine.litho);
  long long failed = 0;
  for (std::size_t h = 0; h < reference.size(); ++h)
    if (reference[h].status != serve::ServeStatus::kOk ||
        !check_printed_result(simulator, hot[h], reference[h].result,
                              "hot " + hot[h].name))
      ++failed;
  if (options.setup_only) {
    server.shutdown();
    return out;
  }

  const int requests = planned_requests(options.seconds);
  const int new_clips = requests - planned_hot(requests);
  const std::vector<layout::Layout> misses =
      with_quality_clips(make_clips(kCorpusSeed, kMissStream, new_clips));
  const std::vector<layout::Layout> traced_misses =
      options.trace ? make_clips(kCorpusSeed, kTracedMissStream, new_clips)
                    : std::vector<layout::Layout>{};
  Pass pass;
  if (!options.trace) {
    pass = run_pass(server, hot, misses, plan(options.seed, options.seconds));
  } else {
    // Untraced half, then a traced half on the same schedule with fresh
    // miss clips (the first half's misses are cached by now).
    const double half = options.seconds / 2;
    const Pass untraced =
        run_pass(server, hot, misses, plan(options.seed, half));
    recorder().enable(options.workload);
    const LayerInterval interval;
    pass = run_pass(server, hot, traced_misses, plan(options.seed, half));
    double ilt = 0, predict = 0, flow = 0, winning = 0, units = 0;
    for (const serve::ServeResponse& r : pass.responses) {
      if (!r.ok()) continue;
      units += 1;
      if (r.status != serve::ServeStatus::kOk) continue;
      ilt += r.result.timing.get("ilt");
      predict += r.result.timing.get("predict");
      flow += r.result.total_seconds;
      winning += r.result.ilt.iterations_run;
    }
    interval.finish(out, units, ilt, predict, flow, winning);
    ServeSamples samples;
    for (std::size_t i = 0; i < pass.responses.size(); ++i)
      if (pass.responses[i].ok())
        samples.add(pass.responses[i], pass.latencies[i]);
    samples.queue_depth_max = pass.queue_depth_max;
    serve_layer_metrics(out, interval.counters(), samples);
    out.per_layer.set("loadgen.lateness_p99_s",
                      percentile(pass.lateness, 0.99), "s");
    out.per_layer.set(
        "obs.trace_overhead_ratio",
        safe_ratio(mean_of(pass.latencies), mean_of(untraced.latencies)),
        "ratio");
  }
  server.shutdown();

  // Output checks, outside the timed interval.
  if (options.corrupt)
    for (serve::ServeResponse& r : pass.responses)
      if (r.status == serve::ServeStatus::kCached) {
        corrupt_result(r.result);
        break;
      }
  std::vector<double> latencies, scores, hit_service, miss_service;
  double service = 0.0;
  for (std::size_t i = 0; i < pass.responses.size(); ++i) {
    const serve::ServeResponse& r = pass.responses[i];
    const Planned& p = pass.schedule[i];
    bool ok = r.ok();
    if (!ok) {
      report_failure(std::string("request ") + std::to_string(r.request_id) +
               ": status " + serve::status_name(r.status));
    } else if (p.hot >= 0) {
      // Cached reads must be byte-identical to the set-up computation.
      const std::size_t h = static_cast<std::size_t>(p.hot);
      ok = identical_results(r.result, reference[h].result);
      if (!ok) report_failure("hot " + hot[h].name + ": cached result differs");
    } else {
      const layout::Layout& clip = (*pass.misses)[p.miss];
      ok = check_printed_result(simulator, clip, r.result, clip.name);
    }
    if (!ok) {
      ++failed;
      continue;
    }
    latencies.push_back(pass.latencies[i]);
    service += r.service_seconds;
    (p.hot >= 0 ? hit_service : miss_service).push_back(r.service_seconds);
    if (p.hot < 0 && p.miss < kQualityClips && pass.misses == &misses)
      scores.push_back(r.result.ilt.report.score());
  }
  // Open loop: completions per wall second equal the offered rate whatever
  // the server does. Throughput is the server's capacity on this mix
  // instead: completed requests per second of dispatcher time, with each
  // kind of request charged its median service time. About twenty new
  // clips carry nearly all the service time of a run, and summed times
  // followed the few computes that met a slow phase of the host (quartile
  // spread 20% over five seeds).
  const double dispatchers = static_cast<double>(cfg.dispatchers);
  const double completed = static_cast<double>(latencies.size());
  const double median_service =
      static_cast<double>(hit_service.size()) * percentile(hit_service, 0.5) +
      static_cast<double>(miss_service.size()) *
          percentile(miss_service, 0.5);
  out.end_to_end.set("throughput",
                     safe_ratio(completed, median_service / dispatchers),
                     "1/s");
  report_latency(out, latencies);
  out.end_to_end.set("mean_score", mean_of(scores), "score");
  finish_counts(out, static_cast<long long>(pass.responses.size()) +
                         static_cast<long long>(reference.size()),
                failed);
  out.note("throughput_basis",
           "completed / (sum over hits and new clips of count * median "
           "service_seconds / dispatchers)");
  out.note("summed_service_capacity_rps",
           safe_ratio(completed, service / dispatchers));
  out.note("completed_rate_rps", safe_ratio(completed, pass.wall));
  out.note("miss_capacity_rps",
           safe_ratio(dispatchers, percentile(miss_service, 0.5)));
  out.note("offered_rate_rps", kRate);
  out.note("hot_share", kHotShare);
  out.note("lateness_p99_s", percentile(pass.lateness, 0.99));
  out.note("queue_depth_max", pass.queue_depth_max);
  out.note("quality_clips_scored", static_cast<double>(scores.size()));

  if (options.trace) {
    ProbeInputs probes;
    probes.engine = cfg.engine;
    probes.weights_path = weights;
    probes.clips.assign(misses.begin(),
                        misses.begin() + std::min<std::size_t>(3, misses.size()));
    run_layer_probes(probes, out);
  }
  return out;
}

}  // namespace perfbench
