// cluster_warm_64: two net::ServeDaemon workers behind the consistent-hash
// net::Router over loopback, driven closed-loop by one net::Client
// connection. Every request draws from a working set whose result caches
// were filled through the router during set-up, so the timed phase is all
// cache reads through the wire: framing, encode/decode of ~100 KB results,
// the per-shard router lock and the serve read path — no ILT.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <random>
#include <stdexcept>
#include <thread>

#include "layout/fingerprint.h"
#include "net/client.h"
#include "net/daemon.h"
#include "net/router.h"
#include "probes.h"
#include "runtime/thread_pool.h"
#include "workloads.h"

namespace perfbench {

using namespace ldmo;

namespace {

constexpr int kWorkers = 2;
constexpr int kWorkingSet = 16;  ///< quality clips + seeded clips
constexpr std::uint64_t kStream = 5;
/// Window over which the timed phase is summarised (see report_windows).
constexpr double kWindowSeconds = 1.0;

serve::ServeConfig worker_config() {
  serve::ServeConfig cfg;
  cfg.engine.litho = litho_64();
  cfg.dispatchers = 2;
  cfg.queue_capacity = 256;
  cfg.overflow = serve::OverflowPolicy::kBlock;
  return cfg;
}

struct Pass {
  std::vector<double> started;    ///< request start, seconds into the pass
  std::vector<double> latencies;  ///< client send -> response decoded
  /// Request preparation plus latency: the client's time per request,
  /// output checks excluded.
  std::vector<double> busy;
  std::vector<double> router_overhead;  ///< client latency - worker total
  ServeSamples serve;                    ///< worker-side split per request
  long long completed = 0;
  long long failed = 0;
  double wall = 0.0;
  double throughput = 0.0;  ///< completed / (wall - output-check time)
};

/// Closed loop over one connection: the next request goes out when the
/// previous one returns, on a layout drawn uniformly from the working set.
/// One request at a time keeps the client, router, daemon and dispatcher
/// threads of the request path to about one busy core: with four
/// connections the threads outnumbered the cores of a 4-core host,
/// requests waited on the two per-shard router locks, and latency (3.5 ms
/// instead of 1.8 ms) and its spread followed the host's scheduler. (The
/// set-up cache fill uses min(4, nproc) connections.) Each response is
/// checked against its set-up reference right after its latency is taken;
/// the check time is excluded from the client's time.
Pass run_pass(int port, double seconds, std::uint64_t seed,
              const std::vector<layout::Layout>& working_set,
              const std::vector<serve::ServeResponse>& reference,
              bool corrupt) {
  Pass pass;
  net::ClientConfig client_cfg;
  client_cfg.port = port;
  net::Client client(client_cfg);
  std::mt19937_64 rng(seed * 1000003u);
  std::uniform_int_distribution<std::size_t> pick(0, working_set.size() - 1);
  double check_seconds = 0.0;
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  Clock::time_point ready = t0;  ///< end of the previous output check
  for (std::uint64_t sent = 1; Clock::now() < deadline; ++sent) {
    const std::size_t index = pick(rng);
    serve::ServeRequest request;
    request.layout = working_set[index];
    const Clock::time_point r0 = Clock::now();
    serve::ServeResponse response;
    bool transport_ok = true;
    try {
      response = client.submit(request);
    } catch (const std::exception&) {
      transport_ok = false;
    }
    const Clock::time_point r1 = Clock::now();
    const double latency = seconds_between(r0, r1);
    if (recorder().enabled()) {
      const std::string id = std::to_string(sent);
      recorder().span("net.Client.submit", "net", r0, r1, 10,
                      {{"request", id},
                       {"clip", working_set[index].name},
                       {"status", transport_ok
                                      ? serve::status_name(response.status)
                                      : "transport_error"}});
      if (transport_ok) {
        const auto dur = std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(
                (latency - response.total_seconds) / 2));
        recorder().span("worker", "serve", r0 + dur, r1 - dur, 10,
                        {{"request", id}, {"derived", "centered"}});
      }
    }
    // Output check, outside the client's timed interval.
    bool ok = transport_ok && response.status == serve::ServeStatus::kCached;
    if (ok && corrupt) {
      corrupt_result(response.result);
      corrupt = false;
    }
    if (ok) ok = identical_results(response.result, reference[index].result);
    if (!ok) {
      report_failure(std::string("routed ") + working_set[index].name + ": " +
                     (transport_ok ? serve::status_name(response.status)
                                   : "transport error") +
                     (transport_ok &&
                              response.status == serve::ServeStatus::kCached
                          ? " differs from the first computed result"
                          : ""));
      ++pass.failed;
    } else {
      ++pass.completed;
      pass.started.push_back(seconds_between(t0, r0));
      pass.latencies.push_back(latency);
      pass.busy.push_back(seconds_between(ready, r1));
      pass.router_overhead.push_back(latency - response.total_seconds);
      pass.serve.add(response, latency);
    }
    ready = Clock::now();
    check_seconds += seconds_between(r1, ready);
  }
  pass.wall = seconds_since(t0);
  pass.throughput = safe_ratio(static_cast<double>(pass.completed),
                               pass.wall - check_seconds);
  return pass;
}

/// The run's end-to-end figures as medians over its windows: requests are
/// binned by start time into kWindowSeconds windows, each window gives its
/// throughput (requests over the client time they took), p50 and tail
/// (summarize()), and the run reports the median of each. A host stall of
/// a few seconds then moves a few windows, not the figures: over the
/// pooled sample, stalls lifted one run's p95 to 3.5 ms against a median
/// of 2.1 ms over ten seeds.
void report_windows(Outcome& out, const Pass& pass) {
  std::vector<std::vector<double>> latency, busy;
  for (std::size_t i = 0; i < pass.started.size(); ++i) {
    const std::size_t w =
        static_cast<std::size_t>(pass.started[i] / kWindowSeconds);
    if (w >= latency.size()) {
      latency.resize(w + 1);
      busy.resize(w + 1);
    }
    latency[w].push_back(pass.latencies[i]);
    busy[w].push_back(pass.busy[i]);
  }
  std::vector<double> throughput, p50, tail, tail_percentile;
  for (std::size_t w = 0; w < latency.size(); ++w) {
    if (latency[w].empty()) continue;
    double time = 0.0;
    for (const double b : busy[w]) time += b;
    throughput.push_back(
        safe_ratio(static_cast<double>(latency[w].size()), time));
    const LatencySummary s = summarize(latency[w]);
    p50.push_back(s.p50);
    tail.push_back(s.tail);
    tail_percentile.push_back(s.tail_percentile);
  }
  out.end_to_end.set("throughput", percentile(throughput, 0.5), "1/s");
  out.end_to_end.set("latency_p50_s", percentile(p50, 0.5), "s");
  out.end_to_end.set("latency_tail_s", percentile(tail, 0.5), "s");
  out.note("windows", static_cast<double>(throughput.size()));
  out.note("window_s", kWindowSeconds);
  out.note("latency_samples", static_cast<double>(pass.latencies.size()));
  out.note("latency_tail_percentile", percentile(tail_percentile, 0.5));
  out.note("pooled_throughput_rps", pass.throughput);
  const LatencySummary pooled = summarize(pass.latencies);
  out.note("pooled_latency_p50_s", pooled.p50);
  out.note("pooled_latency_tail_s", pooled.tail);
  out.note("latency_p99_s", percentile(pass.latencies, 0.99));
}

/// The quality clips, then seeded clips taken only while their owning shard
/// holds fewer than its share: both workers own equally many clips of the
/// working set under every seed, so the per-shard router locks see the
/// same load and the seed moves only the clips, not the balance.
std::vector<layout::Layout> balanced_working_set(std::uint64_t seed,
                                                 const net::Router& router,
                                                 std::uint64_t config_fp) {
  const auto owner = [&](const layout::Layout& l) {
    return router.ring().lookup(
        net::HashRing::route_key(config_fp, layout::fingerprint(l)));
  };
  std::vector<layout::Layout> set = quality_clips();
  std::map<int, int> owned;
  for (const layout::Layout& l : set) ++owned[owner(l)];
  int share = kWorkingSet / kWorkers;
  for (const auto& [port, count] : owned) share = std::max(share, count);
  const std::vector<layout::Layout> pool = make_clips(seed, kStream, 256);
  for (const layout::Layout& l : pool) {
    if (static_cast<int>(set.size()) >= share * kWorkers) break;
    int& count = owned[owner(l)];
    if (count < share) {
      ++count;
      set.push_back(l);
    }
  }
  return set;
}

}  // namespace

Outcome run_cluster_warm(const Options& options, Clock::time_point start) {
  Outcome out;
  const std::string weights = options.work_dir + "/predictor.weights";
  const TrainedPredictor trained = train_predictor(weights);
  std::vector<std::unique_ptr<net::ServeDaemon>> workers;
  net::RouterConfig router_cfg;
  for (int w = 0; w < kWorkers; ++w) {
    net::DaemonConfig daemon_cfg;
    daemon_cfg.serve = worker_config();
    daemon_cfg.weights_path = weights;
    // The snapshot path also keeps the daemon's weight staging inside the
    // work directory; a stale snapshot from an earlier run is removed so
    // the caches start cold.
    daemon_cfg.snapshot_path =
        options.work_dir + "/worker" + std::to_string(w) + ".snapshot";
    std::filesystem::remove(daemon_cfg.snapshot_path);
    workers.push_back(std::make_unique<net::ServeDaemon>(daemon_cfg));
    router_cfg.worker_ports.push_back(workers.back()->port());
  }
  net::Router router(router_cfg);

  // Cache fill through the router: the first computed result per layout is
  // the reference every routed read must match byte for byte.
  const std::vector<layout::Layout> working_set = balanced_working_set(
      options.seed, router, workers.front()->server()->config_fingerprint());
  std::vector<serve::ServeResponse> reference(working_set.size());
  {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> fillers;
    for (int c = 0; c < std::min(4, runtime::hardware_threads()); ++c)
      fillers.emplace_back([&] {
        net::ClientConfig client_cfg;
        client_cfg.port = router.port();
        net::Client client(client_cfg);
        for (std::size_t i = next++; i < working_set.size(); i = next++) {
          serve::ServeRequest request;
          request.layout = working_set[i];
          try {
            reference[i] = client.submit(request);
          } catch (const std::exception&) {
            // Left as a non-ok response: the fill check below counts it.
          }
        }
      });
    for (std::thread& t : fillers) t.join();
  }
  out.setup_seconds = seconds_since(start);
  out.weights_digest = trained.digest;

  const litho::LithoSimulator simulator(litho_64());
  long long failed = 0;
  for (std::size_t i = 0; i < reference.size(); ++i)
    if (reference[i].status != serve::ServeStatus::kOk ||
        !check_printed_result(simulator, working_set[i], reference[i].result,
                              "fill " + working_set[i].name))
      ++failed;

  Pass pass;
  if (!options.setup_only) {
    if (!options.trace) {
      pass = run_pass(router.port(), options.seconds, options.seed,
                      working_set, reference, options.corrupt);
    } else {
      const Pass untraced =
          run_pass(router.port(), options.seconds / 2, options.seed,
                   working_set, reference, false);
      recorder().enable(options.workload);
      const LayerInterval interval;
      pass = run_pass(router.port(), options.seconds / 2, options.seed,
                      working_set, reference, options.corrupt);
      const double requests =
          static_cast<double>(pass.completed + pass.failed);
      const CounterDelta& counters = interval.counters();
      interval.finish(out, requests, 0, 0, 0, 0);
      serve_layer_metrics(out, counters, pass.serve);
      out.per_layer.set("net.router_overhead_p50_s",
                        percentile(pass.router_overhead, 0.5), "s");
      out.per_layer.set(
          "net.bytes_per_request",
          safe_ratio(counters.counter("net.frame.bytes_sent"), requests),
          "B");
      out.per_layer.set(
          "net.frames_per_request",
          safe_ratio(counters.counter("net.frame.writes"), requests),
          "count");
      out.per_layer.set(
          "net.connects_per_request",
          safe_ratio(counters.counter("net.connect.ok"), requests), "count");
      const std::vector<double> shards =
          counters.matching("net.router.shard.", ".forwarded");
      if (shards.size() != static_cast<std::size_t>(kWorkers))
        throw std::runtime_error("the router exports " +
                                 std::to_string(shards.size()) +
                                 " shard forward counters, not " +
                                 std::to_string(kWorkers));
      out.per_layer.set(
          "net.shard_balance",
          safe_ratio(*std::max_element(shards.begin(), shards.end()),
                     mean_of(shards)),
          "ratio");
      out.per_layer.set("net.retries",
                        counters.counter_or_zero("net.client.retries"),
                        "count");
      out.per_layer.set("net.failovers",
                        counters.counter_or_zero("net.router.failovers"),
                        "count");
      out.per_layer.set("obs.trace_overhead_ratio",
                        safe_ratio(untraced.throughput, pass.throughput),
                        "ratio");
    }
  }
  router.stop();
  for (auto& worker : workers) worker->stop();
  if (options.setup_only) return out;

  const long long attempted = static_cast<long long>(reference.size()) +
                             pass.completed + pass.failed;
  failed += pass.failed;
  std::vector<double> scores;
  for (int q = 0; q < kQualityClips; ++q)
    if (reference[static_cast<std::size_t>(q)].ok())
      scores.push_back(
          reference[static_cast<std::size_t>(q)].result.ilt.report.score());
  report_windows(out, pass);
  out.end_to_end.set("mean_score", mean_of(scores), "score");
  finish_counts(out, attempted, failed);
  out.note("clients", 1.0);
  out.note("working_set", static_cast<double>(working_set.size()));

  if (options.trace) {
    ProbeInputs probes;
    probes.engine.litho = litho_64();
    probes.weights_path = weights;
    probes.clips.assign(working_set.begin(), working_set.begin() + 3);
    probes.sample = reference.front();
    run_layer_probes(probes, out);
  }
  return out;
}

}  // namespace perfbench
