// Live-telemetry tests: OpenMetrics exposition format, snapshot
// differencing, histogram quantiles, the sliding-window sampler, the
// flight recorder (including wraparound and concurrent recording), Chrome
// trace export, and the HTTP admin endpoint — /metrics scrape format, the
// /healthz fault-drill flip-and-recover, and a concurrent
// scrape-during-traffic smoke (the TSan payload of the "sanitize" label).
//
// Flow-running tests use the 32-pixel serving-tier lithography model, so a
// full request is tens of milliseconds.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/failpoint.h"
#include "layout/generator.h"
#include "net/socket.h"
#include "obs/exporter.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace_export.h"
#include "obs/window.h"
#include "serve/admin.h"
#include "serve/server.h"

namespace ldmo {
namespace {

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

serve::ServeConfig admin_config(double interval = 0.05,
                                std::size_t capacity = 4) {
  serve::ServeConfig cfg = fast_serve_config();
  cfg.admin.enabled = true;
  cfg.admin.port = 0;  // kernel-assigned ephemeral port
  cfg.admin.window_interval_seconds = interval;
  cfg.admin.window_capacity = capacity;
  return cfg;
}

layout::Layout test_layout(std::uint64_t seed) {
  return layout::LayoutGenerator().generate(seed);
}

serve::ServeResponse submit_one(serve::Server& server, std::uint64_t seed) {
  serve::ServeRequest request;
  request.layout = test_layout(seed);
  return server.submit(std::move(request)).response.get();
}

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fail::disarm_all();
    obs::registry().reset();
    obs::tracer().clear();
    obs::set_tracing_enabled(false);
  }
  void TearDown() override {
    fail::disarm_all();
    obs::set_tracing_enabled(false);
    obs::tracer().clear();
  }
};

// --- HistogramSample::quantile ---

TEST_F(TelemetryTest, QuantileOfEmptyHistogramIsZero) {
  obs::HistogramSample h;
  h.bounds = {1.0, 2.0};
  h.buckets = {0, 0, 0};
  h.count = 0;
  EXPECT_EQ(h.quantile(0.0), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.quantile(1.0), 0.0);
}

TEST_F(TelemetryTest, QuantileInterpolatesLinearlyWithinBuckets) {
  // 4 observations uniformly in (0, 10], 4 in (10, 20].
  obs::HistogramSample h;
  h.bounds = {10.0, 20.0};
  h.buckets = {4, 4, 0};
  h.count = 8;
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 5.0);   // rank 2 of 4 into (0,10]
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 10.0);   // exactly the bucket edge
  EXPECT_DOUBLE_EQ(h.quantile(0.75), 15.0);  // rank 2 of 4 into (10,20]
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 20.0);
  // q is clamped to [0, 1].
  EXPECT_DOUBLE_EQ(h.quantile(-3.0), h.quantile(0.0));
  EXPECT_DOUBLE_EQ(h.quantile(7.0), h.quantile(1.0));
}

TEST_F(TelemetryTest, QuantileFirstBucketLowerEdgeIsZero) {
  obs::HistogramSample h;
  h.bounds = {1.0};
  h.buckets = {3, 0};
  h.count = 3;
  // rank 1.5 of 3 into (0, 1].
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.5);
}

TEST_F(TelemetryTest, QuantileOverflowClampsToLargestBound) {
  obs::HistogramSample h;
  h.bounds = {10.0, 20.0};
  h.buckets = {0, 0, 5};  // everything overflowed
  h.count = 5;
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 20.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 20.0);
}

// --- OpenMetrics exposition ---

TEST_F(TelemetryTest, OpenMetricsNameSanitization) {
  EXPECT_EQ(obs::openmetrics_name("serve.cache.hits"), "serve_cache_hits");
  EXPECT_EQ(obs::openmetrics_name("a:b_c9"), "a:b_c9");
  EXPECT_EQ(obs::openmetrics_name("weird-name/x"), "weird_name_x");
  EXPECT_EQ(obs::openmetrics_name("9starts.with.digit"),
            "_9starts_with_digit");
}

TEST_F(TelemetryTest, OpenMetricsGoldenDocument) {
  // A private registry keeps the golden compare independent of whatever
  // the process-wide registry has accumulated.
  obs::Registry reg;
  reg.counter("serve.cache.hits").inc(3);
  reg.gauge("serve.queue.depth").set(2.5);
  obs::Histogram& h = reg.histogram("serve.latency.seconds", {0.25, 1.0});
  h.observe(0.25);  // inclusive upper bound -> bucket 0
  h.observe(0.25);
  h.observe(0.5);
  h.observe(5.0);  // overflow
  const std::string expected =
      "# TYPE serve_cache_hits counter\n"
      "serve_cache_hits_total 3\n"
      "# TYPE serve_queue_depth gauge\n"
      "serve_queue_depth 2.5\n"
      "# TYPE serve_latency_seconds histogram\n"
      "serve_latency_seconds_bucket{le=\"0.25\"} 2\n"
      "serve_latency_seconds_bucket{le=\"1\"} 3\n"
      "serve_latency_seconds_bucket{le=\"+Inf\"} 4\n"
      "serve_latency_seconds_sum 6\n"
      "serve_latency_seconds_count 4\n"
      "# EOF\n";
  EXPECT_EQ(obs::to_openmetrics(reg.snapshot()), expected);
}

// --- snapshot differencing ---

TEST_F(TelemetryTest, SnapshotDeltaRatesAndResetRestart) {
  obs::Registry reg;
  reg.counter("req.ok").inc(10);
  reg.counter("req.failed").inc(2);
  reg.histogram("lat", {1.0}).observe(0.5);
  const obs::MetricsSnapshot older = reg.snapshot();

  reg.counter("req.ok").inc(30);
  reg.counter("req.failed").reset();  // counter restart
  reg.counter("req.failed").inc(1);
  reg.histogram("lat", {1.0}).observe(0.25);
  reg.histogram("lat", {1.0}).observe(2.0);
  const obs::MetricsSnapshot newer = reg.snapshot();

  const obs::SnapshotDelta delta = obs::diff_snapshots(newer, older, 10.0);
  EXPECT_DOUBLE_EQ(delta.rate("req.ok"), 3.0);
  // Shrunk counter is treated as reset-and-restarted: delta = newer value.
  EXPECT_EQ(delta.find_counter("req.failed")->delta, 1);
  EXPECT_DOUBLE_EQ(delta.rate_prefix("req."), 3.0 + 0.1);
  EXPECT_DOUBLE_EQ(delta.rate("req.missing"), 0.0);

  const obs::HistogramSample* lat = delta.find_histogram("lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count, 2);  // only the window's observations
  ASSERT_EQ(lat->buckets.size(), 2u);
  EXPECT_EQ(lat->buckets[0], 1);
  EXPECT_EQ(lat->buckets[1], 1);
}

TEST_F(TelemetryTest, HistogramDeltaMismatchedBoundsReturnsNewer) {
  obs::HistogramSample older;
  older.bounds = {1.0};
  older.buckets = {5, 0};
  older.count = 5;
  obs::HistogramSample newer;
  newer.bounds = {2.0};
  newer.buckets = {7, 0};
  newer.count = 7;
  const obs::HistogramSample d = obs::histogram_delta(newer, older);
  EXPECT_EQ(d.count, 7);  // no meaningful delta across a re-bucketing
  EXPECT_EQ(d.bounds, newer.bounds);
}

// --- WindowSampler (driven manually via sample_now) ---

TEST_F(TelemetryTest, WindowSamplerDeltasAndTrimming) {
  obs::Registry reg;
  obs::WindowConfig cfg;
  cfg.capacity = 2;  // window = 2 intervals = 3 retained snapshots
  int pre_sample_calls = 0;
  cfg.pre_sample = [&] { ++pre_sample_calls; };
  obs::WindowSampler window(cfg, &reg);

  EXPECT_EQ(window.samples(), 0u);
  EXPECT_DOUBLE_EQ(window.counter_rate("req.ok"), 0.0);

  window.sample_now();
  reg.counter("req.ok").inc(5);
  reg.counter("req.failed").inc(1);
  reg.gauge("queue.depth").set(3.0);
  reg.histogram("lat", {1.0, 10.0}).observe(0.5);
  window.sample_now();
  EXPECT_EQ(window.samples(), 2u);
  EXPECT_EQ(window.counter_delta("req.ok"), 5);
  EXPECT_EQ(window.counter_delta_prefix("req."), 6);
  EXPECT_DOUBLE_EQ(window.latest_gauge("queue.depth"), 3.0);
  // One observation in (0, 1]: the median interpolates inside it.
  EXPECT_DOUBLE_EQ(window.quantile("lat", 0.5), 0.5);
  EXPECT_EQ(pre_sample_calls, 2);

  // Old increments fall out as the ring slides past them.
  window.sample_now();
  window.sample_now();
  window.sample_now();
  EXPECT_EQ(window.samples(), 3u);  // capacity + 1, trimmed
  EXPECT_EQ(window.counter_delta("req.ok"), 0);
  EXPECT_EQ(window.timeline().size(), 2u);
}

TEST_F(TelemetryTest, WindowSamplerBackgroundThreadSamples) {
  obs::Registry reg;
  obs::WindowConfig cfg;
  cfg.interval_seconds = 0.02;
  cfg.capacity = 50;
  obs::WindowSampler window(cfg, &reg);
  // Pin one pre-increment snapshot as the window's oldest edge: the delta
  // below is newest-vs-oldest, so every background sample must sit after
  // the increment for it to count.
  window.sample_now();
  reg.counter("bg.ticks").inc(7);
  window.start();
  for (int i = 0; i < 250 && window.samples() < 3; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  window.stop();
  EXPECT_GE(window.samples(), 3u);
  EXPECT_EQ(window.counter_delta("bg.ticks"), 7);
  EXPECT_GT(window.window_seconds(), 0.0);
}

// --- flight recorder ---

TEST_F(TelemetryTest, FlightRecorderWrapsAroundKeepingNewest) {
  obs::FlightRecorder recorder(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    obs::FlightEvent event;
    event.id = i;
    event.set_status(i == 9 ? "failed" : "ok");
    recorder.record(event);
  }
  EXPECT_EQ(recorder.recorded(), 10u);
  const std::vector<obs::FlightEvent> events = recorder.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first: sequences 7..10 (1-based), ids 6..9.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].sequence, 7 + i);
    EXPECT_EQ(events[i].id, 6 + i);
  }
  EXPECT_STREQ(events.back().status, "failed");
}

TEST_F(TelemetryTest, FlightRecorderTruncatesTags) {
  obs::FlightEvent event;
  event.set_status("a-status-name-much-longer-than-the-buffer");
  event.set_error(std::string(500, 'x'));
  EXPECT_EQ(std::string(event.status).size(), sizeof event.status - 1);
  EXPECT_EQ(std::string(event.error).size(), sizeof event.error - 1);
}

TEST_F(TelemetryTest, FlightRecorderJsonRoundTrips) {
  obs::FlightRecorder recorder(8);
  obs::FlightEvent event;
  event.id = 42;
  event.total_seconds = 0.25;
  event.attempts = 2;
  event.degraded = true;
  event.set_status("failed");
  event.set_stage("ilt");
  event.set_error("boom \"quoted\"");
  recorder.record(event);

  const obs::JsonValue doc = obs::parse_json(recorder.to_json());
  EXPECT_EQ(doc.find("capacity")->number, 8.0);
  EXPECT_EQ(doc.find("recorded")->number, 1.0);
  const obs::JsonValue& e = doc.find("events")->array.at(0);
  EXPECT_EQ(e.find("id")->number, 42.0);
  EXPECT_EQ(e.find("status")->string, "failed");
  EXPECT_EQ(e.find("stage")->string, "ilt");
  EXPECT_EQ(e.find("error")->string, "boom \"quoted\"");
  EXPECT_EQ(e.find("attempts")->number, 2.0);
}

TEST_F(TelemetryTest, FlightRecorderConcurrentRecording) {
  constexpr int kThreads = 4;
  constexpr int kEach = 1000;
  obs::FlightRecorder recorder(64);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&recorder, t] {
      for (int i = 0; i < kEach; ++i) {
        obs::FlightEvent event;
        event.id = static_cast<std::uint64_t>(t) * kEach + i;
        event.set_status("ok");
        recorder.record(event);
      }
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(recorder.recorded(),
            static_cast<std::uint64_t>(kThreads) * kEach);
  const std::vector<obs::FlightEvent> events = recorder.snapshot();
  EXPECT_EQ(events.size(), 64u);
  for (const obs::FlightEvent& e : events) EXPECT_STREQ(e.status, "ok");
}

// --- Chrome trace export ---

TEST_F(TelemetryTest, ChromeTraceExportsSpanTree) {
  obs::set_tracing_enabled(true);
  {
    obs::Span root("request");
    root.attr("layout", std::string("T1"));
    root.attr("candidates", 3.0);
    { obs::Span child("ilt"); }
  }
  { obs::Span other("second_root"); }

  const obs::JsonValue doc =
      obs::parse_json(obs::to_chrome_trace(obs::tracer().snapshot()));
  EXPECT_EQ(doc.find("displayTimeUnit")->string, "ms");
  const obs::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), 3u);

  const obs::JsonValue* request = nullptr;
  const obs::JsonValue* ilt = nullptr;
  const obs::JsonValue* second = nullptr;
  for (const obs::JsonValue& e : events->array) {
    EXPECT_EQ(e.find("ph")->string, "X");
    if (e.find("name")->string == "request") request = &e;
    if (e.find("name")->string == "ilt") ilt = &e;
    if (e.find("name")->string == "second_root") second = &e;
  }
  ASSERT_NE(request, nullptr);
  ASSERT_NE(ilt, nullptr);
  ASSERT_NE(second, nullptr);
  // Roots start at t=0 on their own tracks; the child nests inside the
  // parent's duration on the parent's track.
  EXPECT_EQ(request->find("ts")->number, 0.0);
  EXPECT_EQ(second->find("ts")->number, 0.0);
  EXPECT_NE(request->find("tid")->number, second->find("tid")->number);
  EXPECT_EQ(ilt->find("tid")->number, request->find("tid")->number);
  EXPECT_LE(ilt->find("dur")->number, request->find("dur")->number);
  EXPECT_EQ(request->find("args")->find("layout")->string, "T1");
  EXPECT_EQ(request->find("args")->find("candidates")->number, 3.0);
}

// --- admin endpoint over real HTTP ---

TEST_F(TelemetryTest, AdminServesMetricsHealthVarzAndErrors) {
  serve::Server server(admin_config());
  ASSERT_GT(server.admin_port(), 0);
  EXPECT_EQ(submit_one(server, 100).status, serve::ServeStatus::kOk);

  const serve::HttpResponse metrics =
      serve::http_get(server.admin_port(), "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_EQ(metrics.content_type.rfind("text/plain", 0), 0u);
  EXPECT_NE(metrics.body.find("serve_requests_submitted_total"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("serve_latency_seconds_bucket"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("# EOF\n"), std::string::npos);

  const serve::HttpResponse healthz =
      serve::http_get(server.admin_port(), "/healthz");
  EXPECT_EQ(healthz.status, 200);
  const serve::HttpResponse readyz =
      serve::http_get(server.admin_port(), "/readyz");
  EXPECT_EQ(readyz.status, 200);

  const serve::HttpResponse varz =
      serve::http_get(server.admin_port(), "/varz");
  EXPECT_EQ(varz.status, 200);
  EXPECT_EQ(varz.content_type.rfind("application/json", 0), 0u);
  const obs::JsonValue doc = obs::parse_json(varz.body);
  ASSERT_TRUE(doc.is_object());
  EXPECT_NE(doc.find("serve"), nullptr);
  EXPECT_NE(doc.find("window"), nullptr);

  const serve::HttpResponse flight =
      serve::http_get(server.admin_port(), "/flightrecorder");
  EXPECT_EQ(flight.status, 200);
  EXPECT_GE(obs::parse_json(flight.body).find("recorded")->number, 1.0);

  EXPECT_EQ(serve::http_get(server.admin_port(), "/nope").status, 404);
  EXPECT_EQ(serve::http_get(server.admin_port(), "/").status, 200);

  server.shutdown();
  EXPECT_FALSE(server.healthy());
}

TEST_F(TelemetryTest, AdminTraceEndpointExportsSpans) {
  obs::set_tracing_enabled(true);
  serve::Server server(admin_config());
  EXPECT_EQ(submit_one(server, 101).status, serve::ServeStatus::kOk);
  // The serve.request span finishes (and reaches the tracer) shortly
  // AFTER the response future resolves — poll rather than race it.
  bool traced = false;
  for (int i = 0; i < 200 && !traced; ++i) {
    const serve::HttpResponse trace =
        serve::http_get(server.admin_port(), "/trace");
    EXPECT_EQ(trace.status, 200);
    traced = !obs::parse_json(trace.body).find("traceEvents")->array.empty();
    if (!traced) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(traced);
  server.shutdown();
}

TEST_F(TelemetryTest, AdminHandleRoutesMethodsAndPaths) {
  // handle() is the transport-free router, callable without a socket. A
  // second AdminServer against the same Server is fine: each binds its
  // own ephemeral port.
  serve::Server server(fast_serve_config());
  serve::AdminConfig admin;
  admin.port = 0;
  serve::AdminServer router(admin, server);
  EXPECT_GT(router.port(), 0);
  EXPECT_EQ(router.handle("POST", "/metrics").status, 405);
  EXPECT_EQ(router.handle("GET", "/nope").status, 404);
  EXPECT_EQ(router.handle("GET", "/metrics").status, 200);
  EXPECT_EQ(router.handle("GET", "/healthz").status, 200);
  router.stop();
  server.shutdown();
}

TEST_F(TelemetryTest, HttpGetReportsATimeoutWhenNoReplyArrives) {
  // A listener that never accepts: the kernel completes the connection in
  // its backlog and takes the request, but no reply byte ever comes back.
  net::TcpListener silent(0);
  try {
    (void)serve::http_get(silent.port(), "/healthz", 0.3);
    ADD_FAILURE() << "http_get returned without a reply";
  } catch (const Error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("timed out"), std::string::npos) << message;
    EXPECT_NE(message.find("/healthz"), std::string::npos) << message;
  }
}

TEST_F(TelemetryTest, HealthzFlipsDuringFaultDrillAndRecovers) {
  // Narrow window (4 x 50ms) so recovery doesn't stall the suite.
  serve::ServeConfig cfg = admin_config(/*interval=*/0.05, /*capacity=*/4);
  serve::Server server(cfg);
  EXPECT_TRUE(server.healthy());

  // Drill: every ILT run fails; with max_attempts=1 each request is a
  // terminal kFailed.
  fail::arm("opc.ilt.optimize", fail::every_nth(1));
  for (std::uint64_t i = 0; i < 4; ++i)
    EXPECT_EQ(submit_one(server, 200 + i).status,
              serve::ServeStatus::kFailed);
  fail::disarm_all();

  // The sampler picks the failures up within an interval or two.
  bool flipped = false;
  for (int i = 0; i < 200 && !flipped; ++i) {
    flipped = !server.healthy();
    if (!flipped) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(flipped);
  std::string detail;
  if (!server.healthy(&detail)) {
    EXPECT_NE(detail.find("unhealthy"), std::string::npos);
    EXPECT_EQ(serve::http_get(server.admin_port(), "/healthz").status, 503);
  }

  // Recovery: the window slides past the drill with no new failures.
  bool recovered = false;
  for (int i = 0; i < 500 && !recovered; ++i) {
    recovered = server.healthy();
    if (!recovered)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(recovered);
  EXPECT_EQ(serve::http_get(server.admin_port(), "/healthz").status, 200);
  // Requests succeed again after the drill.
  EXPECT_EQ(submit_one(server, 300).status, serve::ServeStatus::kOk);
  server.shutdown();
}

TEST_F(TelemetryTest, FailedRequestDumpsFlightRecorder) {
  const std::string path = "test_telemetry_flight_dump.json";
  std::remove(path.c_str());
  serve::ServeConfig cfg = fast_serve_config();
  cfg.flight.dump_path = path;
  serve::Server server(cfg);
  fail::arm("opc.ilt.optimize", fail::once());
  EXPECT_EQ(submit_one(server, 400).status, serve::ServeStatus::kFailed);
  fail::disarm_all();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const obs::JsonValue doc = obs::parse_json(buffer.str());
  ASSERT_FALSE(doc.find("events")->array.empty());
  const obs::JsonValue& last = doc.find("events")->array.back();
  EXPECT_EQ(last.find("status")->string, "failed");
  EXPECT_EQ(last.find("stage")->string, "ilt");
  server.shutdown();
  std::remove(path.c_str());
}

// The TSan payload: scrape every endpoint continuously while clients push
// traffic — admin threads, the window sampler, dispatchers and the metric
// hot path all race here if anything is unsynchronized.
TEST_F(TelemetryTest, ConcurrentScrapesDuringTraffic) {
  obs::set_tracing_enabled(true);
  serve::Server server(admin_config(/*interval=*/0.02, /*capacity=*/10));
  const int port = server.admin_port();

  constexpr int kRequests = 10;
  std::atomic<int> next{0};
  std::atomic<bool> done{false};
  std::atomic<int> scrape_failures{0};
  std::vector<std::thread> scrapers;
  const char* paths[] = {"/metrics", "/varz", "/healthz", "/flightrecorder"};
  for (int s = 0; s < 2; ++s)
    scrapers.emplace_back([&, s] {
      for (int i = 0; !done.load(); ++i) {
        const serve::HttpResponse resp =
            serve::http_get(port, paths[(s * 2 + i) % 4]);
        if (resp.status != 200) scrape_failures.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });

  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c)
    clients.emplace_back([&] {
      for (;;) {
        const int i = next.fetch_add(1);
        if (i >= kRequests) return;
        EXPECT_TRUE(
            submit_one(server, 500 + static_cast<std::uint64_t>(i % 3))
                .ok());
      }
    });
  for (std::thread& t : clients) t.join();
  done.store(true);
  for (std::thread& t : scrapers) t.join();

  EXPECT_EQ(scrape_failures.load(), 0);
  const serve::HttpResponse metrics = serve::http_get(port, "/metrics");
  EXPECT_NE(metrics.body.find("serve_requests_submitted_total"),
            std::string::npos);
  server.shutdown();
}

}  // namespace
}  // namespace ldmo
