// Serving-layer tests: cancellation/deadline plumbing, the sharded LRU
// cache, cross-request batching bit-identity, admission backpressure,
// deadline-aborted ILT, priority scheduling, and a multi-producer
// concurrency smoke (the TSan payload of the "sanitize" label).
//
// Every flow-running test uses a 32-pixel lithography model over the
// generator's 1024nm clip, so a full run is tens of milliseconds.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "backend_sweep.h"
#include "core/flow_engine.h"
#include "core/predictor.h"
#include "layout/fingerprint.h"
#include "layout/generator.h"
#include "mpl/decomposition_generator.h"
#include "obs/metrics.h"
#include "runtime/cancellation.h"
#include "serve/batcher.h"
#include "serve/cache_key.h"
#include "serve/result_cache.h"
#include "serve/server.h"

namespace ldmo::serve {
namespace {

litho::LithoConfig fast_litho() {
  litho::LithoConfig cfg;
  cfg.grid_size = 32;
  cfg.pixel_nm = 32.0;  // 32 px x 32 nm = the generator's 1024nm clip
  return cfg;
}

core::FlowEngineConfig fast_engine_config() {
  core::FlowEngineConfig cfg;
  cfg.litho = fast_litho();
  return cfg;
}

ServeConfig fast_serve_config() {
  ServeConfig cfg;
  cfg.engine = fast_engine_config();
  cfg.dispatchers = 2;
  return cfg;
}

layout::Layout test_layout(std::uint64_t seed) {
  return layout::LayoutGenerator().generate(seed);
}

// --- cancellation tokens: deadlines and linking ---

TEST(Cancellation, DefaultTokenNeverCancelled) {
  runtime::CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(token.has_deadline());
}

TEST(Cancellation, ExpiredDeadlineCancels) {
  runtime::CancellationToken token;
  EXPECT_TRUE(token.with_timeout(-1.0).cancelled());
  EXPECT_FALSE(token.with_timeout(3600.0).cancelled());
}

TEST(Cancellation, CombiningDeadlinesKeepsEarlier) {
  runtime::CancellationToken token =
      runtime::CancellationToken{}.with_timeout(3600.0).with_timeout(-1.0);
  EXPECT_TRUE(token.cancelled());
  // The later deadline must not overwrite the earlier one.
  runtime::CancellationToken keep =
      runtime::CancellationToken{}.with_timeout(-1.0).with_timeout(3600.0);
  EXPECT_TRUE(keep.cancelled());
}

TEST(Cancellation, LinkedSourceObservesParent) {
  runtime::CancellationSource parent;
  runtime::CancellationSource child(parent.token());
  EXPECT_FALSE(child.token().cancelled());
  parent.cancel();
  EXPECT_TRUE(child.token().cancelled());
  EXPECT_TRUE(child.cancelled());
}

TEST(Cancellation, ChildCancelLeavesParentUntouched) {
  runtime::CancellationSource parent;
  runtime::CancellationSource child(parent.token());
  child.cancel();
  EXPECT_TRUE(child.token().cancelled());
  EXPECT_FALSE(parent.token().cancelled());
}

// --- FlowEngine::run_many with a token ---

TEST(FlowEngineCancel, PreCancelledTokenYieldsNoResults) {
  core::FlowEngine engine(fast_engine_config());
  runtime::CancellationSource source;
  source.cancel();
  const std::vector<core::LdmoResult> results = engine.run_many(
      {test_layout(1), test_layout(2)}, source.token());
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(engine.session().runs, 0);
}

TEST(FlowEngineCancel, DeadlineTruncatesBatch) {
  core::FlowEngine engine(fast_engine_config());
  // Calibrate: how long does one run take on this machine?
  const auto t0 = std::chrono::steady_clock::now();
  core::LdmoResult cold = engine.run(test_layout(3));
  const double cold_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_FALSE(cold.cancelled);
  // A deadline worth ~1.2 cold runs cannot complete all three layouts.
  const std::vector<core::LdmoResult> results = engine.run_many(
      {test_layout(4), test_layout(5), test_layout(6)},
      runtime::CancellationToken{}.with_timeout(1.2 * cold_seconds));
  EXPECT_LT(results.size(), 3u);
  for (const core::LdmoResult& r : results) EXPECT_FALSE(r.cancelled);
}

// --- sharded LRU cache ---

TEST(ResultCache, HitReturnsStoredValueAndCounts) {
  CacheConfig cfg;
  cfg.shards = 1;
  cfg.metric_prefix = "test.cache.hit";
  ShardedLruCache<int> cache(cfg, [](const int&) { return 8u; });
  EXPECT_FALSE(cache.get(1).has_value());
  cache.put(1, 42);
  ASSERT_TRUE(cache.get(1).has_value());
  EXPECT_EQ(*cache.get(1), 42);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_GE(cache.hits(), 2);
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(ResultCache, ByteBudgetEvictsLeastRecentlyUsed) {
  CacheConfig cfg;
  cfg.shards = 1;
  // Room for exactly two entries (value 36 + overhead 64 = 100 each).
  cfg.budget_bytes = 200;
  cfg.metric_prefix = "test.cache.lru";
  ShardedLruCache<int> cache(cfg, [](const int&) { return 36u; });
  cache.put(1, 10);
  cache.put(2, 20);
  (void)cache.get(1);  // refresh 1 -> victim is 2
  cache.put(3, 30);
  EXPECT_TRUE(cache.get(1).has_value());
  EXPECT_FALSE(cache.get(2).has_value());
  EXPECT_TRUE(cache.get(3).has_value());
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_LE(cache.bytes(), 200u);
}

TEST(ResultCache, OversizeValueIsNotCached) {
  CacheConfig cfg;
  cfg.shards = 1;
  cfg.budget_bytes = 100;
  cfg.metric_prefix = "test.cache.oversize";
  ShardedLruCache<int> cache(cfg, [](const int&) { return 1000u; });
  cache.put(1, 10);
  EXPECT_FALSE(cache.get(1).has_value());
  EXPECT_EQ(cache.entries(), 0u);
}

TEST(ResultCache, DisabledCacheNeverStores) {
  CacheConfig cfg;
  cfg.enabled = false;
  cfg.metric_prefix = "test.cache.disabled";
  ShardedLruCache<int> cache(cfg, [](const int&) { return 8u; });
  cache.put(1, 10);
  EXPECT_FALSE(cache.get(1).has_value());
}

TEST(ResultCache, RefreshReplacesValueInPlace) {
  CacheConfig cfg;
  cfg.shards = 1;
  cfg.metric_prefix = "test.cache.refresh";
  ShardedLruCache<int> cache(cfg, [](const int&) { return 8u; });
  cache.put(1, 10);
  cache.put(1, 11);
  EXPECT_EQ(*cache.get(1), 11);
  EXPECT_EQ(cache.entries(), 1u);
}

// --- cache keys ---

TEST(CacheKey, ConfigChangesChangeTheKey) {
  const core::FlowEngineConfig base = fast_engine_config();
  core::FlowEngineConfig tweaked = base;
  tweaked.flow.ilt.max_iterations += 1;
  const std::uint64_t fp_base = config_fingerprint(base, "raw-print");
  EXPECT_NE(fp_base, config_fingerprint(tweaked, "raw-print"));
  EXPECT_NE(fp_base, config_fingerprint(base, "cnn"));
  EXPECT_EQ(fp_base, config_fingerprint(base, "raw-print"));
}

TEST(CacheKey, ModelContentAndKernelBackendChangeTheKey) {
  const core::FlowEngineConfig base = fast_engine_config();
  // One predictor name over two weight sets: the parameter digest keys
  // them apart.
  const std::uint64_t fp = config_fingerprint(base, "cnn@v0", 1);
  EXPECT_NE(fp, config_fingerprint(base, "cnn@v0", 2));
  const core::CnnPredictor a(std::make_unique<nn::ResNetRegressor>());
  const core::CnnPredictor same(std::make_unique<nn::ResNetRegressor>());
  nn::ResNetConfig reseeded;
  reseeded.seed += 1;
  const core::CnnPredictor other(
      std::make_unique<nn::ResNetRegressor>(reseeded));
  EXPECT_EQ(a.parameter_digest(), same.parameter_digest());
  EXPECT_NE(a.parameter_digest(), other.parameter_digest());

  // Every usable kernel backend gets its own fingerprint.
  testutil::BackendGuard guard;
  std::set<std::uint64_t> per_backend;
  const std::vector<kernels::Backend> backends = testutil::usable_backends();
  for (kernels::Backend backend : backends) {
    kernels::select(backend);
    per_backend.insert(config_fingerprint(base, "cnn@v0", 1));
  }
  EXPECT_EQ(per_backend.size(), backends.size());
}

TEST(CacheKey, ResultKeyIsContentAddressed) {
  const std::uint64_t fp =
      config_fingerprint(fast_engine_config(), "raw-print");
  layout::Layout a = test_layout(7);
  layout::Layout renamed = a;
  renamed.name = "other-name";
  EXPECT_EQ(result_cache_key(fp, a), result_cache_key(fp, renamed));
  EXPECT_NE(result_cache_key(fp, a), result_cache_key(fp, test_layout(8)));
}

TEST(CacheKey, ScoreKeySeparatesCandidates) {
  const std::uint64_t fp =
      config_fingerprint(fast_engine_config(), "raw-print");
  const std::uint64_t lfp = layout::fingerprint(test_layout(7));
  EXPECT_NE(score_cache_key(fp, lfp, {0, 1, 0}),
            score_cache_key(fp, lfp, {0, 1, 1}));
  EXPECT_EQ(score_cache_key(fp, lfp, {0, 1, 0}),
            score_cache_key(fp, lfp, {0, 1, 0}));
}

// --- cross-request batching bit-identity ---

/// Holds its first flush in the backend until release(), so callers that
/// arrive meanwhile pile up in the next batch.
class GatedPredictor : public core::PrintabilityPredictor {
 public:
  explicit GatedPredictor(core::PrintabilityPredictor& inner)
      : inner_(inner) {}
  double score(const layout::Layout& layout,
               const layout::Assignment& assignment) override {
    return inner_.score(layout, assignment);
  }
  std::vector<std::vector<double>> score_batch_multi(
      const std::vector<core::ScoringJob>& jobs) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      entered_ = true;
      cv_.notify_all();
      cv_.wait(lock, [&] { return released_; });
    }
    return inner_.score_batch_multi(jobs);
  }
  std::string name() const override { return inner_.name(); }

  void wait_entered() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return entered_; });
  }
  void release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  core::PrintabilityPredictor& inner_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
};

TEST(Batcher, ConcurrentScoresMatchSoloExactly) {
  const litho::LithoSimulator simulator(fast_litho());
  core::RawPrintPredictor solo(simulator);
  core::RawPrintPredictor shared(simulator);
  GatedPredictor gated(shared);
  InferenceBatcher batcher(gated, BatcherConfig{});

  constexpr int kJobs = 4;
  std::vector<layout::Layout> layouts;
  std::vector<std::vector<layout::Assignment>> candidates;
  std::vector<std::vector<double>> expected;
  for (int j = 0; j < kJobs; ++j) {
    layouts.push_back(test_layout(20 + static_cast<std::uint64_t>(j)));
    candidates.push_back(
        mpl::generate_decompositions(layouts.back()).candidates);
    expected.push_back(solo.score_batch(layouts.back(), candidates.back()));
  }

  // Job 0's flush holds the backend; the other jobs join the next batch
  // while it waits, and flush together once it is released.
  const long long coalesced_before =
      obs::counter("serve.batch.coalesced_flushes").value();
  std::vector<std::vector<double>> actual(kJobs);
  std::atomic<int> started{0};
  const auto run_job = [&](int j) {
    started.fetch_add(1);
    actual[static_cast<std::size_t>(j)] =
        batcher.score(layouts[static_cast<std::size_t>(j)],
                      candidates[static_cast<std::size_t>(j)]);
  };
  std::vector<std::thread> threads;
  threads.emplace_back(run_job, 0);
  gated.wait_entered();
  for (int j = 1; j < kJobs; ++j) threads.emplace_back(run_job, j);
  while (started.load() < kJobs) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  gated.release();
  for (std::thread& t : threads) t.join();
  EXPECT_GE(obs::counter("serve.batch.coalesced_flushes").value(),
            coalesced_before + 1);

  for (int j = 0; j < kJobs; ++j) {
    ASSERT_EQ(actual[j].size(), expected[j].size());
    for (std::size_t c = 0; c < expected[j].size(); ++c)
      EXPECT_EQ(actual[j][c], expected[j][c])  // exact, not near
          << "job " << j << " candidate " << c;
  }
}

TEST(Batcher, CnnMultiJobFlushMatchesPerJobExactly) {
  // The CNN path scores every job's candidates in one parallel predict
  // call — the strongest bit-identity case. Untrained (seeded) weights
  // are fine: only determinism is under test.
  nn::ResNetConfig net_cfg;
  net_cfg.input_size = 32;
  net_cfg.blocks_per_stage = 1;
  core::CnnPredictor cnn(std::make_unique<nn::ResNetRegressor>(net_cfg));

  std::vector<layout::Layout> layouts;
  std::vector<std::vector<layout::Assignment>> candidates;
  for (int j = 0; j < 3; ++j) {
    layouts.push_back(test_layout(50 + static_cast<std::uint64_t>(j)));
    candidates.push_back(
        mpl::generate_decompositions(layouts.back()).candidates);
  }
  std::vector<core::ScoringJob> jobs;
  for (std::size_t j = 0; j < layouts.size(); ++j)
    jobs.push_back({&layouts[j], &candidates[j]});

  const std::vector<std::vector<double>> multi = cnn.score_batch_multi(jobs);
  ASSERT_EQ(multi.size(), layouts.size());
  for (std::size_t j = 0; j < layouts.size(); ++j)
    EXPECT_EQ(multi[j], cnn.score_batch(layouts[j], candidates[j]))
        << "job " << j;
}

TEST(Batcher, DisabledBatcherStillSerializesAndMatches) {
  const litho::LithoSimulator simulator(fast_litho());
  core::RawPrintPredictor solo(simulator);
  core::RawPrintPredictor shared(simulator);
  BatcherConfig cfg;
  cfg.enabled = false;
  InferenceBatcher batcher(shared, cfg);
  const layout::Layout l = test_layout(24);
  const std::vector<layout::Assignment> cands =
      mpl::generate_decompositions(l).candidates;
  EXPECT_EQ(batcher.score(l, cands), solo.score_batch(l, cands));
}

TEST(BatchingPredictor, ScoreCacheHitsAreExact) {
  const litho::LithoSimulator simulator(fast_litho());
  core::RawPrintPredictor solo(simulator);
  core::RawPrintPredictor shared(simulator);
  InferenceBatcher batcher(shared, {});
  CacheConfig cache_cfg;
  cache_cfg.metric_prefix = "test.score_cache";
  ShardedLruCache<double> cache(cache_cfg,
                                [](const double&) { return 8u; });
  BatchingPredictor predictor(
      batcher, &cache,
      config_fingerprint(fast_engine_config(), shared.name()));

  const layout::Layout l = test_layout(25);
  const std::vector<layout::Assignment> cands =
      mpl::generate_decompositions(l).candidates;
  const std::vector<double> expected = solo.score_batch(l, cands);
  const std::vector<double> first = predictor.score_batch(l, cands);
  const long long hits_before = cache.hits();
  const std::vector<double> second = predictor.score_batch(l, cands);
  EXPECT_EQ(first, expected);
  EXPECT_EQ(second, expected);
  EXPECT_GE(cache.hits() - hits_before,
            static_cast<long long>(cands.size()));
}

// --- server end-to-end ---

TEST(Server, CacheHitIsBitIdenticalToColdSoloRun) {
  const layout::Layout l = test_layout(30);

  // Ground truth: cold, solo, unserved.
  core::FlowEngine solo(fast_engine_config());
  const core::LdmoResult reference = solo.run(l);

  Server server(fast_serve_config());
  ServeRequest first_request;
  first_request.layout = l;
  const ServeResponse computed =
      server.submit(std::move(first_request)).response.get();
  ASSERT_EQ(computed.status, ServeStatus::kOk);
  ServeRequest second_request;
  second_request.layout = l;
  const ServeResponse cached =
      server.submit(std::move(second_request)).response.get();
  ASSERT_EQ(cached.status, ServeStatus::kCached);
  EXPECT_EQ(cached.cache_key, computed.cache_key);

  for (const core::LdmoResult* r : {&computed.result, &cached.result}) {
    EXPECT_EQ(r->chosen, reference.chosen);
    EXPECT_EQ(r->ilt.mask1, reference.ilt.mask1);  // Grid == is memcmp-like
    EXPECT_EQ(r->ilt.mask2, reference.ilt.mask2);
    EXPECT_EQ(r->ilt.report.score(), reference.ilt.report.score());
  }
  server.shutdown();
}

TEST(Server, BackpressureRejectsWhenFull) {
  ServeConfig cfg = fast_serve_config();
  cfg.dispatchers = 1;
  cfg.queue_capacity = 2;
  cfg.start_paused = true;  // nothing drains until start()
  Server server(cfg);

  std::vector<RequestTicket> tickets;
  for (int i = 0; i < 2; ++i) {
    ServeRequest request;
    request.layout = test_layout(31);
    tickets.push_back(server.submit(std::move(request)));
  }
  EXPECT_EQ(server.queue_depth(), 2u);

  ServeRequest overflow;
  overflow.layout = test_layout(31);
  RequestTicket rejected = server.submit(std::move(overflow));
  EXPECT_EQ(rejected.response.get().status, ServeStatus::kRejected);

  ServeRequest try_overflow;
  try_overflow.layout = test_layout(31);
  EXPECT_FALSE(server.try_submit(std::move(try_overflow)).has_value());
  EXPECT_EQ(server.status_count(ServeStatus::kRejected), 2);

  server.start();
  for (RequestTicket& t : tickets)
    EXPECT_TRUE(t.response.get().ok());
  server.shutdown();
}

TEST(Server, ExpiredDeadlineTimesOutWithoutRunning) {
  ServeConfig cfg = fast_serve_config();
  cfg.dispatchers = 1;
  cfg.start_paused = true;
  Server server(cfg);
  ServeRequest request;
  request.layout = test_layout(32);
  request.deadline_seconds = 0.001;
  RequestTicket ticket = server.submit(std::move(request));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.start();
  const ServeResponse response = ticket.response.get();
  EXPECT_EQ(response.status, ServeStatus::kTimeout);
  EXPECT_EQ(response.result.ilt.mask1.size(), 0u);  // never computed
  server.shutdown();
}

TEST(Server, DeadlineAbortsIltMidRun) {
  // Calibrate a cold run; skip on machines too fast to catch mid-flight.
  core::FlowEngine solo(fast_engine_config());
  const auto t0 = std::chrono::steady_clock::now();
  (void)solo.run(test_layout(33));
  const double cold_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (cold_seconds < 0.02)
    GTEST_SKIP() << "flow too fast to interrupt reliably";

  ServeConfig cfg = fast_serve_config();
  cfg.dispatchers = 1;
  Server server(cfg);
  ServeRequest request;
  request.layout = test_layout(33);
  request.deadline_seconds = 0.3 * cold_seconds;
  const ServeResponse response =
      server.submit(std::move(request)).response.get();
  EXPECT_EQ(response.status, ServeStatus::kTimeout);
  EXPECT_EQ(response.result.ilt.mask1.size(), 0u);
  server.shutdown();
}

TEST(Server, CancelBeforeDispatchYieldsCancelled) {
  ServeConfig cfg = fast_serve_config();
  cfg.dispatchers = 1;
  cfg.start_paused = true;
  Server server(cfg);
  ServeRequest request;
  request.layout = test_layout(34);
  RequestTicket ticket = server.submit(std::move(request));
  ticket.cancel();
  server.start();
  EXPECT_EQ(ticket.response.get().status, ServeStatus::kCancelled);
  server.shutdown();
}

TEST(Server, PriorityClassesDrainInOrder) {
  ServeConfig cfg = fast_serve_config();
  cfg.dispatchers = 1;  // one consumer -> strict drain order
  cfg.start_paused = true;
  Server server(cfg);

  ServeRequest batch_request;
  batch_request.layout = test_layout(35);
  batch_request.priority = Priority::kBatch;
  ServeRequest normal_request;
  normal_request.layout = test_layout(36);
  normal_request.priority = Priority::kNormal;
  ServeRequest interactive_request;
  interactive_request.layout = test_layout(37);
  interactive_request.priority = Priority::kInteractive;

  // Submitted worst-priority first; completion order must invert it.
  RequestTicket batch_ticket = server.submit(std::move(batch_request));
  RequestTicket normal_ticket = server.submit(std::move(normal_request));
  RequestTicket interactive_ticket =
      server.submit(std::move(interactive_request));
  server.start();

  const ServeResponse batch_response = batch_ticket.response.get();
  const ServeResponse normal_response = normal_ticket.response.get();
  const ServeResponse interactive_response =
      interactive_ticket.response.get();
  EXPECT_LT(interactive_response.completion_sequence,
            normal_response.completion_sequence);
  EXPECT_LT(normal_response.completion_sequence,
            batch_response.completion_sequence);
  server.shutdown();
}

TEST(Server, ShutdownWithoutDrainCancelsQueued) {
  ServeConfig cfg = fast_serve_config();
  cfg.dispatchers = 1;
  cfg.start_paused = true;
  Server server(cfg);
  ServeRequest request;
  request.layout = test_layout(38);
  RequestTicket ticket = server.submit(std::move(request));
  server.shutdown(/*drain=*/false);
  EXPECT_EQ(ticket.response.get().status, ServeStatus::kCancelled);
}

TEST(Server, MultiProducerConcurrencySmoke) {
  // Small but genuinely concurrent: 4 producers x 3 requests over 2
  // unique layouts against 2 dispatchers with batching + both cache
  // tiers. TSan (ctest -L sanitize under -DLDMO_SANITIZE=thread) checks
  // the queue/batcher/cache locking.
  Server server(fast_serve_config());
  const std::vector<layout::Layout> pool = {test_layout(40),
                                            test_layout(41)};
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 3;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p)
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ServeRequest request;
        request.layout = pool[static_cast<std::size_t>((p + i) % 2)];
        ServeResponse response =
            server.submit(std::move(request)).response.get();
        if (response.ok()) ok_count.fetch_add(1);
      }
    });
  for (std::thread& t : producers) t.join();
  EXPECT_EQ(ok_count.load(), kProducers * kPerProducer);
  server.shutdown();
}

// A scoring backend that throws plain std::runtime_error on every call.
class AlwaysThrowingBackend : public core::PrintabilityPredictor {
 public:
  double score(const layout::Layout&, const layout::Assignment&) override {
    throw std::runtime_error("backend down");
  }
  std::string name() const override { return "always-throwing"; }
};

TEST(Server, ThrowingBackendDegradesGracefullyByDefault) {
  // Regression for the dispatcher fault model: before Server::process
  // contained the flow outcome, a throwing backend unwound through the
  // dispatcher thread and std::terminate'd the whole process. Now, with
  // degradation on (the default), every request completes kOk — degraded,
  // uncached, but carrying real violation-checked masks.
  Server server(fast_serve_config(),
                std::make_unique<AlwaysThrowingBackend>());
  const layout::Layout layout = test_layout(50);
  for (int i = 0; i < 3; ++i) {
    ServeRequest request;
    request.layout = layout;
    const ServeResponse response =
        server.submit(std::move(request)).response.get();
    EXPECT_EQ(response.status, ServeStatus::kOk);
    EXPECT_TRUE(response.degraded);
    EXPECT_GT(response.result.ilt.iterations_run, 0);
  }
  // Degraded results never enter the result cache.
  EXPECT_EQ(server.status_count(ServeStatus::kCached), 0);
  EXPECT_EQ(server.degraded_count(), 3);
  server.shutdown();
}

}  // namespace
}  // namespace ldmo::serve
