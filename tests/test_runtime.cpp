// Tests for the runtime execution engine: pool lifecycle, task-group
// joining and exception propagation, MPMC queue stress, cooperative
// cancellation, splittable RNG streams, and the determinism contract
// (parallel execution bit-identical to serial at any thread count).
//
// These tests (label "sanitize") are the intended payload of
// -DLDMO_SANITIZE=thread builds — see the top-level CMakeLists.txt.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/ldmo_flow.h"
#include "core/predictor.h"
#include "layout/generator.h"
#include "litho/simulator.h"
#include "nn/gemm.h"
#include "nn/resnet.h"
#include "opc/ilt.h"
#include "runtime/cancellation.h"
#include "runtime/parallel_for.h"
#include "runtime/task_queue.h"
#include "runtime/thread_pool.h"

namespace ldmo::runtime {
namespace {

/// Restores the global thread count on scope exit so tests can reconfigure
/// parallelism without leaking state into each other.
class ScopedThreads {
 public:
  explicit ScopedThreads(int threads) : saved_(thread_count()) {
    set_thread_count(threads);
  }
  ~ScopedThreads() { set_thread_count(saved_); }

 private:
  int saved_;
};

// ---------------------------------------------------------------------------
// ThreadPool lifecycle

TEST(ThreadPoolTest, StartsAndStopsCleanly) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.worker_count(), 3);
  std::atomic<int> ran{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 32; ++i) group.run([&ran] { ran.fetch_add(1); });
  group.wait();
  EXPECT_EQ(ran.load(), 32);
  // Destructor joins the workers; nothing to assert beyond not hanging.
}

TEST(ThreadPoolTest, SubmitReturnsFutureValue) {
  ThreadPool pool(2);
  auto future = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPoolTest, ZeroWorkerPoolRunsEverythingInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 0);
  const std::thread::id self = std::this_thread::get_id();
  std::vector<std::thread::id> seen(8);
  TaskGroup group(&pool);
  for (std::size_t i = 0; i < seen.size(); ++i)
    group.run([&seen, i] { seen[i] = std::this_thread::get_id(); });
  group.wait();
  for (const std::thread::id& id : seen) EXPECT_EQ(id, self);
}

TEST(ThreadPoolTest, WorkerBusySecondsAccumulate) {
  ThreadPool pool(1);
  TaskGroup group(&pool);
  group.run([] {
    // A task with measurable duration even on coarse clocks.
    volatile double sink = 0.0;
    for (int i = 0; i < 2000000; ++i) sink = sink + 1.0;
  });
  group.wait();
  const std::vector<double> busy = pool.worker_busy_seconds();
  ASSERT_EQ(busy.size(), 1u);
  // The waiter may have claimed the task inline, so only non-negativity is
  // guaranteed; the gauge must never go backwards or NaN.
  EXPECT_GE(busy[0], 0.0);
}

// ---------------------------------------------------------------------------
// TaskGroup semantics

TEST(TaskGroupTest, PropagatesFirstException) {
  ThreadPool pool(2);
  TaskGroup group(&pool);
  std::atomic<int> survivors{0};
  group.run([] { throw std::runtime_error("boom"); });
  for (int i = 0; i < 8; ++i) group.run([&survivors] { survivors.fetch_add(1); });
  EXPECT_THROW(group.wait(), std::runtime_error);
  // Every non-throwing task still ran to completion before the join.
  EXPECT_EQ(survivors.load(), 8);
}

TEST(TaskGroupTest, ReusableAfterWait) {
  ThreadPool pool(2);
  TaskGroup group(&pool);
  std::atomic<int> count{0};
  group.run([&count] { count.fetch_add(1); });
  group.wait();
  group.run([&count] { count.fetch_add(1); });
  group.wait();
  EXPECT_EQ(count.load(), 2);
}

TEST(TaskGroupTest, NestedGroupsCannotDeadlock) {
  // More nested groups than workers: the waiting tasks must claim and run
  // their children inline rather than starve on pool capacity.
  ThreadPool pool(2);
  std::atomic<int> leaf_count{0};
  TaskGroup outer(&pool);
  for (int i = 0; i < 6; ++i) {
    outer.run([&pool, &leaf_count] {
      TaskGroup inner(&pool);
      for (int j = 0; j < 4; ++j)
        inner.run([&leaf_count] { leaf_count.fetch_add(1); });
      inner.wait();
    });
  }
  outer.wait();
  EXPECT_EQ(leaf_count.load(), 24);
}

// ---------------------------------------------------------------------------
// MPMC queue stress

TEST(TaskQueueTest, MpmcStressDeliversEveryTaskExactlyOnce) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 500;
  TaskQueue queue;
  std::vector<std::atomic<int>> executed(
      static_cast<std::size_t>(kProducers * kPerProducer));
  for (auto& e : executed) e.store(0);

  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&queue] {
      TaskQueue::Task task;
      while (queue.pop(task)) {
        task();
        task = nullptr;
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, &executed, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const std::size_t id =
            static_cast<std::size_t>(p * kPerProducer + i);
        queue.push([&executed, id] { executed[id].fetch_add(1); });
      }
    });
  }
  for (std::thread& t : producers) t.join();
  queue.close();  // closed queues still drain
  for (std::thread& t : consumers) t.join();

  for (const auto& e : executed) EXPECT_EQ(e.load(), 1);
  EXPECT_EQ(queue.size(), 0u);
}

TEST(TaskQueueTest, TryPopOnEmptyReturnsFalse) {
  TaskQueue queue;
  TaskQueue::Task task;
  EXPECT_FALSE(queue.try_pop(task));
  queue.push([] {});
  EXPECT_TRUE(queue.try_pop(task));
  EXPECT_FALSE(queue.try_pop(task));
}

// ---------------------------------------------------------------------------
// Cancellation

TEST(CancellationTest, DefaultTokenNeverCancels) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
}

TEST(CancellationTest, TokenObservesSource) {
  CancellationSource source;
  CancellationToken token = source.token();
  EXPECT_FALSE(token.cancelled());
  source.cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(source.cancelled());
}

TEST(CancellationTest, IltWindsDownOnCancelledToken) {
  litho::LithoConfig lcfg;
  lcfg.grid_size = 64;
  lcfg.pixel_nm = 16.0;
  lcfg.kernel_count = 4;
  const litho::LithoSimulator simulator(lcfg);
  opc::IltConfig icfg;
  icfg.max_iterations = 8;
  opc::IltEngine engine(simulator, icfg);
  layout::LayoutGenerator gen;
  const layout::Layout layout = gen.generate(9);
  layout::Assignment alt(static_cast<std::size_t>(layout.pattern_count()), 0);
  for (std::size_t i = 0; i < alt.size(); ++i) alt[i] = static_cast<int>(i) % 2;

  CancellationSource source;
  source.cancel();  // cancelled before the first iteration
  const opc::IltResult result =
      engine.optimize(layout, alt, false, false, source.token());
  EXPECT_TRUE(result.cancelled);
  EXPECT_EQ(result.iterations_run, 0);
  EXPECT_TRUE(result.mask1.empty());  // wound down before finalization
}

// ---------------------------------------------------------------------------
// Splittable RNG streams

TEST(RngSplitTest, DeterministicAndSideEffectFree) {
  Rng master(42);
  Rng reference(42);
  // Splitting is const and does not advance the master state.
  Rng s0 = master.split(0);
  Rng s1 = master.split(1);
  EXPECT_EQ(master.next_u64(), reference.next_u64());

  // Same (state, stream) always yields the same stream.
  Rng master2(42);
  Rng s0_again = master2.split(0);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(s0.next_u64(), s0_again.next_u64());

  // Distinct stream ids decorrelate.
  Rng s1_copy = master2.split(1);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    Rng probe = master2.split(2);
    (void)probe;
    if (s1.next_u64() == s1_copy.next_u64()) ++equal;  // same stream: equal
  }
  EXPECT_EQ(equal, 64);
  Rng a = Rng(7).split(0);
  Rng b = Rng(7).split(1);
  int collisions = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++collisions;
  EXPECT_LT(collisions, 4);
}

// ---------------------------------------------------------------------------
// Chunk planning + parallel_for determinism

TEST(ChunkPlanTest, CoversRangeIndependentOfThreadCount) {
  for (std::size_t n : {0u, 1u, 7u, 64u, 1000u, 4097u}) {
    const ChunkPlan plan = plan_chunks(n, 8);
    std::size_t covered = 0;
    for (std::size_t c = 0; c < plan.chunk_count; ++c) {
      EXPECT_EQ(plan.begin(c), covered);
      EXPECT_LE(plan.end(c), n);
      covered = plan.end(c);
      if (c + 1 < plan.chunk_count) {
        EXPECT_GE(plan.end(c) - plan.begin(c), 8u);  // min_chunk respected
      }
    }
    EXPECT_EQ(covered, n);
    // The plan is a pure function of (n, min_chunk, max_chunks): thread
    // count must not influence it.
    ScopedThreads serial(1);
    const ChunkPlan replanned = plan_chunks(n, 8);
    EXPECT_EQ(replanned.chunk_count, plan.chunk_count);
    EXPECT_EQ(replanned.chunk_size, plan.chunk_size);
  }
}

TEST(ParallelForTest, VisitsEveryIndexOnce) {
  ScopedThreads threads(4);
  std::vector<std::atomic<int>> visits(1000);
  for (auto& v : visits) v.store(0);
  parallel_for(visits.size(), [&](std::size_t i) { visits[i].fetch_add(1); });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelForTest, DeterministicReduceMatchesSerialFold) {
  auto map = [](std::size_t i) {
    // Values chosen so summation order changes the floating-point result.
    return 1.0 / static_cast<double>(i + 1) * ((i % 2 == 0) ? 1.0 : -1e-8);
  };
  auto combine = [](double acc, double v) { return acc + v; };
  double serial_sum;
  {
    ScopedThreads serial(1);
    serial_sum = deterministic_reduce(5000, 0.0, map, combine);
  }
  double parallel_sum;
  {
    ScopedThreads parallel(4);
    parallel_sum = deterministic_reduce(5000, 0.0, map, combine);
  }
  EXPECT_EQ(serial_sum, parallel_sum);  // bit-identical, not approximately
}

// ---------------------------------------------------------------------------
// Determinism contract on real kernels

TEST(DeterminismTest, ParallelGemmBitIdenticalToSerial) {
  const int m = 256, k = 96, n = 64;  // large enough to cross the
                                      // parallelism threshold
  std::vector<float> a(static_cast<std::size_t>(m) * k);
  std::vector<float> b(static_cast<std::size_t>(k) * n);
  Rng rng(123);
  for (float& v : a) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (float& v : b) v = static_cast<float>(rng.uniform(-1.0, 1.0));

  std::vector<float> c_serial(static_cast<std::size_t>(m) * n);
  {
    ScopedThreads serial(1);
    nn::gemm(a.data(), b.data(), c_serial.data(), m, k, n);
  }
  std::vector<float> c_parallel(static_cast<std::size_t>(m) * n);
  {
    ScopedThreads parallel(4);
    nn::gemm(a.data(), b.data(), c_parallel.data(), m, k, n);
  }
  EXPECT_EQ(std::memcmp(c_serial.data(), c_parallel.data(),
                        c_serial.size() * sizeof(float)),
            0);
}

TEST(DeterminismTest, FullFlowBitIdenticalAcrossThreadCounts) {
  litho::LithoConfig lcfg;
  lcfg.grid_size = 64;
  lcfg.pixel_nm = 16.0;
  lcfg.kernel_count = 4;
  const litho::LithoSimulator simulator(lcfg);

  nn::ResNetConfig ncfg;
  ncfg.input_size = 32;
  ncfg.width_multiplier = 0.125;
  core::CnnPredictor predictor(std::make_unique<nn::ResNetRegressor>(ncfg));

  core::LdmoConfig config;
  config.ilt.max_iterations = 6;
  core::LdmoFlow flow(simulator, predictor, config);
  layout::LayoutGenerator gen;
  const layout::Layout layout = gen.generate(31);

  core::LdmoResult serial;
  {
    ScopedThreads threads(1);
    serial = flow.run(layout);
  }
  core::LdmoResult parallel;
  {
    ScopedThreads threads(4);
    parallel = flow.run(layout);
  }

  // The speculative parallel ILT must pick the same winner the serial
  // fallback chain picks, and every mask pixel must match bit-for-bit.
  EXPECT_EQ(serial.chosen, parallel.chosen);
  EXPECT_EQ(serial.candidates_generated, parallel.candidates_generated);
  EXPECT_EQ(serial.candidates_tried, parallel.candidates_tried);
  EXPECT_EQ(serial.ilt.report.epe.violation_count,
            parallel.ilt.report.epe.violation_count);
  EXPECT_EQ(serial.ilt.mask1, parallel.ilt.mask1);
  EXPECT_EQ(serial.ilt.mask2, parallel.ilt.mask2);
  EXPECT_EQ(serial.ilt.response, parallel.ilt.response);
}

TEST(DeterminismTest, ScoreBatchMatchesSerialScoreLoop) {
  litho::LithoConfig lcfg;
  lcfg.grid_size = 64;
  lcfg.pixel_nm = 16.0;
  lcfg.kernel_count = 4;
  const litho::LithoSimulator simulator(lcfg);

  nn::ResNetConfig ncfg;
  ncfg.input_size = 32;
  ncfg.width_multiplier = 0.125;
  core::CnnPredictor predictor(std::make_unique<nn::ResNetRegressor>(ncfg));

  layout::LayoutGenerator gen;
  const layout::Layout layout = gen.generate(17);
  const std::size_t pats = static_cast<std::size_t>(layout.pattern_count());
  std::vector<layout::Assignment> candidates;
  for (int c = 0; c < 20; ++c) {  // more candidates than worker threads
    layout::Assignment a(pats, 0);
    for (std::size_t i = 0; i < pats; ++i)
      a[i] = static_cast<int>((i + static_cast<std::size_t>(c)) % 2);
    candidates.push_back(std::move(a));
  }

  std::vector<double> looped;
  for (const layout::Assignment& a : candidates)
    looped.push_back(predictor.score(layout, a));
  ScopedThreads threads(4);
  const std::vector<double> batched =
      predictor.score_batch(layout, candidates);
  ASSERT_EQ(batched.size(), looped.size());
  for (std::size_t i = 0; i < looped.size(); ++i)
    EXPECT_EQ(batched[i], looped[i]) << "candidate " << i;
}

TEST(DeterminismTest, PredictScoresIndependentOfThreadsAndBatchSize) {
  // Whole-network inference runs one task per image; each score must be
  // the image's solo score whatever the batch size and thread count.
  nn::ResNetConfig ncfg;
  ncfg.input_size = 32;
  ncfg.width_multiplier = 0.125;
  const nn::ResNetRegressor net(ncfg);
  Rng rng(35);
  const nn::Tensor images = nn::Tensor::randn({33, 1, 32, 32}, rng, 0.5f);
  const std::size_t pixels = 32 * 32;

  std::vector<float> solo;
  {
    ScopedThreads serial(1);
    for (std::size_t i = 0; i < 33; ++i)
      solo.push_back(net.predict(images.data() + i * pixels, 1).front());
  }
  for (int threads : {1, 4}) {
    ScopedThreads scoped(threads);
    for (std::size_t count : {1u, 12u, 17u, 33u}) {
      const std::vector<float> scores = net.predict(images.data(), count);
      ASSERT_EQ(scores.size(), count);
      for (std::size_t i = 0; i < count; ++i)
        EXPECT_EQ(scores[i], solo[i])
            << threads << " threads, batch " << count << ", image " << i;
    }
  }
}

}  // namespace
}  // namespace ldmo::runtime
