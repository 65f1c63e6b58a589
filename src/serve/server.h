// The LDMO server: admission control in front, a pool of dispatcher-owned
// FlowEngine sessions in the middle, cross-request inference batching and a
// two-tier content-addressed cache underneath.
//
//   submit/try_submit
//     -> AdmissionQueue (bounded, priority-classed; reject or block on
//        overflow per policy)
//     -> dispatcher threads, each owning a FlowEngine session whose
//        predictor is a BatchingPredictor over the server-shared
//        InferenceBatcher + score cache
//     -> result cache (config+geometry content address) consulted before
//        and populated after every full run
//     -> ServeResponse through the ticket future.
//
// Dispatchers are dedicated std::threads, not ThreadPool tasks: the
// process ThreadPool has zero workers under --threads 1 (callers execute
// tasks inline at wait points), so a request body enqueued there would
// never start. Each dispatched run still lands its compute on the pool
// through the flow's TaskGroups and parallel_for — the dispatchers only
// pump the queue.
//
// Determinism contract (DESIGN.md §10): kOk, kCached and
// batching-coalesced responses are bit-identical — memcmp on masks, exact
// score equality — to a cold, solo FlowEngine::run of the same layout
// under the same FlowEngineConfig.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/flow_error.h"
#include "core/flow_engine.h"
#include "obs/flight_recorder.h"
#include "obs/report.h"
#include "obs/span.h"
#include "obs/window.h"
#include "runtime/cancellation.h"
#include "serve/admin.h"
#include "serve/admission_queue.h"
#include "serve/batcher.h"
#include "serve/cache_key.h"
#include "serve/capture.h"
#include "serve/request.h"
#include "serve/result_cache.h"

namespace ldmo::serve {

/// What submit() does when the admission queue is full.
enum class OverflowPolicy {
  kReject,  ///< bounce immediately with ServeStatus::kRejected
  kBlock,   ///< park the submitting thread until capacity frees up
};

struct ServeConfig {
  core::FlowEngineConfig engine;
  /// Learned ILT warm-start model, shared by every dispatcher engine (the
  /// implementation serializes concurrent predictions internally). Only
  /// consulted when engine.flow.warm_start.enabled; its weight version is
  /// folded into the config fingerprint so cached results retire on model
  /// swap. Server::swap_backend replaces it.
  std::shared_ptr<const core::MaskInitializer> warm_start;
  /// Training-data capture hook (serve/capture.h): invoked on the
  /// dispatcher thread for every completed kOk non-degraded run. Null
  /// disables capture.
  std::shared_ptr<CaptureHook> capture;
  int dispatchers = 2;
  std::size_t queue_capacity = 64;
  OverflowPolicy overflow = OverflowPolicy::kReject;
  /// Construct with dispatchers parked; requests queue (and can overflow)
  /// until start(). Deterministic backpressure/priority tests live on this.
  bool start_paused = false;
  BatcherConfig batcher;
  /// Result tier (full LdmoResults). Disable via result_cache.enabled.
  CacheConfig result_cache;
  /// Score tier (per-candidate predictions, much smaller values).
  CacheConfig score_cache{
      .enabled = true,
      .budget_bytes = 8ull << 20,
      .shards = 8,
      .metric_prefix = "serve.score_cache",
  };
  /// Bounded retry of stage-failed flow runs. max_attempts counts the
  /// first try, so 1 (the default) means fail fast. Backoff grows
  /// geometrically per retry and is clipped to the request's remaining
  /// deadline; a request whose token fires mid-backoff terminates with
  /// its cancellation status, never a stale retry.
  struct RetryPolicy {
    int max_attempts = 1;
    double initial_backoff_ms = 5.0;
    double backoff_multiplier = 2.0;
  };
  RetryPolicy retry;
  /// Live-telemetry admin endpoint (off by default). Enabling it also
  /// starts the sliding-window sampler that powers /healthz and the
  /// report()'s "window" section.
  AdminConfig admin;
  /// Flight recorder: ring capacity and the optional JSON dump target
  /// (written on kFailed responses — rate-limited — and at shutdown).
  struct FlightConfig {
    std::size_t capacity = 256;
    std::string dump_path;  ///< empty = no automatic file dumps
  };
  FlightConfig flight;
};

/// Caller's handle on a submitted request.
struct RequestTicket {
  std::uint64_t id = 0;
  std::future<ServeResponse> response;

  /// Cooperative cancel: pending requests terminate kCancelled at
  /// dispatch; in-flight runs abort their ILT loop within one iteration.
  void cancel() {
    if (canceller) canceller->cancel();
  }

  std::shared_ptr<runtime::CancellationSource> canceller;
};

class Server {
 public:
  /// `backend` is the shared scoring model (e.g. a trained CnnPredictor);
  /// null falls back to a RawPrintPredictor over a server-owned simulator.
  /// Dispatcher threads spawn here (parked when config.start_paused).
  explicit Server(ServeConfig config,
                  std::unique_ptr<core::PrintabilityPredictor> backend =
                      nullptr);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Admits per the configured OverflowPolicy. Always returns a ticket; on
  /// rejection (kReject policy, full queue — or a closed server) the
  /// future already holds a kRejected response.
  RequestTicket submit(ServeRequest request);

  /// Non-blocking admission regardless of policy; nullopt when full/closed.
  std::optional<RequestTicket> try_submit(ServeRequest request);

  /// Unparks the dispatchers (no-op unless start_paused).
  void start();

  /// Closes admission and joins the dispatchers. drain=true (default)
  /// finishes everything queued first; drain=false fails queued requests
  /// with kCancelled. Idempotent; the destructor calls shutdown(true).
  void shutdown(bool drain = true);

  /// The one way a model changes while serving (the daemon's wire swap
  /// and the flywheel's promotion both land here). `predictor` replaces
  /// the scoring backend; `warm_start` replaces the warm-start initializer
  /// on every dispatcher engine and turns warm start on. A null argument
  /// keeps the current model; with both null nothing happens. Everything
  /// is checked before anything changes (the initializer's grid must match
  /// the simulator's), so a refused swap throws and leaves the server as it
  /// was. Then, under the exclusive lock — in-flight requests finish
  /// first, and the dispatchers take no new request until the swap is in —
  /// the models go in and the config fingerprint is recomputed once, with
  /// the new predictor's parameter digest. When it changed, both cache
  /// tiers are emptied: their keys embed the old fingerprint and could
  /// never hit again. Queued requests are NOT lost; they proceed on the
  /// new models. Wrap a new predictor in core::VersionedPredictor so its
  /// name carries the weight version too.
  void swap_backend(
      std::unique_ptr<core::PrintabilityPredictor> predictor,
      std::shared_ptr<const core::MaskInitializer> warm_start = nullptr);

  /// Number of completed swap_backend calls.
  long long backend_swaps() const { return backend_swaps_.load(); }

  /// swap_backend rewrites warm_start and engine.flow.warm_start.enabled;
  /// read those two fields only when no swap can run concurrently.
  const ServeConfig& config() const { return config_; }
  std::uint64_t config_fingerprint() const { return config_fp_.load(); }
  std::size_t queue_depth() const { return queue_.depth(); }
  long long status_count(ServeStatus status) const {
    return status_counts_[static_cast<std::size_t>(status)].load();
  }
  /// Flow failures observed per stage (every attempt counts, so with
  /// retries this can exceed the kFailed response count).
  long long error_count(FlowStage stage) const {
    return error_counts_[static_cast<std::size_t>(stage)].load();
  }
  long long retry_count() const { return retry_count_.load(); }
  long long degraded_count() const { return degraded_count_.load(); }

  /// Liveness signal behind /healthz: false once shut down, or while
  /// failed requests exceed config.admin.unhealthy_failed_ratio of the
  /// terminal responses inside the sliding window (requires the admin
  /// sampler; without it only shutdown flips health). `detail` (optional)
  /// receives a one-line explanation either way.
  bool healthy(std::string* detail = nullptr) const;
  /// Readiness signal behind /readyz: admission open, dispatchers running
  /// and unparked.
  bool ready(std::string* detail = nullptr) const;

  /// Recent-request ring (always on; /flightrecorder serves it).
  const obs::FlightRecorder& flight_recorder() const {
    return flight_recorder_;
  }
  /// Sliding-window sampler; null unless config.admin.enabled.
  const obs::WindowSampler* window() const { return window_.get(); }
  /// Bound admin port; -1 when the admin endpoint is disabled.
  int admin_port() const { return admin_ ? admin_->port() : -1; }

  /// Run report with a "serve" section: per-status request counts, ok/cached
  /// latency percentiles (p50/p95/p99), throughput, queue and cache state —
  /// on top of the standard registry snapshot (serve.cache.*,
  /// serve.batch.*, serve.queue.depth live there).
  obs::RunReport report() const;

  /// Copies the result-cache contents out, least-recently-used first (the
  /// snapshot hook — net/snapshot.h writes these to disk). Safe during
  /// traffic; see ShardedLruCache::export_entries.
  std::vector<std::pair<std::uint64_t, core::LdmoResult>>
  export_result_cache() {
    return result_cache_.export_entries();
  }

  /// Result-cache observability for the wire protocol's stats message.
  /// Entries are per-instance; hits/misses read the process-global
  /// "serve.cache.*" counters (cumulative across every server in the
  /// process, which is what a scraper wants).
  std::size_t result_cache_entries() const { return result_cache_.entries(); }
  long long result_cache_hits() const { return result_cache_.hits(); }
  long long result_cache_misses() const { return result_cache_.misses(); }

  /// Name of the active scoring backend (what config_fingerprint() folded
  /// in — the wire stats message reports it for swap verification).
  std::string predictor_name() const;
  /// Weight fingerprint of the active warm-start initializer (what
  /// config_fingerprint() folded in); 0 without one. Safe during a swap.
  std::uint64_t warm_start_version() const;

  /// Replays exported entries into the result cache (in order, so recency
  /// survives the round trip) and returns how many were admitted. Keys are
  /// content addresses that embed the config fingerprint, so entries from a
  /// different configuration are harmless — they can never be looked up —
  /// but callers should filter on config_fingerprint() to avoid dead
  /// weight.
  std::size_t import_result_cache(
      std::vector<std::pair<std::uint64_t, core::LdmoResult>> entries) {
    if (!result_cache_.enabled()) return 0;
    for (auto& [key, result] : entries)
      result_cache_.put(key, std::move(result));
    return entries.size();
  }

 private:
  using Clock = std::chrono::steady_clock;

  /// A queued request with its terminal-state machinery.
  struct Pending {
    std::uint64_t id = 0;
    ServeRequest request;
    std::shared_ptr<runtime::CancellationSource> cancel;
    Clock::time_point submitted;
    Clock::time_point deadline;  ///< max() when none
    std::promise<ServeResponse> promise;
  };

  Pending make_pending(ServeRequest request);
  RequestTicket ticket_for(const Pending& pending);
  ServeResponse rejected_response(std::uint64_t id);
  void dispatcher_loop(int index);
  void process(core::FlowEngine& engine, Pending pending);
  /// Fills `response` with the request's terminal state (cache lookup,
  /// retry loop around FlowEngine::run, cache fill). Plain returns only —
  /// process() owns the promise and fulfills it exactly once, catching
  /// anything compute() lets escape as a kFailed response.
  void compute(core::FlowEngine& engine, Pending& pending,
               ServeResponse& response, obs::Span& span);
  void record_error(const FlowError& error, obs::Span& span);
  void finish(Pending& pending, ServeResponse response,
              Clock::time_point dispatched);
  /// Writes the flight-recorder JSON to config.flight.dump_path (no-op
  /// when that is empty); kFailed-triggered dumps are rate-limited to one
  /// per second so an error storm cannot turn into an I/O storm.
  void dump_flight_recorder(const char* reason, bool rate_limited);

  ServeConfig config_;
  std::unique_ptr<litho::LithoSimulator> backend_simulator_;  ///< default only
  /// Guards the models (backend_, config_.warm_start and the engines'
  /// initializers) against in-flight request processing: process() holds
  /// it shared for the life of a request, swap_backend holds it exclusive.
  /// Requests are seconds and swaps are rare, so the rwlock costs one
  /// uncontended shared acquisition per request.
  mutable std::shared_mutex backend_mu_;
  std::unique_ptr<core::PrintabilityPredictor> backend_;
  std::atomic<std::uint64_t> config_fp_{0};

  InferenceBatcher batcher_;
  ShardedLruCache<double> score_cache_;
  ShardedLruCache<core::LdmoResult> result_cache_;

  AdmissionQueue<Pending> queue_;
  std::vector<std::unique_ptr<core::FlowEngine>> engines_;
  /// The BatchingPredictor each engine owns (non-owning view), so
  /// swap_backend can push the new fingerprint into the score-cache
  /// namespacing of every dispatcher.
  std::vector<BatchingPredictor*> batch_predictors_;
  std::vector<std::thread> dispatchers_;
  std::atomic<long long> backend_swaps_{0};

  mutable std::mutex pause_mu_;
  std::condition_variable pause_cv_;
  bool paused_ = false;
  /// swap_backend calls waiting for or holding backend_mu_. Dispatchers
  /// take no new request while it is nonzero: the rwlock prefers readers,
  /// and dispatchers that kept re-taking it shared could starve a swap.
  int swaps_pending_ = 0;

  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::uint64_t> completion_seq_{0};
  std::array<std::atomic<long long>, kServeStatusCount> status_counts_{};
  std::array<std::atomic<long long>, kFlowStageCount> error_counts_{};
  std::atomic<long long> retry_count_{0};
  std::atomic<long long> degraded_count_{0};
  Clock::time_point started_;

  obs::FlightRecorder flight_recorder_;
  std::atomic<long long> last_flight_dump_ms_{-1000000};
  std::unique_ptr<obs::WindowSampler> window_;
  std::unique_ptr<AdminServer> admin_;

  mutable std::mutex shutdown_mu_;
  bool shut_down_ = false;
};

}  // namespace ldmo::serve
