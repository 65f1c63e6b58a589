// Reusable LDMO session engine (the top of the memory architecture,
// DESIGN.md §9).
//
// LdmoFlow binds caller-owned components per call; FlowEngine instead OWNS
// the whole stack for a session — the lithography simulator (whose SOCS
// kernels and FFT plans come from the process-wide caches), the ILT engine,
// the printability predictor, and, implicitly, the thread workspaces its
// runs warm up. Constructing one FlowEngine and calling run()/run_many()
// across many layouts amortizes every one-time cost: kernels are built
// once, FFT plans are built once, and after the first run the buffer pools
// serve every hot-path checkout without touching the heap.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/ldmo_flow.h"
#include "obs/report.h"

namespace ldmo::core {

/// Everything a session needs: the optical model plus the flow knobs.
struct FlowEngineConfig {
  litho::LithoConfig litho;
  LdmoConfig flow;
};

/// Session-owning LDMO engine: one instance, many layouts.
class FlowEngine {
 public:
  /// Per-run summary retained by the session for reporting.
  struct RunRecord {
    std::string layout;
    double score = 0.0;  ///< final Eq. 9 score of the produced masks
    double seconds = 0.0;
    int candidates_tried = 0;
  };

  /// Aggregates over every run() of this engine.
  struct SessionStats {
    int runs = 0;
    int cancelled_runs = 0;  ///< token-cancelled runs (not in history)
    int failed_runs = 0;     ///< stage-failed runs (not in history)
    int degraded_runs = 0;   ///< runs that fell back to heuristic ranking
    int warm_started_runs = 0;  ///< runs whose winning ILT attempt was seeded
    double total_seconds = 0.0;
    long long candidates_generated = 0;
    long long candidates_tried = 0;
    std::vector<RunRecord> history;  ///< in run order
  };

  /// Default predictor: RawPrintPredictor (analytic, no training needed).
  explicit FlowEngine(FlowEngineConfig config = {});

  /// Adopts a caller-trained predictor (e.g. a CnnPredictor); a null
  /// pointer falls back to the default.
  FlowEngine(FlowEngineConfig config,
             std::unique_ptr<PrintabilityPredictor> predictor);

  const FlowEngineConfig& config() const { return config_; }
  const litho::LithoSimulator& simulator() const { return simulator_; }
  const opc::IltEngine& ilt_engine() const { return engine_; }
  PrintabilityPredictor& predictor() { return *predictor_; }

  /// Installs (or clears) the learned warm-start initializer. Shared so the
  /// serving layer can point every dispatcher engine at one model. A
  /// non-null initializer also turns config().flow.warm_start.enabled on.
  /// The initializer's grid must match the simulator (checked here, throws
  /// ldmo::Error).
  void set_warm_start(std::shared_ptr<const MaskInitializer> warm_start);
  const MaskInitializer* warm_start() const { return warm_start_.get(); }

  /// One end-to-end LDMO run (generation -> prediction -> ILT), recorded
  /// in the session stats. `token` (optional) cancels cooperatively —
  /// deadline tokens abort the ILT loop mid-iteration; a cancelled run
  /// returns `cancelled = true`, is counted in cancelled_runs and is NOT
  /// recorded in the session history. A stage-failed run likewise returns
  /// `failed = true` (never throws), is counted in failed_runs and stays
  /// out of the history; degraded runs ARE real runs and are recorded.
  LdmoResult run(const layout::Layout& layout,
                 runtime::CancellationToken token = {});

  /// Runs every layout through the session, in order (each run already
  /// parallelizes internally). Without a token, results are index-aligned
  /// with `layouts` — failed runs occupy their slot with `failed = true`
  /// so one broken layout never shifts the alignment or stops the batch.
  /// A fired token stops the batch between runs (and aborts the in-flight
  /// run's ILT loop), returning only the completed prefix —
  /// result.size() < layouts.size() signals the truncation.
  std::vector<LdmoResult> run_many(const std::vector<layout::Layout>& layouts,
                                   runtime::CancellationToken token = {});

  /// Optional pre-touch: one throwaway blank-mask print warms the FFT
  /// plans, kernel scratch and buffer pools of the calling thread and the
  /// worker threads, so the first measured run starts at steady state.
  /// Bumps the litho.prints/litho.exposures counters like any print.
  void warmup();

  const SessionStats& session() const { return session_; }

  /// Session RunReport: flow/workspace metric snapshot (pool gauges are
  /// published first), span trees, and a "session" section with the
  /// aggregate stats and per-run history rows.
  obs::RunReport session_report() const;

  /// Renders session_report() to `path` (throws on I/O error).
  void write_session_report(const std::string& path) const;

 private:
  FlowEngineConfig config_;
  litho::LithoSimulator simulator_;
  opc::IltEngine engine_;
  std::unique_ptr<PrintabilityPredictor> predictor_;
  std::shared_ptr<const MaskInitializer> warm_start_;
  SessionStats session_;
};

}  // namespace ldmo::core
