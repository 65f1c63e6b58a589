// Layer probes of the traced run: the benchmark times its own calls into
// each module's public functions on the workload's clips and model, so
// every layer reports a busy time measured at its boundary.
#pragma once

#include <vector>

#include "core/flow_engine.h"
#include "harness.h"
#include "serve/request.h"

namespace perfbench {

struct ProbeInputs {
  /// The workload's flow configuration (lithography model + ILT knobs).
  ldmo::core::FlowEngineConfig engine;
  std::string weights_path;
  /// A few of the workload's own clips.
  std::vector<ldmo::layout::Layout> clips;
  /// A completed response of this workload; set where the workload goes
  /// through the wire, to time encode/decode of one response.
  ldmo::serve::ServeResponse sample;
};

/// Times opc/litho/fft/nn/mpl/net calls and the 1-vs-nproc thread speedup,
/// adding their per-layer metrics to `out`. Call at a quiescent point:
/// the speedup probe rebuilds the global thread pool.
void run_layer_probes(const ProbeInputs& inputs, Outcome& out);

}  // namespace perfbench
