// ldmo_perfbench: the repository benchmark. perfbench/run.py builds
// and runs it; see perfbench/README.md for the workloads and metrics.
//
//   ldmo_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--work-dir DIR] [--setup-only] [--corrupt]
//                  [--git-sha SHA --git-dirty 0|1 --source-digest HEX]
//
// Output: a provenance line, a details line, then as the last line one
// JSON object {"correct", "attempted", "failed", "metrics"} — end-to-end
// metrics with --trace 0, the per-layer metrics the workload measures with
// --trace 1 (run.py adds the zeros of the layers it does not exercise).
// Exit code 0 only when every output check passed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "common/log.h"
#include "harness.h"
#include "runtime/thread_pool.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int usage(const char* message) {
  std::fprintf(stderr,
               "ldmo_perfbench: %s\n"
               "usage: ldmo_perfbench --workload "
               "flow_batch_128|serve_mixed_64|cluster_warm_64 --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] [--setup-only] "
               "[--corrupt] [--git-sha SHA] [--git-dirty 0|1] "
               "[--source-digest HEX]\n",
               message);
  return 2;
}

/// Prints `{"<key>": {notes...}}` on one line.
void print_notes(const char* key, const Notes& notes) {
  ldmo::obs::JsonWriter w;
  w.begin_object();
  w.key(key);
  write_notes(w, notes);
  w.end_object();
  std::printf("%s\n", w.str().c_str());
}

/// The result object: {"correct", "attempted", "failed", "metrics"}.
std::string result_line(bool correct, const Outcome& out,
                        const MetricSet& metrics) {
  ldmo::obs::JsonWriter w;
  w.begin_object();
  w.kv("correct", correct);
  w.kv("attempted", out.attempted);
  w.kv("failed", out.failed);
  w.key("metrics");
  w.begin_object();
  for (const Metric& m : metrics.items()) {
    w.key(m.name);
    w.begin_object();
    w.kv("value", m.value);
    w.kv("unit", m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  Options options;
  bool have_seconds = false, have_seed = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--setup-only") {
      options.setup_only = true;
    } else if (arg == "--corrupt") {
      options.corrupt = true;
    } else {
      const char* v = value();
      if (!v) return usage(("missing value for " + arg).c_str());
      if (arg == "--workload") {
        options.workload = v;
      } else if (arg == "--seed") {
        options.seed = std::strtoull(v, nullptr, 10);
        have_seed = true;
      } else if (arg == "--seconds") {
        options.seconds = std::atof(v);
        have_seconds = options.seconds > 0.0;
      } else if (arg == "--trace") {
        options.trace = std::strcmp(v, "1") == 0;
        have_trace = options.trace || std::strcmp(v, "0") == 0;
      } else if (arg == "--work-dir") {
        options.work_dir = v;
      } else if (arg == "--git-sha") {
        options.git_sha = v;
      } else if (arg == "--git-dirty") {
        options.git_dirty = v;
      } else if (arg == "--source-digest") {
        options.source_digest = v;
      } else {
        return usage(("unknown flag " + arg).c_str());
      }
    }
  }
  if (options.workload.empty() || !have_seed ||
      (!options.setup_only && (!have_seconds || !have_trace)))
    return usage("--workload, --seed, --seconds and --trace are required");

  Outcome (*run)(const Options&, Clock::time_point) = nullptr;
  if (options.workload == "flow_batch_128") run = run_flow_batch;
  if (options.workload == "serve_mixed_64") run = run_serve_mixed;
  if (options.workload == "cluster_warm_64") run = run_cluster_warm;
  if (!run) return usage(("unknown workload " + options.workload).c_str());

  ldmo::set_log_level(ldmo::LogLevel::Warn);
  ldmo::runtime::set_thread_count(ldmo::runtime::hardware_threads());
  print_notes("provenance", provenance(options));
  std::fflush(stdout);
  if (!release_build()) {
    std::fprintf(stderr,
                 "ldmo_perfbench: built as '%s', not Release; the run is "
                 "invalid\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }

  Outcome out;
  try {
    std::filesystem::create_directories(options.work_dir);
    out = run(options, process_start);
    if (options.trace) {
      const std::string path = options.work_dir + "/trace_" +
                               options.workload + "_seed" +
                               std::to_string(options.seed) + ".json";
      recorder().write(path, provenance(options));
      out.note("trace_file", path);
      out.note("trace_spans", static_cast<double>(recorder().size()));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ldmo_perfbench: %s\n", e.what());
    return 4;
  }
  // Weights and snapshots are per-run scratch; the trace stays.
  std::error_code ignored;
  for (const char* name : {"predictor.weights", "worker0.snapshot",
                           "worker1.snapshot"})
    std::filesystem::remove(options.work_dir + "/" + name, ignored);

  out.note("weights_digest", hex64(out.weights_digest));
  out.note("setup_s", out.setup_seconds);
  out.note("peak_rss_mb", peak_rss_mb());
  print_notes("details", out.notes);
  if (options.setup_only) {
    ldmo::obs::JsonWriter w;
    w.begin_object();
    w.kv("setup_s", out.setup_seconds);
    w.kv("weights_digest", hex64(out.weights_digest));
    w.end_object();
    std::printf("%s\n", w.str().c_str());
    return 0;
  }

  MetricSet e2e = out.end_to_end;
  e2e.set("setup_s", out.setup_seconds, "s");
  e2e.set("peak_rss_mb", peak_rss_mb(), "MB");
  const bool correct = out.failed == 0 && out.attempted > 0;
  std::printf("%s\n",
              result_line(correct, out, options.trace ? out.per_layer : e2e)
                  .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
