//===- obs/Obs.h - Ambient observability context --------------------------===//
//
// Part of the jsmm project: a reproduction of "Repairing and Mechanising the
// JavaScript Relaxed Memory Model" (Watt et al., PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The process-wide observability context tying obs/Metrics.h and
/// obs/Trace.h to the instrumentation sites in the engine, the solvers and
/// the service. Everything is off by default — an instrumentation site
/// costs one relaxed atomic load when disabled, which keeps the
/// `service_jobs_per_sec` floor unaffected — and the front doors switch it
/// on for `--stats[=json]` (metrics) and `--trace=<file>` (events)
/// independently:
///
///   - metricsEnabled() / setMetricsEnabled(): gates every counter,
///     histogram and PhaseTimer write into registry();
///   - registry(): the process-wide MetricsRegistry the layers accumulate
///     into (tests use their own instances and resetValues());
///   - trace() / setTrace(): the current TraceSink, nullptr when tracing
///     is off; the setter does not take ownership (the CLI keeps the sink
///     alive for the run, tests point it at a stringstream).
///
/// PhaseTimer is the RAII scope for per-phase wall clocks: construction
/// resolves the named histogram (only when metrics are enabled),
/// destruction records the elapsed microseconds. Phase timings are
/// approximate wall clocks of the enclosing scope, Runtime class by
/// definition — never part of golden comparisons.
///
//===----------------------------------------------------------------------===//

#ifndef JSMM_OBS_OBS_H
#define JSMM_OBS_OBS_H

#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <chrono>

namespace jsmm::obs {

/// \returns true when metric recording is on (default off).
bool metricsEnabled();
void setMetricsEnabled(bool Enabled);

/// The process-wide registry; created on first use, lives forever.
MetricsRegistry &registry();

/// The current trace sink, or nullptr when tracing is off.
TraceSink *trace();
/// Installs \p Sink as the process trace sink (not owned; nullptr stops
/// tracing). Install before spawning workers — the pointer itself is not
/// synchronised against concurrent emitters.
void setTrace(TraceSink *Sink);

/// RAII phase clock: records the scope's elapsed wall time into the named
/// registry histogram when metrics are enabled, and is a no-op otherwise.
class PhaseTimer {
public:
  explicit PhaseTimer(const char *HistogramName) {
    if (metricsEnabled()) {
      H = &registry().histogram(HistogramName);
      Start = std::chrono::steady_clock::now();
    }
  }
  PhaseTimer(const PhaseTimer &) = delete;
  PhaseTimer &operator=(const PhaseTimer &) = delete;
  ~PhaseTimer() {
    if (H)
      H->recordMicros(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - Start)
              .count()));
  }

private:
  LatencyHistogram *H = nullptr;
  std::chrono::steady_clock::time_point Start;
};

/// The common skeleton of a front door's `run-summary` record:
/// {"record": "run-summary", "tool": \p Tool, "schema": 1, "counters",
/// "stats", "latency"} with the registry's current values. Callers append
/// tool-specific members (job totals, cache hit rate, wall time) before
/// serialising; the "counters" member is the deterministic section, and
/// always carries `solver.queries` (0 when no problem reached a solver).
JsonValue runSummary(const char *Tool);

} // namespace jsmm::obs

#endif // JSMM_OBS_OBS_H
