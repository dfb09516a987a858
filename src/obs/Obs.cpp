//===- obs/Obs.cpp - Ambient observability context ------------------------===//

#include "obs/Obs.h"

#include <atomic>

using namespace jsmm;
using namespace jsmm::obs;

namespace {

std::atomic<bool> Enabled{false};
std::atomic<TraceSink *> Sink{nullptr};

} // namespace

bool obs::metricsEnabled() { return Enabled.load(std::memory_order_relaxed); }

void obs::setMetricsEnabled(bool E) {
  Enabled.store(E, std::memory_order_relaxed);
}

MetricsRegistry &obs::registry() {
  static MetricsRegistry R;
  return R;
}

TraceSink *obs::trace() { return Sink.load(std::memory_order_acquire); }

void obs::setTrace(TraceSink *S) {
  Sink.store(S, std::memory_order_release);
}

JsonValue obs::runSummary(const char *Tool) {
  JsonValue O = JsonValue::object();
  O.set("record", JsonValue("run-summary"));
  O.set("tool", JsonValue(Tool));
  O.set("schema", JsonValue(1));
  MetricsRegistry &R = registry();
  // The schema always carries solver.queries: a run whose candidates were
  // all constraint-free judges them without a solver and reports 0.
  R.counter("solver.queries");
  O.set("counters", R.countersJson());
  O.set("stats", R.statsJson());
  O.set("latency", R.latencyJson());
  return O;
}
