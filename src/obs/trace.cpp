#include "obs/trace.hpp"

namespace ftdiag::obs {

const char* stage_name(Stage stage) noexcept {
  switch (stage) {
    case Stage::kNetRecv:
      return "net_recv";
    case Stage::kQueueWait:
      return "queue_wait";
    case Stage::kBatchCoalesce:
      return "batch_coalesce";
    case Stage::kDictFetch:
      return "dict_fetch";
    case Stage::kSolve:
      return "solve";
    case Stage::kScore:
      return "score";
    case Stage::kReplySend:
      return "reply_send";
  }
  return "unknown";
}

Tracer::Tracer(Registry& registry) {
  for (std::size_t i = 0; i < kStageCount; ++i) {
    stages_[i] = &registry.histogram(
        "ftdiag_stage_duration_us", Histogram::latency_us_bounds(),
        {{"stage", stage_name(static_cast<Stage>(i))}},
        "per-stage diagnosis request latency in microseconds");
  }
}

Tracer& Tracer::global() {
  // Leaked for the same reason as Registry::global(): spans may fire
  // from worker threads during static destruction.
  static Tracer* g = new Tracer(Registry::global());
  return *g;
}

void Tracer::record(Stage stage, double us) noexcept {
  if (!enabled()) return;
  stages_[static_cast<std::size_t>(stage)]->observe(us);
}

}  // namespace ftdiag::obs
