#pragma once

/// \file trace.hpp
/// \brief Stage-span tracing for the diagnosis request path.
///
/// Every diagnosis request is decomposed into seven stages:
///
///   net_recv       frame header seen -> request decoded & submitted
///   queue_wait     batch's oldest request enqueued -> batch processing
///                  starts (one sample per batch: its worst-case wait)
///   batch_coalesce first pop of a batch -> same-circuit scoop finished
///   dict_fetch     DictionaryStore::get (memory / disk / build tiers)
///   solve          session diagnose_batch wall time
///   score          splitting batch results + completing futures
///   reply_send     encoding + writing the reply frame
///
/// Each stage feeds a microsecond histogram
/// `ftdiag_stage_duration_us{stage="..."}` in a `Registry`.  All recording
/// is gated by `obs::enabled()` and costs two steady_clock reads plus a
/// histogram observe when on.

#include <array>
#include <chrono>
#include <cstdint>

#include "obs/metrics.hpp"

namespace ftdiag::obs {

enum class Stage : std::uint8_t {
  kNetRecv = 0,
  kQueueWait,
  kBatchCoalesce,
  kDictFetch,
  kSolve,
  kScore,
  kReplySend,
};
inline constexpr std::size_t kStageCount = 7;

/// Stable exposition label for a stage ("net_recv", "queue_wait", ...).
[[nodiscard]] const char* stage_name(Stage stage) noexcept;

/// Owns the seven stage histograms.
class Tracer {
 public:
  explicit Tracer(Registry& registry = Registry::global());

  /// Process-wide tracer bound to `Registry::global()`.
  static Tracer& global();

  /// Record one stage duration (microseconds).  No-op when disabled.
  void record(Stage stage, double us) noexcept;

  [[nodiscard]] Histogram& stage_histogram(Stage stage) noexcept {
    return *stages_[static_cast<std::size_t>(stage)];
  }

 private:
  std::array<Histogram*, kStageCount> stages_{};
};

/// RAII span: measures construction -> finish()/destruction and records
/// it against a stage.  When `obs::enabled()` is false at construction
/// the span takes no clock reads at all.
class Span {
 public:
  explicit Span(Stage stage, Tracer& tracer = Tracer::global()) noexcept
      : tracer_(&tracer), stage_(stage) {
    if (enabled()) {
      armed_ = true;
      start_ = std::chrono::steady_clock::now();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { finish(); }

  /// Record now instead of at destruction (idempotent).
  void finish() noexcept {
    if (!armed_) return;
    armed_ = false;
    tracer_->record(stage_, elapsed_us());
  }
  /// Drop the measurement without recording (e.g. error paths).
  void cancel() noexcept { armed_ = false; }

  [[nodiscard]] double elapsed_us() const noexcept {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  Tracer* tracer_;
  Stage stage_;
  std::chrono::steady_clock::time_point start_{};
  bool armed_ = false;
};

}  // namespace ftdiag::obs
