#ifndef FTREPAIR_COMMON_TRACE_H_
#define FTREPAIR_COMMON_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace ftrepair {

/// \brief Scoped-span tracing with Chrome trace_event JSON export.
///
/// Usage at an instrumentation point:
///
///   FTR_TRACE_SPAN("expansion.solve_single");
///   FTR_TRACE_SPAN("expansion.solve", {{"fd", fd.name()}});
///
/// The span records a complete ("ph":"X") event from construction to
/// scope exit. Tracing is *disabled by default*: a disabled span costs
/// one relaxed atomic load and touches no clock, so instrumented code
/// runs at full speed in production. Enable with
/// `Tracer::Instance().Enable()` (the CLI does this for --trace-json)
/// and export with ExportJson(); the output loads directly in
/// chrome://tracing and https://ui.perfetto.dev.
///
/// Events land in a lock-sharded ring buffer: writers pick a shard from
/// their thread id, so concurrent repairs on different threads contend
/// only rarely. When a shard ring wraps, its oldest events are
/// overwritten and the drop is counted (surfaced in the export as a
/// `ftrepair.trace.dropped` metadata event).
class Tracer {
 public:
  using Args = std::vector<std::pair<std::string, std::string>>;

  static Tracer& Instance();

  /// Clears the buffer and starts recording. Timestamps are relative
  /// to the Enable() call.
  void Enable();
  void Disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Microseconds since Enable() (0 when disabled).
  double NowUs() const;

  /// Records a complete event ("ph":"X"): a span [ts_us, ts_us+dur_us].
  void RecordComplete(std::string name, double ts_us, double dur_us,
                      Args args = {});
  /// Records an instant event ("ph":"i") at now — e.g. a degradation.
  void RecordInstant(std::string name, Args args = {});

  /// Writes {"traceEvents":[...]} with every buffered event.
  void ExportJson(std::ostream& out) const;
  /// ExportJson to `path`.
  Status WriteFile(const std::string& path) const;

  /// Number of events dropped to ring-buffer wrap since Enable().
  uint64_t dropped() const;

 private:
  struct Event {
    char phase;  // 'X' complete, 'i' instant
    std::string name;
    double ts_us;
    double dur_us;
    uint32_t tid;
    Args args;
  };

  // Shard count and per-shard capacity bound worst-case memory at
  // ~kNumShards * kShardCapacity events. 64k events outlast any
  // single CLI run; long-running servers wrap and keep the newest.
  static constexpr size_t kNumShards = 8;
  static constexpr size_t kShardCapacity = 8192;

  struct Shard {
    mutable std::mutex mu;
    std::vector<Event> ring;
    size_t next = 0;       // next write position
    uint64_t total = 0;    // events ever written since Enable()
  };

  Tracer();
  Shard& ShardForThisThread();
  void Push(Event event);

  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Shard> shards_;
};

/// RAII span: records name + wall time into the Tracer on scope exit.
/// Cheap no-op while tracing is disabled (no clock read, no args copy).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) : name_(name) {
    active_ = Tracer::Instance().enabled();
    if (active_) start_us_ = Tracer::Instance().NowUs();
  }
  TraceSpan(const char* name, Tracer::Args args) : name_(name) {
    active_ = Tracer::Instance().enabled();
    if (active_) {
      args_ = std::move(args);
      start_us_ = Tracer::Instance().NowUs();
    }
  }
  ~TraceSpan() {
    if (active_) {
      Tracer& tracer = Tracer::Instance();
      tracer.RecordComplete(name_, start_us_, tracer.NowUs() - start_us_,
                            std::move(args_));
    }
  }

  /// Adds an argument known only once the spanned work has run.
  void AddArg(std::string key, std::string value) {
    if (active_) args_.emplace_back(std::move(key), std::move(value));
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  bool active_;
  double start_us_ = 0;
  Tracer::Args args_;
};

#define FTR_TRACE_CONCAT_IMPL(a, b) a##b
#define FTR_TRACE_CONCAT(a, b) FTR_TRACE_CONCAT_IMPL(a, b)

/// FTR_TRACE_SPAN("name") or FTR_TRACE_SPAN("name", {{"k", v}}):
/// scoped span covering the rest of the enclosing block.
#define FTR_TRACE_SPAN(...) \
  ::ftrepair::TraceSpan FTR_TRACE_CONCAT(ftr_trace_span_, __LINE__)(__VA_ARGS__)

}  // namespace ftrepair

#endif  // FTREPAIR_COMMON_TRACE_H_
