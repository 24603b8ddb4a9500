// Low-overhead span tracer with Chrome trace-event / Perfetto export.
//
// Instrumented code opens RAII spans:
//
//   obs::Span span = obs::Tracer::global().span("engine.pass", "engine");
//   if (span) span.arg("n", n);
//
// When the tracer is disabled (the default) span() is a single relaxed
// atomic load and the returned Span is inert — the ISSUE's "no measurable
// overhead" guard. When enabled, each finished span records a named,
// nested (depth-tracked), thread-attributed event with steady-clock
// timestamps and key/value arguments; the whole buffer exports as Chrome
// `chrome://tracing` / Perfetto trace-event JSON ("X" complete events, so
// nesting renders from ts/dur containment per thread track).
//
// The global tracer reads TSPOPT_TRACE at first use: when set to a path,
// tracing is enabled and the trace is written there at process exit or
// std::terminate, by the shared flush hooks (obs/flush.hpp). Tests
// drive private Tracer instances (or enable/flush the global one)
// explicitly.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tspopt::obs {

// Process-unique small integer for the calling thread (assigned on first
// use, in first-use order). This is the "tid" of exported trace events.
std::uint32_t current_thread_ordinal();

// A fresh 16-lowercase-hex distributed-trace correlation id. Unlike span
// ids (process-local ordinals), a trace id travels on the wire: the
// client stamps it into the job spec, and every span/log/journal record
// either side emits for that job carries the same value — which is what
// lets the two processes' Chrome exports merge into one timeline.
std::string new_trace_id();

// The id of the innermost live Span on the calling thread, or 0 when no
// span is open (or tracing is disabled). Structured log events stamp this
// so JSONL lines correlate to trace spans.
std::uint64_t current_span_id();

// ---- Span-name stack (sampling-profiler support) -------------------------
//
// The profiler attributes CPU samples to the phase they landed in, which
// needs the *names* of the live spans on the sampled thread — readable
// from a SIGPROF handler. The id stack above is a std::vector (not
// async-signal-safe), so Span additionally maintains a fixed-size
// per-thread array of name pointers. It is only maintained while capture
// is switched on (the profiler flips it around start/stop), keeping the
// common disabled path at one extra relaxed atomic load per span.

// Deepest nesting the name stack records; deeper spans still balance
// (depth keeps counting) but their names are not visible to the profiler.
inline constexpr int kMaxSpanNameDepth = 16;

// Turn per-thread span-name maintenance on/off process-wide (profiler
// start/stop). Nesting-safe: this is a counter, not a flag — concurrent
// captures each call (true) once and (false) once.
void set_span_name_capture(bool on);
bool span_name_capture_enabled();

// Copy up to `max` live span names of the calling thread into `out`,
// outermost first; returns the number copied. Async-signal-safe on the
// owning thread (plain array reads + one atomic depth load), which is the
// only place the profiler calls it from (SIGPROF runs on the sampled
// thread). Names are string literals and never dangle: a Span pops its
// name before its storage dies.
int current_span_names(const char** out, int max);

// Snapshot of the calling thread's live span names, adoptable on another
// thread. ThreadPool::submit captures one and installs it (SpanNameScope)
// around each task, so profiler samples landing on pool workers attribute
// to the phase that *submitted* the work (engine.pass, tsp.neighbor_lists,
// ...) instead of showing up unattributed. Both calls are no-ops (depth 0)
// while no profiler capture is on.
struct SpanNameSnapshot {
  const char* names[kMaxSpanNameDepth] = {};
  int depth = 0;
};
SpanNameSnapshot capture_span_names();

// RAII: overlay `snapshot` as the calling thread's span-name stack;
// restores the previous stack on destruction. Spans opened inside the
// scope nest on top of the adopted names, exactly as if they had been
// opened on the submitting thread.
class SpanNameScope {
 public:
  explicit SpanNameScope(const SpanNameSnapshot& snapshot);
  ~SpanNameScope();
  SpanNameScope(const SpanNameScope&) = delete;
  SpanNameScope& operator=(const SpanNameScope&) = delete;

 private:
  SpanNameSnapshot saved_;
  bool active_ = false;
};

struct TraceEvent {
  // Name/category point at string literals (the only call-site idiom);
  // they are not copied.
  const char* name = "";
  const char* category = "";
  std::int64_t start_ns = 0;
  std::int64_t duration_ns = 0;  // -1 = instant event
  // Process-unique span id (1-based); instant events carry the id of the
  // span they occurred inside (0 = none). Exported as args.span_id.
  std::uint64_t id = 0;
  std::uint32_t tid = 0;
  std::int32_t depth = 0;  // span nesting depth on its thread (0 = root)
  // Values are pre-rendered JSON fragments (quoted strings or bare
  // numbers), so export never re-inspects types.
  std::vector<std::pair<const char*, std::string>> args;
};

class Tracer;

// RAII span guard. Move-only; records its event when destroyed (or
// finish()ed early). A default-constructed or disabled Span is inert and
// converts to false.
class Span {
 public:
  Span() = default;
  Span(Span&& o) noexcept
      : tracer_(o.tracer_), named_(o.named_), event_(std::move(o.event_)) {
    o.tracer_ = nullptr;
    o.named_ = false;
  }
  Span& operator=(Span&& o) noexcept {
    if (this != &o) {
      finish();
      tracer_ = o.tracer_;
      named_ = o.named_;
      event_ = std::move(o.event_);
      o.tracer_ = nullptr;
      o.named_ = false;
    }
    return *this;
  }
  ~Span() { finish(); }

  explicit operator bool() const { return tracer_ != nullptr; }

  // Attach a key/value attribute. Keys must be string literals.
  void arg(const char* key, std::string_view value);
  void arg(const char* key, const char* value);
  void arg(const char* key, std::int64_t value);
  void arg(const char* key, std::uint64_t value);
  void arg(const char* key, std::int32_t value) {
    arg(key, static_cast<std::int64_t>(value));
  }
  void arg(const char* key, std::uint32_t value) {
    arg(key, static_cast<std::uint64_t>(value));
  }
  void arg(const char* key, double value);
  void arg(const char* key, bool value);

  // Record the event now instead of at destruction.
  void finish();

 private:
  friend class Tracer;
  Span(Tracer* tracer, const char* name, const char* category);
  // Name-only span: pushes onto the span-name stack for profiler
  // attribution but records no trace event (tracing disabled, capture on).
  explicit Span(const char* name);

  Tracer* tracer_ = nullptr;
  bool named_ = false;  // this span pushed onto the span-name stack
  TraceEvent event_;
};

class Tracer {
 public:
  Tracer() = default;

  void enable(bool on);
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Open a span. Inert (no allocation, no clock read) when disabled —
  // unless a profiler capture wants span names, in which case the span
  // still maintains the name stack (two pointer stores, no clock read).
  Span span(const char* name, const char* category = "app") {
    if (enabled()) return Span(this, name, category);
    if (span_name_capture_enabled()) return Span(name);
    return Span();
  }

  // Record a zero-duration instant event (retry decisions, fault hits).
  // All argument values are recorded as strings. No-op when disabled.
  void instant(
      const char* name, const char* category,
      std::initializer_list<std::pair<const char*, std::string>> args = {});

  void record(TraceEvent event);

  std::vector<TraceEvent> events() const;
  std::size_t event_count() const;
  void clear();

  // Chrome trace-event JSON ({"traceEvents": [...]}), loadable by
  // chrome://tracing and ui.perfetto.dev.
  std::string chrome_trace_json() const;
  void write_chrome_trace(const std::string& path) const;

  // Name this process in the export (a Chrome "process_name" metadata
  // event). Events already carry the real pid, so two processes' exports
  // concatenate into one distinguishable multi-process timeline; the name
  // labels the tracks. Empty (the default) emits no metadata event.
  void set_process_name(std::string name);

  // Where flush() writes; the global tracer sets this from TSPOPT_TRACE.
  void set_flush_path(std::string path);
  const std::string& flush_path() const { return flush_path_; }
  // Write the Chrome trace to flush_path(); no-op when the path is empty.
  void flush() const;

  // Nanoseconds since this tracer was constructed (its trace epoch).
  std::int64_t now_ns() const;

  // The process-wide tracer. First use reads TSPOPT_TRACE: a non-empty
  // value enables tracing and installs the shared exit/terminate flush
  // hooks, which write the trace to that path.
  static Tracer& global();

 private:
  friend class Span;

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::string flush_path_;
  std::string process_name_;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
};

}  // namespace tspopt::obs
