#include "obs/trace.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <random>

#include "common/check.hpp"
#include "obs/flush.hpp"
#include "obs/json.hpp"

namespace tspopt::obs {

namespace {

// Per-thread span nesting depth. Thread-local and process-global rather
// than per-tracer: a thread is inside one span stack regardless of which
// tracer records it, and the common case is the single global tracer.
thread_local std::int32_t t_depth = 0;

// The ids of the live spans enclosing the current point of execution,
// innermost last. Log events and instants read the top to correlate with
// the span they happened inside.
thread_local std::vector<std::uint64_t> t_span_stack;

// The *names* of the live spans, outermost first — the async-signal-safe
// mirror of the stacks above that the sampling profiler reads from its
// SIGPROF handler. Fixed-size array plus an atomic depth: the handler
// runs on the owning thread, so the release store on depth is only there
// to stop the compiler reordering the name store past it. `depth` keeps
// counting past kMaxSpanNameDepth so deep nests stay balanced; the
// overflowed names are simply not recorded.
struct ThreadSpanNames {
  const char* names[kMaxSpanNameDepth] = {};
  std::atomic<int> depth{0};
};
thread_local ThreadSpanNames t_span_names;

// Capture refcount: >0 while at least one profiler wants span names.
std::atomic<int> g_span_name_capture{0};

// Push/pop are only called from Span construction/destruction on the
// span's own thread (the RAII idiom everywhere in this codebase); a span
// moved across threads would unbalance the *name* stack of both threads,
// which is why Span is move-only within one scope, not a cross-thread
// handle.
inline void push_span_name(const char* name) {
  int d = t_span_names.depth.load(std::memory_order_relaxed);
  if (d >= 0 && d < kMaxSpanNameDepth) t_span_names.names[d] = name;
  t_span_names.depth.store(d + 1, std::memory_order_release);
}

inline void pop_span_name() {
  int d = t_span_names.depth.load(std::memory_order_relaxed);
  if (d > 0) t_span_names.depth.store(d - 1, std::memory_order_release);
}

std::uint64_t next_span_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::string quoted(std::string_view v) {
  std::string out;
  out.reserve(v.size() + 2);
  out += '"';
  out += json_escape(v);
  out += '"';
  return out;
}

}  // namespace

std::uint32_t current_thread_ordinal() {
  static std::atomic<std::uint32_t> next{1};
  thread_local std::uint32_t ordinal =
      next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

std::uint64_t current_span_id() {
  return t_span_stack.empty() ? 0 : t_span_stack.back();
}

void set_span_name_capture(bool on) {
  g_span_name_capture.fetch_add(on ? 1 : -1, std::memory_order_relaxed);
}

bool span_name_capture_enabled() {
  return g_span_name_capture.load(std::memory_order_relaxed) > 0;
}

int current_span_names(const char** out, int max) {
  int depth = t_span_names.depth.load(std::memory_order_acquire);
  int n = std::min({depth, max, kMaxSpanNameDepth});
  for (int i = 0; i < n; ++i) out[i] = t_span_names.names[i];
  return n < 0 ? 0 : n;
}

SpanNameSnapshot capture_span_names() {
  SpanNameSnapshot snapshot;
  if (span_name_capture_enabled()) {
    snapshot.depth =
        current_span_names(snapshot.names, kMaxSpanNameDepth);
  }
  return snapshot;
}

SpanNameScope::SpanNameScope(const SpanNameSnapshot& snapshot) {
  if (snapshot.depth <= 0 || !span_name_capture_enabled()) return;
  active_ = true;
  saved_.depth = t_span_names.depth.load(std::memory_order_relaxed);
  int saved_n = std::min(saved_.depth, kMaxSpanNameDepth);
  for (int i = 0; i < saved_n; ++i) saved_.names[i] = t_span_names.names[i];
  for (int i = 0; i < snapshot.depth; ++i) {
    t_span_names.names[i] = snapshot.names[i];
  }
  t_span_names.depth.store(snapshot.depth, std::memory_order_release);
}

SpanNameScope::~SpanNameScope() {
  if (!active_) return;
  int saved_n = std::min(saved_.depth, kMaxSpanNameDepth);
  for (int i = 0; i < saved_n; ++i) t_span_names.names[i] = saved_.names[i];
  t_span_names.depth.store(saved_.depth, std::memory_order_release);
}

std::string new_trace_id() {
  static std::atomic<std::uint64_t> salt{0};
  std::random_device rd;
  std::uint64_t bits = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  bits ^= salt.fetch_add(0x9E3779B97F4A7C15ULL, std::memory_order_relaxed);
  char out[17];
  static const char* hex = "0123456789abcdef";
  for (int i = 0; i < 16; ++i) out[i] = hex[(bits >> (60 - 4 * i)) & 0xF];
  out[16] = '\0';
  return out;
}

Span::Span(Tracer* tracer, const char* name, const char* category)
    : tracer_(tracer), named_(true) {
  event_.name = name;
  event_.category = category;
  event_.tid = current_thread_ordinal();
  event_.depth = t_depth++;
  event_.id = next_span_id();
  t_span_stack.push_back(event_.id);
  // Traced spans always maintain the name stack (two stores — noise next
  // to the event bookkeeping above), so a profiler started mid-run sees
  // complete attribution whenever tracing is on.
  push_span_name(name);
  event_.start_ns = tracer_->now_ns();
}

Span::Span(const char* name) : named_(true) { push_span_name(name); }

void Span::arg(const char* key, std::string_view value) {
  if (tracer_ == nullptr) return;
  event_.args.emplace_back(key, quoted(value));
}

void Span::arg(const char* key, const char* value) {
  arg(key, std::string_view(value));
}

void Span::arg(const char* key, std::int64_t value) {
  if (tracer_ == nullptr) return;
  event_.args.emplace_back(key, std::to_string(value));
}

void Span::arg(const char* key, std::uint64_t value) {
  if (tracer_ == nullptr) return;
  event_.args.emplace_back(key, std::to_string(value));
}

void Span::arg(const char* key, double value) {
  if (tracer_ == nullptr) return;
  JsonWriter w;
  w.value(value);
  event_.args.emplace_back(key, w.str());
}

void Span::arg(const char* key, bool value) {
  if (tracer_ == nullptr) return;
  event_.args.emplace_back(key, value ? "true" : "false");
}

void Span::finish() {
  if (named_) {
    pop_span_name();
    named_ = false;
  }
  if (tracer_ == nullptr) return;
  event_.duration_ns = tracer_->now_ns() - event_.start_ns;
  --t_depth;
  // Spans close LIFO on their thread in the instrumented code, so the top
  // of the stack is this span; search backwards anyway in case a span was
  // moved across threads or finished out of order.
  for (std::size_t i = t_span_stack.size(); i-- > 0;) {
    if (t_span_stack[i] == event_.id) {
      t_span_stack.erase(t_span_stack.begin() +
                         static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  Tracer* tracer = tracer_;
  tracer_ = nullptr;
  tracer->record(std::move(event_));
}

void Tracer::enable(bool on) {
  enabled_.store(on, std::memory_order_relaxed);
}

void Tracer::instant(
    const char* name, const char* category,
    std::initializer_list<std::pair<const char*, std::string>> args) {
  if (!enabled()) return;
  TraceEvent event;
  event.name = name;
  event.category = category;
  event.tid = current_thread_ordinal();
  event.depth = t_depth;
  event.id = current_span_id();  // the span this instant occurred inside
  event.start_ns = now_ns();
  event.duration_ns = -1;
  for (const auto& [key, value] : args) {
    event.args.emplace_back(key, quoted(value));
  }
  record(std::move(event));
}

void Tracer::record(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(event));
}

std::vector<TraceEvent> Tracer::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::string Tracer::chrome_trace_json() const {
  std::vector<TraceEvent> snapshot = events();
  std::string process_name;
  {
    std::lock_guard<std::mutex> lock(mu_);
    process_name = process_name_;
  }
  const std::int64_t pid = static_cast<std::int64_t>(::getpid());
  JsonWriter w;
  w.begin_object();
  w.key("displayTimeUnit").value("ns");
  w.key("traceEvents").begin_array();
  if (!process_name.empty()) {
    // Chrome metadata event naming this process's track group, so two
    // concatenated exports (client + daemon) stay distinguishable.
    w.begin_object();
    w.key("name").value("process_name");
    w.key("ph").value("M");
    w.key("pid").value(pid);
    w.key("tid").value(std::int64_t{0});
    w.key("args").begin_object();
    w.key("name").value(process_name);
    w.end_object();
    w.end_object();
  }
  for (const TraceEvent& e : snapshot) {
    w.begin_object();
    w.key("name").value(e.name);
    w.key("cat").value(e.category);
    if (e.duration_ns < 0) {
      w.key("ph").value("i");
      w.key("s").value("t");
    } else {
      w.key("ph").value("X");
      w.key("dur").value(static_cast<double>(e.duration_ns) / 1e3);
    }
    w.key("ts").value(static_cast<double>(e.start_ns) / 1e3);
    w.key("pid").value(pid);
    w.key("tid").value(e.tid);
    if (e.id != 0 || !e.args.empty()) {
      w.key("args").begin_object();
      if (e.id != 0) w.key("span_id").value(e.id);
      for (const auto& [key, rendered] : e.args) {
        w.key(key).raw_value(rendered);
      }
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  TSPOPT_CHECK_MSG(out.good(), "cannot open trace output " << path);
  out << chrome_trace_json() << '\n';
  TSPOPT_CHECK_MSG(out.good(), "failed writing trace to " << path);
}

void Tracer::set_process_name(std::string name) {
  std::lock_guard<std::mutex> lock(mu_);
  process_name_ = std::move(name);
}

void Tracer::set_flush_path(std::string path) {
  flush_path_ = std::move(path);
}

void Tracer::flush() const {
  if (!flush_path_.empty()) write_chrome_trace(flush_path_);
}

Tracer& Tracer::global() {
  // Leaked on purpose so the exit flush can never race static
  // destruction. TSPOPT_TRACE is written by the shared exit and terminate
  // hooks (obs/flush.hpp), after the profiler merges its samples.
  static Tracer* tracer = [] {
    auto* t = new Tracer();
    const char* path = std::getenv("TSPOPT_TRACE");
    if (path != nullptr && *path != '\0') {
      t->set_flush_path(path);
      t->enable(true);
      install_flush_hooks();
    }
    return t;
  }();
  return *tracer;
}

}  // namespace tspopt::obs
