#include "obs/profiler.hpp"

#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>
#include <time.h>
#include <ucontext.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "common/check.hpp"
#include "obs/flush.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace tspopt::obs {

namespace {

// The one profiler allowed to sample this process (SIGPROF and
// ITIMER_PROF are process-wide). Published before the timer is armed,
// cleared before the handler is restored.
std::atomic<Profiler*> g_active{nullptr};

// Handlers in flight right now. stop() clears g_active and then waits for
// this to reach zero, so a Profiler is never destroyed under a handler
// that already loaded its pointer.
std::atomic<int> g_in_handler{0};

// The env-driven profiler, observable without creating it.
Profiler* g_env_profiler = nullptr;

// Ring lookup cache: one CAS-claimed ring per (thread, profiler
// instance). Keyed by a never-reused instance id, not the Profiler
// pointer, so a new profiler allocated at a recycled address cannot
// revive a stale cache entry.
struct RingCache {
  std::uint64_t instance = 0;
  Profiler::ThreadRing* ring = nullptr;
};
thread_local RingCache t_ring_cache;

std::uint64_t next_instance_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

// The program counter the signal interrupted, from the handler's third
// argument. Lets the sampler trim its own frames (handler, kernel
// trampoline) off the backtrace by address instead of by name — the
// name-based skip fails when those frames only resolve as module+offset.
void* interrupted_pc(void* ctx) {
  if (ctx == nullptr) return nullptr;
  auto* uc = static_cast<ucontext_t*>(ctx);
#if defined(__x86_64__)
  return reinterpret_cast<void*>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return reinterpret_cast<void*>(uc->uc_mcontext.pc);
#else
  (void)uc;
  return nullptr;
#endif
}

void sigprof_trampoline(int, siginfo_t*, void* ctx) {
  int saved_errno = errno;
  g_in_handler.fetch_add(1, std::memory_order_acq_rel);
  Profiler* profiler = g_active.load(std::memory_order_acquire);
  if (profiler != nullptr) {
    profiler->sample_current_thread(interrupted_pc(ctx));
  }
  g_in_handler.fetch_sub(1, std::memory_order_release);
  errno = saved_errno;
}

std::int64_t monotonic_now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// Leading frames that are the act of sampling, not the sampled code: the
// handler itself, the kernel's signal trampoline, sanitizer interposers.
bool is_sampling_machinery(const std::string& symbol) {
  static const char* kPatterns[] = {
      "sample_current_thread", "sigprof_trampoline", "__restore_rt",
      "backtrace",             "__sanitizer",        "__interceptor",
      "__tsan",                "__asan",             "sigaction",
  };
  for (const char* pattern : kPatterns) {
    if (symbol.find(pattern) != std::string::npos) return true;
  }
  return false;
}

// Collapsed-stack tokens: flamegraph.pl splits frames on ';' and the
// count on the last space, so neither may appear inside a frame name
// (demangled C++ signatures contain both). Control bytes become '?' so a
// garbage "symbol" cannot corrupt the line structure.
std::string sanitize_token(std::string_view raw) {
  constexpr std::size_t kMaxToken = 240;
  std::string out;
  out.reserve(std::min(raw.size(), kMaxToken));
  for (char c : raw) {
    if (out.size() >= kMaxToken) {
      out += "...";
      break;
    }
    if (c == ' ') continue;
    if (c == ';') {
      out += ':';
    } else if (static_cast<unsigned char>(c) < 0x20 ||
               static_cast<unsigned char>(c) == 0x7F) {
      out += '?';
    } else {
      out += c;
    }
  }
  if (out.empty()) return "?";
  return out;
}

std::string build_collapsed_line(const std::vector<std::string>& symbols,
                                 const char* const* spans, int num_spans) {
  std::string line;
  for (int i = 0; i < num_spans; ++i) {
    if (spans[i] == nullptr) continue;
    if (!line.empty()) line += ';';
    line += sanitize_token(spans[i]);
  }
  // `symbols` is leaf-first; emit root-first, skipping the leading
  // sampling machinery so the leaf is the sampled code itself.
  std::size_t skip = 0;
  while (skip < symbols.size() && is_sampling_machinery(symbols[skip])) {
    ++skip;
  }
  if (skip == symbols.size()) skip = 0;  // all machinery: keep the truth
  bool any_frame = false;
  for (std::size_t i = symbols.size(); i-- > skip;) {
    if (!line.empty()) line += ';';
    line += sanitize_token(symbols[i]);
    any_frame = true;
  }
  if (!any_frame) {
    if (!line.empty()) line += ';';
    line += "[unknown]";
  }
  return line;
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

std::string symbolize_pc(void* pc) {
  if (pc == nullptr) return "0x0";
  Dl_info info{};
  if (::dladdr(pc, &info) != 0 && info.dli_sname != nullptr &&
      *info.dli_sname != '\0') {
    int status = -1;
    char* demangled =
        abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    std::string name = (status == 0 && demangled != nullptr)
                           ? std::string(demangled)
                           : std::string(info.dli_sname);
    std::free(demangled);
    return name;
  }
  char buf[64];
  if (info.dli_fname != nullptr && *info.dli_fname != '\0' &&
      info.dli_fbase != nullptr) {
    // Known object, unknown symbol: module base name + offset.
    const char* base = std::strrchr(info.dli_fname, '/');
    base = (base != nullptr) ? base + 1 : info.dli_fname;
    std::snprintf(buf, sizeof buf, "+0x%zx",
                  reinterpret_cast<std::uintptr_t>(pc) -
                      reinterpret_cast<std::uintptr_t>(info.dli_fbase));
    return std::string(base) + buf;
  }
  std::snprintf(buf, sizeof buf, "0x%zx",
                reinterpret_cast<std::uintptr_t>(pc));
  return buf;
}

std::string collapse_sample(void* const* frames, int num_frames,
                            const char* const* spans, int num_spans) {
  num_frames = std::clamp(num_frames, 0, Profiler::kMaxFrames);
  num_spans = std::clamp(num_spans, 0, Profiler::kMaxSpans);
  if (frames == nullptr) num_frames = 0;
  if (spans == nullptr) num_spans = 0;
  std::vector<std::string> symbols;
  symbols.reserve(static_cast<std::size_t>(num_frames));
  for (int i = 0; i < num_frames; ++i) symbols.push_back(symbolize_pc(frames[i]));
  return build_collapsed_line(symbols, spans, num_spans);
}

Profiler::Profiler(ProfilerOptions options)
    : options_(options), instance_id_(next_instance_id()) {
  options_.hz = std::clamp(options_.hz, 1.0, 1000.0);
  options_.max_threads = std::max<std::size_t>(1, options_.max_threads);
  options_.ring_capacity = std::max<std::size_t>(8, options_.ring_capacity);
  rings_.reserve(options_.max_threads);
  for (std::size_t i = 0; i < options_.max_threads; ++i) {
    auto ring = std::make_unique<ThreadRing>();
    ring->slots.resize(options_.ring_capacity);
    rings_.push_back(std::move(ring));
  }
}

Profiler::~Profiler() { stop(); }

bool Profiler::start() {
  if (running()) return true;
  Profiler* expected = nullptr;
  if (!g_active.compare_exchange_strong(expected, this,
                                        std::memory_order_acq_rel)) {
    return false;  // another capture owns SIGPROF
  }

  // Prime backtrace(): its first call lazily loads the libgcc unwinder
  // (dlopen + malloc), which must not happen inside a signal handler.
  void* prime[4];
  ::backtrace(prime, 4);

  // Span names are maintained from here until stop().
  set_span_name_capture(true);

  struct sigaction sa {};
  sa.sa_sigaction = &sigprof_trampoline;
  sa.sa_flags = SA_RESTART | SA_SIGINFO;
  // Empty mask: SIGPROF must not delay SIGTERM/SIGINT (the serve drain
  // latch) — the coexistence contract tested in test_profiler.cpp.
  sigemptyset(&sa.sa_mask);
  if (::sigaction(SIGPROF, &sa, &old_action_) != 0) {
    set_span_name_capture(false);
    g_active.store(nullptr, std::memory_order_release);
    return false;
  }

  const long period_us =
      std::max(1000L, std::lround(1e6 / options_.hz));
  itimerval timer{};
  timer.it_interval.tv_sec = period_us / 1'000'000;
  timer.it_interval.tv_usec = period_us % 1'000'000;
  timer.it_value = timer.it_interval;
  if (::setitimer(ITIMER_PROF, &timer, &old_timer_) != 0) {
    ::sigaction(SIGPROF, &old_action_, nullptr);
    set_span_name_capture(false);
    g_active.store(nullptr, std::memory_order_release);
    return false;
  }

  running_.store(true, std::memory_order_release);
  if (options_.start_drain_thread) {
    drain_thread_ = std::jthread([this](std::stop_token st) {
      std::mutex wait_mu;
      std::condition_variable_any cv;
      auto period =
          std::chrono::duration<double, std::milli>(options_.drain_period_ms);
      std::unique_lock<std::mutex> lock(wait_mu);
      while (!st.stop_requested()) {
        cv.wait_for(lock, st, period, [] { return false; });
        if (st.stop_requested()) break;
        drain_now();
      }
    });
  }
  return true;
}

void Profiler::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;

  // Disarm in the reverse order of start(): timer first (no new SIGPROF),
  // previous disposition back, then unpublish and wait out any handler
  // that already holds our pointer.
  ::setitimer(ITIMER_PROF, &old_timer_, nullptr);
  ::sigaction(SIGPROF, &old_action_, nullptr);
  g_active.store(nullptr, std::memory_order_release);
  while (g_in_handler.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  set_span_name_capture(false);

  if (drain_thread_.joinable()) {
    drain_thread_.request_stop();
    drain_thread_.join();
  }
  drain_now();  // everything buffered makes it into the fold
}

void Profiler::sample_current_thread(void* pc) {
  // Everything here runs on the sampled thread inside the SIGPROF
  // handler: preallocated memory, atomics and AS-safe calls only.
  ThreadRing* ring =
      (t_ring_cache.instance == instance_id_) ? t_ring_cache.ring : nullptr;
  if (ring == nullptr) {
    const std::uint32_t ordinal = current_thread_ordinal();
    for (const std::unique_ptr<ThreadRing>& candidate : rings_) {
      std::uint32_t expected = 0;
      if (candidate->owner.load(std::memory_order_relaxed) == ordinal ||
          candidate->owner.compare_exchange_strong(
              expected, ordinal, std::memory_order_acq_rel)) {
        ring = candidate.get();
        break;
      }
    }
    if (ring == nullptr) {
      pool_exhausted_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    t_ring_cache = {instance_id_, ring};
  }

  const std::uint64_t head = ring->head.load(std::memory_order_relaxed);
  const std::uint64_t tail = ring->tail.load(std::memory_order_acquire);
  if (head - tail >= ring->slots.size()) {
    ring->dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  RawSample& sample = ring->slots[head % ring->slots.size()];
  sample.t_ns = monotonic_now_ns();
  sample.tid = current_thread_ordinal();
  int n = ::backtrace(sample.frames, kMaxFrames);
  if (pc != nullptr) {
    // Trim our own frames (this function, the signal trampolines) so the
    // leaf is the interrupted code. The signal frame unwinds to the exact
    // interrupted PC, so an address match finds it; when it doesn't
    // (foreign arch, truncated stack), keep everything — the name-based
    // skip at fold time is the fallback.
    for (int i = 0; i < n; ++i) {
      if (sample.frames[i] == pc) {
        for (int j = i; j < n; ++j) sample.frames[j - i] = sample.frames[j];
        n -= i;
        break;
      }
    }
  }
  sample.num_frames = n;
  sample.num_spans = current_span_names(sample.spans, kMaxSpans);
  ring->head.store(head + 1, std::memory_order_release);
}

const std::string& Profiler::symbolize_cached(void* pc) {
  auto it = symbol_cache_.find(pc);
  if (it != symbol_cache_.end()) return it->second;
  return symbol_cache_.emplace(pc, symbolize_pc(pc)).first->second;
}

void Profiler::consume(const RawSample& sample) {
  ++samples_;

  const int num_spans = std::clamp(sample.num_spans, 0, kMaxSpans);
  if (num_spans > 0) {
    ++attributed_;
    const char* leaf = sample.spans[num_spans - 1];
    for (int i = 0; i < num_spans; ++i) {
      const char* name = sample.spans[i];
      if (name == nullptr) continue;
      bool repeated = false;  // same span name nested: count the stack once
      for (int j = 0; j < i; ++j) {
        if (sample.spans[j] != nullptr &&
            std::strcmp(sample.spans[j], name) == 0) {
          repeated = true;
          break;
        }
      }
      if (repeated) continue;
      SpanCounts& counts = span_counts_[name];
      ++counts.stack;
      if (leaf != nullptr && std::strcmp(name, leaf) == 0) ++counts.leaf;
    }
  }

  const int num_frames = std::clamp(sample.num_frames, 0, kMaxFrames);
  std::vector<std::string> symbols;
  symbols.reserve(static_cast<std::size_t>(num_frames));
  for (int i = 0; i < num_frames; ++i) {
    symbols.push_back(symbolize_cached(sample.frames[i]));
  }
  ++folded_[build_collapsed_line(symbols, sample.spans, num_spans)];

  if (chrome_.size() < options_.max_chrome_samples) {
    ChromeSample cs;
    cs.t_ns = sample.t_ns;
    cs.tid = sample.tid;
    cs.span = num_spans > 0 ? sample.spans[num_spans - 1] : nullptr;
    // Leaf frame below the sampling machinery, for the track tooltip.
    std::size_t leaf = 0;
    while (leaf < symbols.size() && is_sampling_machinery(symbols[leaf])) {
      ++leaf;
    }
    if (leaf == symbols.size()) leaf = 0;
    cs.func = symbols.empty() ? "[unknown]" : symbols[leaf];
    chrome_.push_back(std::move(cs));
  }
}

void Profiler::drain_now() {
  std::lock_guard<std::mutex> lock(drain_mu_);
  std::uint64_t dropped_total =
      pool_exhausted_.load(std::memory_order_relaxed);
  for (const std::unique_ptr<ThreadRing>& ring : rings_) {
    dropped_total += ring->dropped.load(std::memory_order_relaxed);
    if (ring->owner.load(std::memory_order_acquire) == 0) continue;
    std::uint64_t tail = ring->tail.load(std::memory_order_relaxed);
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    for (; tail != head; ++tail) {
      consume(ring->slots[tail % ring->slots.size()]);
    }
    ring->tail.store(tail, std::memory_order_release);
  }
  // Surface process-wide totals as monotone counters; deltas so multiple
  // sequential captures accumulate instead of clobbering each other.
  Registry& registry = Registry::global();
  if (samples_ > counters_pushed_samples_) {
    registry.counter("obs.profiler.samples")
        .add(samples_ - counters_pushed_samples_);
    counters_pushed_samples_ = samples_;
  }
  if (dropped_total > counters_pushed_dropped_) {
    registry.counter("obs.profiler.dropped")
        .add(dropped_total - counters_pushed_dropped_);
    counters_pushed_dropped_ = dropped_total;
  }
}

std::uint64_t Profiler::samples() const {
  std::lock_guard<std::mutex> lock(drain_mu_);
  return samples_;
}

std::uint64_t Profiler::dropped() const {
  std::uint64_t total = pool_exhausted_.load(std::memory_order_relaxed);
  for (const std::unique_ptr<ThreadRing>& ring : rings_) {
    total += ring->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t Profiler::attributed() const {
  std::lock_guard<std::mutex> lock(drain_mu_);
  return attributed_;
}

std::vector<Profiler::SpanAttribution> Profiler::span_table() const {
  std::lock_guard<std::mutex> lock(drain_mu_);
  std::vector<SpanAttribution> table;
  table.reserve(span_counts_.size());
  for (const auto& [name, counts] : span_counts_) {
    SpanAttribution row;
    row.span = name;
    row.samples = counts.stack;
    row.leaf_samples = counts.leaf;
    row.share = samples_ > 0
                    ? static_cast<double>(counts.stack) /
                          static_cast<double>(samples_)
                    : 0.0;
    table.push_back(std::move(row));
  }
  std::sort(table.begin(), table.end(),
            [](const SpanAttribution& a, const SpanAttribution& b) {
              if (a.samples != b.samples) return a.samples > b.samples;
              return a.span < b.span;
            });
  return table;
}

std::string Profiler::collapsed() const {
  std::lock_guard<std::mutex> lock(drain_mu_);
  std::string out;
  for (const auto& [line, count] : folded_) {
    out += line;
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

void Profiler::write_collapsed(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  TSPOPT_CHECK_MSG(out.good(), "cannot open profile output " << path);
  out << collapsed();
  TSPOPT_CHECK_MSG(out.good(), "failed writing profile to " << path);
}

void Profiler::append_chrome_samples(Tracer& tracer) {
  std::lock_guard<std::mutex> lock(drain_mu_);
  if (chrome_appended_) return;
  chrome_appended_ = true;
  // steady_clock is CLOCK_MONOTONIC on this platform, so the tracer's
  // epoch offset converts sample timestamps exactly.
  const std::int64_t offset = tracer.now_ns() - monotonic_now_ns();
  for (const ChromeSample& cs : chrome_) {
    TraceEvent event;
    event.name = "profiler.sample";
    event.category = "profiler";
    event.start_ns = cs.t_ns + offset;
    event.duration_ns = -1;
    event.tid = cs.tid;
    event.args.emplace_back("span",
                            quoted(cs.span != nullptr ? cs.span : ""));
    event.args.emplace_back("func", quoted(cs.func));
    tracer.record(std::move(event));
  }
}

Profiler* Profiler::global_from_env() {
  static Profiler* profiler = []() -> Profiler* {
    const char* env = std::getenv("TSPOPT_PROFILE");
    if (env == nullptr || *env == '\0') return nullptr;
    std::string spec(env);
    ProfilerOptions options;
    std::string path = spec;
    // "<path>[,hz]": the suffix is an hz override only when it parses as
    // a positive number — a path containing a comma stays a path.
    std::size_t comma = spec.rfind(',');
    if (comma != std::string::npos && comma + 1 < spec.size()) {
      char* end = nullptr;
      double hz = std::strtod(spec.c_str() + comma + 1, &end);
      if (end != nullptr && *end == '\0' && hz > 0.0) {
        options.hz = hz;
        path = spec.substr(0, comma);
      }
    }
    if (path.empty()) {
      std::fprintf(stderr,
                   "TSPOPT_PROFILE: empty output path; profiling disabled\n");
      return nullptr;
    }
    // Leaked on purpose: must outlive the atexit flush.
    g_env_profiler = new Profiler(options);
    g_env_profiler->set_flush_path(path);
    if (!g_env_profiler->start()) {
      std::fprintf(stderr,
                   "TSPOPT_PROFILE: another profiler is active; "
                   "env capture disabled\n");
    }
    install_flush_hooks();
    return g_env_profiler;
  }();
  return profiler;
}

Profiler* Profiler::global_if_started() { return g_env_profiler; }

}  // namespace tspopt::obs
