#include "obs/flush.hpp"

#include <cstdlib>
#include <exception>
#include <mutex>

#include "obs/log.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"

namespace tspopt::obs {

namespace {

std::terminate_handler g_previous_terminate = nullptr;

void flush_on_terminate() {
  flush_all_telemetry();
  if (g_previous_terminate != nullptr) g_previous_terminate();
  std::abort();
}

}  // namespace

void flush_all_telemetry() noexcept {
  // Each sink flushes independently; a failure in one (e.g. an unwritable
  // profile path) must not stop the others on the way out.
  try {
    Log::global().flush();
  } catch (...) {}
  // The profiler must settle *before* the tracer flushes: stop() disarms
  // SIGPROF and folds the last ring contents, the collapsed stacks go to
  // TSPOPT_PROFILE's path, and the retained samples merge into the trace
  // buffer as the "profiler.sample" track the flush below then writes.
  try {
    if (Profiler* profiler = Profiler::global_if_started()) {
      profiler->stop();
      if (!profiler->flush_path().empty()) {
        profiler->write_collapsed(profiler->flush_path());
      }
      if (Tracer::global().enabled()) {
        profiler->append_chrome_samples(Tracer::global());
      }
    }
  } catch (...) {}
  try {
    Tracer::global().flush();
  } catch (...) {}
}

void install_flush_hooks() {
  static std::once_flag once;
  std::call_once(once, [] {
    std::atexit([] { flush_all_telemetry(); });
    g_previous_terminate = std::set_terminate(flush_on_terminate);
  });
}

}  // namespace tspopt::obs
