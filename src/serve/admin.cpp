#include "serve/admin.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <utility>

#include "common/check.hpp"
#include "obs/json.hpp"
#include "obs/profiler.hpp"
#include "obs/prometheus.hpp"
#include "obs/registry.hpp"
#include "obs/runinfo.hpp"

namespace tspopt::serve {

namespace {

constexpr const char* kJsonContentType = "application/json; charset=utf-8";
// Version suffix per the Prometheus exposition-format spec; scrapers use
// it for content negotiation.
constexpr const char* kMetricsContentType =
    "text/plain; version=0.0.4; charset=utf-8";

obs::HttpResponse json_response(const obs::JsonWriter& w) {
  obs::HttpResponse response;
  response.content_type = kJsonContentType;
  response.body = w.str();
  response.body += '\n';
  return response;
}

// /profilez admission: SIGPROF and ITIMER_PROF are process-wide, so the
// at-most-one-capture discipline is process-wide too, not per-daemon.
std::atomic<bool> g_profilez_busy{false};

// One live capture, owned by the connection's deferred poller. The
// destructor runs on every exit path — response sent, client gone, admin
// server stopping — so the timer is always disarmed and the busy flag
// always released.
struct ProfilezCapture {
  obs::Profiler profiler;
  std::chrono::steady_clock::time_point deadline{};
  bool started = false;

  explicit ProfilezCapture(obs::ProfilerOptions options)
      : profiler(options) {}
  ~ProfilezCapture() {
    if (started) profiler.stop();
    g_profilez_busy.store(false, std::memory_order_release);
  }
};

// A deferred poller that answers immediately (error paths).
obs::HttpServer::DeferredPoll immediate(int status, std::string body) {
  return [status, body = std::move(body)](obs::HttpResponse* response) {
    response->status = status;
    response->body = body;
    return true;
  };
}

}  // namespace

void mount_admin(obs::HttpServer& server, AdminContext context) {
  TSPOPT_CHECK_MSG(context.scheduler != nullptr,
                   "mount_admin needs a scheduler");
  // One shared copy of the context, captured by every handler.
  auto ctx = std::make_shared<AdminContext>(std::move(context));

  auto not_ready_reason = [ctx]() -> std::string {
    if (ctx->draining && ctx->draining()) return "draining";
    Scheduler::Readiness readiness = ctx->scheduler->readiness();
    return readiness.ready ? std::string() : readiness.reason;
  };

  server.route("/healthz", [](const obs::HttpRequest&) {
    obs::HttpResponse response;
    response.body = "ok\n";
    return response;
  });

  server.route("/readyz", [not_ready_reason](const obs::HttpRequest&) {
    obs::HttpResponse response;
    std::string reason = not_ready_reason();
    if (reason.empty()) {
      response.body = "ok\n";
    } else {
      response.status = 503;
      response.body = "not ready: " + reason + "\n";
    }
    return response;
  });

  server.route("/metrics", [ctx](const obs::HttpRequest&) {
    // Pull-refresh the sampled queue gauges so a scrape sees the queue as
    // it is now, not as it was at the last submit/settle.
    obs::Registry& registry = obs::Registry::global();
    Scheduler::Stats stats = ctx->scheduler->stats();
    registry.gauge("serve.queue_depth")
        .set(static_cast<double>(stats.queue_depth));
    registry.gauge("serve.queue_oldest_age_ms")
        .set(ctx->scheduler->queue_oldest_age_ms());
    obs::HttpResponse response;
    response.content_type = kMetricsContentType;
    response.body = obs::prometheus_text(registry);
    return response;
  });

  server.route("/statusz", [ctx, not_ready_reason](const obs::HttpRequest&) {
    obs::JsonWriter w;
    w.begin_object();
    w.key("run_id").value(obs::run_id());
    w.key("git").value(obs::git_describe());
    w.key("started_at").value(obs::rfc3339_utc_ms(ctx->started_at));
    w.key("uptime_seconds")
        .value(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             ctx->started_steady)
                   .count());
    w.key("serve_port").value(static_cast<std::uint64_t>(ctx->serve_port));
    std::string reason = not_ready_reason();
    w.key("ready").value(reason.empty());
    if (!reason.empty()) w.key("not_ready_reason").value(reason);
    w.key("queue_oldest_age_ms").value(ctx->scheduler->queue_oldest_age_ms());
    Scheduler::Stats stats = ctx->scheduler->stats();
    w.key("stats");
    write_stats(w, stats);
    // Micro-batcher occupancy: lifetime coalesced batches plus the mean
    // members per batch, so an operator can tell whether the linger window
    // is actually catching the traffic it was sized for.
    {
      const BatcherOptions& batcher = ctx->scheduler->options().batcher;
      w.key("batcher").begin_object();
      w.key("max_batch").value(static_cast<std::uint64_t>(batcher.max_batch));
      w.key("max_wait_ms").value(batcher.max_wait_ms);
      w.key("batches").value(stats.batches);
      w.key("batched_jobs").value(stats.batched_jobs);
      w.key("mean_occupancy")
          .value(stats.batches > 0
                     ? static_cast<double>(stats.batched_jobs) /
                           static_cast<double>(stats.batches)
                     : 0.0);
      w.end_object();
    }
    // Per-phase pipeline latency quantiles from the serve.job_phase_us
    // histograms (linear interpolation inside the hit bucket — see
    // Histogram::quantile). Same bucket layout the scheduler registered,
    // so this lookup returns the live instruments, never fresh ones.
    w.key("phases").begin_object();
    for (JobPhase phase : kJobPhases) {
      obs::Histogram& h = obs::Registry::global().histogram(
          "serve.job_phase_us", Scheduler::latency_buckets_us(),
          {{"phase", to_string(phase)}});
      w.key(to_string(phase)).begin_object();
      w.key("count").value(h.count());
      w.key("p50_us").value(h.count() > 0 ? h.quantile(0.5) : 0.0);
      w.key("p99_us").value(h.count() > 0 ? h.quantile(0.99) : 0.0);
      w.end_object();
    }
    w.end_object();
    if (const Journal* journal = ctx->scheduler->journal()) {
      w.key("journal");
      write_journal_stats(w, *journal);
    }
    w.key("active");
    w.begin_array();
    for (const std::shared_ptr<const Job>& job :
         ctx->scheduler->active_snapshot()) {
      write_job_status(w, *job);
    }
    w.end_array();
    w.end_object();
    return json_response(w);
  });

  server.route("/tracez", [ctx](const obs::HttpRequest& request) {
    std::vector<Scheduler::JobTraceSummary> slowest =
        ctx->scheduler->slowest_settled();
    auto limit = static_cast<std::size_t>(std::clamp<std::int64_t>(
        obs::query_int(request.query, "n",
                       static_cast<std::int64_t>(slowest.size())),
        0, static_cast<std::int64_t>(slowest.size())));
    obs::JsonWriter w;
    w.begin_object();
    w.key("capacity")
        .value(static_cast<std::uint64_t>(Scheduler::kTracezCapacity));
    w.key("slowest");
    w.begin_array();
    for (std::size_t i = 0; i < limit; ++i) {
      const Scheduler::JobTraceSummary& s = slowest[i];
      w.begin_object();
      w.key("id").value(s.id);
      if (!s.trace_id.empty()) w.key("trace_id").value(s.trace_id);
      w.key("engine").value(s.engine);
      w.key("state").value(to_string(s.state));
      for (JobPhase phase : kJobPhases) {
        w.key(std::string(to_string(phase)) + "_ms")
            .value(s.phase_ms[static_cast<std::size_t>(phase)]);
      }
      w.key("total_ms").value(s.total_ms());
      if (s.best_length >= 0) w.key("best").value(s.best_length);
      // Batch membership: which coalesced pass this job rode in and how
      // many members shared it. Absent for jobs that ran solo.
      if (s.batch_id != 0) {
        w.key("batch_id").value(s.batch_id);
        w.key("batch_occupancy")
            .value(static_cast<std::int64_t>(s.batch_occupancy));
      }
      w.end_object();
    }
    w.end_array();
    w.end_object();
    return json_response(w);
  });

  // Live CPU capture. The handler only *starts* the capture; the returned
  // poller waits out the window on the admin loop's tick, so every other
  // endpoint (readiness above all) keeps answering while the profiler
  // runs. The capture object rides in the poller: if the client
  // disconnects mid-capture, the poller is destroyed and the capture
  // cancels via RAII.
  server.route_deferred(
      "/profilez",
      [ctx](const obs::HttpRequest& request)
          -> obs::HttpServer::DeferredPoll {
        if (ctx->profilez_max_seconds <= 0.0) {
          return immediate(404, "profilez disabled\n");
        }
        const auto max_seconds =
            static_cast<std::int64_t>(ctx->profilez_max_seconds);
        std::int64_t seconds = std::clamp<std::int64_t>(
            obs::query_int(request.query, "seconds", 2), 1,
            std::max<std::int64_t>(1, max_seconds));
        std::int64_t hz = std::clamp<std::int64_t>(
            obs::query_int(request.query, "hz", 97), 1, 1000);

        bool expected = false;
        if (!g_profilez_busy.compare_exchange_strong(expected, true)) {
          return immediate(503, "a profile capture is already in flight; "
                                "retry when it finishes\n");
        }
        obs::ProfilerOptions options;
        options.hz = static_cast<double>(hz);
        auto capture = std::make_shared<ProfilezCapture>(options);
        capture->started = capture->profiler.start();
        if (!capture->started) {
          // Keep `capture` alive into the poller: its destructor releases
          // the busy flag.
          return [capture](obs::HttpResponse* response) {
            response->status = 503;
            response->body =
                "another profiler owns SIGPROF in this process "
                "(TSPOPT_PROFILE capture?)\n";
            return true;
          };
        }
        capture->deadline = std::chrono::steady_clock::now() +
                            std::chrono::seconds(seconds);
        return [capture](obs::HttpResponse* response) {
          if (std::chrono::steady_clock::now() < capture->deadline) {
            return false;  // still sampling; poll again next tick
          }
          capture->profiler.stop();
          response->status = 200;
          response->body = capture->profiler.collapsed();
          if (response->body.empty()) {
            // No CPU burned during the window — still a valid capture.
            response->body = "[idle] 0\n";
          }
          return true;
        };
      });
}

}  // namespace tspopt::serve
