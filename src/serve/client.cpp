#include "serve/client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <random>
#include <thread>

#include "obs/trace.hpp"

namespace tspopt::serve {

namespace {

using Clock = std::chrono::steady_clock;

double ms_until(Clock::time_point deadline) {
  return std::chrono::duration<double, std::milli>(deadline - Clock::now())
      .count();
}

// poll() for `events` on `fd` until `deadline` (infinite when unbounded).
// True when the fd is ready; false when the deadline expired first.
bool poll_until(int fd, short events, bool bounded,
                Clock::time_point deadline) {
  for (;;) {
    int timeout_ms = -1;
    if (bounded) {
      double remaining = ms_until(deadline);
      if (remaining <= 0.0) return false;
      // Round up so a sub-millisecond remainder still polls once.
      timeout_ms = static_cast<int>(remaining) + 1;
    }
    pollfd pfd{fd, events, 0};
    int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return true;  // let the subsequent send/recv surface the error
    }
    if (ready > 0) return true;
    if (bounded && ms_until(deadline) <= 0.0) return false;
  }
}

}  // namespace

Client::Client(const std::string& host, std::uint16_t port,
               ClientOptions options)
    : host_(host), port_(port), options_(options) {
  connect_now();
}

Client::~Client() { disconnect(); }

void Client::disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  pending_.clear();
}

void Client::reconnect() {
  disconnect();
  connect_now();
}

void Client::connect_now() {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  TSPOPT_CHECK_MSG(fd >= 0, "socket() failed: " << std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    TSPOPT_CHECK_MSG(false, "invalid daemon address \"" << host_ << "\"");
  }

  // Non-blocking connect: EINPROGRESS, then poll for writability within
  // connect_timeout_ms and read the outcome from SO_ERROR. The socket
  // stays non-blocking for its whole life — every later send/recv is
  // poll()-gated the same way.
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  if (rc != 0 && errno != EINPROGRESS) {
    int err = errno;
    ::close(fd);
    TSPOPT_CHECK_MSG(false, "connect(" << host_ << ":" << port_
                                       << ") failed: " << std::strerror(err));
  }
  if (rc != 0) {
    bool bounded = options_.connect_timeout_ms > 0.0;
    auto deadline =
        Clock::now() +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::milli>(
                std::max(0.0, options_.connect_timeout_ms)));
    if (!poll_until(fd, POLLOUT, bounded, deadline)) {
      ::close(fd);
      throw ClientTimeout("connect", options_.connect_timeout_ms);
    }
    int err = 0;
    socklen_t len = sizeof err;
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      ::close(fd);
      TSPOPT_CHECK_MSG(false, "connect(" << host_ << ":" << port_
                                         << ") failed: "
                                         << std::strerror(err));
    }
  }
  fd_ = fd;
}

obs::JsonValue Client::request(std::string line) {
  TSPOPT_CHECK_MSG(fd_ >= 0, "client is not connected");
  const bool bounded = options_.io_timeout_ms > 0.0;
  auto deadline = Clock::now() +
                  std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(
                          std::max(0.0, options_.io_timeout_ms)));
  // A timeout mid-request leaves the stream out of sync (the late
  // response would answer the *next* request), so every timeout/error
  // exit drops the connection; the caller reconnect()s.
  auto fail_timeout = [&](const char* phase) -> ClientTimeout {
    disconnect();
    return ClientTimeout(phase, options_.io_timeout_ms);
  };

  line.push_back('\n');
  const char* p = line.data();
  std::size_t left = line.size();
  while (left > 0) {
    if (!poll_until(fd_, POLLOUT, bounded, deadline)) {
      throw fail_timeout("send");
    }
    ssize_t sent = ::send(fd_, p, left, MSG_NOSIGNAL);
    if (sent < 0 &&
        (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
      continue;
    }
    if (sent <= 0) {
      int err = errno;
      disconnect();
      TSPOPT_CHECK_MSG(false, "send() failed: " << std::strerror(err));
    }
    p += sent;
    left -= static_cast<std::size_t>(sent);
  }

  char buf[4096];
  for (;;) {
    std::size_t pos = pending_.find('\n');
    if (pos != std::string::npos) {
      std::string response = pending_.substr(0, pos);
      pending_.erase(0, pos + 1);
      return obs::json_parse(response);
    }
    if (!poll_until(fd_, POLLIN, bounded, deadline)) {
      throw fail_timeout("recv");
    }
    ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
      continue;
    }
    if (n <= 0) {
      disconnect();
      TSPOPT_CHECK_MSG(false, "connection closed while awaiting response");
    }
    pending_.append(buf, static_cast<std::size_t>(n));
  }
}

obs::JsonValue Client::submit(const JobSpec& spec) {
  // Trace origin: mint the correlation id here when the caller did not.
  // The copy keeps the caller's spec untouched (a retry loop passing the
  // same spec reuses the id only if it carries one — submit_with_retry
  // pins it so every attempt of one logical submit shares one trace).
  JobSpec traced = spec;
  if (traced.trace_id.empty()) traced.trace_id = obs::new_trace_id();
  last_trace_id_ = traced.trace_id;

  obs::Span span = obs::Tracer::global().span("client.submit", "serve");
  if (span) {
    span.arg("engine", traced.engine);
    span.arg("trace_id", traced.trace_id);
  }
  // The submit span (when tracing is on) is the daemon-side parent; with
  // tracing off, any enclosing span on this thread still stitches.
  if (traced.parent_span == 0) traced.parent_span = obs::current_span_id();

  obs::JsonWriter w;
  w.begin_object();
  w.key("verb").value("submit");
  w.key("job");
  write_job_spec(w, traced);
  w.end_object();
  obs::JsonValue response = request(std::move(w).take());
  if (span) {
    const obs::JsonValue* id = response.find("id");
    if (id != nullptr && id->kind == obs::JsonValue::Kind::kNumber) {
      span.arg("id", static_cast<std::uint64_t>(id->number));
    }
  }
  return response;
}

namespace {

std::string id_request(const char* verb, std::uint64_t id) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("verb").value(verb);
  w.key("id").value(id);
  w.end_object();
  return std::move(w).take();
}

}  // namespace

obs::JsonValue Client::status(std::uint64_t id) {
  return request(id_request("status", id));
}

obs::JsonValue Client::result(std::uint64_t id) {
  return request(id_request("result", id));
}

obs::JsonValue Client::cancel(std::uint64_t id) {
  return request(id_request("cancel", id));
}

obs::JsonValue Client::forget(std::uint64_t id) {
  return request(id_request("forget", id));
}

obs::JsonValue Client::stats() { return request("{\"verb\":\"stats\"}"); }

obs::JsonValue Client::engines() { return request("{\"verb\":\"engines\"}"); }

obs::JsonValue Client::submit_with_retry(const JobSpec& spec,
                                         double deadline_seconds) {
  // Pin the trace id across attempts: every retry of this one logical
  // submit (including a dedup answered by an earlier accept) shares one
  // trace, not one per network attempt.
  JobSpec traced = spec;
  if (traced.trace_id.empty()) traced.trace_id = obs::new_trace_id();

  auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(
                                         std::max(0.0, deadline_seconds)));
  std::mt19937 rng(static_cast<std::uint32_t>(
      Clock::now().time_since_epoch().count()));
  std::uniform_real_distribution<double> jitter(0.5, 1.5);

  double backoff_ms = 50.0;
  constexpr double kBackoffCapMs = 5000.0;
  for (;;) {
    double hint_ms = 0.0;
    try {
      if (!connected()) reconnect();
      obs::JsonValue response = submit(traced);
      const obs::JsonValue* ok = response.find("ok");
      if (ok != nullptr && ok->kind == obs::JsonValue::Kind::kBool &&
          ok->boolean) {
        return response;  // accepted (possibly deduped)
      }
      // Only capacity rejections carry retry_after_ms; anything else
      // (invalid spec, unknown engine) will never succeed by waiting.
      const obs::JsonValue* retry = response.find("retry_after_ms");
      if (retry == nullptr || retry->kind != obs::JsonValue::Kind::kNumber) {
        return response;
      }
      hint_ms = retry->number;
      if (ms_until(deadline) <= 0.0) return response;
    } catch (const CheckError&) {
      // Timeout or connection loss: the submit outcome is ambiguous —
      // retrying is exactly what idempotency keys exist for. Out of
      // time, the transport error is the caller's answer.
      if (ms_until(deadline) <= 0.0) throw;
    }
    double sleep_ms = std::max(backoff_ms * jitter(rng), hint_ms);
    sleep_ms = std::min(sleep_ms, std::max(0.0, ms_until(deadline)));
    if (sleep_ms > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(sleep_ms));
    }
    backoff_ms = std::min(backoff_ms * 2.0, kBackoffCapMs);
  }
}

obs::JsonValue Client::wait(std::uint64_t id, double timeout_seconds,
                            double poll_interval_ms) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::duration<double>(timeout_seconds);
  for (;;) {
    obs::JsonValue response = status(id);
    const obs::JsonValue* ok = response.find("ok");
    if (ok == nullptr || !ok->boolean) return response;
    const obs::JsonValue* job = response.find("job");
    if (job != nullptr) {
      const obs::JsonValue* state = job->find("state");
      if (state != nullptr && state->string != "queued" &&
          state->string != "running") {
        return response;
      }
    }
    if (std::chrono::steady_clock::now() >= deadline) return response;
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(poll_interval_ms));
  }
}

}  // namespace tspopt::serve
