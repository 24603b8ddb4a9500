// Deadline-bounded TCP client for the tspoptd protocol.
//
// One Client is one connection; request() writes one line and reads one
// response line, so the call pattern mirrors the protocol exactly. The
// verb helpers (submit/status/result/cancel/forget/stats/engines) build the
// request JSON and parse the response into an obs::JsonValue — the
// tspopt_client CLI, the stress test and ci.sh all drive the daemon
// through this one class.
//
// Every socket operation is poll()-bounded: connect by
// ClientOptions::connect_timeout_ms, each request round trip by
// io_timeout_ms. A stalled or wedged daemon therefore costs the caller a
// typed ClientTimeout after the configured bound — never an indefinite
// blocking-recv hang (the PR 5 client's failure mode). After a timeout or
// connection loss the client is disconnected (connected() == false);
// reconnect() establishes a fresh connection, and submit_with_retry()
// packages the full robust-submit loop: reconnect on loss, jittered
// exponential backoff on kFull/draining rejections honoring the daemon's
// retry_after_ms hint, all bounded by one overall deadline. Pair it with
// JobSpec::idempotency_key so a retry after an ambiguous failure dedupes
// instead of double-submitting.
#pragma once

#include <cstdint>
#include <string>

#include "common/check.hpp"
#include "obs/json.hpp"
#include "serve/job.hpp"

namespace tspopt::serve {

struct ClientOptions {
  double connect_timeout_ms = 5000.0;
  // Bound on one request() round trip (send + await response). <= 0
  // disables the bound (legacy blocking behaviour; tests only).
  double io_timeout_ms = 30000.0;
};

// Raised when a socket operation exceeds its deadline. Derives from
// CheckError so existing catch sites keep working; callers that care
// about the distinction (exit codes, retry loops) catch this first.
class ClientTimeout : public CheckError {
 public:
  ClientTimeout(const std::string& phase, double timeout_ms)
      : CheckError("client " + phase + " timed out after " +
                   std::to_string(timeout_ms) + " ms"),
        phase_(phase) {}
  // "connect", "send" or "recv".
  const std::string& phase() const { return phase_; }

 private:
  std::string phase_;
};

class Client {
 public:
  // Connect immediately; CheckError when the daemon is unreachable,
  // ClientTimeout when it does not accept within connect_timeout_ms.
  Client(const std::string& host, std::uint16_t port,
         ClientOptions options = {});
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // False after a timeout or connection loss; request() on a
  // disconnected client throws. reconnect() restores service.
  bool connected() const { return fd_ >= 0; }
  // Drop the current connection (if any) and establish a fresh one.
  void reconnect();

  // Raw round trip: send `line` (newline appended in place), await the
  // response line, parse it. CheckError on connection loss or malformed
  // response JSON; ClientTimeout when the round trip exceeds
  // io_timeout_ms (the connection is dropped — a late response must not
  // answer the next request).
  obs::JsonValue request(std::string line);

  // Verb helpers. Responses are returned as parsed objects; "ok" is NOT
  // checked here — rejection responses (queue full, invalid spec) are
  // data the caller inspects, not errors.
  //
  // submit() is the distributed-trace origin: a spec with an empty
  // trace_id gets a fresh obs::new_trace_id() (and, when a span is open
  // on this thread, its id as parent_span) before serialization, so the
  // daemon's spans and JSONL events correlate back to this client. The
  // id actually sent — minted or caller-supplied — is readable via
  // last_trace_id() after the call.
  obs::JsonValue submit(const JobSpec& spec);
  obs::JsonValue status(std::uint64_t id);
  obs::JsonValue result(std::uint64_t id);
  obs::JsonValue cancel(std::uint64_t id);
  obs::JsonValue forget(std::uint64_t id);  // drop a terminal job's result
  obs::JsonValue stats();
  obs::JsonValue engines();

  // Robust submit: retry capacity rejections ("queue full", "service
  // draining") with jittered exponential backoff, floored at the
  // daemon's retry_after_ms hint, and reconnect-and-retry after timeouts
  // or connection loss — all bounded by `deadline_seconds` of total
  // elapsed time. Returns the first accepted (or invalid-spec) response;
  // when the deadline expires the last rejection response is returned,
  // or the last transport error is rethrown. Give the spec an
  // idempotency_key: a retry after an ambiguous failure then dedupes
  // server-side instead of double-running the job.
  obs::JsonValue submit_with_retry(const JobSpec& spec,
                                   double deadline_seconds);

  // Poll status until the job reaches a terminal state or
  // `timeout_seconds` elapses; returns the last status response. The
  // response's job.state tells the caller which of the two happened.
  obs::JsonValue wait(std::uint64_t id, double timeout_seconds,
                      double poll_interval_ms = 20.0);

  // Trace id of the most recent submit()/submit_with_retry() call (the
  // minted one when the spec carried none). Empty before the first
  // submit. Error paths still set it first, so a caller reporting a
  // timeout can name the trace to look for in the daemon's telemetry.
  const std::string& last_trace_id() const { return last_trace_id_; }

 private:
  void connect_now();
  void disconnect();

  std::string host_;
  std::uint16_t port_;
  ClientOptions options_;
  int fd_ = -1;
  std::string pending_;  // bytes received past the last response line
  std::string last_trace_id_;
};

}  // namespace tspopt::serve
