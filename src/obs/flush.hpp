// Exit/terminate flush guarantees for the env-driven telemetry sinks.
//
// A run that ends early — std::terminate from an unhandled DeviceError,
// exit() from a CHECK failure — should still leave parseable artifacts
// behind: the JSONL log flushed, the CPU profile written and the trace
// file written. install_flush_hooks() registers one atexit handler and
// chains one std::terminate handler that do exactly that; it is
// idempotent and is called by every env-driven sink that holds unwritten
// output (TSPOPT_LOG, TSPOPT_PROFILE, TSPOPT_TRACE), so any process that
// turned one on gets the guarantee, and flush_all_telemetry is the one
// exit path that writes them.
//
// SIGKILL cannot be hooked; for that case the log writes and flushes per
// line, so it stays parseable up to the last completed write.
#pragma once

namespace tspopt::obs {

// Flush every live sink that exists: log, env profiler, tracer. Never
// creates sinks and never throws; safe to call from exit and terminate
// paths and from tests.
void flush_all_telemetry() noexcept;

// Register flush_all_telemetry with atexit and chain it in front of the
// current std::terminate handler. Idempotent.
void install_flush_hooks();

}  // namespace tspopt::obs
