// The serve-side micro-batcher: queued-job coalescing for batch engines.
//
// The batch engines (solver/batch/) amortize per-pass overhead across
// many tours of ONE instance, but serve traffic arrives as individual
// jobs. collect_batch() bridges the two: when a worker dequeues a job whose
// spec opted in (`batchable`) and whose engine class has a batch
// implementation, it lingers up to `max_wait_ms` collecting other queued
// jobs with the same *batch key* — identical instance bytes, same engine
// class, same k — up to `max_batch` members, and the scheduler runs the
// whole set through one PopulationIls pass sequence (migrate_every = 0,
// one member per job, each on its own seed/budget/stop hooks). Every
// member is still an individual job: own journal records, own RunReport,
// own terminal state; the results are bit-identical to solo runs of the
// same specs.
//
// The key is deliberately strict — jobs that differ in anything that
// could change what a coalesced pass stages (instance identity, n, k) or
// the engine class never coalesce, so a shape mismatch inside a batch is
// a bug, not a policy decision; the scheduler still re-verifies member
// shapes before running and fails mismatches with a typed "batch shape:"
// error rather than padding tours of different lengths together.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/job.hpp"
#include "serve/queue.hpp"

namespace tspopt::serve {

struct BatcherOptions {
  // Most members one coalesced pass may carry; 1 disables coalescing.
  std::size_t max_batch = 8;
  // How long the lead job lingers for followers to arrive. 0 = take only
  // what is already queued (no added latency).
  double max_wait_ms = 2.0;
};

// True when the micro-batcher may coalesce this spec at all: opted in,
// and its engine's roster row names a batch class.
bool spec_batchable(const JobSpec& spec);

// The coalescing identity: jobs coalesce iff their keys match. Covers the
// engine's batch class, k, and the instance identity — catalog name, or
// for inline payloads the point count plus an FNV-1a hash of the exact
// coordinate bytes (name alone would let two different point sets with
// the same label coalesce).
std::string batch_key(const JobSpec& spec);

// Grow a batch around the already-popped lead job: pull queued jobs
// matching the lead's batch key until the batch is full or max_wait_ms
// elapses. Returns lead + followers (lead first; followers in
// priority-then-FIFO order). Never blocks past max_wait_ms; a
// non-batchable lead returns {lead} immediately. Counts nothing: members
// may still drop out before they run, so the scheduler counts the batches
// that actually ran.
std::vector<std::shared_ptr<Job>> collect_batch(JobQueue& queue,
                                                const BatcherOptions& options,
                                                std::shared_ptr<Job> lead);

}  // namespace tspopt::serve
