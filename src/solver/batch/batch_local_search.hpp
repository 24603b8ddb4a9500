// Batched 2-opt descent: drive every active tour of a TourBatch to a
// local minimum through shared batch passes.
//
// This is the one descent loop: search, apply the best move, repeat until
// no improving move or a budget runs out. local_search() runs it on a
// batch of one; here the per-pass engine call covers the whole batch, so
// B descents cost one launch per round instead of B. Tours finish at
// different pass counts; a finished tour is simply deactivated
// (TourBatch's don't-look state) and later passes skip it, so the batch
// drains instead of blocking on its slowest member.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "solver/batch/batch_engine.hpp"
#include "solver/local_search.hpp"

namespace tspopt {

// Polled per tour after each improving pass; returning true aborts that
// tour's descent (it is deactivated without the local-minimum flag).
using BatchMemberStop = std::function<bool(std::int32_t slot)>;

// Descend every active tour of `batch`. Returns per-slot stats (inactive
// slots keep default stats); a slot's stats match a solo engine's descent
// of the same tour bit-for-bit when no budget interrupts it.
// options.max_passes is checked before each pass, so 0 runs none and
// leaves every tour untouched. On return every tour that reached its
// local minimum, exhausted options.max_passes, or was aborted by
// `member_stop` is inactive; tours still active were cut off by
// options.time_limit_seconds (whole-call budget).
std::vector<LocalSearchStats> batch_local_search(
    BatchTwoOptEngine& engine, TourBatch& batch,
    const LocalSearchOptions& options = {},
    const BatchMemberStop& member_stop = {});

}  // namespace tspopt
