// Constructive tour heuristics.
//
// Multiple Fragment (greedy edge matching, Bentley 1990 — the paper's
// reference [18]) produces the "Initial Length (MF)" starting tours of
// Table II; nearest-neighbor is the classic cheaper alternative and a test
// baseline.
#pragma once

#include <cstdint>

#include "tsp/instance.hpp"
#include "tsp/neighbor_lists.hpp"
#include "tsp/tour.hpp"

namespace tspopt {

// Greedy nearest-neighbor chain from `start`. O(n^2) scan; fine for the
// instance sizes the benches run at.
Tour nearest_neighbor(const Instance& instance, std::int32_t start = 0);

// Multiple Fragment: consider short candidate edges (each city to the
// first min(12, lists.k()) entries of its k-NN list, with the lists'
// stored lengths on EUC_2D instances) in (length, a, b) order, placed by
// length in two passes rather than sorted; accept an
// edge when both endpoints have degree < 2 and it closes no premature
// cycle, then stitch any remaining fragments greedily.
// Returns a valid closed tour. `lists` must be built over `instance`; a
// shorter list is a prefix of a longer one, so any k >= 12 gives the same
// tour.
Tour multiple_fragment(const Instance& instance, const NeighborLists& lists);

// The same over 12-lists built here, for callers that hold no lists.
Tour multiple_fragment(const Instance& instance);

}  // namespace tspopt
