// A batch of tours over one instance, for many-tour engines.
//
// The paper's engines are one-tour-per-launch; at small/medium n that
// shape starves the hardware (a single n=1000 pass cannot fill a device).
// TourBatch is the container a batch engine sweeps in one call: B tours
// over a single instance, plus per-tour lengths and an active flag (the
// batch analogue of a don't-look bit: a tour at a local minimum drops out
// of subsequent passes without shrinking the batch). Engines stage what
// they sweep themselves — batch-gpu concatenates the active tours'
// route-ordered coordinates for one upload, a per-slot engine stages each
// tour as its solo pass does — so any instance, coordinate or EXPLICIT
// matrix, can be batched.
//
// A slot's length is computed once, at construction, and then kept
// current by the only mutations the batch offers: an applied 2-opt move
// adds its four-endpoint delta, a kick its six-edge delta, both through
// Instance::dist, so they are exact under every metric. No pass or ILS
// iteration pays an O(n) Tour::length.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "tsp/instance.hpp"
#include "tsp/tour.hpp"

namespace tspopt {

class TourBatch {
 public:
  // All tours must have the instance's n.
  TourBatch(const Instance& instance, std::vector<Tour> tours);

  // B independent copies of one tour (the equivalence suite's shape).
  static TourBatch replicated(const Instance& instance, const Tour& tour,
                              std::int32_t copies);

  const Instance& instance() const { return *instance_; }
  std::int32_t size() const { return static_cast<std::int32_t>(tours_.size()); }
  std::int32_t n() const { return n_; }

  const Tour& tour(std::int32_t b) const { return tours_[check_slot(b)]; }
  // Closed-tour length of slot b: always tour(b).length(instance()).
  std::int64_t length(std::int32_t b) const { return lengths_[check_slot(b)]; }

  // Applies the 2-opt move (i, j) to slot b's tour.
  void apply_two_opt(std::int32_t b, std::int32_t i, std::int32_t j);
  // Overwrites slot b with a double-bridge kick of `from`, whose length is
  // `from_length`, drawing the cut points from `rng`. Copies into the
  // slot's existing capacity.
  void kick(std::int32_t b, const Tour& from, std::int64_t from_length,
            Pcg32& rng);
  // Exchanges slot b's tour and length with `tour` and `length`.
  void swap_tour(std::int32_t b, Tour& tour, std::int64_t& length);

  // Active flag: inactive tours are skipped by batch engine passes (the
  // per-tour don't-look state — a converged or budget-exhausted tour
  // stays in its slot but costs nothing).
  bool active(std::int32_t b) const { return active_[check_slot(b)] != 0; }
  void set_active(std::int32_t b, bool on) { active_[check_slot(b)] = on ? 1 : 0; }
  void set_all_active(bool on);
  std::int32_t active_count() const;

 private:
  std::int32_t check_slot(std::int32_t b) const {
    TSPOPT_DCHECK(b >= 0 && b < size());
    return b;
  }

  const Instance* instance_;
  std::int32_t n_ = 0;
  std::vector<Tour> tours_;
  std::vector<std::int64_t> lengths_;
  std::vector<std::uint8_t> active_;
};

}  // namespace tspopt
