// ILS checkpoint/resume.
//
// The paper's headline runs (744 710 cities, Fig. 11) take hours; a killed
// process must not forfeit them. A PopulationCheckpoint captures the
// complete loop state of a population ILS run — per member the best tour,
// incumbent tour, RNG state, iteration and trace counters (one
// IlsCheckpoint record), plus the population's round and migration
// counters — so a resumed run continues *bit-identically*: the same
// perturbation streams, the same accepted tours, the same final traces (up
// to wall-clock stamps) as the run that was never interrupted. A solo ILS
// run is a population of one and checkpoints in the same format.
//
// On-disk format (version 1): a little-endian binary file
//
//   bytes 0..7    magic "TSPPOPC\0"
//   bytes 8..11   u32 format version (currently 1)
//   bytes 12..19  u64 payload byte count P
//   bytes 20..20+P the payload: rounds, migrations, elapsed seconds, u32
//                  member count, then per member its IlsCheckpoint fields
//                  in declaration order (each tour as u32 count + i32
//                  cities; the trace as u64 count + per-point fields;
//                  doubles as IEEE-754 bit patterns) followed by its u8
//                  finished and stopped flags
//   last 8 bytes  u64 FNV-1a checksum of the payload
//
// Writes go to `path + ".tmp"` and are renamed into place, so a crash
// mid-write leaves the previous checkpoint intact. Loading verifies the
// magic, version, length, and checksum and raises CheckError on any
// mismatch — a truncated or bit-flipped file is reported, never trusted.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "solver/ils.hpp"
#include "tsp/instance.hpp"

namespace tspopt {

// One member's loop state.
struct IlsCheckpoint {
  // Loop position: the state after `iterations` completed perturbation
  // rounds (0 = after the initial descent).
  std::int64_t iterations = 0;
  std::int64_t improvements = 0;
  std::uint64_t checks = 0;
  std::int64_t passes = 0;
  double elapsed_seconds = 0.0;  // wall time consumed before the checkpoint

  std::vector<std::int32_t> best_order;       // best tour found so far
  std::int64_t best_length = 0;
  std::vector<std::int32_t> incumbent_order;  // Algorithm 1's s*
  std::int64_t incumbent_length = 0;

  Pcg32::State rng;  // perturbation stream position

  std::vector<IlsTracePoint> trace;
};

struct PopulationCheckpoint {
  static constexpr std::uint32_t kVersion = 1;

  std::int64_t rounds = 0;       // completed population rounds
  std::int64_t migrations = 0;
  double elapsed_seconds = 0.0;  // wall time consumed before the snapshot
  std::vector<IlsCheckpoint> members;
  std::vector<std::uint8_t> finished;  // member hit its own budget
  std::vector<std::uint8_t> stopped;   // member ended via its stop hook
};

// Serialize atomically (tmp + rename). Throws CheckError on I/O failure.
void save_population_checkpoint(const std::string& path,
                                const PopulationCheckpoint& ck);

// Parse and verify. Throws CheckError for unreadable, truncated, corrupt,
// or wrong-version files.
PopulationCheckpoint load_population_checkpoint(const std::string& path);

// Consistency against the instance the run will continue on: flag vectors
// in step with the members, counters non-negative, and every member's
// tours valid permutations of the instance's cities whose stored lengths
// match recomputation. Throws CheckError otherwise.
void validate_population_checkpoint(const PopulationCheckpoint& ck,
                                    const Instance& instance);

}  // namespace tspopt
