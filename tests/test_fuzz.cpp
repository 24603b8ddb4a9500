// Randomized cross-checks ("fuzz" properties): many random instances,
// tours, launch geometries and tile sizes, verified against reference
// implementations. These complement the deterministic unit tests with
// breadth — every run draws fresh cases from a fixed master seed so
// failures are reproducible.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "obs/http.hpp"
#include "obs/json.hpp"
#include "serve/daemon.hpp"
#include "serve/journal.hpp"
#include "serve/scheduler.hpp"
#include "simt/device.hpp"
#include "simt/device_pool.hpp"
#include "solver/batch/population_ils.hpp"
#include "solver/checkpoint.hpp"
#include "solver/delta.hpp"
#include "solver/engine_factory.hpp"
#include "solver/ordering.hpp"
#include "solver/twoopt_gpu.hpp"
#include "solver/twoopt_multi.hpp"
#include "solver/twoopt_sequential.hpp"
#include "solver/twoopt_simd.hpp"
#include "solver/twoopt_tiled.hpp"
#include "tsp/generator.hpp"
#include "tsp/tsplib.hpp"

namespace tspopt {
namespace {

Instance random_instance(Pcg32& rng, std::int32_t n) {
  switch (rng.next_below(3)) {
    case 0:
      return generate_uniform("fz", n, rng.next_u64());
    case 1:
      return generate_clustered(
          "fz", n, 1 + static_cast<std::int32_t>(rng.next_below(6)),
          rng.next_u64());
    default:
      return generate_grid("fz", n, rng.next_u64());
  }
}

TEST(Fuzz, EnginesAgreeOnRandomCasesWithRandomGeometries) {
  Pcg32 rng(20260707);
  for (int trial = 0; trial < 25; ++trial) {
    auto n = static_cast<std::int32_t>(3 + rng.next_below(598));
    Instance inst = random_instance(rng, n);
    Tour tour = Tour::random(n, rng);

    TwoOptSequential reference;
    SearchResult expect = reference.search(inst, tour);

    // Random launch geometry for the small kernel.
    simt::Device device(simt::gtx680_cuda());
    simt::LaunchConfig cfg{1 + rng.next_below(40), 1 + rng.next_below(1024),
                           0};
    TwoOptGpuSmall small(device, cfg);
    SearchResult got_small = small.search(inst, tour);
    ASSERT_EQ(got_small.best.delta, expect.best.delta)
        << "n=" << n << " grid=" << cfg.grid_dim << " block=" << cfg.block_dim;
    ASSERT_EQ(got_small.best.index, expect.best.index);

    // Random tile size for the tiled kernel.
    auto tile = static_cast<std::int32_t>(2 + rng.next_below(3062));
    TwoOptGpuTiled tiled(device, tile);
    SearchResult got_tiled = tiled.search(inst, tour);
    ASSERT_EQ(got_tiled.best.delta, expect.best.delta)
        << "n=" << n << " tile=" << tile;
    ASSERT_EQ(got_tiled.best.index, expect.best.index);
  }
}

TEST(Fuzz, MultiDeviceAgreesAtRandomDeviceCountsAndTiles) {
  Pcg32 rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    auto n = static_cast<std::int32_t>(50 + rng.next_below(950));
    Instance inst = random_instance(rng, n);
    Tour tour = Tour::random(n, rng);
    TwoOptSequential reference;
    SearchResult expect = reference.search(inst, tour);

    auto device_count = 1 + rng.next_below(5);
    std::vector<std::unique_ptr<simt::Device>> owned;
    std::vector<simt::Device*> devices;
    for (std::uint32_t d = 0; d < device_count; ++d) {
      owned.push_back(std::make_unique<simt::Device>(simt::gtx680_cuda()));
      devices.push_back(owned.back().get());
    }
    auto tile = static_cast<std::int32_t>(2 + rng.next_below(500));
    TwoOptMultiDevice engine(devices, tile);
    SearchResult got = engine.search(inst, tour);
    ASSERT_EQ(got.best.delta, expect.best.delta)
        << "n=" << n << " devices=" << device_count << " tile=" << tile;
    ASSERT_EQ(got.best.index, expect.best.index);
    ASSERT_EQ(got.checks, expect.checks);
  }
}

TEST(Fuzz, ApplyTwoOptAlwaysMatchesDelta) {
  Pcg32 rng(99);
  for (int trial = 0; trial < 60; ++trial) {
    auto n = static_cast<std::int32_t>(3 + rng.next_below(300));
    Instance inst = random_instance(rng, n);
    Tour tour = Tour::random(n, rng);
    std::vector<Point> ordered = order_coordinates(inst, tour);
    std::int64_t before = tour.length(inst);
    auto i = static_cast<std::int32_t>(rng.next_below(
        static_cast<std::uint32_t>(n - 1)));
    auto j = static_cast<std::int32_t>(
        i + 1 + rng.next_below(static_cast<std::uint32_t>(n - 1 - i)));
    std::int32_t delta = two_opt_delta(ordered, i, j);
    tour.apply_two_opt(i, j);
    ASSERT_TRUE(tour.is_valid());
    ASSERT_EQ(tour.length(inst) - before, delta)
        << "n=" << n << " i=" << i << " j=" << j;
  }
}

TEST(Fuzz, RandomMoveSequencesPreserveValidity) {
  // Long random walks through the move space: 2-opt, double-bridge and
  // or-opt interleaved must never corrupt the permutation, and the length
  // bookkeeping must stay consistent with recomputation.
  Pcg32 rng(123);
  for (int trial = 0; trial < 8; ++trial) {
    auto n = static_cast<std::int32_t>(16 + rng.next_below(200));
    Instance inst = random_instance(rng, n);
    Tour tour = Tour::random(n, rng);
    for (int step = 0; step < 100; ++step) {
      switch (rng.next_below(3)) {
        case 0: {
          auto i = static_cast<std::int32_t>(
              rng.next_below(static_cast<std::uint32_t>(n - 1)));
          auto j = static_cast<std::int32_t>(
              i + 1 + rng.next_below(static_cast<std::uint32_t>(n - 1 - i)));
          tour.apply_two_opt(i, j);
          break;
        }
        case 1:
          tour.double_bridge(rng);
          break;
        default: {
          auto len = static_cast<std::int32_t>(1 + rng.next_below(3));
          auto from = static_cast<std::int32_t>(
              rng.next_below(static_cast<std::uint32_t>(n - len)));
          // any insertion point outside [from-1, from+len)
          std::int32_t to;
          do {
            to = static_cast<std::int32_t>(
                rng.next_below(static_cast<std::uint32_t>(n)));
          } while (to >= from - 1 && to < from + len);
          tour.or_opt_move(from, len, to);
          break;
        }
      }
      ASSERT_TRUE(tour.is_valid()) << "trial " << trial << " step " << step;
    }
    // Positions index stays the exact inverse after the walk.
    std::vector<std::int32_t> pos = tour.positions();
    for (std::int32_t p = 0; p < n; ++p) {
      ASSERT_EQ(pos[static_cast<std::size_t>(tour.city_at(p))], p);
    }
  }
}

TEST(Fuzz, GarbledTsplibHeadersRaiseCheckError) {
  // A corpus of truncated and garbled headers: every one must surface as a
  // CheckError (with the offending line number where one exists) — never
  // UB, a std:: exception, or a runaway allocation.
  const std::vector<std::string> corpus = {
      // truncated mid-header
      "NAME : cut\nTYPE : TSP\nDIMENSION : 5\nEDGE_WEIGHT_TYPE : EUC_2D\n"
      "NODE_COORD_SECTION\n1 0 0\n2 1 1\n",
      // coordinate entry with missing fields at EOF
      "DIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n"
      "1 0 0\n2 1 1\n3 2\n",
      // non-numeric DIMENSION
      "DIMENSION : lots\nEDGE_WEIGHT_TYPE : EUC_2D\n",
      // DIMENSION too small / absurd / overflowing int64
      "DIMENSION : 2\n",
      "DIMENSION : 999999999999\n",
      "DIMENSION : 99999999999999999999999999\n",
      // section before DIMENSION
      "EDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n1 0 0\n",
      // node index out of range / duplicated / garbage
      "DIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n"
      "1 0 0\n2 1 1\n7 2 2\n",
      "DIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n"
      "1 0 0\n1 1 1\n3 2 2\n",
      "DIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n"
      "one 0 0\n2 1 1\n3 2 2\n",
      // non-finite / non-numeric coordinates
      "DIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n"
      "1 nan 0\n2 1 1\n3 2 2\n",
      "DIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n"
      "1 0 zero\n2 1 1\n3 2 2\n",
      // unknown EDGE_WEIGHT_TYPE reaching the metric factory
      "DIMENSION : 3\nEDGE_WEIGHT_TYPE : WARP_5D\nNODE_COORD_SECTION\n"
      "1 0 0\n2 1 1\n3 2 2\n",
      // asymmetric / unsupported TYPE
      "TYPE : ATSP\nDIMENSION : 3\n",
      // matrix sections with missing prerequisites or truncated data
      "DIMENSION : 3\nEDGE_WEIGHT_TYPE : EXPLICIT\nEDGE_WEIGHT_SECTION\n"
      "1 2 3\n",
      "DIMENSION : 3\nEDGE_WEIGHT_TYPE : EXPLICIT\n"
      "EDGE_WEIGHT_FORMAT : FULL_MATRIX\nEDGE_WEIGHT_SECTION\n0 1 2 1 0\n",
      "DIMENSION : 3\nEDGE_WEIGHT_TYPE : EXPLICIT\n"
      "EDGE_WEIGHT_FORMAT : MAGIC\nEDGE_WEIGHT_SECTION\n0 1 2\n",
      // edge weight outside 32-bit range
      "DIMENSION : 3\nEDGE_WEIGHT_TYPE : EXPLICIT\n"
      "EDGE_WEIGHT_FORMAT : UPPER_ROW\nEDGE_WEIGHT_SECTION\n"
      "1 99999999999 3\n",
      // unsupported sections
      "DIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_2D\nTOUR_SECTION\n1 2 3\n",
      // no payload at all
      "",
      "NAME : empty\nEOF\n",
  };
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    std::istringstream in(corpus[i]);
    EXPECT_THROW(parse_tsplib(in), CheckError) << "corpus entry " << i;
  }

  // Spot-check that the diagnostics point at the offending line.
  std::istringstream bad(
      "DIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n"
      "1 0 0\n2 1 1\n7 2 2\n");
  try {
    parse_tsplib(bad);
    FAIL() << "out-of-range node index parsed successfully";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("line 6"), std::string::npos)
        << e.what();
  }
}

TEST(Fuzz, TruncatedTsplibFilesNeverParseSilently) {
  // Serialize a valid instance, then feed the parser every strict prefix:
  // each one must either parse (a shorter but complete file) or raise
  // CheckError — nothing else.
  Instance inst = generate_uniform("trunc", 40, 21);
  std::ostringstream full;
  write_tsplib(full, inst);
  const std::string bytes = full.str();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::istringstream in(bytes.substr(0, len));
    try {
      Instance parsed = parse_tsplib(in);
      EXPECT_EQ(parsed.n(), inst.n());  // only a complete file parses
    } catch (const CheckError&) {
      // expected for most prefixes
    }
  }
}

TEST(Fuzz, MutatedTsplibFilesEitherParseOrRaiseCheckError) {
  Instance inst = generate_clustered("mut", 30, 3, 22);
  std::ostringstream full;
  write_tsplib(full, inst);
  const std::string bytes = full.str();

  Pcg32 rng(20260806);
  for (int trial = 0; trial < 300; ++trial) {
    std::string damaged = bytes;
    // 1-4 random byte edits: overwrite, delete, or insert printable junk.
    int edits = 1 + static_cast<int>(rng.next_below(4));
    for (int e = 0; e < edits && !damaged.empty(); ++e) {
      auto at = static_cast<std::size_t>(
          rng.next_below(static_cast<std::uint32_t>(damaged.size())));
      switch (rng.next_below(3)) {
        case 0:
          damaged[at] = static_cast<char>(32 + rng.next_below(95));
          break;
        case 1:
          damaged.erase(at, 1);
          break;
        default:
          damaged.insert(at, 1,
                         static_cast<char>(32 + rng.next_below(95)));
          break;
      }
    }
    std::istringstream in(damaged);
    try {
      parse_tsplib(in);  // surviving a mutation is fine...
    } catch (const CheckError&) {
      // ...and so is a structured parse error; anything else fails the
      // test by escaping the harness.
    }
  }
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// The checksum checkpoints and journal records carry over their payload.
std::uint64_t fnv1a(const std::string& payload) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (unsigned char c : payload) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}

// 1-4 random byte edits in [lo, hi): overwrite, delete, or insert.
void mutate_bytes(Pcg32& rng, std::string& bytes, std::size_t lo,
                  std::size_t hi) {
  int edits = 1 + static_cast<int>(rng.next_below(4));
  for (int e = 0; e < edits && hi > lo; ++e) {
    std::size_t at =
        lo + rng.next_below(static_cast<std::uint32_t>(hi - lo));
    auto junk = static_cast<char>(rng.next_below(256));
    switch (rng.next_below(3)) {
      case 0:
        bytes[at] = junk;
        break;
      case 1:
        bytes.erase(at, 1);
        --hi;
        break;
      default:
        bytes.insert(at, 1, junk);
        ++hi;
        break;
    }
  }
}

// Byte-level mutations of a real two-member checkpoint. The loader must
// never crash and never accept a file whose checksum fails: whatever it
// accepts is byte-for-byte what saving the loaded contents writes back.
// An accepted file then either validates against the instance or raises
// CheckError from validate_population_checkpoint. Half the trials repair
// the length and checksum after mutating the payload, so the mutations
// reach the field parser and the validator instead of stopping at the
// checksum.
TEST(Fuzz, MutatedCheckpointsNeverCrashOrLoadUnchecked) {
  Instance inst = generate_uniform("ckfz", 24, 71);
  Pcg32 start_rng(72);
  Tour start = Tour::random(inst.n(), start_rng);
  const std::string path = ::testing::TempDir() + "tspopt_fuzz.ckpt";
  const std::string damaged_path = ::testing::TempDir() + "tspopt_fuzz_m.ckpt";
  std::unique_ptr<BatchTwoOptEngine> engine =
      EngineFactory().create_batch("batch-simd");
  std::vector<PopulationMemberOptions> members = population_members(2, 9);
  for (PopulationMemberOptions& m : members) m.max_iterations = 6;
  PopulationIlsOptions options;
  options.time_limit_seconds = -1.0;
  options.checkpoint_path = path;
  options.checkpoint_every = 3;
  population_ils(*engine, inst, {start, start}, members, options);
  const std::string bytes = read_bytes(path);
  constexpr std::size_t kHeader = 20;  // magic, version, payload length
  constexpr std::size_t kChecksum = 8;
  ASSERT_GT(bytes.size(), kHeader + kChecksum);

  Pcg32 rng(20261017);
  int loaded = 0;
  int validated = 0;
  for (int trial = 0; trial < 600; ++trial) {
    std::string damaged = bytes;
    const bool reseal = trial % 2 == 1;
    if (reseal) {
      std::size_t end = damaged.size() - kChecksum;
      mutate_bytes(rng, damaged, kHeader, end);
      std::string payload =
          damaged.substr(kHeader, damaged.size() - kHeader - kChecksum);
      auto size = static_cast<std::uint64_t>(payload.size());
      std::memcpy(damaged.data() + 12, &size, sizeof(size));
      std::uint64_t sum = fnv1a(payload);
      std::memcpy(damaged.data() + damaged.size() - kChecksum, &sum,
                  sizeof(sum));
    } else {
      mutate_bytes(rng, damaged, 0, damaged.size());
    }
    write_bytes(damaged_path, damaged);

    PopulationCheckpoint ck;
    try {
      ck = load_population_checkpoint(damaged_path);
    } catch (const CheckError&) {
      continue;  // rejected: the expected outcome for most mutations
    }
    ++loaded;
    save_population_checkpoint(path, ck);
    EXPECT_EQ(read_bytes(path), damaged)
        << "trial " << trial << " loaded a file its contents do not encode";
    try {
      validate_population_checkpoint(ck, inst);
      ++validated;
    } catch (const CheckError&) {
    }
  }
  // The resealed half must actually reach the parser and validator.
  EXPECT_GT(loaded, 0);
  EXPECT_LT(validated, loaded);
  std::remove(path.c_str());
  std::remove(damaged_path.c_str());
}

// What a journal replay recovered, one line per job, for comparing two
// replays.
std::string recovered_jobs(const serve::Journal::ReplayResult& rep) {
  std::ostringstream out;
  for (const serve::Journal::RecoveredJob& job : rep.jobs) {
    out << job.id << ' ' << serve::to_string(job.state) << ' ' << job.attempts
        << ' ' << job.spec.seed << ' ' << job.result.best_length << ' '
        << job.result.order.size() << ' ' << job.error << '\n';
  }
  out << "next_id " << rep.next_id << '\n';
  return out.str();
}

// A real journal segment: four jobs' accepted, started, settled (finished
// and failed) and forgotten records, eleven in all, written under `dir`.
std::string source_segment(const std::string& dir) {
  namespace fs = std::filesystem;
  {
    serve::Journal journal(dir);
    journal.open_and_replay();
    std::vector<std::unique_ptr<serve::Job>> jobs;
    for (std::uint64_t id = 1; id <= 4; ++id) {
      serve::JobSpec spec;
      spec.catalog = "berlin52";
      spec.seed = 10 + id;
      jobs.push_back(std::make_unique<serve::Job>(id, spec));
      EXPECT_TRUE(journal.append_accepted(*jobs.back()));
    }
    serve::JobResult result;
    result.best_length = 7542;
    result.iterations = 3;
    result.order = {0, 2, 1, 3};
    jobs[0]->set_result(result);
    jobs[1]->set_error("engine fault");
    EXPECT_TRUE(journal.append_started(1, 1));
    EXPECT_TRUE(journal.append_started(2, 1));
    EXPECT_TRUE(journal.append_settled(*jobs[0], serve::JobState::kFinished));
    EXPECT_TRUE(journal.append_settled(*jobs[1], serve::JobState::kFailed));
    EXPECT_TRUE(journal.append_started(3, 2));
    EXPECT_TRUE(journal.append_settled(*jobs[2], serve::JobState::kFinished));
    EXPECT_TRUE(journal.append_forgotten(3));
  }
  std::vector<fs::path> segments;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".wal") segments.push_back(e.path());
  }
  EXPECT_EQ(segments.size(), 1u);
  return segments.empty() ? std::string() : read_bytes(segments.front().string());
}

// Record boundaries: u32 payload length | u64 checksum | payload.
constexpr std::size_t kRecordHeader = 12;
std::vector<std::size_t> record_ends(const std::string& bytes) {
  std::vector<std::size_t> ends;
  for (std::size_t pos = 0; pos < bytes.size();) {
    std::uint32_t len = 0;
    std::memcpy(&len, bytes.data() + pos, sizeof(len));
    pos += kRecordHeader + len;
    ends.push_back(pos);
  }
  return ends;
}

// Replays `segment` as the only segment of a fresh journal in `dir`.
serve::Journal::ReplayResult replay_segment(const std::string& dir,
                                            const std::string& segment) {
  namespace fs = std::filesystem;
  fs::remove_all(dir);
  fs::create_directories(dir);
  write_bytes(dir + "/segment-000001.wal", segment);
  serve::Journal journal(dir);
  return journal.open_and_replay();
}

// Byte-level mutations and truncations of a real journal segment holding
// accepted, started, settled and forgotten records. Replay must never
// crash, never apply a record whose checksum fails, and never lose a
// valid record before the first damaged byte: it reads exactly the
// records wholly before that byte and recovers exactly the jobs a replay
// of those records alone recovers.
TEST(Fuzz, MutatedJournalSegmentsReplaySafely) {
  namespace fs = std::filesystem;
  const std::string root = ::testing::TempDir() + "tspopt_fuzz_journal";
  fs::remove_all(root);
  const std::string bytes = source_segment(root + "/source");
  const std::vector<std::size_t> ends = record_ends(bytes);
  ASSERT_EQ(ends.size(), 11u);
  ASSERT_EQ(ends.back(), bytes.size());

  const std::string dir = root + "/replay";
  auto replay = [&](const std::string& segment) {
    return replay_segment(dir, segment);
  };
  // prefix[k]: what the first k records alone recover.
  std::vector<std::string> prefix;
  for (std::size_t k = 0; k <= ends.size(); ++k) {
    serve::Journal::ReplayResult rep =
        replay(bytes.substr(0, k == 0 ? 0 : ends[k - 1]));
    ASSERT_EQ(rep.records_read, k);
    prefix.push_back(recovered_jobs(rep));
  }

  Pcg32 rng(20261018);
  int damaged_replays = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::string damaged = bytes;
    if (trial % 4 == 3) {
      damaged.resize(rng.next_below(static_cast<std::uint32_t>(bytes.size())));
    } else {
      mutate_bytes(rng, damaged, 0, damaged.size());
    }
    std::size_t first = 0;
    while (first < damaged.size() && first < bytes.size() &&
           damaged[first] == bytes[first]) {
      ++first;
    }
    if (damaged == bytes) continue;
    const auto intact = static_cast<std::size_t>(
        std::upper_bound(ends.begin(), ends.end(), first) - ends.begin());

    serve::Journal::ReplayResult rep = replay(damaged);
    EXPECT_EQ(rep.records_read, intact)
        << "trial " << trial << ", first damaged byte " << first;
    EXPECT_EQ(recovered_jobs(rep), prefix[intact])
        << "trial " << trial << ", first damaged byte " << first;
    EXPECT_TRUE(rep.torn_tail || rep.corrupt || intact == ends.size())
        << "trial " << trial;
    if (intact < ends.size()) ++damaged_replays;
  }
  EXPECT_GT(damaged_replays, 300);
  fs::remove_all(root);
}

// Checksum-valid but malformed records. Each record of a real segment in
// turn gets one field rewritten — a non-integral, out-of-range or
// mistyped id or attempts count, a numeric state, an out-of-range result
// order entry — or its job dropped, and is resealed with a fresh length
// and fnv1a, so replay reaches the field checks instead of stopping at
// the checksum. A malformed record counts as corrupt and is skipped
// whole: the replay recovers exactly what a replay of the segment without
// that record recovers, so the well-formed jobs around it survive. The
// sanitizer build (with float-cast-overflow) runs this suite: no value
// may reach an unchecked cast.
TEST(Fuzz, ResealedJournalRecordsReplaySafely) {
  namespace fs = std::filesystem;
  const std::string root = ::testing::TempDir() + "tspopt_fuzz_resealed";
  fs::remove_all(root);
  const std::string bytes = source_segment(root + "/source");
  const std::vector<std::size_t> ends = record_ends(bytes);
  ASSERT_EQ(ends.size(), 11u);
  std::vector<std::string> frames;
  for (std::size_t k = 0, pos = 0; k < ends.size(); pos = ends[k++]) {
    frames.push_back(bytes.substr(pos, ends[k] - pos));
  }

  auto number = [](double v) {
    obs::JsonValue j;
    j.kind = obs::JsonValue::Kind::kNumber;
    j.number = v;
    return j;
  };
  auto text = [](const std::string& v) {
    obs::JsonValue j;
    j.kind = obs::JsonValue::Kind::kString;
    j.string = v;
    return j;
  };
  // Sets member `key` of `object`; returns false when `only_if_present`
  // and the member is absent (the malformation does not apply).
  auto set_member = [](obs::JsonValue& object, const std::string& key,
                       obs::JsonValue value, bool only_if_present) {
    for (auto& [k, v] : object.object) {
      if (k == key) {
        v = std::move(value);
        return true;
      }
    }
    if (only_if_present) return false;
    object.object.emplace_back(key, std::move(value));
    return true;
  };

  struct Malformation {
    std::string name;
    std::function<bool(obs::JsonValue&)> apply;  // false: not applicable
  };
  std::vector<Malformation> malformations;
  for (const auto& [label, id] :
       {std::pair{"1.5", 1.5}, std::pair{"1e300", 1e300},
        std::pair{"0", 0.0}, std::pair{"-1", -1.0}}) {
    malformations.push_back(
        {std::string("id ") + label, [=](obs::JsonValue& r) {
           return set_member(r, "id", number(id), false);
         }});
  }
  malformations.push_back({"id \"x\"", [=](obs::JsonValue& r) {
                             return set_member(r, "id", text("x"), false);
                           }});
  for (const auto& [label, attempts] :
       {std::pair{"1e12", 1e12}, std::pair{"-3.5", -3.5}}) {
    malformations.push_back(
        {std::string("attempts ") + label, [=](obs::JsonValue& r) {
           return set_member(r, "attempts", number(attempts), false);
         }});
  }
  malformations.push_back({"state 7", [=](obs::JsonValue& r) {
                             return set_member(r, "state", number(7), false);
                           }});
  malformations.push_back({"result.order [1e12]", [=](obs::JsonValue& r) {
                             for (auto& [k, v] : r.object) {
                               if (k != "result") continue;
                               obs::JsonValue order;
                               order.kind = obs::JsonValue::Kind::kArray;
                               order.array.push_back(number(1e12));
                               return set_member(v, "order", order, true);
                             }
                             return false;
                           }});
  malformations.push_back({"no job", [](obs::JsonValue& r) {
                             return std::erase_if(r.object, [](const auto& m) {
                                      return m.first == "job";
                                    }) > 0;
                           }});

  const std::string dir = root + "/replay";
  int resealed = 0;
  for (std::size_t k = 0; k < frames.size(); ++k) {
    std::string without;
    for (std::size_t r = 0; r < frames.size(); ++r) {
      if (r != k) without += frames[r];
    }
    const std::string expected = recovered_jobs(replay_segment(dir, without));
    for (const Malformation& m : malformations) {
      obs::JsonValue record =
          obs::json_parse(frames[k].substr(kRecordHeader));
      if (!m.apply(record)) continue;
      obs::JsonWriter w;
      obs::write_json_value(w, record);
      const std::string payload = w.str();
      const auto len = static_cast<std::uint32_t>(payload.size());
      const std::uint64_t sum = fnv1a(payload);
      std::string frame(kRecordHeader, '\0');
      std::memcpy(frame.data(), &len, sizeof(len));
      std::memcpy(frame.data() + sizeof(len), &sum, sizeof(sum));
      frame += payload;

      std::string segment;
      for (std::size_t r = 0; r < frames.size(); ++r) {
        segment += r == k ? frame : frames[r];
      }
      const std::string what = "record " + std::to_string(k) + ", " + m.name;
      serve::Journal::ReplayResult rep = replay_segment(dir, segment);
      EXPECT_TRUE(rep.corrupt) << what;
      EXPECT_FALSE(rep.torn_tail) << what;
      EXPECT_EQ(rep.records_read, frames.size() - 1) << what;
      EXPECT_EQ(recovered_jobs(rep), expected) << what;
      ++resealed;
    }
  }
  // Every record takes the id, attempts and state rewrites; the two
  // finished settles take the order rewrite and the four accepts lose
  // their job.
  EXPECT_EQ(resealed, 11 * 8 + 2 + 4);
  fs::remove_all(root);
}

TEST(Fuzz, ParallelEngineStableAcrossPoolSizes) {
  Instance inst = generate_uniform("fz400", 400, 5);
  Pcg32 rng(6);
  Tour tour = Tour::random(400, rng);
  TwoOptSequential reference;
  SearchResult expect = reference.search(inst, tour);
  for (std::size_t workers : {1u, 2u, 3u, 7u, 16u}) {
    ThreadPool pool(workers);
    TwoOptSimd engine(nullptr, &pool);
    SearchResult got = engine.search(inst, tour);
    ASSERT_EQ(got.best.delta, expect.best.delta) << workers << " workers";
    ASSERT_EQ(got.best.index, expect.best.index) << workers << " workers";
  }
}

// The serve protocol boundary: whatever bytes arrive as a request line,
// handle_request must return a parseable JSON object carrying "ok" —
// never throw, never crash the daemon thread. Random garbage, mutated
// valid requests, truncations and NUL injection all included.
TEST(Fuzz, ServeProtocolNeverThrowsOnGarbageLines) {
  auto device = std::make_unique<simt::Device>(simt::gtx680_cuda());
  std::vector<simt::Device*> devices = {device.get()};
  simt::DevicePool pool(devices);
  serve::SchedulerOptions options;
  options.workers = 1;
  serve::Scheduler scheduler(pool, options);

  const std::vector<std::string> seeds = {
      "{\"verb\":\"ping\"}",
      "{\"verb\":\"status\",\"id\":1}",
      "{\"verb\":\"stats\"}",
      "{\"verb\":\"submit\",\"job\":{\"schema\":\"tspopt.job\","
      "\"schema_version\":1,\"catalog\":\"berlin52\","
      "\"engine\":\"cpu-sequential\",\"time_limit_seconds\":0.01,"
      "\"max_iterations\":1}}",
  };

  Pcg32 rng(20260808);
  for (int trial = 0; trial < 400; ++trial) {
    std::string line;
    switch (rng.next_below(4)) {
      case 0: {  // pure random bytes
        auto len = rng.next_below(200);
        for (std::uint32_t i = 0; i < len; ++i) {
          line.push_back(static_cast<char>(rng.next_below(256)));
        }
        break;
      }
      case 1: {  // mutated valid request: flip random bytes
        line = seeds[rng.next_below(seeds.size())];
        auto flips = 1 + rng.next_below(8);
        for (std::uint32_t i = 0; i < flips && !line.empty(); ++i) {
          line[rng.next_below(line.size())] =
              static_cast<char>(rng.next_below(256));
        }
        break;
      }
      case 2: {  // truncated valid request
        line = seeds[rng.next_below(seeds.size())];
        line.resize(rng.next_below(line.size() + 1));
        break;
      }
      default: {  // NUL injection into a valid request
        line = seeds[rng.next_below(seeds.size())];
        auto count = 1 + rng.next_below(4);
        for (std::uint32_t i = 0; i < count; ++i) {
          line.insert(rng.next_below(line.size() + 1), 1, '\0');
        }
        break;
      }
    }

    std::string response;
    ASSERT_NO_THROW(response = serve::handle_request(scheduler, line))
        << "trial " << trial;
    obs::JsonValue parsed;
    ASSERT_NO_THROW(parsed = obs::json_parse(response)) << "trial " << trial;
    ASSERT_NE(parsed.find("ok"), nullptr) << "trial " << trial;
  }
}

// The admin-plane HTTP boundary, same discipline as the daemon protocol:
// whatever bytes arrive as a request head, parse_http_request must
// either fill the request or return false with an error — never throw.
// Random garbage, mutated valid heads, truncations and NUL injection.
TEST(Fuzz, HttpRequestParserNeverThrowsOnGarbageHeads) {
  const std::vector<std::string> seeds = {
      "GET / HTTP/1.0\r\n\r\n",
      "GET /metrics HTTP/1.1\r\nHost: localhost\r\nAccept: */*\r\n\r\n",
      "HEAD /tracez?n=5 HTTP/1.0\r\n\r\n",
      "POST /statusz HTTP/1.0\r\nContent-Length: 12\r\n\r\n",
  };

  Pcg32 rng(20260808);
  for (int trial = 0; trial < 400; ++trial) {
    std::string head;
    switch (rng.next_below(4)) {
      case 0: {  // pure random bytes
        auto len = rng.next_below(200);
        for (std::uint32_t i = 0; i < len; ++i) {
          head.push_back(static_cast<char>(rng.next_below(256)));
        }
        break;
      }
      case 1: {  // mutated valid head: flip random bytes
        head = seeds[rng.next_below(seeds.size())];
        auto flips = 1 + rng.next_below(8);
        for (std::uint32_t i = 0; i < flips && !head.empty(); ++i) {
          head[rng.next_below(head.size())] =
              static_cast<char>(rng.next_below(256));
        }
        break;
      }
      case 2: {  // truncated valid head
        head = seeds[rng.next_below(seeds.size())];
        head.resize(rng.next_below(head.size() + 1));
        break;
      }
      default: {  // NUL injection into a valid head
        head = seeds[rng.next_below(seeds.size())];
        auto count = 1 + rng.next_below(4);
        for (std::uint32_t i = 0; i < count; ++i) {
          head.insert(rng.next_below(head.size() + 1), 1, '\0');
        }
        break;
      }
    }

    obs::HttpRequest request;
    std::string error;
    bool ok = false;
    ASSERT_NO_THROW(ok = obs::parse_http_request(head, &request, &error))
        << "trial " << trial;
    if (ok) {
      // A parse that succeeds must yield a dispatchable request.
      ASSERT_FALSE(request.method.empty()) << "trial " << trial;
      ASSERT_FALSE(request.path.empty()) << "trial " << trial;
      ASSERT_EQ(request.path.front(), '/') << "trial " << trial;
      // And its query must be safe to probe for limits.
      ASSERT_NO_THROW(obs::query_int(request.query, "n", 1))
          << "trial " << trial;
    } else {
      ASSERT_FALSE(error.empty()) << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace tspopt
