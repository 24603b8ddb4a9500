// ILS checkpoint/resume: the population checkpoint format round-trips
// exactly, damaged files are rejected with CheckError (never trusted), and
// a checkpointed, killed, resumed solo run (a population of one) reproduces
// the uninterrupted run bit-identically.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "simt/fault.hpp"
#include "solver/batch/population_ils.hpp"
#include "solver/checkpoint.hpp"
#include "solver/ils.hpp"
#include "solver/twoopt_multi.hpp"
#include "solver/twoopt_sequential.hpp"
#include "tsp/generator.hpp"
#include "tsp/tour.hpp"

namespace tspopt {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "tspopt_" + name;
}

IlsCheckpoint sample_member() {
  IlsCheckpoint ck;
  ck.iterations = 17;
  ck.improvements = 4;
  ck.checks = 123456789;
  ck.passes = 250;
  ck.elapsed_seconds = 1.625;  // representable exactly
  ck.best_order = {0, 2, 4, 6, 7, 5, 3, 1};
  ck.best_length = 4321;
  ck.incumbent_order = {1, 3, 5, 7, 6, 4, 2, 0};
  ck.incumbent_length = 4400;
  ck.rng = {0xDEADBEEFCAFEF00DULL, 0x12345ULL};
  ck.trace = {{0.5, 5000, 0, 100, 3}, {1.5, 4321, 9, 900, 17}};
  return ck;
}

PopulationCheckpoint sample_checkpoint() {
  PopulationCheckpoint ck;
  ck.rounds = 17;
  ck.migrations = 2;
  ck.elapsed_seconds = 1.625;
  ck.members = {sample_member(), sample_member()};
  ck.members[1].iterations = 11;
  ck.members[1].rng = {0x0123456789ABCDEFULL, 0x777ULL};
  ck.members[1].trace.pop_back();
  ck.finished = {0, 1};
  ck.stopped = {1, 0};
  return ck;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void expect_member_equal(const IlsCheckpoint& back, const IlsCheckpoint& ck) {
  EXPECT_EQ(back.iterations, ck.iterations);
  EXPECT_EQ(back.improvements, ck.improvements);
  EXPECT_EQ(back.checks, ck.checks);
  EXPECT_EQ(back.passes, ck.passes);
  EXPECT_EQ(back.elapsed_seconds, ck.elapsed_seconds);
  EXPECT_EQ(back.best_order, ck.best_order);
  EXPECT_EQ(back.best_length, ck.best_length);
  EXPECT_EQ(back.incumbent_order, ck.incumbent_order);
  EXPECT_EQ(back.incumbent_length, ck.incumbent_length);
  EXPECT_EQ(back.rng.state, ck.rng.state);
  EXPECT_EQ(back.rng.inc, ck.rng.inc);
  ASSERT_EQ(back.trace.size(), ck.trace.size());
  for (std::size_t i = 0; i < ck.trace.size(); ++i) {
    EXPECT_EQ(back.trace[i].seconds, ck.trace[i].seconds);
    EXPECT_EQ(back.trace[i].length, ck.trace[i].length);
    EXPECT_EQ(back.trace[i].iteration, ck.trace[i].iteration);
    EXPECT_EQ(back.trace[i].checks, ck.trace[i].checks);
    EXPECT_EQ(back.trace[i].passes, ck.trace[i].passes);
  }
}

TEST(Checkpoint, RoundTripsEveryField) {
  PopulationCheckpoint ck = sample_checkpoint();
  std::string path = temp_path("roundtrip.ckpt");
  save_population_checkpoint(path, ck);
  PopulationCheckpoint back = load_population_checkpoint(path);

  EXPECT_EQ(back.rounds, ck.rounds);
  EXPECT_EQ(back.migrations, ck.migrations);
  EXPECT_EQ(back.elapsed_seconds, ck.elapsed_seconds);
  EXPECT_EQ(back.finished, ck.finished);
  EXPECT_EQ(back.stopped, ck.stopped);
  ASSERT_EQ(back.members.size(), ck.members.size());
  for (std::size_t m = 0; m < ck.members.size(); ++m) {
    expect_member_equal(back.members[m], ck.members[m]);
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, SaveOverwritesAtomically) {
  std::string path = temp_path("overwrite.ckpt");
  PopulationCheckpoint ck = sample_checkpoint();
  save_population_checkpoint(path, ck);
  ck.rounds = 99;
  save_population_checkpoint(path, ck);  // replaces, does not append
  EXPECT_EQ(load_population_checkpoint(path).rounds, 99);
  // No stray .tmp left behind.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

TEST(Checkpoint, EveryTruncationIsRejectedNotTrusted) {
  std::string path = temp_path("trunc.ckpt");
  save_population_checkpoint(path, sample_checkpoint());
  std::string bytes = read_file(path);
  ASSERT_GT(bytes.size(), 30u);

  std::string cut_path = temp_path("trunc_cut.ckpt");
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    write_file(cut_path, bytes.substr(0, len));
    EXPECT_THROW(load_population_checkpoint(cut_path), CheckError)
        << "prefix of " << len << " bytes parsed successfully";
  }
  std::remove(path.c_str());
  std::remove(cut_path.c_str());
}

TEST(Checkpoint, BitFlipsAreCaughtByTheChecksum) {
  std::string path = temp_path("corrupt.ckpt");
  save_population_checkpoint(path, sample_checkpoint());
  std::string bytes = read_file(path);

  std::string flip_path = temp_path("corrupt_flip.ckpt");
  Pcg32 rng(2026);
  for (int trial = 0; trial < 64; ++trial) {
    std::string damaged = bytes;
    std::size_t at = rng.next_below(static_cast<std::uint32_t>(bytes.size()));
    damaged[at] = static_cast<char>(damaged[at] ^ (1 << rng.next_below(8)));
    write_file(flip_path, damaged);
    // Flipping any single bit anywhere (magic, version, length, payload or
    // checksum) must be detected, never silently accepted.
    EXPECT_THROW(load_population_checkpoint(flip_path), CheckError)
        << "bit flip at byte " << at << " was accepted";
  }
  std::remove(path.c_str());
  std::remove(flip_path.c_str());
}

TEST(Checkpoint, MissingFileAndWrongMagicAreCheckErrors) {
  EXPECT_THROW(load_population_checkpoint(temp_path("does_not_exist.ckpt")),
               CheckError);
  std::string path = temp_path("not_a_ckpt.bin");
  write_file(path, "definitely not a checkpoint file, much too informal");
  EXPECT_THROW(load_population_checkpoint(path), CheckError);
  // The retired single-run format: same framing, its own magic. A spool
  // file left in it is reported, so the job reruns fresh.
  std::string bytes = "TSPCKPT";
  bytes.push_back('\0');
  bytes += std::string(64, '\x01');
  write_file(path, bytes);
  EXPECT_THROW(load_population_checkpoint(path), CheckError);
  std::remove(path.c_str());
}

TEST(Checkpoint, ValidationRejectsForeignOrTamperedCheckpoints) {
  Instance inst = generate_uniform("u64", 64, 1);
  PopulationCheckpoint ck = sample_checkpoint();  // 8-city tours
  EXPECT_THROW(validate_population_checkpoint(ck, inst), CheckError);

  // Right size but a tampered best length.
  Pcg32 rng(3);
  Tour tour = Tour::random(64, rng);
  ck.members.resize(1);
  ck.finished.resize(1);
  ck.stopped.resize(1);
  IlsCheckpoint& m = ck.members[0];
  m.best_order.assign(tour.order().begin(), tour.order().end());
  m.incumbent_order = m.best_order;
  m.best_length = tour.length(inst) + 1;  // lie
  m.incumbent_length = tour.length(inst);
  EXPECT_THROW(validate_population_checkpoint(ck, inst), CheckError);
  m.best_length = tour.length(inst);
  EXPECT_NO_THROW(validate_population_checkpoint(ck, inst));

  // Flag vectors out of step with the members.
  ck.stopped.push_back(0);
  EXPECT_THROW(validate_population_checkpoint(ck, inst), CheckError);
  ck.stopped.pop_back();

  // A non-permutation "tour".
  m.incumbent_order[0] = m.incumbent_order[1];
  m.incumbent_length = Tour(m.incumbent_order).length(inst);
  EXPECT_THROW(validate_population_checkpoint(ck, inst), CheckError);
}

// Continue a solo run from the one-member checkpoint at `path` under the
// solo run's options (its seed is irrelevant: the RNG position is in the
// checkpoint).
IlsResult resume_solo(TwoOptEngine& engine, const Instance& inst,
                      const std::string& path, const IlsOptions& options) {
  PopulationCheckpoint ck = load_population_checkpoint(path);
  EXPECT_EQ(ck.members.size(), 1u);
  PerSlotBatchEngine slots(engine);
  return population_ils_resume(slots, inst, ck,
                               population_members(1, options.seed),
                               population_options(options))
      .members.front();
}

// Field-by-field trace comparison, ignoring wall-clock stamps (the only
// field a resumed process cannot reproduce).
void expect_same_trace(const std::vector<IlsTracePoint>& got,
                       const std::vector<IlsTracePoint>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].length, want[i].length) << "trace point " << i;
    EXPECT_EQ(got[i].iteration, want[i].iteration) << "trace point " << i;
    EXPECT_EQ(got[i].checks, want[i].checks) << "trace point " << i;
    EXPECT_EQ(got[i].passes, want[i].passes) << "trace point " << i;
  }
}

void run_kill_resume_scenario(IlsAcceptance acceptance) {
  Instance inst = generate_clustered("ck200", 200, 4, 7);
  Pcg32 rng(11);
  Tour initial = Tour::random(200, rng);
  TwoOptSequential engine;

  IlsOptions options;
  options.time_limit_seconds = -1.0;  // iteration-bounded => deterministic
  options.max_iterations = 24;
  options.seed = 99;
  options.acceptance = acceptance;

  // The run that is never interrupted.
  IlsResult uninterrupted =
      iterated_local_search(engine, inst, initial, options);

  // The same run, checkpointing every 5 iterations and "killed" at 10.
  // One file per acceptance rule: ctest runs the two scenarios in parallel.
  std::string path = temp_path(
      "kill_resume_" + std::to_string(static_cast<int>(acceptance)) + ".ckpt");
  IlsOptions first_leg = options;
  first_leg.max_iterations = 10;
  first_leg.checkpoint_path = path;
  first_leg.checkpoint_every = 5;
  iterated_local_search(engine, inst, initial, first_leg);

  EXPECT_EQ(load_population_checkpoint(path).members[0].iterations, 10);

  IlsResult resumed = resume_solo(engine, inst, path, options);

  EXPECT_EQ(resumed.best_length, uninterrupted.best_length);
  EXPECT_TRUE(resumed.best == uninterrupted.best);
  EXPECT_EQ(resumed.iterations, uninterrupted.iterations);
  EXPECT_EQ(resumed.improvements, uninterrupted.improvements);
  EXPECT_EQ(resumed.checks, uninterrupted.checks);
  expect_same_trace(resumed.trace, uninterrupted.trace);
  std::remove(path.c_str());
}

TEST(Checkpoint, KillAndResumeReproducesTheUninterruptedRun) {
  run_kill_resume_scenario(IlsAcceptance::kBetter);
}

TEST(Checkpoint, KillAndResumeReproducesEpsilonWorseRunsToo) {
  // kEpsilonWorse keeps an incumbent that differs from the best tour, so
  // this exercises that the checkpoint restores both independently.
  run_kill_resume_scenario(IlsAcceptance::kEpsilonWorse);
}

TEST(Checkpoint, DescentCheckpointAloneIsResumable) {
  Instance inst = generate_uniform("u120", 120, 5);
  Pcg32 rng(13);
  Tour initial = Tour::random(120, rng);
  TwoOptSequential engine;

  IlsOptions options;
  options.time_limit_seconds = -1.0;
  options.max_iterations = 12;
  options.seed = 5;

  IlsResult uninterrupted =
      iterated_local_search(engine, inst, initial, options);

  // "Killed" immediately after the initial descent: zero iterations done.
  std::string path = temp_path("descent.ckpt");
  IlsOptions first_leg = options;
  first_leg.max_iterations = 0;
  first_leg.checkpoint_path = path;
  iterated_local_search(engine, inst, initial, first_leg);

  EXPECT_EQ(load_population_checkpoint(path).members[0].iterations, 0);
  IlsResult resumed = resume_solo(engine, inst, path, options);
  EXPECT_TRUE(resumed.best == uninterrupted.best);
  EXPECT_EQ(resumed.checks, uninterrupted.checks);
  expect_same_trace(resumed.trace, uninterrupted.trace);
  std::remove(path.c_str());
}

TEST(Checkpoint, ResumeOnAFaultyMultiDeviceEngineStillMatches) {
  // The full robustness story end to end: the ILS runs on a multi-device
  // engine whose devices randomly fail, is killed mid-run, and resumes —
  // and still reproduces the fault-free single-engine run exactly.
  Instance inst = generate_uniform("u150", 150, 6);
  Pcg32 rng(17);
  Tour initial = Tour::random(150, rng);

  IlsOptions options;
  options.time_limit_seconds = -1.0;
  options.max_iterations = 16;
  options.seed = 3;

  TwoOptSequential reference;
  IlsResult expect = iterated_local_search(reference, inst, initial, options);

  simt::FaultPlan plan(777);
  plan.inject_random("*", simt::FaultKind::kLaunchFailure, 0.1);
  simt::FaultInjector injector(plan);
  simt::Device a(simt::gtx680_cuda());
  simt::Device b(simt::gtx680_cuda());
  a.set_label("gpu0");
  b.set_label("gpu1");
  a.set_fault_injector(&injector);
  b.set_fault_injector(&injector);
  MultiDeviceOptions mopts;
  mopts.backoff_initial_ms = 0.0;
  mopts.quarantine_after = 6;
  TwoOptMultiDevice engine({&a, &b}, 48, mopts);

  std::string path = temp_path("faulty_resume.ckpt");
  IlsOptions first_leg = options;
  first_leg.max_iterations = 7;
  first_leg.checkpoint_path = path;
  first_leg.checkpoint_every = 7;
  iterated_local_search(engine, inst, initial, first_leg);

  IlsResult resumed = resume_solo(engine, inst, path, options);
  EXPECT_TRUE(resumed.best == expect.best);
  EXPECT_EQ(resumed.best_length, expect.best_length);
  expect_same_trace(resumed.trace, expect.trace);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tspopt
