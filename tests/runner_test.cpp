// Tests for the parallel sweep executor (experiment/runner): the
// determinism contract — results indexed by submission order, bit-identical
// at any worker count — plus flag/env plumbing and error propagation.
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "experiment/runner.hpp"
#include "experiment/scenario.hpp"

namespace prdrb {
namespace {

/// Small-but-real synthetic scenario: short bursty hot-spot on a 4x4 mesh,
/// heavy enough to exercise DRB path expansion yet quick under TSan.
ScenarioSpec small_scenario(std::uint64_t seed) {
  ScenarioSpec sc;
  sc.topology = "mesh-4x4";
  sc.synthetic().pattern = "uniform";
  sc.synthetic().rate_bps = 600e6;
  sc.synthetic().bursts = 2;
  sc.synthetic().burst_len = 0.5e-3;
  sc.synthetic().gap_len = 0.5e-3;
  sc.synthetic().duration = 2e-3;
  sc.seed = seed;
  sc.bin_width = 0.5e-3;
  return sc;
}

std::vector<SweepJob> multi_seed_jobs(int seeds) {
  std::vector<SweepJob> jobs;
  for (int s = 0; s < seeds; ++s) {
    jobs.push_back(SweepJob::make(
        s % 2 ? "drb" : "deterministic",
        small_scenario(100 + static_cast<std::uint64_t>(s))));
  }
  return jobs;
}

TEST(Runner, MultiSeedSweepIsByteIdenticalAcrossWorkerCounts) {
  const auto jobs = multi_seed_jobs(6);
  const auto serial = run_sweep(jobs, 1);
  const auto parallel = run_sweep(jobs, 8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    // Defaulted operator== compares every field, including the full time
    // series and per-router maps, with exact double equality.
    EXPECT_EQ(serial[i], parallel[i]) << "job " << i;
  }
}

TEST(Runner, ParallelMatchesDirectRunSynthetic) {
  const auto sc = small_scenario(42);
  const auto direct = run_scenario("drb", sc);
  const auto swept =
      run_sweep({SweepJob::make("drb", sc),
                 SweepJob::make("drb", small_scenario(43))},
                4);
  EXPECT_EQ(direct, swept[0]);
}

TEST(Runner, StressMoreJobsThanThreads) {
  // 24 jobs over 3 workers: every worker claims many jobs, and the slot
  // array must still come back in submission order.
  std::vector<SweepJob> jobs;
  for (int s = 0; s < 24; ++s) {
    jobs.push_back(SweepJob::make(
        "drb", small_scenario(static_cast<std::uint64_t>(s))));
  }
  const auto serial = run_sweep(jobs, 1);
  const auto parallel = run_sweep(jobs, 3);
  ASSERT_EQ(parallel.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "job " << i;
  }
}

TEST(Runner, TraceJobsRunThroughTheSameExecutor) {
  ScenarioSpec sc;
  sc.topology = "tree-16";
  sc.trace().app = "sweep3d";
  sc.trace().scale.iterations = 2;
  const auto serial = run_policies({"deterministic", "drb"}, sc, 1);
  const auto parallel = run_policies({"deterministic", "drb"}, sc, 4);
  ASSERT_EQ(serial.size(), 2u);
  EXPECT_EQ(serial[0], parallel[0]);
  EXPECT_EQ(serial[1], parallel[1]);
  EXPECT_EQ(serial[0].policy, "deterministic");
  EXPECT_GT(serial[0].packets, 0u);
}

TEST(Runner, ReplicatedSweepKeepsSeedOrder) {
  const auto sc = small_scenario(7);
  const auto runs = run_synthetic_replicated("drb", sc, 4);
  ASSERT_EQ(runs.size(), 4u);
  // Seed i produces the same result as a direct serial run with seed 7+i.
  for (int i = 0; i < 4; ++i) {
    auto expect_sc = sc;
    expect_sc.seed = 7 + static_cast<std::uint64_t>(i);
    EXPECT_EQ(runs[static_cast<std::size_t>(i)],
              run_scenario("drb", expect_sc))
        << "seed " << i;
  }
}

TEST(Runner, EmptySweepReturnsEmpty) {
  EXPECT_TRUE(run_sweep({}, 8).empty());
}

TEST(Runner, JobExceptionsPropagateToCaller) {
  std::vector<SweepJob> jobs = multi_seed_jobs(4);
  jobs[2].policy = "no-such-policy";
  EXPECT_THROW(run_sweep(jobs, 4), std::invalid_argument);
  EXPECT_THROW(run_sweep(jobs, 1), std::invalid_argument);
}

TEST(Runner, ParseJobsFlagForms) {
  EXPECT_EQ(parse_jobs("--jobs", "4").value(), 4);
  EXPECT_EQ(parse_jobs("-j", "2").value(), 2);
  EXPECT_EQ(parse_jobs("--jobs", "100000").value(), 1024);  // capped
  // Junk, zero and negative counts are rejected, naming the flag.
  for (const std::string bad : {"", "x", "2x", "2.5", " 4", "0", "-3"}) {
    const Parsed<int> n = parse_jobs("--jobs", bad);
    ASSERT_FALSE(n.ok()) << "'" << bad << "'";
    EXPECT_EQ(n.error().what(),
              "--jobs needs a positive integer, got '" + bad + "'");
  }
  EXPECT_EQ(parse_jobs("-j", "0").error().what(),
            "-j needs a positive integer, got '0'");
}

TEST(Runner, DefaultJobsOverride) {
  set_default_jobs(5);
  EXPECT_EQ(default_jobs(), 5);
  set_default_jobs(0);  // reset to env/hardware
  EXPECT_GE(default_jobs(), 1);
}

}  // namespace
}  // namespace prdrb
