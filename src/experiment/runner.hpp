// Parallel deterministic sweep executor for the experiment harness.
//
// The evaluation methodology (thesis §4.3) averages every scenario over
// multiple seeds and load points; each (scenario, policy, seed) simulation
// is independent, so the sweep is embarrassingly parallel. run_sweep fans a
// vector of jobs across a pool of std::jthread workers. Every job owns an
// isolated Simulator / Rng / MetricsCollector (constructed inside
// run_scenario — there is no shared mutable state between simulations), and
// each worker writes its result into a pre-sized slot array at the job's
// submission index.
//
// Determinism contract: the result vector is indexed by submission order,
// never by completion order, so aggregation — and therefore every averaged
// table and figure — is bit-identical to the serial run regardless of the
// worker count. `run_sweep(jobs, 1)` and `run_sweep(jobs, 8)` return
// byte-identical ScenarioResults (tests/runner_test.cpp enforces this).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "experiment/scenario.hpp"
#include "util/parsed.hpp"

namespace prdrb {

/// One unit of sweep work: a policy applied to a scenario (the spec's
/// workload variant decides synthetic vs trace).
struct SweepJob {
  std::string policy;
  ScenarioSpec spec;

  static SweepJob make(std::string policy, ScenarioSpec spec) {
    return SweepJob{std::move(policy), std::move(spec)};
  }
};

/// Run one job in the calling thread.
ScenarioResult run_job(const SweepJob& job);

/// Worker count used when run_sweep is called with n_threads == 0:
/// the last set_default_jobs() value, else the PRDRB_JOBS environment
/// variable, else std::thread::hardware_concurrency(). Always >= 1.
int default_jobs();

/// Override default_jobs() for this process (0 resets to env/hardware).
void set_default_jobs(int n);

/// The value `text` of the worker-count flag `flag` ("--jobs", "-j"): a
/// positive integer, capped at 1024. Junk, zero and negative values are a
/// ParseError naming the flag. Every front end and PRDRB_JOBS read their
/// worker count through this.
Parsed<int> parse_jobs(std::string_view flag, std::string_view text);

/// Execute every job, using up to n_threads concurrent workers
/// (n_threads == 0 -> default_jobs()). results[i] corresponds to jobs[i];
/// see the determinism contract above. The first exception thrown by any
/// job is rethrown in the caller after all workers have stopped.
std::vector<ScenarioResult> run_sweep(const std::vector<SweepJob>& jobs,
                                      int n_threads = 0);

/// Convenience fan-out: one job per policy over a fixed scenario, results
/// in the order the policies were given.
std::vector<ScenarioResult> run_policies(
    const std::vector<std::string>& policies, const ScenarioSpec& sc,
    int n_threads = 0);

}  // namespace prdrb
