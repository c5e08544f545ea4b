#include "experiment/runner.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

namespace prdrb {

ScenarioResult run_job(const SweepJob& job) {
  return run_scenario(job.policy, job.spec);
}

namespace {

std::atomic<int> g_default_jobs_override{0};

int env_or_hardware_jobs() {
  if (const char* env = std::getenv("PRDRB_JOBS")) {
    if (const Parsed<int> n = parse_jobs("PRDRB_JOBS", env); n.ok()) {
      return n.value();
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? static_cast<int>(hw) : 1;
}

}  // namespace

int default_jobs() {
  const int override_jobs = g_default_jobs_override.load();
  return override_jobs >= 1 ? override_jobs : env_or_hardware_jobs();
}

void set_default_jobs(int n) { g_default_jobs_override.store(std::max(n, 0)); }

Parsed<int> parse_jobs(std::string_view flag, std::string_view text) {
  const Parsed<int> n = parse_number<int>(flag, text);
  if (n.ok() && n.value() >= 1) return std::min(n.value(), 1024);
  return ParseError{std::string(text), "flag",
                    std::string(flag) + " needs a positive integer, got", ""};
}

std::vector<ScenarioResult> run_sweep(const std::vector<SweepJob>& jobs,
                                      int n_threads) {
  std::vector<ScenarioResult> results(jobs.size());
  if (jobs.empty()) return results;
  if (n_threads <= 0) n_threads = default_jobs();
  const int workers =
      std::min<int>(n_threads, static_cast<int>(jobs.size()));

  if (workers <= 1) {
    for (std::size_t i = 0; i < jobs.size(); ++i) results[i] = run_job(jobs[i]);
    return results;
  }

  // Dynamic claim: each worker atomically takes the next unstarted job and
  // writes into its own slot. Slot indexing (not completion order) is what
  // makes the output independent of scheduling.
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mu;
  {
    std::vector<std::jthread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      pool.emplace_back([&] {
        for (;;) {
          const std::size_t i = next.fetch_add(1);
          if (i >= jobs.size()) return;
          try {
            results[i] = run_job(jobs[i]);
          } catch (...) {
            std::lock_guard<std::mutex> lock(error_mu);
            if (!first_error) first_error = std::current_exception();
            // Drain the remaining claims so all workers wind down promptly.
            next.store(jobs.size());
            return;
          }
        }
      });
    }
  }  // jthreads join here
  if (first_error) std::rethrow_exception(first_error);
  return results;
}

std::vector<ScenarioResult> run_policies(
    const std::vector<std::string>& policies, const ScenarioSpec& sc,
    int n_threads) {
  std::vector<SweepJob> jobs;
  jobs.reserve(policies.size());
  for (const std::string& p : policies) jobs.push_back(SweepJob::make(p, sc));
  return run_sweep(jobs, n_threads);
}

// Defined here (declared in scenario.hpp) so multi-seed replication fans
// out through the same deterministic executor: seeds are assigned at
// submission time and results come back in seed order, identical to the
// old serial loop.
std::vector<ScenarioResult> run_synthetic_replicated(
    const std::string& policy_name, ScenarioSpec spec, int runs) {
  if (runs < 1) {
    throw std::invalid_argument("replicated run needs at least 1 seed, got " +
                                std::to_string(runs));
  }
  std::vector<SweepJob> jobs;
  jobs.reserve(static_cast<std::size_t>(runs));
  const std::uint64_t base_seed = spec.seed;
  const std::string sdb_out = spec.sdb_out;
  for (int i = 0; i < runs; ++i) {
    spec.seed = base_seed + static_cast<std::uint64_t>(i);
    // Replicas run concurrently: only the base-seed run may export the
    // solution database, or every worker would race on the same file.
    spec.sdb_out = i == 0 ? sdb_out : std::string();
    jobs.push_back(SweepJob::make(policy_name, spec));
  }
  return run_sweep(jobs);
}

}  // namespace prdrb
