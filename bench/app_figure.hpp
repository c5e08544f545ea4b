// Shared helpers for the application-trace figures (thesis §4.8):
// run one application under several policies, report global latency,
// execution time, latency-map peaks and the per-router contention series of
// the hottest routers, plus the predictive-module statistics.
#pragma once

#include <algorithm>
#include <iostream>

#include "bench_common.hpp"

namespace prdrb::bench {

inline ScenarioSpec app_scenario(const std::string& app,
                                 const std::string& topology,
                                 TraceScale scale) {
  ScenarioSpec sc;
  sc.trace().app = app;
  sc.topology = topology;
  sc.trace().scale = scale;
  sc.bin_width = 0.5e-3;
  // Watch every router; figures pick the hottest ones afterwards.
  auto topo = make_topology(topology).value_or_throw();
  for (RouterId r = 0; r < topo->num_routers(); ++r) sc.watch.push_back(r);
  return sc;
}

/// Routers with the highest average contention in `r`, hottest first.
inline std::vector<RouterId> hottest_routers(const ScenarioResult& r, int n) {
  std::vector<std::pair<double, RouterId>> ranked;
  for (const auto& [router, pts] : r.router_series) {
    double sum = 0;
    double cnt = 0;
    for (const auto& [t, v] : pts) {
      if (v > 0) {
        sum += v;
        cnt += 1;
      }
    }
    ranked.emplace_back(cnt ? sum / cnt : 0.0, router);
  }
  std::sort(ranked.rbegin(), ranked.rend());
  std::vector<RouterId> out;
  for (int i = 0; i < n && i < static_cast<int>(ranked.size()); ++i) {
    out.push_back(ranked[static_cast<std::size_t>(i)].second);
  }
  return out;
}

inline void print_app_summary(const std::string& title,
                              const std::vector<ScenarioResult>& results) {
  std::cout << "\n" << title << "\n";
  Table s({"policy", "global_lat_us", "exec_time_ms", "map_peak_us",
           "map_mean_us", "expansions", "installs", "patterns", "reused",
           "max_reuse"});
  for (const auto& r : results) {
    s.add_row({r.policy, us(r.global_latency),
               Table::num(r.exec_time * 1e3, 4), us(r.map_peak),
               us(r.map_mean), std::to_string(r.expansions),
               std::to_string(r.installs), std::to_string(r.patterns_saved),
               std::to_string(r.patterns_reused),
               std::to_string(r.max_reuse)});
  }
  s.print(std::cout);
}

/// Contention series of router `router` in each result, side by side.
inline void print_router_series(RouterId router,
                                const std::vector<ScenarioResult>& results) {
  std::vector<std::string> header{"time_ms"};
  for (const auto& r : results) header.push_back(r.policy + "_us");
  Table t(header);
  std::size_t bins = 0;
  auto find = [&](const ScenarioResult& r)
      -> const std::vector<std::pair<double, double>>* {
    for (const auto& [rt, pts] : r.router_series) {
      if (rt == router) return &pts;
    }
    return nullptr;
  };
  for (const auto& r : results) {
    if (const auto* pts = find(r)) bins = std::max(bins, pts->size());
  }
  for (std::size_t i = 0; i < bins; ++i) {
    std::vector<std::string> row{
        Table::num((static_cast<double>(i) + 0.5) * 0.5, 3)};
    for (const auto& r : results) {
      const auto* pts = find(r);
      row.push_back(Table::num(
          (pts && i < pts->size()) ? (*pts)[i].second * 1e6 : 0.0, 4));
    }
    t.add_row(row);
  }
  std::cout << "\ncontention latency of router " << router
            << " (avg per 0.5 ms bin, us):\n";
  t.print(std::cout);
}

}  // namespace prdrb::bench
