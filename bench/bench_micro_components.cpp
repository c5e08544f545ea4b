// Component microbenchmarks (google-benchmark): the per-event costs that
// bound simulation throughput and the router-local costs the thesis argues
// are cheap ("PR-DRB node level operations have not a high overhead because
// these operations are performed locally, they are simple", §3.2.8).
#include <benchmark/benchmark.h>

#include "core/cfd.hpp"
#include "core/pr_drb.hpp"
#include "net/kary_ntree.hpp"
#include "net/mesh2d.hpp"
#include "net/network.hpp"
#include "obs/counters.hpp"
#include "obs/probe.hpp"
#include "obs/scorecard.hpp"
#include "obs/stream.hpp"
#include "obs/tracer.hpp"
#include "routing/oblivious.hpp"
#include "sim/simulator.hpp"
#include "traffic/pattern.hpp"

namespace prdrb {
namespace {

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  EventQueue q;
  const auto depth = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < depth; ++i) {
    q.schedule(static_cast<double>(i), [] {});
  }
  double t = static_cast<double>(depth);
  for (auto _ : state) {
    q.schedule(t, [] {});
    t += 1.0;
    benchmark::DoNotOptimize(q.pop());
  }
}
BENCHMARK(BM_EventQueueScheduleAndPop)->Arg(64)->Arg(4096)->Arg(65536);

/// The classic "hold" model at a fixed pending depth: pop the minimum and
/// reschedule it a jittered increment into the future, so every operation
/// pays the heap's log(depth) sift with its cache misses. The >=100k rows
/// cover the deep-queue regime of long trace replays.
void BM_EventQueueHoldHeap(benchmark::State& state) {
  EventQueue q;
  const auto depth = static_cast<std::size_t>(state.range(0));
  Rng rng(42);
  for (std::size_t i = 0; i < depth; ++i) {
    q.schedule(rng.next_double(), [] {});
  }
  for (auto _ : state) {
    const SimTime t = q.pop().time;
    q.schedule(t + 0.5 + rng.next_double(), [] {});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueHoldHeap)->Arg(4096)->Arg(131072)->Arg(262144);

/// The pipeline's hold model at a fixed pending depth: every action
/// reschedules itself after the next of five constant delays (zero, wire,
/// router, router plus a tail, one serialization). `lanes` 1 schedules
/// through schedule_in (the delay lanes), 0 at the same absolute time
/// through schedule (the heap); both fire the same sequence. A CI step
/// requires the lane row to keep its lead, which only a silent fall-back to
/// the heap can lose.
class PipelineHold {
 public:
  PipelineHold(std::size_t depth, bool lanes) : lanes_(lanes) {
    // Arrivals at random times and stages; after the first `depth` pops
    // every pending event is a pipeline stage.
    Rng rng(42);
    for (std::size_t i = 0; i < depth; ++i) {
      const int stage = static_cast<int>(i % 5);
      q_.schedule(rng.next_double() * 1e-6, [this, stage] { arm(stage); });
    }
    for (std::size_t i = 0; i < 2 * depth; ++i) step();
  }

  void step() {
    EventQueue::Fired fired = q_.pop();
    now_ = fired.time;
    fired.action();
  }

 private:
  static constexpr SimTime kDelays[] = {0.0, 20e-9, 40e-9, 40e-9 + 4.096e-6,
                                        4.096e-6};

  void arm(int stage) {
    const int next = stage == 4 ? 0 : stage + 1;
    auto again = [this, next] { arm(next); };
    if (lanes_) {
      q_.schedule_in(now_, kDelays[next], std::move(again));
    } else {
      q_.schedule(now_ + kDelays[next], std::move(again));
    }
  }

  EventQueue q_;
  SimTime now_ = 0;
  bool lanes_;
};

void BM_EventQueuePipelineHold(benchmark::State& state) {
  PipelineHold hold(static_cast<std::size_t>(state.range(0)),
                    state.range(1) != 0);
  for (auto _ : state) hold.step();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueuePipelineHold)
    ->ArgNames({"depth", "lanes"})
    ->ArgsProduct({{256, 4096}, {1, 0}});

void BM_SignatureSimilarity(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  std::vector<ContendingFlow> a;
  std::vector<ContendingFlow> b;
  for (NodeId i = 0; i < n; ++i) {
    a.push_back({i, i + 100});
    b.push_back({i + (i % 5 == 0 ? 1000 : 0), i + 100});
  }
  const auto sa = FlowSignature::from(a);
  const auto sb = FlowSignature::from(b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sa.similarity(sb));
  }
}
BENCHMARK(BM_SignatureSimilarity)->Arg(8)->Arg(64);

// Linear vs indexed solution-database lookup over one (src, dst) bucket of
// `patterns` stored 8-flow situations (the worst case for the index: one
// giant bucket). Both paths return byte-identical results by contract
// (differential-fuzz tested); the DB is always BUILT with the index on —
// set_index_enabled only gates the query path — so the linear setup is not
// itself quadratic.
void sdb_lookup_model(benchmark::State& state, bool indexed) {
  SolutionDatabase db;
  const auto patterns = static_cast<int>(state.range(0));
  std::vector<Msp> paths{Msp{}, Msp{1, 2, 5e-6, 1}};
  for (int p = 0; p < patterns; ++p) {
    std::vector<ContendingFlow> flows;
    for (NodeId i = 0; i < 8; ++i) flows.push_back({i + p * 16, i + 7});
    db.save(0, 7, FlowSignature::from(flows), paths, 5e-6, 0.8);
  }
  db.set_index_enabled(indexed);
  std::vector<ContendingFlow> probe;
  for (NodeId i = 0; i < 8; ++i) {
    probe.push_back({i + (patterns / 2) * 16, i + 7});
  }
  const auto sig = FlowSignature::from(probe);
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.lookup(0, 7, sig, 0.8));
  }
}
void BM_SolutionDbLookupLinear(benchmark::State& state) {
  sdb_lookup_model(state, false);
}
void BM_SolutionDbLookupIndexed(benchmark::State& state) {
  sdb_lookup_model(state, true);
}
BENCHMARK(BM_SolutionDbLookupLinear)->Arg(1024)->Arg(10240)->Arg(102400);
BENCHMARK(BM_SolutionDbLookupIndexed)->Arg(1024)->Arg(10240)->Arg(102400);

void BM_TreeMinimalPorts(benchmark::State& state) {
  KAryNTree tree(4, 3);
  std::vector<int> ports;
  NodeId d = 0;
  for (auto _ : state) {
    ports.clear();
    tree.minimal_ports(0, d, ports);
    benchmark::DoNotOptimize(ports.data());
    d = (d + 17) % 64;
  }
}
BENCHMARK(BM_TreeMinimalPorts);

/// One MSP ring on a side x side mesh, between two interior terminals a
/// quarter of the way in from opposite corners. The ring walk visits only
/// the ring, so a 64x64 row costs about what an 8x8 row does; a full scan
/// over the routers would read 64 times as many (a CI step checks this).
void BM_MspCandidates(benchmark::State& state) {
  const auto side = static_cast<int>(state.range(0));
  const auto ring = static_cast<int>(state.range(1));
  const Mesh2D mesh(side, side);
  const NodeId src = mesh.at(side / 4, side / 4);
  const NodeId dst = mesh.at(3 * side / 4, 3 * side / 4);
  std::vector<MspCandidate> cands;
  for (auto _ : state) {
    cands.clear();
    mesh.msp_candidates(src, dst, ring, cands);
    benchmark::DoNotOptimize(cands.data());
    benchmark::ClobberMemory();
  }
  state.counters["candidates"] = static_cast<double>(cands.size());
}
BENCHMARK(BM_MspCandidates)
    ->ArgNames({"side", "ring"})
    ->ArgsProduct({{8, 32, 64}, {1, 4}});

/// One CFD detection (destination-based) over an output queue of `depth`
/// packets from up to 16 flows of mixed sizes: contender selection plus the
/// predictive-header append.
void BM_SelectContenders(benchmark::State& state) {
  const auto depth = static_cast<int>(state.range(0));
  Simulator sim;
  Mesh2D mesh(8, 8);
  NetConfig cfg;
  cfg.router_contention_threshold_s = 1e-6;
  DeterministicPolicy policy;
  Network net(sim, mesh, cfg, policy);
  CongestionDetector cfd(NotificationMode::kDestinationBased);
  std::vector<Packet> backing(static_cast<std::size_t>(depth));
  std::deque<Packet*> queue;
  for (int i = 0; i < depth; ++i) {
    Packet& p = backing[static_cast<std::size_t>(i)];
    p.source = i % 16;
    p.destination = 63;
    p.size_bytes = 256 << (i % 3);
    queue.push_back(&p);
  }
  Packet fresh;
  fresh.source = 20;
  fresh.destination = 63;
  fresh.size_bytes = 1024;
  for (auto _ : state) {
    Packet head = fresh;
    cfd.on_transmit(net, 0, 0, head, 5e-6, queue);
    benchmark::DoNotOptimize(head.contending.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SelectContenders)->ArgName("queue")->Arg(8)->Arg(64);

void BM_PatternDestination(benchmark::State& state) {
  const auto pat = make_pattern("bit-reversal", 256);
  Rng rng(1);
  NodeId s = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pat->destination(s, rng));
    s = (s + 1) % 256;
  }
}
BENCHMARK(BM_PatternDestination);

/// End-to-end simulation throughput: events per second over a loaded mesh.
void BM_SimulatedNetworkHop(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Simulator sim;
    Mesh2D mesh(8, 8);
    NetConfig cfg;
    DeterministicPolicy policy;
    Network net(sim, mesh, cfg, policy);
    UniformPattern pat(64);
    Rng rng(9);
    for (int i = 0; i < 2000; ++i) {
      const auto s = static_cast<NodeId>(rng.next_below(64));
      const NodeId d = pat.destination(s, rng);
      if (d != s) net.send_message(s, d, 1024);
    }
    state.ResumeTiming();
    sim.run();
    state.counters["events"] = static_cast<double>(sim.events_executed());
  }
}
BENCHMARK(BM_SimulatedNetworkHop)->Unit(benchmark::kMillisecond);

/// The loaded mesh of BM_SimulatedNetworkHop with one fresh `Sink` per
/// iteration bound through an obs::Probe (`attach` names it in the probe's
/// sinks), so each row's delta to the bare row is that sink's cost. A
/// probe-less run pays one not-taken branch per hook site — that is
/// BM_SimulatedNetworkHop itself.
template <typename Sink, typename Attach, typename Report>
void run_probed_hop(benchmark::State& state, Attach attach, Report report) {
  for (auto _ : state) {
    state.PauseTiming();
    Simulator sim;
    Mesh2D mesh(8, 8);
    NetConfig cfg;
    DeterministicPolicy policy;
    Network net(sim, mesh, cfg, policy);
    Sink sink;
    obs::Probe::Sinks sinks;
    attach(sinks, sink);
    obs::Probe probe(sinks);
    net.bind_probe(&probe);
    UniformPattern pat(64);
    Rng rng(9);
    for (int i = 0; i < 2000; ++i) {
      const auto s = static_cast<NodeId>(rng.next_below(64));
      const NodeId d = pat.destination(s, rng);
      if (d != s) net.send_message(s, d, 1024);
    }
    state.ResumeTiming();
    // The run_scenario wiring: 1 ms windows, the stream rolling at every
    // boundary after the first.
    obs::StreamTelemetry* st = sinks.stream;
    sim.run_windows(1e-3, [st](SimTime t) {
      if (st && t > 0) st->roll(t);
    });
    state.PauseTiming();
    report(state, sink);
    state.ResumeTiming();
  }
}

/// Tracing: pays JSON formatting per lifecycle event.
void BM_SimulatedNetworkHopTraced(benchmark::State& state) {
  run_probed_hop<obs::Tracer>(
      state, [](obs::Probe::Sinks& s, obs::Tracer& t) { s.tracer = &t; },
      [](benchmark::State& st, const obs::Tracer& t) {
        st.counters["trace_events"] = static_cast<double>(t.events());
      });
}
BENCHMARK(BM_SimulatedNetworkHopTraced)->Unit(benchmark::kMillisecond);

/// Scorecard: pays the phase-timer writes per hop and one histogram fold
/// per delivery (fixed log-bucket cells: O(bins) memory, no per-packet
/// retention; the only allocations are std::map flow-record nodes, bounded
/// by distinct (src,dst) pairs — see tests/scorecard_test.cpp for the
/// interposer proof).
void BM_SimulatedNetworkHopScorecard(benchmark::State& state) {
  run_probed_hop<obs::Scorecard>(
      state,
      [](obs::Probe::Sinks& s, obs::Scorecard& c) { s.scorecard = &c; },
      [](benchmark::State& st, const obs::Scorecard& c) {
        st.counters["deliveries"] = static_cast<double>(c.deliveries());
      });
}
BENCHMARK(BM_SimulatedNetworkHopScorecard)->Unit(benchmark::kMillisecond);

/// Bounded-memory streaming telemetry, rolled at 1 ms window boundaries:
/// pays the window-boundary split plus the recent-flow note per transmit,
/// and an O(links) window fold per roll, all against a fixed memory budget
/// (see obs/stream).
void BM_SimulatedNetworkHopStream(benchmark::State& state) {
  run_probed_hop<obs::StreamTelemetry>(
      state,
      [](obs::Probe::Sinks& s, obs::StreamTelemetry& t) { s.stream = &t; },
      [](benchmark::State& st, const obs::StreamTelemetry& t) {
        st.counters["windows"] = static_cast<double>(t.windows_rolled());
        st.counters["state_bytes"] = static_cast<double>(t.memory_bytes());
      });
}
BENCHMARK(BM_SimulatedNetworkHopStream)->Unit(benchmark::kMillisecond);

/// Counter hot-path and sampling costs.
void BM_CounterIncrement(benchmark::State& state) {
  obs::CounterRegistry reg;
  obs::Counter& c = reg.counter("bench.counter");
  for (auto _ : state) {
    c.increment();
    benchmark::DoNotOptimize(c.value());
  }
}
BENCHMARK(BM_CounterIncrement);

void BM_CounterRegistrySample(benchmark::State& state) {
  obs::CounterRegistry reg;
  const auto n = static_cast<int>(state.range(0));
  for (int i = 0; i < n; ++i) {
    reg.counter("bench.c" + std::to_string(i)).add(7);
  }
  double t = 0;
  for (auto _ : state) {
    reg.sample(t);
    t += 0.5e-3;
  }
}
BENCHMARK(BM_CounterRegistrySample)->Arg(8)->Arg(64);

}  // namespace
}  // namespace prdrb

BENCHMARK_MAIN();
