#include "trace/generators.hpp"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <cmath>
#include <iterator>
#include <stdexcept>

namespace prdrb {

namespace {

std::int64_t scaled(std::int64_t bytes, const TraceScale& s) {
  const auto v = static_cast<std::int64_t>(static_cast<double>(bytes) * s.bytes_scale);
  return v > 0 ? v : 1;
}

double ct(double seconds, const TraceScale& s) {
  return seconds * s.compute_scale;
}

}  // namespace

std::pair<int, int> grid_2d(int ranks) {
  int px = static_cast<int>(std::sqrt(static_cast<double>(ranks)));
  while (px > 1 && ranks % px != 0) --px;
  return {px, ranks / px};
}

std::tuple<int, int, int> grid_3d(int ranks) {
  int pz = static_cast<int>(std::cbrt(static_cast<double>(ranks)));
  while (pz > 1 && ranks % pz != 0) --pz;
  const auto [px, py] = grid_2d(ranks / pz);
  return {px, py, pz};
}

// ---------------------------------------------------------------------------
// NAS LU — pipelined 2D wavefront (SSOR solver).

TraceProgram make_nas_lu(int ranks, TraceScale s) {
  TraceProgram prog("nas-lu", ranks);
  const auto [px, py] = grid_2d(ranks);
  const std::int64_t face = scaled(2048, s);
  // Phase ids name the structural position in the iteration body, so the
  // same id reappears every time step (the repetitiveness of Table 2.2).
  constexpr int kSsorPhase = 0;

  for (int it = 0; it < s.iterations; ++it) {
    for (int r = 0; r < ranks; ++r) prog.add(r, TraceEvent::phase(kSsorPhase));
    // Lower-triangular sweep: the wavefront moves from (0,0) to (px-1,py-1).
    // Each rank waits for its north and west predecessors, computes, then
    // feeds its south and east successors. Tags encode iteration and sweep.
    for (int sweep = 0; sweep < 2; ++sweep) {
      const int tag = it * 8 + sweep;
      for (int r = 0; r < ranks; ++r) {
        const int x = r % px;
        const int y = r / px;
        // Mirror the grid for the reverse (upper-triangular) sweep.
        const int sxp = sweep == 0 ? 1 : -1;
        const bool has_west = sweep == 0 ? (x > 0) : (x < px - 1);
        const bool has_north = sweep == 0 ? (y > 0) : (y < py - 1);
        const bool has_east = sweep == 0 ? (x < px - 1) : (x > 0);
        const bool has_south = sweep == 0 ? (y < py - 1) : (y > 0);
        if (has_west) prog.add(r, TraceEvent::recv(r - sxp, tag));
        if (has_north) prog.add(r, TraceEvent::recv(r - sxp * px, tag));
        prog.add(r, TraceEvent::compute(ct(4e-6, s)));
        if (has_east) prog.add(r, TraceEvent::send(r + sxp, face, tag));
        if (has_south) prog.add(r, TraceEvent::send(r + sxp * px, face, tag));
      }
    }
    // Residual norm every iteration (a tiny fraction of calls, Table 2.1).
    for (int r = 0; r < ranks; ++r) {
      prog.add(r, TraceEvent::compute(ct(8e-6, s)));
      prog.add(r, TraceEvent::allreduce(scaled(40, s)));
    }
  }
  return prog;
}

// ---------------------------------------------------------------------------
// NAS MG — multigrid V-cycles.

TraceProgram make_nas_mg(int ranks, char cls, TraceScale s) {
  int levels;
  std::int64_t top_bytes;
  int cycles;
  switch (cls) {
    case 'S':
      levels = 3;
      top_bytes = 512;
      cycles = 4;
      break;
    case 'A':
      levels = 4;
      top_bytes = 4096;
      cycles = 6;
      break;
    case 'B':
      levels = 5;
      top_bytes = 8192;
      cycles = 10;
      break;
    default:
      throw std::invalid_argument("MG class must be S, A or B");
  }
  cycles = std::max(1, cycles * s.iterations / 8);

  TraceProgram prog(std::string("nas-mg-") + cls, ranks);
  const int log_ranks = [&] {
    int k = 0;
    while ((1 << k) < ranks) ++k;
    return k;
  }();

  constexpr int kVCyclePhase = 0;
  int req = 0;

  for (int c = 0; c < cycles; ++c) {
    for (int r = 0; r < ranks; ++r) prog.add(r, TraceEvent::phase(kVCyclePhase));
    // Down-sweep then up-sweep over the grid hierarchy: at each level the
    // rank exchanges boundaries along three hypercube dimensions at once
    // (the 3D faces of its subgrid); message size halves with coarsening.
    for (int half = 0; half < 2; ++half) {
      for (int l0 = 0; l0 < levels; ++l0) {
        const int l = half == 0 ? l0 : levels - 1 - l0;
        const std::int64_t bytes = scaled(top_bytes >> l, s);
        const int tag = (c * 2 + half) * 16 + l;
        for (int r = 0; r < ranks; ++r) {
          prog.add(r, TraceEvent::compute(ct(3e-6 * static_cast<double>(bytes) / 1024.0, s)));
          // The three face-exchange partners at this level: XOR partners
          // are symmetric whenever both endpoints exist; skip the ragged
          // edge of non-power-of-two runs.
          int nreq = 0;
          for (int f = 0; f < 3; ++f) {
            const int dim = (l + f) % log_ranks;
            const int partner = r ^ (1 << dim);
            if (partner >= ranks) continue;
            prog.add(r, TraceEvent::irecv(partner, tag * 4 + f, req + nreq));
            ++nreq;
          }
          nreq = 0;
          for (int f = 0; f < 3; ++f) {
            const int dim = (l + f) % log_ranks;
            const int partner = r ^ (1 << dim);
            if (partner >= ranks) continue;
            prog.add(r, TraceEvent::send(partner, bytes, tag * 4 + f));
            prog.add(r, TraceEvent::wait(req + nreq));
            ++nreq;
          }
          req += nreq;
        }
      }
    }
    for (int r = 0; r < ranks; ++r) {
      prog.add(r, TraceEvent::allreduce(scaled(40, s)));
      if (c % 4 == 0) prog.add(r, TraceEvent::bcast(0, scaled(64, s)));
    }
  }
  return prog;
}

// ---------------------------------------------------------------------------
// LAMMPS — spatial-decomposition molecular dynamics.

TraceProgram make_lammps(int ranks, bool comb, TraceScale s) {
  TraceProgram prog(comb ? "lammps-comb" : "lammps-chain", ranks);
  // 3D spatial decomposition (4x4x4 for 64 ranks): six face neighbours,
  // plus the chain problem's long-range bonded partner — the TDC ~7 of
  // Fig. 2.10.
  const auto [px, py, pz] = grid_3d(ranks);
  const std::int64_t ghost = scaled(3072, s);
  int req = 0;

  auto wrap = [&, px = px, py = py, pz = pz](int x, int y, int z) {
    return (((z + pz) % pz) * py + (y + py) % py) * px + (x + px) % px;
  };

  // Stable phase ids: the same structural phase repeats every timestep.
  constexpr int kHaloPhase = 0;
  constexpr int kCollectivePhase = 1;

  for (int step = 0; step < s.iterations; ++step) {
    for (int r = 0; r < ranks; ++r) prog.add(r, TraceEvent::phase(kHaloPhase));
    for (int r = 0; r < ranks; ++r) {
      const int x = r % px;
      const int y = (r / px) % py;
      const int z = r / (px * py);
      const int partners[6] = {wrap(x - 1, y, z), wrap(x + 1, y, z),
                               wrap(x, y - 1, z), wrap(x, y + 1, z),
                               wrap(x, y, z - 1), wrap(x, y, z + 1)};
      prog.add(r, TraceEvent::compute(ct(12e-6, s)));
      // All six ghost faces are exchanged concurrently (the receives are
      // posted up front), so the whole halo is in flight at once — the
      // communication burst the routing policy has to absorb.
      for (int d = 0; d < 6; ++d) {
        const int tag = step * 16 + d;
        prog.add(r, TraceEvent::irecv(partners[d ^ 1], tag, req + d));
      }
      // Chain problem: the extra long-range bonded partner that lifts the
      // TDC to ~7 and scatters communication off the diagonal; exchanged
      // concurrently with the faces. Only paired when the mapping is an
      // involution (even grid sides), otherwise the two ends would wait on
      // different partners.
      const int far = wrap(x + px / 2, y + py / 2, z + pz / 2);
      const bool use_far = !comb && px % 2 == 0 && py % 2 == 0 &&
                           pz % 2 == 0 && far != r;
      if (use_far) {
        prog.add(r, TraceEvent::irecv(far, step * 16 + 7, req + 6));
      }
      for (int d = 0; d < 6; ++d) {
        const int tag = step * 16 + d;
        prog.add(r, TraceEvent::send(partners[d], ghost, tag));
      }
      if (use_far) {
        prog.add(r, TraceEvent::send(far, scaled(2048, s), step * 16 + 7));
      }
      // LAMMPS completes each request individually (Table 2.1 shows
      // MPI_Wait, not Waitall, at ~44 % of calls).
      const int nreq = use_far ? 7 : 6;
      for (int d = 0; d < nreq; ++d) {
        prog.add(r, TraceEvent::wait(req + d));
      }
      req += nreq;
    }
    // Thermodynamics: Allreduce every few steps (~10 % of calls).
    for (int r = 0; r < ranks; ++r) {
      prog.add(r, TraceEvent::allreduce(scaled(48, s)));
    }
    if (comb) {
      // Comb's second relevant phase: an Allreduce-only burst (thesis
      // §2.2.6: "composed solely by collective communications").
      for (int r = 0; r < ranks; ++r) {
        prog.add(r, TraceEvent::phase(kCollectivePhase));
        for (int k = 0; k < 3; ++k) {
          prog.add(r, TraceEvent::compute(ct(2e-6, s)));
          prog.add(r, TraceEvent::allreduce(scaled(4096, s)));
        }
      }
    }
  }
  return prog;
}

// ---------------------------------------------------------------------------
// POP — Parallel Ocean Program.

TraceProgram make_pop(int ranks, TraceScale s) {
  TraceProgram prog("pop", ranks);
  const auto [px, py] = grid_2d(ranks);
  const std::int64_t halo = scaled(2048, s);
  const int solver_iters = 9;  // barotropic CG iterations per step
  int req = 0;

  auto wrap = [&](int x, int y) {
    return ((y + py) % py) * px + ((x + px) % px);
  };

  // Stable phase ids (Table 2.2: POP's barotropic phase repeats with very
  // high weight).
  constexpr int kBaroclinicPhase = 0;
  constexpr int kBarotropicPhase = 1;
  for (int step = 0; step < s.iterations; ++step) {
    // Baroclinic phase: one big 9-point (8-neighbour) halo exchange — the
    // corner exchanges push POP's TDC toward the ~11 of Fig. 2.13.
    for (int r = 0; r < ranks; ++r) {
      prog.add(r, TraceEvent::phase(kBaroclinicPhase));
      const int x = r % px;
      const int y = r / px;
      const int partners[8] = {wrap(x - 1, y),     wrap(x + 1, y),
                               wrap(x, y - 1),     wrap(x, y + 1),
                               wrap(x - 1, y - 1), wrap(x + 1, y + 1),
                               wrap(x - 1, y + 1), wrap(x + 1, y - 1)};
      prog.add(r, TraceEvent::compute(ct(20e-6, s)));
      const int tag = step * 64;
      for (int d = 0; d < 8; ++d) {
        const std::int64_t bytes = d < 4 ? halo : scaled(256, s);
        prog.add(r, TraceEvent::irecv(partners[d ^ 1], tag + d, req + d));
        prog.add(r, TraceEvent::isend(partners[d], bytes, tag + d));
      }
      prog.add(r, TraceEvent::waitall());
      req += 8;
    }
    // Barotropic solver: the highly repetitive phase (weight 5050 in
    // Table 2.2) — tiny halo plus a 16-byte Allreduce per CG iteration.
    for (int it = 0; it < solver_iters; ++it) {
      for (int r = 0; r < ranks; ++r) {
        prog.add(r, TraceEvent::phase(kBarotropicPhase));
        const int x = r % px;
        const int y = r / px;
        // The CG stencil update only needs the x-direction halo here; the
        // two Allreduces are the dot products of one CG iteration — this
        // yields the Isend/Waitall/Allreduce-dominated mix of Table 2.1.
        const int partners[2] = {wrap(x - 1, y), wrap(x + 1, y)};
        prog.add(r, TraceEvent::compute(ct(4e-6, s)));
        const int tag = step * 64 + 8 + it;
        for (int d = 0; d < 2; ++d) {
          prog.add(r, TraceEvent::irecv(partners[d ^ 1], tag, req + d));
        }
        for (int d = 0; d < 2; ++d) {
          prog.add(r, TraceEvent::isend(partners[d], scaled(256, s), tag));
        }
        prog.add(r, TraceEvent::waitall());
        prog.add(r, TraceEvent::allreduce(16));
        prog.add(r, TraceEvent::compute(ct(2e-6, s)));
        prog.add(r, TraceEvent::allreduce(16));
        req += 2;
      }
    }
    // Diagnostics every step (Barrier/Bcast are ~0.3 % of POP's calls).
    if (step % 4 == 3) {
      for (int r = 0; r < ranks; ++r) {
        prog.add(r, TraceEvent::barrier());
        prog.add(r, TraceEvent::bcast(0, scaled(128, s)));
      }
    }
  }
  return prog;
}

// ---------------------------------------------------------------------------
// Sweep3D — discrete-ordinates neutron transport wavefronts.

TraceProgram make_sweep3d(int ranks, TraceScale s) {
  TraceProgram prog("sweep3d", ranks);
  const auto [px, py] = grid_2d(ranks);
  const std::int64_t angle_block = scaled(1024, s);

  for (int it = 0; it < s.iterations; ++it) {
    // Four corner octant pairs; each sweep pipelines across the 2D grid.
    // Phase id = octant: each sweep direction is one repeating phase.
    for (int oct = 0; oct < 4; ++oct) {
      const int dx = (oct & 1) ? -1 : 1;
      const int dy = (oct & 2) ? -1 : 1;
      const int tag = it * 8 + oct;
      for (int r = 0; r < ranks; ++r) prog.add(r, TraceEvent::phase(oct));
      for (int r = 0; r < ranks; ++r) {
        const int x = r % px;
        const int y = r / px;
        const bool has_in_x = (dx > 0) ? (x > 0) : (x < px - 1);
        const bool has_in_y = (dy > 0) ? (y > 0) : (y < py - 1);
        const bool has_out_x = (dx > 0) ? (x < px - 1) : (x > 0);
        const bool has_out_y = (dy > 0) ? (y < py - 1) : (y > 0);
        if (has_in_x) prog.add(r, TraceEvent::recv(r - dx, tag));
        if (has_in_y) prog.add(r, TraceEvent::recv(r - dy * px, tag));
        prog.add(r, TraceEvent::compute(ct(6e-6, s)));
        if (has_out_x) prog.add(r, TraceEvent::send(r + dx, angle_block, tag));
        if (has_out_y) {
          prog.add(r, TraceEvent::send(r + dy * px, angle_block, tag));
        }
      }
    }
    for (int r = 0; r < ranks; ++r) {
      prog.add(r, TraceEvent::allreduce(scaled(24, s)));
    }
  }
  return prog;
}


// ---------------------------------------------------------------------------
// NAS FT — 3D FFT with all-to-all transposes.

TraceProgram make_nas_ft(int ranks, char cls, TraceScale s) {
  std::int64_t slab;
  int iterations;
  switch (cls) {
    case 'A':
      slab = 2048;
      iterations = 6;
      break;
    case 'B':
      slab = 4096;
      iterations = 10;
      break;
    default:
      throw std::invalid_argument("FT class must be A or B");
  }
  iterations = std::max(1, iterations * s.iterations / 8);
  TraceProgram prog(std::string("nas-ft-") + static_cast<char>(std::tolower(cls)), ranks);

  // Stable phase ids: the transpose phase dominates every iteration.
  constexpr int kTransposePhase = 0;

  for (int it = 0; it < iterations; ++it) {
    for (int r = 0; r < ranks; ++r) {
      prog.add(r, TraceEvent::phase(kTransposePhase));
      prog.add(r, TraceEvent::compute(ct(30e-6, s)));
    }
    // All-to-all via pairwise exchange: in round k every rank swaps a slab
    // with rank XOR k (power-of-two rank counts give perfect pairings; the
    // generic offset exchange covers the rest).
    const bool pow2 = (ranks & (ranks - 1)) == 0;
    for (int k = 1; k < ranks; ++k) {
      for (int r = 0; r < ranks; ++r) {
        const int partner = pow2 ? (r ^ k) : (r + k) % ranks;
        const int recv_from = pow2 ? partner : (r - k + ranks) % ranks;
        const int tag = it * 1024 + k;
        prog.add(r, TraceEvent::send(partner, scaled(slab, s), tag));
        prog.add(r, TraceEvent::recv(recv_from, tag));
      }
    }
    // Checksum reduction closes the iteration.
    for (int r = 0; r < ranks; ++r) {
      prog.add(r, TraceEvent::compute(ct(10e-6, s)));
      prog.add(r, TraceEvent::allreduce(scaled(32, s)));
    }
  }
  return prog;
}

// ---------------------------------------------------------------------------
// SMG2000 — semicoarsening multigrid.

TraceProgram make_smg2000(int ranks, TraceScale s) {
  TraceProgram prog("smg2000", ranks);
  const auto [px, py] = grid_2d(ranks);
  const int levels = [&, px = px] {
    int l = 0;
    while ((1 << (l + 1)) < px) ++l;
    return std::max(1, l + 1);
  }();
  int req = 0;

  // Stable phase ids per V-cycle half.
  constexpr int kDownPhase = 0;
  constexpr int kUpPhase = 1;

  for (int c = 0; c < s.iterations; ++c) {
    for (int half = 0; half < 2; ++half) {
      for (int r = 0; r < ranks; ++r) {
        prog.add(r, TraceEvent::phase(half == 0 ? kDownPhase : kUpPhase));
      }
      for (int l0 = 0; l0 < levels; ++l0) {
        const int l = half == 0 ? l0 : levels - 1 - l0;
        // Semicoarsening: only the x axis coarsens, so the exchange
        // partner distance doubles per level along x while y stays a
        // nearest-neighbour exchange.
        const int stride = 1 << l;
        const std::int64_t bytes = scaled(1536, s);
        const int tag = (c * 2 + half) * 32 + l;
        for (int r = 0; r < ranks; ++r) {
          const int x = r % px;
          const int y = r / px;
          prog.add(r, TraceEvent::compute(ct(5e-6, s)));
          int nreq = 0;
          // x-axis partners at the level's stride (wrapped), both sides.
          const int xp[2] = {((x + stride) % px) + y * px,
                             ((x - stride % px + px) % px) + y * px};
          for (int d = 0; d < 2; ++d) {
            if (xp[d] == r) continue;
            // The tag-d message arriving here comes from the opposite-side
            // partner's tag-d send.
            prog.add(r, TraceEvent::irecv(xp[d ^ 1], tag * 4 + d,
                                          req + nreq));
            prog.add(r, TraceEvent::send(xp[d], bytes, tag * 4 + d));
            prog.add(r, TraceEvent::wait(req + nreq));
            ++nreq;
          }
          // y-axis nearest neighbours at every level.
          const int yp[2] = {x + ((y + 1) % py) * px,
                             x + ((y - 1 + py) % py) * px};
          for (int d = 0; d < 2; ++d) {
            if (yp[d] == r) continue;
            prog.add(r, TraceEvent::irecv(yp[d ^ 1], tag * 4 + 2 + d,
                                          req + nreq));
            prog.add(r, TraceEvent::send(yp[d], bytes, tag * 4 + 2 + d));
            prog.add(r, TraceEvent::wait(req + nreq));
            ++nreq;
          }
          req += nreq;
        }
      }
    }
    for (int r = 0; r < ranks; ++r) {
      prog.add(r, TraceEvent::allreduce(scaled(24, s)));
    }
  }
  return prog;
}

namespace {

constexpr NamedApp kApps[] = {
    {"nas-lu", make_nas_lu},
    {"nas-mg-s", [](int r, TraceScale s) { return make_nas_mg(r, 'S', s); }},
    {"nas-mg-a", [](int r, TraceScale s) { return make_nas_mg(r, 'A', s); }},
    {"nas-mg-b", [](int r, TraceScale s) { return make_nas_mg(r, 'B', s); }},
    {"lammps-chain",
     [](int r, TraceScale s) { return make_lammps(r, false, s); }},
    {"lammps-comb",
     [](int r, TraceScale s) { return make_lammps(r, true, s); }},
    {"pop", make_pop},
    {"sweep3d", make_sweep3d},
    {"nas-ft-a", [](int r, TraceScale s) { return make_nas_ft(r, 'A', s); }},
    {"nas-ft-b", [](int r, TraceScale s) { return make_nas_ft(r, 'B', s); }},
    {"smg2000", make_smg2000},
};

}  // namespace

std::span<const NamedApp> app_table() { return kApps; }

TraceProgram make_app_trace(const std::string& name, int ranks, TraceScale s) {
  const auto* app = std::ranges::find(kApps, name, &NamedApp::name);
  if (app == std::end(kApps)) {
    throw std::invalid_argument("unknown application trace: " + name);
  }
  return app->make(ranks, s);
}

}  // namespace prdrb
