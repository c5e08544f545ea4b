// Synthetic logical-trace generators for the applications evaluated in the
// thesis (§4.8): NAS LU and MG, LAMMPS (chain & comb), POP and Sweep3D.
//
// The original PAS2P traces are not published; these generators reproduce
// each application's *documented* communication structure instead — the MPI
// call mix of Table 2.1, the communication matrices and TDC of §2.2.6, and
// the phase repetitiveness of Table 2.2 — which are exactly the properties
// PR-DRB exploits. See DESIGN.md ("Substitutions") for the full rationale.
//
// All traces are SPMD: every rank executes the same number of collective
// operations in the same order, which the collective tag scheme relies on.
#pragma once

#include <span>
#include <string_view>

#include "trace/program.hpp"

namespace prdrb {

/// Scaling knobs so the same structural trace can run at laptop-simulation
/// sizes (shorter traces, smaller payloads) or closer to the paper's scale.
struct TraceScale {
  int iterations = 8;          // outer time steps / solver iterations
  double compute_scale = 1.0;  // multiplies every Compute(t) duration
  double bytes_scale = 1.0;    // multiplies every message payload
};

/// Nearly-square 2D factorization of a rank count (px * py == ranks,
/// px <= py, px maximal). Used by the grid-decomposed applications.
std::pair<int, int> grid_2d(int ranks);

/// Nearly-cubic 3D factorization (px * py * pz == ranks); used by the
/// LAMMPS spatial decomposition (4x4x4 for 64 ranks).
std::tuple<int, int, int> grid_3d(int ranks);

/// NAS LU pseudo-application: 2D pipelined wavefront (SSOR) — blocking
/// Send/Recv pairs dominate (Table 2.1: ~50 % Send, ~50 % Recv), with a
/// small Allreduce for the residual norm.
TraceProgram make_nas_lu(int ranks, TraceScale s = {});

/// NAS MG kernel: V-cycles over grid levels — Irecv/Send/Wait triples with
/// hypercube-distance partners whose message size halves per level, plus an
/// Allreduce per cycle. `cls` in {'S','A','B'} scales size and iterations.
TraceProgram make_nas_mg(int ranks, char cls, TraceScale s = {});

/// LAMMPS molecular dynamics: 3D (or 2D) halo exchange with ~6 neighbours
/// per timestep (TDC ~7 with the extra long-range partner of the chain
/// problem) plus a periodic Allreduce (~10 % of calls). `comb` selects the
/// comb benchmark flavour whose second relevant phase is Allreduce-only.
TraceProgram make_lammps(int ranks, bool comb, TraceScale s = {});

/// Parallel Ocean Program: per step one baroclinic halo exchange
/// (Isend/Irecv/Waitall) followed by many short barotropic solver
/// iterations of tiny halo + 16-byte Allreduce — giving the ~35 % Isend,
/// ~35 % Waitall, ~29 % Allreduce mix of Table 2.1 and the extreme phase
/// repetitiveness of Table 2.2.
TraceProgram make_pop(int ranks, TraceScale s = {});

/// Sweep3D: 2D-decomposed discrete-ordinates wavefront; each octant sweep
/// receives from two upstream neighbours and sends to two downstream ones
/// (Send/Recv ~50/50, communication confined to grid neighbours).
TraceProgram make_sweep3d(int ranks, TraceScale s = {});

/// NAS FT kernel: 3D FFT — each iteration performs a full all-to-all
/// transpose (pairwise-exchange algorithm) plus a checksum Allreduce; the
/// densest communication matrix of the suite (Table 2.2 lists FT classes
/// A/B with 5 relevant phases). `cls` in {'A','B'} scales volume.
TraceProgram make_nas_ft(int ranks, char cls, TraceScale s = {});

/// SMG2000 semicoarsening multigrid solver: boundary exchanges whose
/// partner distance doubles per level along the semicoarsened axis
/// (Table 2.2: 10 phases, 4 relevant, weight 1200).
TraceProgram make_smg2000(int ranks, TraceScale s = {});

/// One named application of make_app_trace's table.
struct NamedApp {
  std::string_view name;
  TraceProgram (*make)(int ranks, TraceScale s);
};

/// Every application make_app_trace generates: "nas-lu", "nas-mg-{s,a,b}",
/// "nas-ft-{a,b}", "lammps-{chain,comb}", "pop", "sweep3d" and "smg2000".
std::span<const NamedApp> app_table();

/// Generator registry for benches/examples over app_table(); throws
/// std::invalid_argument on an unknown name.
TraceProgram make_app_trace(const std::string& name, int ranks,
                            TraceScale s = {});

}  // namespace prdrb
