// 2D mesh topology (thesis Table 4.2 uses an 8x8 mesh for the hot-spot
// experiments) with an optional torus (closed-mesh / k-ary n-cube, §2.1.1)
// variant: a 2D view of MeshND, which holds all of the grid code. The type
// names the 2D grid for what needs x/y coordinates — the hot-spot layouts
// and the latency-map renderer select it by dynamic_cast.
#pragma once

#include "net/mesh_nd.hpp"

namespace prdrb {

class Mesh2D final : public MeshND {
 public:
  /// Output-port numbering at every router (MeshND's ports 0-3).
  enum Port { kEast = 0, kWest = 1, kNorth = 2, kSouth = 3 };

  Mesh2D(int width, int height, bool wraparound = false)
      : MeshND({width, height}, wraparound) {}

  int width() const { return extent(0); }
  int height() const { return extent(1); }

  int x_of(RouterId r) const { return coord(r, 0); }
  int y_of(RouterId r) const { return coord(r, 1); }
  RouterId at(int x, int y) const { return y * width() + x; }
  bool in_bounds(int x, int y) const {
    return x >= 0 && x < width() && y >= 0 && y < height();
  }
};

}  // namespace prdrb
