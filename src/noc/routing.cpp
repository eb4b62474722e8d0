#include "noc/routing.hpp"

#include <algorithm>
#include <cassert>

namespace ndc::noc {
namespace {

// Appends the links of a straight x-run from `cur` to column `tx`.
void AppendXRun(const Mesh& mesh, Coord& cur, int tx, Route& out) {
  while (cur.x != tx) {
    Dir d = tx > cur.x ? Dir::East : Dir::West;
    out.push_back(mesh.LinkFrom(mesh.NodeAt(cur), d));
    cur = Mesh::Neighbor(cur, d);
  }
}

// Appends the links of a straight y-run from `cur` to row `ty`.
void AppendYRun(const Mesh& mesh, Coord& cur, int ty, Route& out) {
  while (cur.y != ty) {
    Dir d = ty > cur.y ? Dir::South : Dir::North;
    out.push_back(mesh.LinkFrom(mesh.NodeAt(cur), d));
    cur = Mesh::Neighbor(cur, d);
  }
}

void EnumerateRec(const Mesh& mesh, Coord cur, Coord dst, Route& prefix,
                  std::vector<Route>& out) {
  if (cur == dst) {
    out.push_back(prefix);
    return;
  }
  if (cur.x != dst.x) {
    Dir d = dst.x > cur.x ? Dir::East : Dir::West;
    prefix.push_back(mesh.LinkFrom(mesh.NodeAt(cur), d));
    EnumerateRec(mesh, Mesh::Neighbor(cur, d), dst, prefix, out);
    prefix.pop_back();
  }
  if (cur.y != dst.y) {
    Dir d = dst.y > cur.y ? Dir::South : Dir::North;
    prefix.push_back(mesh.LinkFrom(mesh.NodeAt(cur), d));
    EnumerateRec(mesh, Mesh::Neighbor(cur, d), dst, prefix, out);
    prefix.pop_back();
  }
}

}  // namespace

Route XyRoute(const Mesh& mesh, sim::NodeId src, sim::NodeId dst) {
  Route r;
  XyRouteInto(mesh, src, dst, r);
  return r;
}

void XyRouteInto(const Mesh& mesh, sim::NodeId src, sim::NodeId dst, Route& out) {
  out.clear();
  Coord cur = mesh.CoordOf(src);
  Coord d = mesh.CoordOf(dst);
  AppendXRun(mesh, cur, d.x, out);
  AppendYRun(mesh, cur, d.y, out);
}

Route YxRoute(const Mesh& mesh, sim::NodeId src, sim::NodeId dst) {
  Route r;
  Coord cur = mesh.CoordOf(src);
  Coord d = mesh.CoordOf(dst);
  AppendYRun(mesh, cur, d.y, r);
  AppendXRun(mesh, cur, d.x, r);
  return r;
}

Route StaircaseRoute(const Mesh& mesh, sim::NodeId src, sim::NodeId dst, int pivot_x,
                     int pivot_y) {
  Coord s = mesh.CoordOf(src);
  Coord d = mesh.CoordOf(dst);
  assert(pivot_x >= std::min(s.x, d.x) && pivot_x <= std::max(s.x, d.x));
  assert(pivot_y >= std::min(s.y, d.y) && pivot_y <= std::max(s.y, d.y));
  Route r;
  Coord cur = s;
  AppendXRun(mesh, cur, pivot_x, r);
  AppendYRun(mesh, cur, pivot_y, r);
  AppendXRun(mesh, cur, d.x, r);
  AppendYRun(mesh, cur, d.y, r);
  return r;
}

std::vector<Route> EnumerateMinimalRoutes(const Mesh& mesh, sim::NodeId src, sim::NodeId dst) {
  std::vector<Route> out;
  Route prefix;
  EnumerateRec(mesh, mesh.CoordOf(src), mesh.CoordOf(dst), prefix, out);
  return out;
}

namespace {

RoutePair BestOf(const std::vector<Route>& as, const std::vector<Route>& bs) {
  RoutePair best;
  best.shared_links = -1;
  for (const Route& ra : as) {
    Signature sa = Signature::FromRoute(ra);
    for (const Route& rb : bs) {
      Signature sb = Signature::FromRoute(rb);
      Signature inter = sa.Intersect(sb);
      int n = inter.Popcount();
      if (n > best.shared_links) {
        best = RoutePair{ra, rb, inter, n};
      }
    }
  }
  return best;
}

}  // namespace

// The single/double-pivot staircase family contains XY, YX, and every
// "x-run / y-run / x-run / y-run" shape, which is sufficient to realize the
// maximum link overlap with another monotone path (the shared links of two
// monotone paths always form a staircase that both paths can adopt;
// verified against brute force in tests).
void OverlapSearch::Candidates::Fill(const Mesh& mesh, sim::NodeId src, sim::NodeId dst) {
  Coord s = mesh.CoordOf(src);
  Coord d = mesh.CoordOf(dst);
  int x_lo = std::min(s.x, d.x), x_hi = std::max(s.x, d.x);
  int y_lo = std::min(s.y, d.y), y_hi = std::max(s.y, d.y);
  len = static_cast<std::size_t>(mesh.Distance(src, dst));
  links.clear();
  order.clear();
  for (int px = x_lo; px <= x_hi; ++px) {
    for (int py = y_lo; py <= y_hi; ++py) {
      Coord cur = s;
      AppendXRun(mesh, cur, px, links);
      AppendYRun(mesh, cur, py, links);
      AppendXRun(mesh, cur, d.x, links);
      AppendYRun(mesh, cur, d.y, links);
      order.push_back(static_cast<std::uint32_t>(order.size()));
    }
  }
  // Sort lexicographically and drop duplicates (degenerate pivots collapse
  // to the same route).
  auto slice = [this](std::uint32_t k) {
    return std::span<const sim::LinkId>(links).subspan(k * len, len);
  };
  std::sort(order.begin(), order.end(), [&](std::uint32_t x, std::uint32_t y) {
    std::span<const sim::LinkId> rx = slice(x), ry = slice(y);
    return std::lexicographical_compare(rx.begin(), rx.end(), ry.begin(), ry.end());
  });
  order.erase(std::unique(order.begin(), order.end(),
                          [&](std::uint32_t x, std::uint32_t y) {
                            std::span<const sim::LinkId> rx = slice(x), ry = slice(y);
                            return std::equal(rx.begin(), rx.end(), ry.begin(), ry.end());
                          }),
              order.end());
  sigs.resize(order.size());
  for (std::size_t k = 0; k < order.size(); ++k) sigs[k] = Signature::FromRoute(At(k));
}

void OverlapSearch::Choose(const Mesh& mesh, sim::NodeId a_src, sim::NodeId a_dst,
                           sim::NodeId b_src, sim::NodeId b_dst) {
  as_.Fill(mesh, a_src, a_dst);
  bs_.Fill(mesh, b_src, b_dst);
  // The first pair with the most shared links wins (strict greater).
  shared_links_ = -1;
  for (std::size_t i = 0; i < as_.sigs.size(); ++i) {
    for (std::size_t j = 0; j < bs_.sigs.size(); ++j) {
      Signature inter = as_.sigs[i].Intersect(bs_.sigs[j]);
      int n = inter.Popcount();
      if (n > shared_links_) {
        best_a_ = i;
        best_b_ = j;
        shared_ = inter;
        shared_links_ = n;
      }
    }
  }
}

RoutePair MaxOverlapRoutes(const Mesh& mesh, sim::NodeId a_src, sim::NodeId a_dst,
                           sim::NodeId b_src, sim::NodeId b_dst) {
  OverlapSearch s;
  s.Choose(mesh, a_src, a_dst, b_src, b_dst);
  return RoutePair{Route(s.a().begin(), s.a().end()), Route(s.b().begin(), s.b().end()),
                   s.shared(), s.shared_links()};
}

RoutePair MaxOverlapRoutesBruteForce(const Mesh& mesh, sim::NodeId a_src, sim::NodeId a_dst,
                                     sim::NodeId b_src, sim::NodeId b_dst) {
  return BestOf(EnumerateMinimalRoutes(mesh, a_src, a_dst),
                EnumerateMinimalRoutes(mesh, b_src, b_dst));
}

bool IsValidRoute(const Mesh& mesh, const Route& route, sim::NodeId src, sim::NodeId dst) {
  sim::NodeId cur = src;
  for (sim::LinkId l : route) {
    if (mesh.LinkSource(l) != cur) return false;
    Coord next = Mesh::Neighbor(mesh.CoordOf(cur), mesh.LinkDir(l));
    if (!mesh.Contains(next)) return false;
    cur = mesh.NodeAt(next);
  }
  return cur == dst;
}

bool IsMinimalRoute(const Mesh& mesh, const Route& route, sim::NodeId src, sim::NodeId dst) {
  return IsValidRoute(mesh, route, src, dst) &&
         static_cast<int>(route.size()) == mesh.Distance(src, dst);
}

}  // namespace ndc::noc
