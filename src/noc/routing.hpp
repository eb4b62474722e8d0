#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "noc/geometry.hpp"
#include "noc/signature.hpp"

namespace ndc::noc {

/// A route is the ordered list of directional links traversed from source
/// to destination. Empty when src == dst.
using Route = std::vector<sim::LinkId>;

/// Deterministic dimension-ordered routes (the mesh's default is X-Y,
/// per Table 1).
Route XyRoute(const Mesh& mesh, sim::NodeId src, sim::NodeId dst);
Route YxRoute(const Mesh& mesh, sim::NodeId src, sim::NodeId dst);

/// XyRoute into a caller-owned buffer (cleared first), so hot paths can
/// reuse a route vector's capacity instead of allocating per packet.
void XyRouteInto(const Mesh& mesh, sim::NodeId src, sim::NodeId dst, Route& out);

/// A minimal "staircase" route that travels in x until column `pivot_x`,
/// then in y until row `pivot_y`, then finishes x then y. `pivot_x` /
/// `pivot_y` must lie within the bounding box of src..dst; the result is
/// always a minimal route.
Route StaircaseRoute(const Mesh& mesh, sim::NodeId src, sim::NodeId dst, int pivot_x,
                     int pivot_y);

/// Every minimal route from src to dst (there are C(dx+dy, dx) of them).
/// Intended for tests and exhaustive searches on small meshes.
std::vector<Route> EnumerateMinimalRoutes(const Mesh& mesh, sim::NodeId src, sim::NodeId dst);

/// Result of the signature co-selection of Section 5.2.1 (challenge 3):
/// minimal routes for two independent accesses chosen to maximize
/// popcount(S_a ∩ S_b), i.e. the number of physical links the two accesses
/// share (each shared link is an NDC opportunity at its router).
struct RoutePair {
  Route a;
  Route b;
  Signature shared;  // S_a ∩ S_b
  int shared_links = 0;
};

/// Chooses minimal routes for (a_src -> a_dst) and (b_src -> b_dst)
/// maximizing the number of common links. Uses the closed-form staircase
/// construction (exact for monotone minimal paths; verified against
/// exhaustive enumeration in tests).
RoutePair MaxOverlapRoutes(const Mesh& mesh, sim::NodeId a_src, sim::NodeId a_dst,
                           sim::NodeId b_src, sim::NodeId b_dst);

/// MaxOverlapRoutes with reusable buffers: once they have grown, a choice
/// allocates nothing. The chosen routes are views into this object, valid
/// until the next Choose.
class OverlapSearch {
 public:
  /// Picks the same pair MaxOverlapRoutes returns.
  void Choose(const Mesh& mesh, sim::NodeId a_src, sim::NodeId a_dst, sim::NodeId b_src,
              sim::NodeId b_dst);

  std::span<const sim::LinkId> a() const { return as_.At(best_a_); }
  std::span<const sim::LinkId> b() const { return bs_.At(best_b_); }
  const Signature& shared() const { return shared_; }
  int shared_links() const { return shared_links_; }

 private:
  /// The distinct single/double-pivot staircase routes of one src/dst
  /// pair, in ascending lexicographic order. All of them are minimal, so
  /// they share one length: route k's links are
  /// links[order[k] * len, (order[k] + 1) * len).
  struct Candidates {
    std::size_t len = 0;
    Route links;
    std::vector<std::uint32_t> order;
    std::vector<Signature> sigs;  ///< signature of route k

    void Fill(const Mesh& mesh, sim::NodeId src, sim::NodeId dst);
    std::span<const sim::LinkId> At(std::size_t k) const {
      return std::span<const sim::LinkId>(links).subspan(order[k] * len, len);
    }
  };

  Candidates as_, bs_;
  std::size_t best_a_ = 0, best_b_ = 0;
  Signature shared_;
  int shared_links_ = 0;
};

/// Exhaustive-search reference implementation of MaxOverlapRoutes (small
/// meshes only; O(#paths^2)).
RoutePair MaxOverlapRoutesBruteForce(const Mesh& mesh, sim::NodeId a_src, sim::NodeId a_dst,
                                     sim::NodeId b_src, sim::NodeId b_dst);

/// True if `route` is a valid route: consecutive links connect, starts at
/// src, ends at dst.
bool IsValidRoute(const Mesh& mesh, const Route& route, sim::NodeId src, sim::NodeId dst);

/// True if `route` has minimal (Manhattan) length.
bool IsMinimalRoute(const Mesh& mesh, const Route& route, sim::NodeId src, sim::NodeId dst);

}  // namespace ndc::noc
