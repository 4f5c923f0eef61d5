#include "netemu/routing/hierarchy_router.hpp"

#include <cassert>
#include <numeric>
#include <span>
#include <stdexcept>

#include "netemu/topology/detail/grid.hpp"
#include "netemu/util/math.hpp"

namespace netemu {

HierarchyRouter::HierarchyRouter(const Machine& machine)
    : k_(machine.dims), base_side_(machine.shape.at(0)) {
  assert(machine.family == Family::kPyramid ||
         machine.family == Family::kMultigrid);
  std::uint64_t offset = 0;
  for (std::uint32_t s = base_side_; s >= 1; s /= 2) {
    level_offset_.push_back(offset);
    level_side_.push_back(s);
    offset += ipow(s, k_);
    if (s == 1) break;
  }
  if (k_ > detail::kMaxGridAxes) {
    throw std::invalid_argument("HierarchyRouter: too many axes");
  }
}

std::uint32_t HierarchyRouter::locate(Vertex v, Coord& coord) const {
  std::uint32_t level = 0;
  while (level + 1 < level_offset_.size() && v >= level_offset_[level + 1]) {
    ++level;
  }
  // Row-major with the last coordinate fastest (detail::grid_coord).
  std::uint64_t local = v - level_offset_[level];
  for (std::size_t d = k_; d-- > 0;) {
    coord[d] = static_cast<std::uint32_t>(local % level_side_[level]);
    local /= level_side_[level];
  }
  return level;
}

Vertex HierarchyRouter::vertex_of(std::uint32_t level,
                                  const Coord& coord) const {
  std::uint64_t index = 0;
  for (std::size_t d = 0; d < k_; ++d) {
    index = index * level_side_[level] + coord[d];
  }
  return static_cast<Vertex>(level_offset_[level] + index);
}

void HierarchyRouter::route_append(Vertex src, Vertex dst, Prng& rng,
                                   std::vector<Vertex>& out) {
  out.clear();
  out.push_back(src);
  if (src == dst) return;

  // Descend from src to its base corner descendant.  The corner descendant
  // doubles coordinates per level; both the pyramid (corner child's parent
  // is this vertex) and the multigrid (explicit corner edge) have the
  // needed edge.
  Coord cur, dst_coord;
  for (std::uint32_t level = locate(src, cur); level-- > 0;) {
    for (std::size_t d = 0; d < k_; ++d) cur[d] *= 2;
    out.push_back(vertex_of(level, cur));
  }

  // Base-level target: the corner descendant of dst.
  const std::uint32_t dst_level = locate(dst, dst_coord);
  Coord goal = dst_coord;
  for (std::size_t d = 0; d < k_; ++d) goal[d] <<= dst_level;

  // Randomized dimension-order across the base mesh.
  std::array<std::size_t, detail::kMaxGridAxes> axis_buf;
  std::span<std::size_t> axes(axis_buf.data(), k_);
  std::iota(axes.begin(), axes.end(), std::size_t{0});
  shuffle(axes, rng);
  for (std::size_t d : axes) {
    while (cur[d] != goal[d]) {
      cur[d] += cur[d] < goal[d] ? 1 : -1;
      out.push_back(vertex_of(0, cur));
    }
  }

  // Ascend to dst along its descent chain reversed: the chain's level-l
  // vertex has dst's coordinates scaled by 2^(dst_level - l).
  for (std::uint32_t level = 1; level <= dst_level; ++level) {
    Coord up;
    for (std::size_t d = 0; d < k_; ++d) {
      up[d] = dst_coord[d] << (dst_level - level);
    }
    out.push_back(vertex_of(level, up));
  }
}

}  // namespace netemu
