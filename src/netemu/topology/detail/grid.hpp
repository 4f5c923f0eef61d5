#pragma once
// Row-major coordinate helpers shared by the grid-like generators.
// Indexing convention: the LAST coordinate varies fastest.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace netemu::detail {

/// Axes a grid walker keeps on the stack: a grid whose sides are all >= 2
/// has at most 32 axes within 2^32 vertices.
inline constexpr std::size_t kMaxGridAxes = 32;

inline std::uint64_t grid_size(const std::vector<std::uint32_t>& sides) {
  std::uint64_t n = 1;
  for (std::uint32_t s : sides) n *= s;
  return n;
}

inline std::uint64_t grid_index(const std::vector<std::uint32_t>& sides,
                                const std::vector<std::uint32_t>& coord) {
  std::uint64_t idx = 0;
  for (std::size_t d = 0; d < sides.size(); ++d) {
    idx = idx * sides[d] + coord[d];
  }
  return idx;
}

inline std::vector<std::uint32_t> grid_coord(
    const std::vector<std::uint32_t>& sides, std::uint64_t idx) {
  std::vector<std::uint32_t> coord(sides.size());
  for (std::size_t d = sides.size(); d-- > 0;) {
    coord[d] = static_cast<std::uint32_t>(idx % sides[d]);
    idx /= sides[d];
  }
  return coord;
}

/// Call fn(coord) for every lattice point.
template <typename Fn>
void grid_for_each(const std::vector<std::uint32_t>& sides, Fn&& fn) {
  std::vector<std::uint32_t> coord(sides.size(), 0);
  const std::uint64_t n = grid_size(sides);
  for (std::uint64_t i = 0; i < n; ++i) {
    fn(coord);
    for (std::size_t d = sides.size(); d-- > 0;) {
      if (++coord[d] < sides[d]) break;
      coord[d] = 0;
    }
  }
}

}  // namespace netemu::detail
