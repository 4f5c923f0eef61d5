#include "netemu/routing/dimension_order.hpp"

#include <array>
#include <cassert>
#include <numeric>
#include <span>
#include <stdexcept>

#include "netemu/topology/detail/grid.hpp"
#include "netemu/util/math.hpp"

namespace netemu {

DimensionOrderRouter::DimensionOrderRouter(const Machine& machine)
    : sides_(machine.shape),
      stride_(machine.shape.size()),
      wrap_(machine.family == Family::kTorus),
      diagonal_(machine.family == Family::kXGrid) {
  assert(machine.family == Family::kMesh || machine.family == Family::kTorus ||
         machine.family == Family::kXGrid);
  if (sides_.size() > detail::kMaxGridAxes) {
    throw std::invalid_argument("DimensionOrderRouter: too many axes");
  }
  // Row-major with the last coordinate fastest (detail::grid_index).
  std::int64_t stride = 1;
  for (std::size_t d = sides_.size(); d-- > 0;) {
    stride_[d] = stride;
    stride *= sides_[d];
  }
}

void DimensionOrderRouter::route_append(Vertex src, Vertex dst, Prng& rng,
                                        std::vector<Vertex>& out) {
  const std::size_t k = sides_.size();
  // Per axis: the coordinate, the hops still to take and their direction.
  // Every hop along an axis goes the same way (on the torus the shorter way
  // around stays shorter as the walk advances), so the walk moves the vertex
  // index by a fixed stride and only a torus hop across the seam wraps.
  std::array<std::uint32_t, detail::kMaxGridAxes> cur, hops;
  std::array<int, detail::kMaxGridAxes> dir;
  std::uint64_t s = src, t = dst, total = 0;
  for (std::size_t d = k; d-- > 0;) {
    const std::uint32_t side = sides_[d];
    cur[d] = static_cast<std::uint32_t>(s % side);
    const auto goal = static_cast<std::uint32_t>(t % side);
    s /= side;
    t /= side;
    if (!wrap_ || side <= 2) {
      dir[d] = goal > cur[d] ? 1 : -1;
      hops[d] = goal > cur[d] ? goal - cur[d] : cur[d] - goal;
    } else {
      const std::uint32_t fwd = (goal + side - cur[d]) % side;  // +1 steps
      dir[d] = 2 * fwd <= side ? 1 : -1;
      hops[d] = dir[d] > 0 ? fwd : side - fwd;
    }
    total += hops[d];
  }

  std::int64_t index = src;
  const auto hop = [&](std::size_t d) {
    --hops[d];
    if (!wrap_) {
      index += dir[d] * stride_[d];
      return;
    }
    const std::uint32_t last = sides_[d] - 1;
    if (dir[d] > 0) {
      index += cur[d] == last ? -std::int64_t{last} * stride_[d] : stride_[d];
      cur[d] = cur[d] == last ? 0 : cur[d] + 1;
    } else {
      index -= cur[d] == 0 ? -std::int64_t{last} * stride_[d] : stride_[d];
      cur[d] = cur[d] == 0 ? last : cur[d] - 1;
    }
  };

  std::array<std::size_t, detail::kMaxGridAxes> axis_buf;
  std::span<std::size_t> axes(axis_buf.data(), k);
  std::iota(axes.begin(), axes.end(), std::size_t{0});
  shuffle(axes, rng);

  out.clear();
  out.reserve(total + 1);
  out.push_back(src);
  if (diagonal_) {
    // Correct pairs of axes through diagonals while at least two differ.
    for (;;) {
      std::size_t a = k, b = k;
      for (std::size_t d : axes) {
        if (hops[d] != 0) {
          if (a == k) {
            a = d;
          } else {
            b = d;
            break;
          }
        }
      }
      if (a == k) break;  // arrived
      hop(a);
      if (b != k) hop(b);
      out.push_back(static_cast<Vertex>(index));
    }
    return;
  }

  for (std::size_t d : axes) {
    if (!wrap_) {
      const std::int64_t step = dir[d] * stride_[d];
      for (std::uint32_t h = hops[d]; h != 0; --h) {
        index += step;
        out.push_back(static_cast<Vertex>(index));
      }
      continue;
    }
    while (hops[d] != 0) {
      hop(d);
      out.push_back(static_cast<Vertex>(index));
    }
  }
}

BitFixRouter::BitFixRouter(const Machine& machine) : d_(machine.shape[0]) {
  assert(machine.family == Family::kHypercube);
}

void BitFixRouter::route_append(Vertex src, Vertex dst, Prng& rng,
                                std::vector<Vertex>& out) {
  std::array<unsigned, 8 * sizeof(Vertex)> bit_buf;
  std::size_t differing = 0;
  for (unsigned p = 0; p < d_; ++p) {
    if (((src ^ dst) >> p) & 1u) bit_buf[differing++] = p;
  }
  std::span<unsigned> bits(bit_buf.data(), differing);
  shuffle(bits, rng);
  out.clear();
  out.push_back(src);
  Vertex cur = src;
  for (unsigned p : bits) {
    cur ^= static_cast<Vertex>(1u << p);
    out.push_back(cur);
  }
}

DeBruijnShiftRouter::DeBruijnShiftRouter(const Machine& machine)
    : d_(machine.shape[0]) {
  assert(machine.family == Family::kDeBruijn);
}

void DeBruijnShiftRouter::route_append(Vertex src, Vertex dst, Prng& /*rng*/,
                                       std::vector<Vertex>& out) {
  const std::uint64_t n = ipow(2, d_);
  out.clear();
  out.push_back(src);
  std::uint64_t cur = src;
  // Feed dst's bits in from MSB to LSB; after d shifts cur == dst.
  for (unsigned i = d_; i-- > 0;) {
    const std::uint64_t bit = (dst >> i) & 1u;
    const std::uint64_t next = (cur * 2 + bit) % n;
    if (next != cur) {
      out.push_back(static_cast<Vertex>(next));
    }
    cur = next;
  }
  assert(cur == dst);
}

}  // namespace netemu
