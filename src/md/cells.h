// Neighbor search for short-range potentials and for the analytics
// kernels' cutoff queries, in one of two regimes chosen by the box:
//
// - Linked cells, when every dimension holds >= 3 bins of at least one
//   cutoff (+ skin): O(n) pair enumeration over a half 3x3x3 stencil,
//   visited cell by cell.
// - A binned pair search, when some dimension holds fewer than 3 bins
//   (thin slabs, small boxes), where the 3x3x3 stencil would double-count
//   periodic images. Such a dimension becomes a single bin — all of it is
//   within reach anyway — so each atom's stencil lists every bin once and
//   still covers the minimum image of every pair. Atom by atom, the visitor
//   filters the stencil's atoms j > i with a SIMD distance pass, orders
//   the survivors by j, and re-tests each with Box::min_image and the exact
//   cutoff: it calls back with the same pairs, order and bits as the
//   all-pairs double loop it replaces, at O(n) cost and O(n) scratch.
//
// Storage is a flat CSR layout (cell_start_ offsets into one cell_atoms_
// index array) rebuilt by counting sort, and the pair visitor is a template
// so the per-pair callback inlines. The distance math of both regimes runs
// over SoA coordinate lanes in one vectorized helper while visit order and
// bits stay identical to the scalar loop (docs/PERFORMANCE.md). An
// optional Verlet skin widens the bins by `skin` so the structure stays
// valid until some atom drifts more than skin/2 from its position at build
// time; update() performs that check and rebuilds only when needed (or when
// the box deformed, e.g. under strain).
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "md/atoms.h"
#include "md/soa.h"

namespace ioc::md {

namespace detail {

/// Pair-visitor dispatch: callbacks may take (i, j, r2) — the historical
/// signature — or (i, j, r2, d) with d the minimum-image displacement
/// pos[i] - pos[j] that the visitor already computed for the cutoff test.
/// Force kernels take the 4-arg form so they never recompute min_image.
template <class Fn>
inline void invoke_pair(Fn& fn, std::size_t i, std::size_t j, double r2,
                        const Vec3& d) {
  if constexpr (std::is_invocable_v<Fn&, std::size_t, std::size_t, double,
                                    const Vec3&>) {
    fn(i, j, r2, d);
  } else {
    fn(i, j, r2);
  }
}

/// Distance pass of one atom at p against m candidates in SoA lanes: the
/// wrapped displacement p - cand[k] into dx/dy/dz[k] and its squared norm
/// into r2[k], with the branchless multiply-by-inverse wrap. The loop has
/// no data-dependent control flow; the restrict-qualified lanes spare GCC
/// the run-time alias checks (3 inputs x 4 outputs) that otherwise exceed
/// its vectorizer's limit, so it runs in SIMD.
inline void wrapped_distances(const Vec3& p, const Vec3& len, const Vec3& inv,
                              const double* __restrict xs,
                              const double* __restrict ys,
                              const double* __restrict zs, std::size_t m,
                              double* __restrict dx_out,
                              double* __restrict dy_out,
                              double* __restrict dz_out,
                              double* __restrict r2_out) {
  const double xi = p.x, yi = p.y, zi = p.z;
  const double lx = len.x, ly = len.y, lz = len.z;
  const double ix = inv.x, iy = inv.y, iz = inv.z;
  for (std::size_t k = 0; k < m; ++k) {
    double dx = xi - xs[k];
    double dy = yi - ys[k];
    double dz = zi - zs[k];
    dx -= lx * std::nearbyint(dx * ix);
    dy -= ly * std::nearbyint(dy * iy);
    dz -= lz * std::nearbyint(dz * iz);
    dx_out[k] = dx;
    dy_out[k] = dy;
    dz_out[k] = dz;
    r2_out[k] = dx * dx + dy * dy + dz * dz;
  }
}

}  // namespace detail

class CellList {
 public:
  CellList(const Box& box, double cutoff, double skin = 0.0);

  /// Unconditionally rebuild the cell structure for these positions.
  void build(const std::vector<Vec3>& pos);

  /// Rebuild only when required: the box changed, the atom count changed,
  /// there is no skin, or some atom moved more than skin/2 since the last
  /// build. Returns whether a rebuild happened.
  bool update(const Box& box, const std::vector<Vec3>& pos);

  /// Visit each unordered pair (i < j) with |r_ij| <= cutoff exactly once.
  /// The callback receives (i, j, r2) — or (i, j, r2, d) with d the
  /// minimum-image displacement pos[i] - pos[j], see detail::invoke_pair —
  /// with r2 the squared minimum-image distance. Templated so the callback
  /// inlines into the cell loops.
  template <class Fn>
  void for_each_pair(const std::vector<Vec3>& pos, Fn&& fn) const {
    for_each_pair_range(pos, 0, range_size(), fn);
  }

  /// Pair visitation restricted to a slice of the independent work domain:
  /// cells [begin, end) when the cell grid is active, first-atom indices
  /// [begin, end) in the binned pair search. Every pair is owned by exactly
  /// one domain slot, so disjoint ranges visit disjoint pair sets — the
  /// unit the parallel kernels chunk over.
  /// The pair search walks atom i's candidates (RowScan) in ascending j and
  /// re-tests each with Box::min_image (the division form) and the exact
  /// cutoff: the callbacks are the all-pairs loop's, in its (i, j) order,
  /// with its bits.
  /// The cell path runs tiled: per cell pair the candidate coordinates are
  /// gathered into SoA lanes (md/soa.h) and detail::wrapped_distances
  /// computes every candidate's wrapped displacement and r2 into scratch
  /// arrays in SIMD, then an ordered scalar sweep invokes the callback on
  /// the survivors. Visit order and per-pair arithmetic match the
  /// historical scalar loop exactly (see docs/PERFORMANCE.md
  /// "Bit-identical by construction"), so threads=1 results are
  /// bit-for-bit unchanged.
  template <class Fn>
  void for_each_pair_range(const std::vector<Vec3>& pos, std::size_t begin,
                           std::size_t end, Fn&& fn) const {
    const double rc2 = cutoff_ * cutoff_;
    if (!use_cells_) {
      RowScan scan(*this, pos, begin);
      for (std::size_t i = begin; i < end; ++i) {
        for (const std::uint32_t j : scan.row(i)) {
          const Vec3 d = box_.min_image(pos[i], pos[j]);
          const double r2 = d.norm2();
          if (r2 <= rc2) detail::invoke_pair(fn, i, j, r2, d);
        }
      }
      return;
    }
    const auto nx = static_cast<std::int64_t>(nx_);
    const auto ny = static_cast<std::int64_t>(ny_);
    const auto nz = static_cast<std::int64_t>(nz_);
    const Vec3 len = box_.extent();
    // Reciprocal lengths hoist the per-pair division out of the wrap. The
    // wrap count k = nearbyint(d/len) can only disagree with
    // nearbyint(d*inv) when d/len lies within ~2 ulp of a half-integer
    // rounding boundary — but such a pair is |wrapped d| ~ len/2 >= 1.5
    // cutoffs (the box is >= 3 bins, bin >= cutoff), beyond the cutoff under
    // either rounding, so it never reaches the callback. For every pair that
    // does, |wrapped d| <= cutoff puts d/len within 1/3 of an integer: both
    // forms give the same k, and d - len*k is the exact expression from
    // Box::min_image — the surviving displacement and r2 are bit-identical.
    const Vec3 inv{1.0 / len.x, 1.0 / len.y, 1.0 / len.z};
    // Per-call scratch (the visitor runs concurrently on chunks, so no
    // mutable members): SoA lanes for the two cells of the current pair and
    // the candidate displacement/r2 tiles.
    Soa3 home, other_soa;
    home.reserve(max_cell_atoms_);
    other_soa.reserve(max_cell_atoms_);
    std::vector<double> tdx(max_cell_atoms_), tdy(max_cell_atoms_),
        tdz(max_cell_atoms_), tr2(max_cell_atoms_);
    // Atom i against candidate slots [j0, j0+m) of `cand`; `jatoms` maps
    // candidate k to its atom id.
    auto tile = [&](std::size_t i, const Soa3& cand, std::size_t j0,
                    std::size_t m, const std::uint32_t* jatoms) {
      detail::wrapped_distances(pos[i], len, inv, cand.x.data() + j0,
                                cand.y.data() + j0, cand.z.data() + j0, m,
                                tdx.data(), tdy.data(), tdz.data(),
                                tr2.data());
      for (std::size_t k = 0; k < m; ++k) {
        if (tr2[k] <= rc2) {
          detail::invoke_pair(fn, i, static_cast<std::size_t>(jatoms[k]),
                              tr2[k], Vec3{tdx[k], tdy[k], tdz[k]});
        }
      }
    };
    for (std::size_t c = begin; c < end; ++c) {
      const std::uint32_t* cell = cell_atoms_.data() + cell_start_[c];
      const std::size_t cell_n = cell_start_[c + 1] - cell_start_[c];
      if (cell_n == 0) continue;
      const auto cz = static_cast<std::int64_t>(c % nz_);
      const auto cy = static_cast<std::int64_t>((c / nz_) % ny_);
      const auto cx = static_cast<std::int64_t>(c / (ny_ * nz_));
      // Gather from the *current* positions, not build-time ones: with a
      // Verlet skin, atoms drift between rebuilds.
      home.pack(pos, cell, cell_n);
      // Pairs within the cell.
      for (std::size_t a = 0; a < cell_n; ++a) {
        tile(cell[a], home, a + 1, cell_n - a - 1, cell + a + 1);
      }
      // Pairs with half of the neighboring cells (each cell pair visited
      // once).
      for (std::int64_t dx = -1; dx <= 1; ++dx) {
        for (std::int64_t dy = -1; dy <= 1; ++dy) {
          for (std::int64_t dz = -1; dz <= 1; ++dz) {
            if (dx == 0 && dy == 0 && dz == 0) continue;
            // Keep only the lexicographically positive half-stencil.
            if (dx < 0 || (dx == 0 && dy < 0) ||
                (dx == 0 && dy == 0 && dz < 0)) {
              continue;
            }
            const std::size_t ox = static_cast<std::size_t>((cx + dx + nx) % nx);
            const std::size_t oy = static_cast<std::size_t>((cy + dy + ny) % ny);
            const std::size_t oz = static_cast<std::size_t>((cz + dz + nz) % nz);
            const std::size_t o = (ox * ny_ + oy) * nz_ + oz;
            const std::uint32_t* other = cell_atoms_.data() + cell_start_[o];
            const std::size_t other_n = cell_start_[o + 1] - cell_start_[o];
            if (other_n == 0) continue;
            other_soa.pack(pos, other, other_n);
            for (std::size_t a = 0; a < cell_n; ++a) {
              tile(cell[a], other_soa, 0, other_n, other);
            }
          }
        }
      }
    }
  }

  /// Size of the independent work domain for for_each_pair_range.
  std::size_t range_size() const {
    return use_cells_ ? nx_ * ny_ * nz_ : natoms_;
  }

  /// Neighbor CSR within the cutoff, both directions present, each row
  /// sorted ascending: offsets has natoms+1 entries, neighbors holds row i
  /// in [offsets[i], offsets[i+1]). This is the zero-copy path into
  /// sp::Adjacency::from_csr; `threads > 1` parallelizes the count, fill,
  /// and per-row sort passes (the sorted rows make the result independent
  /// of thread interleaving).
  void neighbor_csr(const std::vector<Vec3>& pos, unsigned threads,
                    std::vector<std::uint32_t>* offsets,
                    std::vector<std::uint32_t>* neighbors) const;

  /// Per-atom neighbor lists within the cutoff (both directions present).
  /// Kept for tests and ad-hoc callers; hot paths use neighbor_csr.
  std::vector<std::vector<std::uint32_t>> neighbor_lists(
      const std::vector<Vec3>& pos) const;

  /// True for the linked-cell regime, false for the binned pair search.
  bool using_cells() const { return use_cells_; }
  double cutoff() const { return cutoff_; }
  double skin() const { return skin_; }
  /// Builds performed so far (update() that found the structure still
  /// valid does not count) — observability for the Verlet-skin reuse rate.
  std::uint64_t builds() const { return builds_; }

 private:
  void configure(const Box& box);
  std::size_t cell_of(const Vec3& p) const;

  /// Per-call scratch of the binned pair search: the current positions in
  /// bin order as SoA lanes, and per bin a cursor past the atoms <= i.
  class RowScan {
   public:
    /// Visits will start at atom `first`.
    RowScan(const CellList& cl, const std::vector<Vec3>& pos,
            std::size_t first);
    /// Atom i's candidates j > i, ascending: every j within the cutoff and
    /// a few just past it (a hair absorbs rounding). Calls must come with
    /// ascending i; the span lives until the next call.
    std::span<const std::uint32_t> row(std::size_t i);

   private:
    const CellList& cl_;
    const std::vector<Vec3>& pos_;
    Vec3 len_, inv_;
    double reach2_;
    Soa3 lanes_;
    std::vector<std::uint32_t> next_;
    std::vector<double> dx_, dy_, dz_, r2_;
    std::vector<std::uint32_t> row_;
  };

  Box box_;
  double cutoff_;
  double skin_;
  bool use_cells_ = false;
  std::size_t nx_ = 1, ny_ = 1, nz_ = 1;
  std::size_t natoms_ = 0;
  std::vector<std::uint32_t> cell_start_;  ///< CSR offsets, num_cells + 1
  std::vector<std::uint32_t> cell_atoms_;  ///< atom indices grouped by cell
  std::size_t max_cell_atoms_ = 0;         ///< largest cell, sizes SoA tiles
  std::vector<Vec3> build_pos_;            ///< positions at last build (skin > 0)
  std::uint64_t builds_ = 0;
};

}  // namespace ioc::md
