#include "md/cells.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "par/thread_pool.h"

namespace ioc::md {

CellList::CellList(const Box& box, double cutoff, double skin)
    : box_(box), cutoff_(cutoff), skin_(skin) {
  configure(box);
}

void CellList::configure(const Box& box) {
  box_ = box;
  const Vec3 len = box.extent();
  const double bin = cutoff_ + skin_;
  nx_ = static_cast<std::size_t>(std::floor(len.x / bin));
  ny_ = static_cast<std::size_t>(std::floor(len.y / bin));
  nz_ = static_cast<std::size_t>(std::floor(len.z / bin));
  // A 3x3x3 stencil needs at least 3 cells per periodic dimension.
  use_cells_ = nx_ >= 3 && ny_ >= 3 && nz_ >= 3;
  if (!use_cells_) {
    // The binned pair search keeps the bins of the dimensions that have 3
    // or more. A dimension with 1 or 2 bins becomes one bin: all of it is
    // within reach anyway, and one bin lists each candidate once.
    for (std::size_t* n : {&nx_, &ny_, &nz_}) {
      if (*n < 3) *n = 1;
    }
  }
}

std::size_t CellList::cell_of(const Vec3& p) const {
  const Vec3 q = box_.wrap(p);
  const Vec3 len = box_.extent();
  auto idx = [](double v, double lo, double len, std::size_t n) {
    auto i = static_cast<std::int64_t>((v - lo) / len * static_cast<double>(n));
    if (i < 0) i = 0;
    if (i >= static_cast<std::int64_t>(n)) i = static_cast<std::int64_t>(n) - 1;
    return static_cast<std::size_t>(i);
  };
  const std::size_t ix = idx(q.x, box_.lo.x, len.x, nx_);
  const std::size_t iy = idx(q.y, box_.lo.y, len.y, ny_);
  const std::size_t iz = idx(q.z, box_.lo.z, len.z, nz_);
  return (ix * ny_ + iy) * nz_ + iz;
}

void CellList::build(const std::vector<Vec3>& pos) {
  natoms_ = pos.size();
  ++builds_;
  const std::size_t ncells = nx_ * ny_ * nz_;
  // Counting sort into the CSR arrays. Scattering atoms in ascending index
  // order keeps each cell's atoms ascending, which keeps pair enumeration
  // order (and therefore serial floating-point sums) identical to the
  // historical vector-of-vectors layout.
  std::vector<std::uint32_t> cell_index(natoms_);
  cell_start_.assign(ncells + 1, 0);
  for (std::size_t i = 0; i < natoms_; ++i) {
    const std::size_t c = cell_of(pos[i]);
    cell_index[i] = static_cast<std::uint32_t>(c);
    ++cell_start_[c + 1];
  }
  for (std::size_t c = 0; c < ncells; ++c) cell_start_[c + 1] += cell_start_[c];
  cell_atoms_.resize(natoms_);
  std::vector<std::uint32_t> cursor(cell_start_.begin(), cell_start_.end() - 1);
  for (std::size_t i = 0; i < natoms_; ++i) {
    cell_atoms_[cursor[cell_index[i]]++] = static_cast<std::uint32_t>(i);
  }
  max_cell_atoms_ = 0;
  for (std::size_t c = 0; c < ncells; ++c) {
    max_cell_atoms_ = std::max<std::size_t>(max_cell_atoms_,
                                            cell_start_[c + 1] - cell_start_[c]);
  }
  if (skin_ > 0.0) build_pos_ = pos;
}

namespace {

/// Ascending order for one candidate row. A row is a few dozen ids that
/// arrive as one ascending run per stencil bin, so insertion sort beats
/// std::sort there (it halved the sort's share of a slab scan); long rows
/// (large cutoffs) take std::sort.
void sort_row(std::uint32_t* row, std::size_t n) {
  if (n > 64) {
    std::sort(row, row + n);
    return;
  }
  for (std::size_t a = 1; a < n; ++a) {
    const std::uint32_t v = row[a];
    std::size_t b = a;
    for (; b > 0 && row[b - 1] > v; --b) row[b] = row[b - 1];
    row[b] = v;
  }
}

/// Neighbor bins of bin c along a dimension of n bins: c itself and, with
/// 3 or more bins, the two beside it (distinct, so no atom is seen twice).
std::size_t bins_around(std::size_t c, std::size_t n, std::size_t* out) {
  if (n == 1) {
    out[0] = 0;
    return 1;
  }
  out[0] = (c + n - 1) % n;
  out[1] = c;
  out[2] = (c + 1) % n;
  return 3;
}

}  // namespace

CellList::RowScan::RowScan(const CellList& cl, const std::vector<Vec3>& pos,
                           std::size_t first)
    : cl_(cl),
      pos_(pos),
      len_(cl.box_.extent()),
      inv_{1.0 / len_.x, 1.0 / len_.y, 1.0 / len_.z},
      // The relative hair absorbs rounding where the multiply-by-inverse
      // wrap picks the other image of a pair near len/2 (a box dimension
      // here can be shorter than two cutoffs), so the candidates always
      // include every pair the exact division-form test keeps.
      reach2_(cl.cutoff_ * cl.cutoff_ * (1.0 + 1e-9)),
      dx_(cl.max_cell_atoms_),
      dy_(cl.max_cell_atoms_),
      dz_(cl.max_cell_atoms_),
      r2_(cl.max_cell_atoms_),
      row_(cl.natoms_) {
  // Current positions, not build-time ones: with a Verlet skin atoms drift
  // between rebuilds, and bins of cutoff + skin still hold their neighbors.
  lanes_.pack(pos, cl.cell_atoms_.data(), cl.natoms_);
  // Atoms ascend within a bin, so "atoms above i" is a suffix that only
  // shrinks as i grows: one cursor per bin, starting at the first atom >=
  // `first`.
  const std::size_t ncells = cl.cell_start_.size() - 1;
  next_.resize(ncells);
  for (std::size_t o = 0; o < ncells; ++o) {
    const std::uint32_t* b = cl.cell_atoms_.data() + cl.cell_start_[o];
    const std::uint32_t* e = cl.cell_atoms_.data() + cl.cell_start_[o + 1];
    next_[o] = static_cast<std::uint32_t>(
        std::lower_bound(b, e, first) - cl.cell_atoms_.data());
  }
}

std::span<const std::uint32_t> CellList::RowScan::row(std::size_t i) {
  const CellList& cl = cl_;
  const std::size_t c = cl.cell_of(pos_[i]);
  std::size_t xs[3], ys[3], zs[3];
  const std::size_t mx = bins_around(c / (cl.ny_ * cl.nz_), cl.nx_, xs);
  const std::size_t my = bins_around((c / cl.nz_) % cl.ny_, cl.ny_, ys);
  const std::size_t mz = bins_around(c % cl.nz_, cl.nz_, zs);
  std::size_t cnt = 0;
  for (std::size_t a = 0; a < mx; ++a) {
    for (std::size_t b = 0; b < my; ++b) {
      for (std::size_t e = 0; e < mz; ++e) {
        const std::size_t o = (xs[a] * cl.ny_ + ys[b]) * cl.nz_ + zs[e];
        const std::uint32_t stop = cl.cell_start_[o + 1];
        std::uint32_t s = next_[o];
        while (s < stop && cl.cell_atoms_[s] <= i) ++s;
        next_[o] = s;
        const std::size_t m = stop - s;
        if (m == 0) continue;
        detail::wrapped_distances(pos_[i], len_, inv_, lanes_.x.data() + s,
                                  lanes_.y.data() + s, lanes_.z.data() + s, m,
                                  dx_.data(), dy_.data(), dz_.data(),
                                  r2_.data());
        // Branchless compaction: about one candidate in six survives, too
        // unpredictable a branch to take per candidate. The survivors are
        // distinct atoms above i, so row_'s n slots always suffice.
        for (std::size_t k = 0; k < m; ++k) {
          row_[cnt] = cl.cell_atoms_[s + k];
          cnt += r2_[k] <= reach2_ ? 1 : 0;
        }
      }
    }
  }
  sort_row(row_.data(), cnt);
  return {row_.data(), cnt};
}

bool CellList::update(const Box& box, const std::vector<Vec3>& pos) {
  const Vec3 a = box.lo - box_.lo;
  const Vec3 b = box.hi - box_.hi;
  const bool box_changed = a.norm2() != 0.0 || b.norm2() != 0.0;
  bool need = box_changed || skin_ <= 0.0 || pos.size() != build_pos_.size();
  if (!need) {
    // Half-skin criterion: a pair can close the cutoff gap only after the
    // two atoms together drift a full skin, i.e. one of them exceeds skin/2.
    const double limit2 = 0.25 * skin_ * skin_;
    for (std::size_t i = 0; i < pos.size(); ++i) {
      if (box_.min_image(pos[i], build_pos_[i]).norm2() > limit2) {
        need = true;
        break;
      }
    }
  }
  if (!need) return false;
  if (box_changed) configure(box);
  build(pos);
  return true;
}

void CellList::neighbor_csr(const std::vector<Vec3>& pos, unsigned threads,
                            std::vector<std::uint32_t>* offsets,
                            std::vector<std::uint32_t>* neighbors) const {
  const std::size_t n = pos.size();
  offsets->assign(n + 1, 0);
  // Below the grain threshold the serial two-pass build wins outright: no
  // pool dispatch, no atomics. The result is identical either way (rows are
  // sorted), so the clamp is purely a latency decision.
  threads = par::grain_limited_threads(threads, n);
  if (threads <= 1) {
    // Pass 1: degrees (stored shifted by one for the in-place prefix sum).
    for_each_pair(pos, [&](std::size_t i, std::size_t j, double) {
      ++(*offsets)[i + 1];
      ++(*offsets)[j + 1];
    });
    for (std::size_t i = 0; i < n; ++i) (*offsets)[i + 1] += (*offsets)[i];
    neighbors->resize((*offsets)[n]);
    // Pass 2: scatter, then sort each row for deterministic, bsearch-able
    // adjacency rows.
    std::vector<std::uint32_t> cursor(offsets->begin(), offsets->end() - 1);
    for_each_pair(pos, [&](std::size_t i, std::size_t j, double) {
      (*neighbors)[cursor[i]++] = static_cast<std::uint32_t>(j);
      (*neighbors)[cursor[j]++] = static_cast<std::uint32_t>(i);
    });
    for (std::size_t i = 0; i < n; ++i) {
      std::sort(neighbors->begin() + (*offsets)[i],
                neighbors->begin() + (*offsets)[i + 1]);
    }
    return;
  }
  // Parallel build: atomic per-row counters during the two pair passes, and
  // a final per-row sort that erases scatter-order nondeterminism, so the
  // result is identical for any thread count.
  std::vector<std::atomic<std::uint32_t>> deg(n);
  for (auto& d : deg) d.store(0, std::memory_order_relaxed);
  const std::size_t domain = range_size();
  par::parallel_for(threads, domain, [&](std::size_t b, std::size_t e,
                                         unsigned) {
    for_each_pair_range(pos, b, e, [&](std::size_t i, std::size_t j, double) {
      deg[i].fetch_add(1, std::memory_order_relaxed);
      deg[j].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (std::size_t i = 0; i < n; ++i) {
    (*offsets)[i + 1] =
        (*offsets)[i] + deg[i].load(std::memory_order_relaxed);
  }
  neighbors->resize((*offsets)[n]);
  std::vector<std::atomic<std::uint32_t>> cursor(n);
  for (std::size_t i = 0; i < n; ++i) {
    cursor[i].store((*offsets)[i], std::memory_order_relaxed);
  }
  par::parallel_for(threads, domain, [&](std::size_t b, std::size_t e,
                                         unsigned) {
    for_each_pair_range(pos, b, e, [&](std::size_t i, std::size_t j, double) {
      (*neighbors)[cursor[i].fetch_add(1, std::memory_order_relaxed)] =
          static_cast<std::uint32_t>(j);
      (*neighbors)[cursor[j].fetch_add(1, std::memory_order_relaxed)] =
          static_cast<std::uint32_t>(i);
    });
  });
  par::parallel_for(threads, n, [&](std::size_t b, std::size_t e, unsigned) {
    for (std::size_t i = b; i < e; ++i) {
      std::sort(neighbors->begin() + (*offsets)[i],
                neighbors->begin() + (*offsets)[i + 1]);
    }
  });
}

std::vector<std::vector<std::uint32_t>> CellList::neighbor_lists(
    const std::vector<Vec3>& pos) const {
  std::vector<std::vector<std::uint32_t>> nl(pos.size());
  for_each_pair(pos, [&](std::size_t i, std::size_t j, double) {
    nl[i].push_back(static_cast<std::uint32_t>(j));
    nl[j].push_back(static_cast<std::uint32_t>(i));
  });
  return nl;
}

}  // namespace ioc::md
