#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>
#include <utility>
#include <vector>

#include "md/atoms.h"
#include "md/cells.h"
#include "md/force_lj.h"
#include "md/lattice.h"
#include "md/sim.h"
#include "md/workload.h"
#include "util/units.h"

namespace ioc::md {
namespace {

TEST(Vec3, Arithmetic) {
  Vec3 a{1, 2, 3}, b{4, 5, 6};
  EXPECT_DOUBLE_EQ((a + b).x, 5);
  EXPECT_DOUBLE_EQ((b - a).z, 3);
  EXPECT_DOUBLE_EQ(a.dot(b), 32);
  EXPECT_DOUBLE_EQ((a * 2).y, 4);
  EXPECT_DOUBLE_EQ((Vec3{3, 4, 0}.norm()), 5);
}

TEST(Box, MinImageWrapsAcrossBoundary) {
  Box box;
  box.hi = {10, 10, 10};
  Vec3 a{9.5, 5, 5}, b{0.5, 5, 5};
  Vec3 d = box.min_image(a, b);
  EXPECT_NEAR(d.x, -1.0, 1e-12);
  EXPECT_NEAR(d.norm(), 1.0, 1e-12);
}

TEST(Box, WrapPutsPositionsInside) {
  Box box;
  box.hi = {10, 10, 10};
  Vec3 p = box.wrap({12.5, -0.5, 5});
  EXPECT_NEAR(p.x, 2.5, 1e-12);
  EXPECT_NEAR(p.y, 9.5, 1e-12);
  EXPECT_NEAR(p.z, 5.0, 1e-12);
}

TEST(Lattice, FccCountsAndBox) {
  auto atoms = make_fcc(3, 4, 5, 1.5);
  EXPECT_EQ(atoms.size(), 3u * 4 * 5 * 4);
  EXPECT_DOUBLE_EQ(atoms.box.hi.x, 4.5);
  EXPECT_DOUBLE_EQ(atoms.box.hi.y, 6.0);
  // Unique ids.
  std::set<std::int64_t> ids(atoms.id.begin(), atoms.id.end());
  EXPECT_EQ(ids.size(), atoms.size());
}

TEST(Lattice, FccNearestNeighborDistance) {
  const double a = kLjFccLatticeConstant;
  auto atoms = make_fcc(4, 4, 4, a);
  // Every atom in a periodic FCC crystal has 12 neighbors at a/sqrt(2).
  const double nn = a / std::sqrt(2.0);
  CellList cl(atoms.box, nn * 1.1);
  cl.build(atoms.pos);
  auto nl = cl.neighbor_lists(atoms.pos);
  for (const auto& l : nl) EXPECT_EQ(l.size(), 12u);
}

TEST(CellList, MatchesNaiveEnumeration) {
  auto atoms = make_fcc(4, 4, 4, 1.5496);
  const double cutoff = 1.7;
  CellList cl(atoms.box, cutoff);
  ASSERT_TRUE(cl.using_cells());
  cl.build(atoms.pos);
  std::set<std::pair<std::size_t, std::size_t>> cell_pairs;
  cl.for_each_pair(atoms.pos, [&](std::size_t i, std::size_t j, double) {
    cell_pairs.insert({std::min(i, j), std::max(i, j)});
  });
  // Naive reference.
  std::set<std::pair<std::size_t, std::size_t>> naive_pairs;
  const double rc2 = cutoff * cutoff;
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    for (std::size_t j = i + 1; j < atoms.size(); ++j) {
      if (atoms.box.min_image(atoms.pos[i], atoms.pos[j]).norm2() <= rc2) {
        naive_pairs.insert({i, j});
      }
    }
  }
  EXPECT_EQ(cell_pairs, naive_pairs);
}

TEST(LjForce, PerfectLatticeHasNearZeroNetForce) {
  auto atoms = make_fcc(4, 4, 4, kLjFccLatticeConstant);
  LjForce lj;
  auto res = lj.compute(atoms);
  EXPECT_LT(res.potential_energy, 0);  // bound crystal
  for (const auto& f : atoms.force) {
    EXPECT_NEAR(f.norm(), 0.0, 1e-9);  // symmetric environment
  }
}

TEST(LjForce, NewtonThirdLawPairwise) {
  AtomData atoms;
  atoms.box.hi = {20, 20, 20};
  atoms.add(0, {5, 5, 5});
  atoms.add(1, {6.3, 5, 5});  // r = 1.3 > 2^{1/6}: attractive regime
  LjForce lj;
  lj.compute(atoms);
  EXPECT_NEAR(atoms.force[0].x, -atoms.force[1].x, 1e-12);
  EXPECT_NEAR(atoms.force[0].y, 0.0, 1e-12);
  // Attractive: atom 0 pulled toward atom 1 (+x).
  EXPECT_GT(atoms.force[0].x, 0.0);
}

TEST(LjForce, RepulsiveInsideMinimum) {
  AtomData atoms;
  atoms.box.hi = {20, 20, 20};
  atoms.add(0, {5, 5, 5});
  atoms.add(1, {5.9, 5, 5});  // r < 2^{1/6}
  LjForce lj;
  lj.compute(atoms);
  EXPECT_LT(atoms.force[0].x, 0.0);  // pushed apart
}

TEST(MdSim, EnergyConservedWithoutThermostat) {
  MdConfig cfg;
  cfg.thermostat_every = 0;
  cfg.dt = 0.002;
  cfg.target_temperature = 0.05;
  MdSim sim(make_fcc(4, 4, 4, kLjFccLatticeConstant), cfg, 42);
  sim.initialize_velocities();
  const double e0 = sim.total_energy();
  sim.run(200);
  const double e1 = sim.total_energy();
  EXPECT_NEAR(e1, e0, std::abs(e0) * 1e-4);
}

TEST(MdSim, ThermostatHoldsTemperature) {
  MdConfig cfg;
  cfg.thermostat_every = 10;
  cfg.target_temperature = 0.1;
  MdSim sim(make_fcc(4, 4, 4, kLjFccLatticeConstant), cfg, 7);
  sim.initialize_velocities();
  sim.run(200);
  EXPECT_NEAR(sim.current_temperature(), 0.1, 0.05);
}

TEST(MdSim, StrainElongatesBox) {
  MdConfig cfg;
  cfg.strain_rate = 0.01;
  cfg.thermostat_every = 0;
  MdSim sim(make_fcc(4, 4, 4, kLjFccLatticeConstant), cfg, 1);
  const double x0 = sim.atoms().box.hi.x;
  sim.run(100);
  EXPECT_GT(sim.atoms().box.hi.x, x0);
  EXPECT_GT(sim.applied_strain(), 0.0);
}

TEST(MdSim, NotchRemovesAtoms) {
  MdSim sim(make_fcc(6, 6, 4, kLjFccLatticeConstant));
  const std::size_t before = sim.atoms().size();
  const double hx = sim.atoms().box.hi.x;
  const std::size_t removed = sim.carve_notch(0.0, hx * 0.4, 1.2);
  EXPECT_GT(removed, 0u);
  EXPECT_EQ(sim.atoms().size(), before - removed);
}

TEST(MdSim, CheckpointRestoreIsExact) {
  MdConfig cfg;
  MdSim sim(make_fcc(3, 3, 3, kLjFccLatticeConstant), cfg, 5);
  sim.initialize_velocities();
  sim.run(17);
  auto blob = sim.checkpoint();
  MdSim copy = MdSim::restore(blob, cfg);
  ASSERT_EQ(copy.atoms().size(), sim.atoms().size());
  EXPECT_EQ(copy.steps_done(), sim.steps_done());
  for (std::size_t i = 0; i < sim.atoms().size(); ++i) {
    EXPECT_EQ(copy.atoms().pos[i].x, sim.atoms().pos[i].x);
    EXPECT_EQ(copy.atoms().vel[i].z, sim.atoms().vel[i].z);
  }
  // Both continue identically.
  sim.run(5);
  copy.run(5);
  for (std::size_t i = 0; i < sim.atoms().size(); ++i) {
    EXPECT_EQ(copy.atoms().pos[i].x, sim.atoms().pos[i].x);
  }
}

TEST(MdSim, RestoreRejectsTruncatedBlob) {
  MdSim sim(make_fcc(2, 2, 2, 1.5496));
  auto blob = sim.checkpoint();
  blob.resize(blob.size() / 2);
  EXPECT_THROW(MdSim::restore(blob, MdConfig{}), std::runtime_error);
}

TEST(AtomData, RemoveIfCompacts) {
  AtomData a;
  a.box.hi = {10, 10, 10};
  for (int i = 0; i < 5; ++i) a.add(i, {double(i), 0, 0});
  a.remove_if({false, true, false, true, false});
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a.id[0], 0);
  EXPECT_EQ(a.id[1], 2);
  EXPECT_EQ(a.id[2], 4);
}

TEST(Workload, MatchesTableII) {
  // Paper rows reproduced exactly.
  auto p256 = WorkloadModel::point(256);
  EXPECT_EQ(p256.atoms, 8'819'989u);
  EXPECT_NEAR(static_cast<double>(p256.bytes_per_step) / util::MiB, 67.3, 0.4);
  auto p512 = WorkloadModel::point(512);
  EXPECT_EQ(p512.atoms, 17'639'979u);
  EXPECT_NEAR(static_cast<double>(p512.bytes_per_step) / util::MiB, 134.6, 0.4);
  auto p1024 = WorkloadModel::point(1024);
  EXPECT_EQ(p1024.atoms, 35'279'958u);
  EXPECT_NEAR(static_cast<double>(p1024.bytes_per_step) / util::MiB, 269.2,
              0.5);
  // Interpolation behaves sensibly off the table.
  auto p128 = WorkloadModel::point(128);
  EXPECT_NEAR(static_cast<double>(p128.atoms), 8'819'989.0 / 2, 64.0);
}

TEST(MdSim, VelocityInitHasZeroNetMomentum) {
  MdSim sim(make_fcc(4, 4, 4, kLjFccLatticeConstant), MdConfig{}, 9);
  sim.initialize_velocities();
  Vec3 net{};
  for (const auto& v : sim.atoms().vel) net += v;
  EXPECT_NEAR(net.norm(), 0.0, 1e-9);
  EXPECT_GT(sim.current_temperature(), 0.0);
}

TEST(MdSim, DeterministicGivenSeed) {
  auto run = [] {
    MdConfig cfg;
    MdSim sim(make_fcc(3, 3, 3, kLjFccLatticeConstant), cfg, 31);
    sim.initialize_velocities();
    sim.run(20);
    return sim.atoms().pos[10];
  };
  const Vec3 a = run();
  const Vec3 b = run();
  EXPECT_EQ(a.x, b.x);
  EXPECT_EQ(a.y, b.y);
  EXPECT_EQ(a.z, b.z);
}

TEST(LjForce, PairEnergyZeroBeyondCutoff) {
  LjForce lj;
  EXPECT_DOUBLE_EQ(lj.pair_energy(2.6 * 2.6), 0.0);
  EXPECT_LT(lj.pair_energy(1.2 * 1.2), 0.0);   // attractive well
  EXPECT_GT(lj.pair_energy(0.9 * 0.9), 0.0);   // repulsive core
}

TEST(LjForce, PairTermsConsistentWithEnergyDerivative) {
  LjForce lj;
  const double r = 1.2;
  const double h = 1e-6;
  const auto t = lj.pair_terms(r * r);
  const double dUdr = (lj.pair_energy((r + h) * (r + h)) -
                       lj.pair_energy((r - h) * (r - h))) /
                      (2 * h);
  EXPECT_NEAR(t.fmag_over_r * r, -dUdr, 1e-6);
  EXPECT_DOUBLE_EQ(t.energy, lj.pair_energy(r * r));
}

// Some thermal disorder so pair distances are not lattice-degenerate.
AtomData jiggled_fcc(std::size_t nx, std::size_t ny, std::size_t nz,
                     double amp) {
  auto atoms = make_fcc(nx, ny, nz, kLjFccLatticeConstant);
  std::uint64_t s = 12345;
  auto next = [&s] {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(s >> 11) / 9007199254740992.0 - 0.5;
  };
  for (auto& p : atoms.pos) {
    p.x += amp * next();
    p.y += amp * next();
    p.z += amp * next();
  }
  return atoms;
}

AtomData jiggled_crystal(std::size_t cells, double amp = 0.05) {
  return jiggled_fcc(cells, cells, cells, amp);
}

TEST(LjForce, ThreadsOneBitIdenticalToReferencePath) {
  auto a = jiggled_crystal(3);
  auto b = a;
  LjForce lj;
  const ForceResult ra = lj.compute(a);
  CellList cells(b.box, lj.params().cutoff * lj.params().sigma);
  const ForceResult rb = lj.compute(b, cells, 1);
  EXPECT_EQ(ra.potential_energy, rb.potential_energy);
  EXPECT_EQ(ra.virial, rb.virial);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.force[i].x, b.force[i].x);
    EXPECT_EQ(a.force[i].y, b.force[i].y);
    EXPECT_EQ(a.force[i].z, b.force[i].z);
  }
}

TEST(LjForce, ThreadedMatchesSerialWithinTolerance) {
  auto serial = jiggled_crystal(3);
  LjForce lj;
  const ForceResult rs = lj.compute(serial);
  for (unsigned threads : {2u, 4u, 8u}) {
    auto par = serial;
    CellList cells(par.box, lj.params().cutoff * lj.params().sigma);
    const ForceResult rp = lj.compute(par, cells, threads);
    EXPECT_NEAR(rp.potential_energy, rs.potential_energy,
                1e-9 * std::abs(rs.potential_energy))
        << "threads=" << threads;
    EXPECT_NEAR(rp.virial, rs.virial, 1e-9 * std::abs(rs.virial));
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_NEAR(par.force[i].x, serial.force[i].x, 1e-9);
      EXPECT_NEAR(par.force[i].y, serial.force[i].y, 1e-9);
      EXPECT_NEAR(par.force[i].z, serial.force[i].z, 1e-9);
    }
  }
}

TEST(CellList, NeighborCsrMatchesNeighborLists) {
  auto atoms = jiggled_crystal(3);
  CellList cl(atoms.box, 1.3);
  cl.build(atoms.pos);
  const auto lists = cl.neighbor_lists(atoms.pos);
  for (unsigned threads : {1u, 4u}) {
    std::vector<std::uint32_t> offsets, neighbors;
    cl.neighbor_csr(atoms.pos, threads, &offsets, &neighbors);
    ASSERT_EQ(offsets.size(), atoms.size() + 1);
    for (std::size_t i = 0; i < atoms.size(); ++i) {
      std::vector<std::uint32_t> row(neighbors.begin() + offsets[i],
                                     neighbors.begin() + offsets[i + 1]);
      auto expect = lists[i];
      std::sort(expect.begin(), expect.end());
      EXPECT_EQ(row, expect) << "atom " << i << " threads " << threads;
    }
  }
}

std::set<std::pair<std::uint32_t, std::uint32_t>> pair_set(
    const CellList& cl, const std::vector<Vec3>& pos) {
  std::set<std::pair<std::uint32_t, std::uint32_t>> pairs;
  cl.for_each_pair(pos, [&pairs](std::size_t i, std::size_t j, double) {
    auto a = static_cast<std::uint32_t>(std::min(i, j));
    auto b = static_cast<std::uint32_t>(std::max(i, j));
    pairs.emplace(a, b);
  });
  return pairs;
}

TEST(CellList, SkinAvoidsRebuildUnderSmallDrift) {
  auto atoms = jiggled_crystal(3);
  const double cutoff = 2.5, skin = 0.4;
  CellList skinned(atoms.box, cutoff, skin);
  skinned.build(atoms.pos);
  EXPECT_EQ(skinned.builds(), 1u);

  // Drift everything by less than skin/2: no rebuild allowed...
  auto moved = atoms.pos;
  for (auto& p : moved) {
    p.x += 0.15;
    p.y -= 0.1;
  }
  EXPECT_FALSE(skinned.update(atoms.box, moved));
  EXPECT_EQ(skinned.builds(), 1u);

  // ...and the stale structure still enumerates the exact cutoff pair set.
  CellList fresh(atoms.box, cutoff);
  fresh.build(moved);
  EXPECT_EQ(pair_set(skinned, moved), pair_set(fresh, moved));
}

TEST(CellList, RebuildsAfterHalfSkinDrift) {
  auto atoms = jiggled_crystal(3);
  CellList cl(atoms.box, 2.5, 0.4);
  cl.build(atoms.pos);
  auto moved = atoms.pos;
  moved[7].x += 0.21;  // > skin/2
  EXPECT_TRUE(cl.update(atoms.box, moved));
  EXPECT_EQ(cl.builds(), 2u);
  // Zero-skin lists always rebuild (the historical behavior).
  CellList noskin(atoms.box, 2.5);
  noskin.build(atoms.pos);
  EXPECT_TRUE(noskin.update(atoms.box, atoms.pos));
}

TEST(CellList, RebuildsWhenBoxChanges) {
  auto atoms = jiggled_crystal(3);
  CellList cl(atoms.box, 2.5, 0.4);
  cl.build(atoms.pos);
  Box strained = atoms.box;
  strained.hi.x *= 1.01;
  EXPECT_TRUE(cl.update(strained, atoms.pos));
  EXPECT_EQ(cl.builds(), 2u);
}

// --- The binned pair search (boxes with fewer than 3 bins in a dimension)

/// One visitor callback, with r2 and the displacement as raw bits.
struct PairVisit {
  std::size_t i = 0, j = 0;
  std::uint64_t r2 = 0, dx = 0, dy = 0, dz = 0;
  bool operator==(const PairVisit&) const = default;
};

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

PairVisit visit(std::size_t i, std::size_t j, double r2, const Vec3& d) {
  return {i, j, bits(r2), bits(d.x), bits(d.y), bits(d.z)};
}

std::vector<PairVisit> visits_in(const CellList& cl,
                                 const std::vector<Vec3>& pos,
                                 std::size_t begin, std::size_t end) {
  std::vector<PairVisit> out;
  cl.for_each_pair_range(
      pos, begin, end,
      [&out](std::size_t i, std::size_t j, double r2, const Vec3& d) {
        out.push_back(visit(i, j, r2, d));
      });
  return out;
}

/// The all-pairs loop the pair search must reproduce callback for callback.
std::vector<PairVisit> all_pairs_visits(const Box& box, double cutoff,
                                        const std::vector<Vec3>& pos) {
  std::vector<PairVisit> out;
  const double rc2 = cutoff * cutoff;
  for (std::size_t i = 0; i < pos.size(); ++i) {
    for (std::size_t j = i + 1; j < pos.size(); ++j) {
      const Vec3 d = box.min_image(pos[i], pos[j]);
      const double r2 = d.norm2();
      if (r2 <= rc2) out.push_back(visit(i, j, r2, d));
    }
  }
  return out;
}

TEST(CellList, PairSearchMatchesAllPairsLoopBitForBit) {
  struct Case {
    const char* name;
    AtomData atoms;
    double cutoff;
  };
  auto strained = jiggled_fcc(10, 8, 4, 0.1);
  strained.box.hi.x *= 1.37;
  for (auto& p : strained.pos) p.x *= 1.37;
  Case cases[] = {
      // 6.2 cube: 2 bins per dimension, all of them within reach.
      {"cube_6.2", jiggled_fcc(4, 4, 4, 0.1), 2.5},
      // The insitu_crack slab: 6 x 4 x 2 bins.
      {"slab_10x8x4", jiggled_fcc(10, 8, 4, 0.1), 2.5},
      // ... strained along x, as the crack run stretches it.
      {"slab_strained", strained, 2.5},
      // 4.65 box, shorter than 2 cutoffs: pairs near len/2 both ways.
      {"box_under_2_cutoffs", jiggled_fcc(3, 3, 3, 0.1), 2.5},
      // Exact half-box separations: every wrap quotient is a tie.
      {"sc_half_box_ties", make_sc(2, 2, 2, 1.2), 1.3},
      // A 3.0 box, 1 bin of 1.7 per dimension.
      {"fcc_2x2x2", make_fcc(2, 2, 2, 1.5), 1.7},
  };
  for (const auto& c : cases) {
    CellList cl(c.atoms.box, c.cutoff);
    ASSERT_FALSE(cl.using_cells()) << c.name;
    cl.build(c.atoms.pos);
    const auto want = all_pairs_visits(c.atoms.box, c.cutoff, c.atoms.pos);
    ASSERT_FALSE(want.empty()) << c.name;
    EXPECT_TRUE(visits_in(cl, c.atoms.pos, 0, cl.range_size()) == want)
        << c.name;
    // Chunks of the first-atom domain partition the same sequence.
    const std::size_t n = cl.range_size();
    const std::size_t cuts[] = {0, n / 3, n / 2 + 1, n};
    std::vector<PairVisit> chunked;
    for (std::size_t k = 0; k + 1 < std::size(cuts); ++k) {
      const auto part = visits_in(cl, c.atoms.pos, cuts[k], cuts[k + 1]);
      chunked.insert(chunked.end(), part.begin(), part.end());
    }
    EXPECT_TRUE(chunked == want) << c.name << " chunked";
  }
}

TEST(CellList, PairSearchStaysExactAcrossUpdates) {
  for (double skin : {0.0, 0.3}) {
    auto atoms = jiggled_fcc(10, 8, 4, 0.1);
    const double cutoff = 2.5;
    CellList cl(atoms.box, cutoff, skin);
    ASSERT_FALSE(cl.using_cells());
    cl.build(atoms.pos);
    std::uint64_t s = 99;
    auto next = [&s] {
      s = s * 6364136223846793005ull + 1442695040888963407ull;
      return static_cast<double>(s >> 11) / 9007199254740992.0 - 0.5;
    };
    for (int step = 0; step < 6; ++step) {
      // Small drifts keep a skinned list; every third step moves one atom
      // past skin/2 and forces a rebuild.
      for (auto& p : atoms.pos) {
        p.x += 0.04 * next();
        p.y += 0.04 * next();
        p.z += 0.04 * next();
      }
      if (step % 3 == 2) atoms.pos[step].z += 0.2;
      const std::uint64_t before = cl.builds();
      const bool rebuilt = cl.update(atoms.box, atoms.pos);
      EXPECT_EQ(cl.builds(), before + (rebuilt ? 1 : 0));
      if (skin == 0.0) {
        EXPECT_TRUE(rebuilt);
      }
      EXPECT_TRUE(visits_in(cl, atoms.pos, 0, cl.range_size()) ==
                  all_pairs_visits(atoms.box, cutoff, atoms.pos))
          << "skin " << skin << " step " << step;
    }
    if (skin > 0.0) {
      EXPECT_LT(cl.builds(), 7u);  // some updates reused the bins
    }
  }
}

TEST(MdSim, ThreadedRunMatchesSerial) {
  auto run = [](unsigned threads) {
    MdConfig cfg;
    cfg.threads = threads;
    MdSim sim(make_fcc(3, 3, 3, kLjFccLatticeConstant), cfg, 7);
    sim.initialize_velocities();
    sim.run(20);
    return sim;
  };
  const auto serial = run(1);
  const auto par = run(4);
  EXPECT_NEAR(par.potential_energy(), serial.potential_energy(),
              1e-9 * std::abs(serial.potential_energy()));
  for (std::size_t i = 0; i < serial.atoms().size(); ++i) {
    EXPECT_NEAR(par.atoms().pos[i].x, serial.atoms().pos[i].x, 1e-7);
    EXPECT_NEAR(par.atoms().pos[i].y, serial.atoms().pos[i].y, 1e-7);
    EXPECT_NEAR(par.atoms().pos[i].z, serial.atoms().pos[i].z, 1e-7);
  }
}

TEST(MdSim, NeighborSkinReducesCellBuilds) {
  auto run = [](double skin) {
    MdConfig cfg;
    cfg.neighbor_skin = skin;
    MdSim sim(make_fcc(3, 3, 3, kLjFccLatticeConstant), cfg, 7);
    sim.initialize_velocities();
    sim.run(40);
    return sim;
  };
  const auto every_step = run(0.0);
  const auto skinned = run(0.4);
  EXPECT_GE(every_step.cell_builds(), 40u);
  EXPECT_LT(skinned.cell_builds(), every_step.cell_builds());
  // The trajectory stays physically equivalent: same energy to tolerance.
  EXPECT_NEAR(skinned.total_energy(), every_step.total_energy(),
              1e-6 * std::abs(every_step.total_energy()));
}

}  // namespace
}  // namespace ioc::md
