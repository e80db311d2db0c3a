// Golden-digest regression tests for the md/sp kernels at threads=1. The
// embedded FNV-1a digests were recorded from the pre-SoA scalar kernels
// (plain -O2 build); the SoA/vectorized rewrite and the -O3 -march=native
// kernel codegen (IOC_KERNEL_NATIVE) are required to reproduce them
// bit-for-bit — see docs/PERFORMANCE.md "Bit-identical by construction".
// If any of these digests change, a kernel stopped being a pure
// reorganization and the deterministic-replay guarantees are at risk.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

#include "md/force_lj.h"
#include "md/lattice.h"
#include "md/sim.h"
#include "sp/bonds.h"
#include "sp/cna.h"
#include "sp/csym.h"
#include "sp/fragments.h"

namespace ioc {
namespace {

std::uint64_t fnv(const void* data, std::size_t n,
                  std::uint64_t h = 1469598103934665603ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// FCC crystal with deterministic LCG-jiggled positions — the same
/// construction tests/md_test.cpp uses, frozen here so the digests never
/// depend on another test file's helper.
md::AtomData jiggled(std::size_t cells, double amp = 0.05) {
  auto atoms = md::make_fcc(cells, cells, cells, md::kLjFccLatticeConstant);
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

TEST(KernelGolden, LjForceSerial) {
  auto atoms = jiggled(4);
  md::LjForce lj;
  const auto res = lj.compute(atoms);
  std::uint64_t h =
      fnv(atoms.force.data(), atoms.force.size() * sizeof(md::Vec3));
  h = fnv(&res.potential_energy, sizeof(double), h);
  h = fnv(&res.virial, sizeof(double), h);
  EXPECT_EQ(h, 0x311d4a5295040a0cull);
}

TEST(KernelGolden, MdSimStrainedTwentySteps) {
  md::MdConfig cfg;
  cfg.strain_rate = 0.002;
  md::MdSim sim(md::make_fcc(3, 3, 3, md::kLjFccLatticeConstant), cfg, 31);
  sim.initialize_velocities();
  sim.run(20);
  const auto& a = sim.atoms();
  std::uint64_t h = fnv(a.pos.data(), a.pos.size() * sizeof(md::Vec3));
  h = fnv(a.force.data(), a.force.size() * sizeof(md::Vec3), h);
  EXPECT_EQ(h, 0x1334199121df731full);
}

TEST(KernelGolden, MdSimNotchedSlabTwentySteps) {
  // The perfbench insitu_crack geometry: a 10x8x4 slab whose z extent is
  // under three LJ cutoffs, so the force kernel runs the pair search for
  // boxes too thin for the 3x3x3 cell stencil.
  md::MdConfig cfg;
  cfg.target_temperature = 0.02;
  cfg.strain_rate = 0.3;
  md::MdSim sim(md::make_fcc(10, 8, 4, md::kLjFccLatticeConstant), cfg, 1);
  sim.carve_notch(0.0, 0.35 * sim.atoms().box.hi.x, 1.0);
  sim.initialize_velocities();
  sim.run(20);
  const auto& a = sim.atoms();
  std::uint64_t h = fnv(a.pos.data(), a.pos.size() * sizeof(md::Vec3));
  h = fnv(a.force.data(), a.force.size() * sizeof(md::Vec3), h);
  const double pe = sim.potential_energy();
  h = fnv(&pe, sizeof(pe), h);
  EXPECT_EQ(h, 0x617e8cc7fb82033aull);
}

TEST(KernelGolden, BondsCsrRows) {
  auto atoms = jiggled(4);
  sp::BondAnalysis bonds;
  const auto adj = bonds.compute(atoms);
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint32_t i = 0; i < adj.size(); ++i) {
    const auto row = adj.neighbors_of(i);
    h = fnv(row.data(), row.size() * sizeof(std::uint32_t), h);
  }
  EXPECT_EQ(h, 0x89982887384dff83ull);
}

TEST(KernelGolden, CentralSymmetry) {
  auto atoms = jiggled(4);
  sp::CentralSymmetry csym;
  const auto csp = csym.compute(atoms);
  EXPECT_EQ(fnv(csp.data(), csp.size() * sizeof(double)),
            0x707a3302cd702182ull);
}

TEST(KernelGolden, CnaLabels) {
  auto atoms = jiggled(4, 0.02);
  sp::CnaConfig cfg;
  cfg.cutoff = 0.854 * md::kLjFccLatticeConstant;
  sp::CommonNeighborAnalysis cna(cfg);
  const auto res = cna.classify(atoms);
  EXPECT_EQ(fnv(res.labels.data(),
                res.labels.size() * sizeof(res.labels[0])),
            0xfa5452b8b965b083ull);
}

TEST(KernelGolden, FragmentsOnSparseConfig) {
  auto atoms = jiggled(4, 0.3);
  sp::BondsConfig bc;
  bc.cutoff = 1.15;
  sp::BondAnalysis bonds(bc);
  const auto adj = bonds.compute(atoms);
  const auto frags = sp::find_fragments(atoms, adj, 1);
  std::uint64_t h = fnv(frags.atom_fragment.data(),
                        frags.atom_fragment.size() * sizeof(std::uint32_t));
  for (const auto& f : frags.fragments) {
    h = fnv(&f.centroid, sizeof(md::Vec3), h);
  }
  EXPECT_EQ(h, 0xd76911567ed92b6full);
}

}  // namespace
}  // namespace ioc
