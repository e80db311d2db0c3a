#include "md/sim.h"

#include <cmath>
#include <cstring>
#include <stdexcept>

namespace ioc::md {

MdSim::MdSim(AtomData atoms, MdConfig cfg, std::uint64_t seed)
    : atoms_(std::move(atoms)),
      cfg_(cfg),
      force_(cfg.lj),
      cells_(atoms_.box, cfg.lj.cutoff * cfg.lj.sigma, cfg.neighbor_skin),
      rng_(seed) {
  last_force_ = recompute_forces();
}

ForceResult MdSim::recompute_forces() {
  return force_.compute(atoms_, cells_, cfg_.threads, cfg_.trace_sink);
}

void MdSim::initialize_velocities() {
  // Box-Muller gaussians at the target temperature.
  const double stddev = std::sqrt(cfg_.target_temperature);
  Vec3 net{};
  for (auto& v : atoms_.vel) {
    auto gauss = [&]() {
      const double u1 = rng_.next_double();
      const double u2 = rng_.next_double();
      return stddev * std::sqrt(-2.0 * std::log(u1 + 1e-300)) *
             std::cos(2.0 * M_PI * u2);
    };
    v = {gauss(), gauss(), gauss()};
    net += v;
  }
  if (!atoms_.vel.empty()) {
    const Vec3 drift = net * (1.0 / static_cast<double>(atoms_.vel.size()));
    for (auto& v : atoms_.vel) v -= drift;
  }
  last_force_ = recompute_forces();
}

void MdSim::apply_strain(double factor) {
  atoms_.box.hi.x =
      atoms_.box.lo.x + (atoms_.box.hi.x - atoms_.box.lo.x) * factor;
  for (auto& p : atoms_.pos) {
    p.x = atoms_.box.lo.x + (p.x - atoms_.box.lo.x) * factor;
  }
}

void MdSim::run(int n) {
  const double dt = cfg_.dt;
  for (int s = 0; s < n; ++s) {
    if (cfg_.strain_rate != 0.0) {
      const double factor = 1.0 + cfg_.strain_rate * dt;
      apply_strain(factor);
      applied_strain_ = (1.0 + applied_strain_) * factor - 1.0;
    }
    // Velocity Verlet.
    for (std::size_t i = 0; i < atoms_.size(); ++i) {
      atoms_.vel[i] += atoms_.force[i] * (0.5 * dt);
      atoms_.pos[i] = atoms_.box.wrap(atoms_.pos[i] + atoms_.vel[i] * dt);
    }
    last_force_ = recompute_forces();
    for (std::size_t i = 0; i < atoms_.size(); ++i) {
      atoms_.vel[i] += atoms_.force[i] * (0.5 * dt);
    }
    ++steps_;
    if (cfg_.thermostat_every > 0 &&
        steps_ % static_cast<std::uint64_t>(cfg_.thermostat_every) == 0) {
      const double t = temperature(atoms_);
      if (t > 0) {
        const double lambda = std::sqrt(cfg_.target_temperature / t);
        for (auto& v : atoms_.vel) v = v * lambda;
      }
    }
  }
}

std::size_t MdSim::carve_notch(double x0, double x1, double half_width) {
  const double yc = 0.5 * (atoms_.box.lo.y + atoms_.box.hi.y);
  std::vector<bool> kill(atoms_.size(), false);
  std::size_t n = 0;
  for (std::size_t i = 0; i < atoms_.size(); ++i) {
    const Vec3& p = atoms_.pos[i];
    if (p.x < x0 || p.x > x1) continue;
    const double w = half_width * (x1 - p.x) / (x1 - x0);
    if (std::abs(p.y - yc) < w) {
      kill[i] = true;
      ++n;
    }
  }
  atoms_.remove_if(kill);
  last_force_ = recompute_forces();
  return n;
}

std::vector<char> MdSim::checkpoint() const {
  const std::uint64_t n = atoms_.size();
  const std::size_t per_atom = sizeof(std::int64_t) + 3 * sizeof(Vec3);
  std::vector<char> out(sizeof(n) + sizeof(steps_) + sizeof(applied_strain_) +
                        sizeof(atoms_.box) + n * per_atom);
  std::size_t off = 0;
  auto put = [&out, &off](const void* p, std::size_t bytes) {
    if (bytes == 0) return;  // empty arrays may have a null data()
    std::memcpy(out.data() + off, p, bytes);
    off += bytes;
  };
  put(&n, sizeof(n));
  put(&steps_, sizeof(steps_));
  put(&applied_strain_, sizeof(applied_strain_));
  put(&atoms_.box, sizeof(atoms_.box));
  put(atoms_.id.data(), n * sizeof(std::int64_t));
  put(atoms_.pos.data(), n * sizeof(Vec3));
  put(atoms_.vel.data(), n * sizeof(Vec3));
  put(atoms_.force.data(), n * sizeof(Vec3));
  return out;
}

MdSim MdSim::restore(const std::vector<char>& data, MdConfig cfg) {
  std::size_t off = 0;
  auto get = [&data, &off](void* p, std::size_t n) {
    if (off + n > data.size()) {
      throw std::runtime_error("md: truncated checkpoint");
    }
    std::memcpy(p, data.data() + off, n);
    off += n;
  };
  std::uint64_t n = 0;
  std::uint64_t steps = 0;
  double strain = 0;
  AtomData atoms;
  get(&n, sizeof(n));
  get(&steps, sizeof(steps));
  get(&strain, sizeof(strain));
  get(&atoms.box, sizeof(atoms.box));
  atoms.id.resize(n);
  atoms.pos.resize(n);
  atoms.vel.resize(n);
  atoms.force.resize(n);
  get(atoms.id.data(), n * sizeof(std::int64_t));
  get(atoms.pos.data(), n * sizeof(Vec3));
  get(atoms.vel.data(), n * sizeof(Vec3));
  get(atoms.force.data(), n * sizeof(Vec3));
  MdSim sim(std::move(atoms), cfg);
  sim.steps_ = steps;
  sim.applied_strain_ = strain;
  return sim;
}

}  // namespace ioc::md
