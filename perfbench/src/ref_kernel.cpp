// KernelRef's pass, compiled with the md/sp kernel libraries' flags (see
// CMakeLists.txt) so that it vectorizes as they do.
#include <cmath>

#include "harness.h"

namespace perfbench {

namespace {
constexpr int kParticles = 512;
constexpr double kDensity = 0.8;
constexpr double kCutoff2 = 2.5 * 2.5;
}  // namespace

KernelRef::KernelRef()
    : x_(kParticles), y_(kParticles), z_(kParticles), f_(3 * kParticles) {
  box_ = std::cbrt(kParticles / kDensity);
  for (int i = 0; i < kParticles; ++i) {
    x_[i] = static_cast<double>(next() % (1u << 20)) / (1u << 20) * box_;
    y_[i] = static_cast<double>(next() % (1u << 20)) / (1u << 20) * box_;
    z_[i] = static_cast<double>(next() % (1u << 20)) / (1u << 20) * box_;
  }
  run_ms();
}

void KernelRef::pass() {
  // Branchless minimum image and cutoff over unit-stride lanes, the shape
  // of the md force loop.
  const double inv = 1.0 / box_;
  double e = 0;
  for (int i = 0; i < kParticles; ++i) {
    const double xi = x_[i], yi = y_[i], zi = z_[i];
    double fx = 0, fy = 0, fz = 0;
    for (int j = 0; j < kParticles; ++j) {
      double dx = x_[j] - xi, dy = y_[j] - yi, dz = z_[j] - zi;
      dx -= box_ * std::nearbyint(dx * inv);
      dy -= box_ * std::nearbyint(dy * inv);
      dz -= box_ * std::nearbyint(dz * inv);
      const double r2 = dx * dx + dy * dy + dz * dz;
      const double s2 = r2 < kCutoff2 && r2 > 0.01 ? 1.0 / r2 : 0.0;
      const double s6 = s2 * s2 * s2;
      const double f = 24.0 * s6 * (2.0 * s6 - 1.0) * s2;
      fx += f * dx;
      fy += f * dy;
      fz += f * dz;
      e += 4.0 * s6 * (s6 - 1.0);
    }
    f_[3 * i] = fx;
    f_[3 * i + 1] = fy;
    f_[3 * i + 2] = fz;
  }
  energy_ = e;
}

}  // namespace perfbench
