// The full set of compound hashes used by one E2LSH index: L compound
// hashes for each search radius, generated deterministically from the
// master seed (paper Sec. 5.3).
//
// For radius R the component bucket width is w * R: the geometry of
// Eq. 2/3 is scale-free, so scaling w by R makes the same (p1, p2) pair
// apply at every rung of the radius ladder.
//
// Each radius keeps its L*m projection vectors as one packed matrix
// (lsh/projection_kernels.h) plus the offsets b and the width w; that is
// the only copy of the coefficients. Hash values equal those of a
// CompoundHash drawn from the same seed, bit for bit, on every kernel.
#pragma once

#include <cstdint>
#include <vector>

#include "lsh/params.h"
#include "util/aligned_buffer.h"

namespace e2lshos::lsh {

class HashFamily {
 public:
  HashFamily() = default;

  /// Generate all num_radii x L compound hashes for dimension `dim`.
  HashFamily(uint32_t dim, const E2lshParams& params);

  /// Hash a point under all L compound hashes of one radius: out[l] is
  /// compound l's folded 32-bit value.
  void HashAll(uint32_t radius_idx, const float* o, uint32_t* out) const;

  /// The L*m projections (a.o + b) / w of one radius, compound l's
  /// functions at [l*m, (l+1)*m): floor them for the component hashes,
  /// keep the fraction for Multi-Probe scoring.
  void ProjectAll(uint32_t radius_idx, const float* o, double* out) const;

  uint32_t num_radii() const { return static_cast<uint32_t>(radii_.size()); }
  uint32_t L() const { return L_; }
  uint32_t m() const { return m_; }
  uint32_t dim() const { return dim_; }
  /// Component bucket width at a radius (w * R).
  double w(uint32_t radius_idx) const { return radii_[radius_idx].w; }

  /// DRAM cost of keeping the hash functions resident, part of Table 6
  /// accounting: d floats plus b and w per function.
  uint64_t MemoryBytes() const;

 private:
  struct Radius {
    /// [dim][stride_] coefficients, zero past L*m.
    std::vector<float, util::AlignedAllocator<float, 64>> a;
    std::vector<double> b;  ///< [stride_] offsets, zero past L*m.
    double w = 1.0;
  };

  uint32_t dim_ = 0;
  uint32_t L_ = 0;
  uint32_t m_ = 0;
  uint32_t stride_ = 0;  ///< L*m rounded up to kernels::kFuncPad.
  std::vector<Radius> radii_;
};

}  // namespace e2lshos::lsh
