#include "lsh/hash_family.h"

#include <algorithm>

#include "lsh/hash_function.h"
#include "lsh/projection_kernels.h"
#include "util/rng.h"

namespace e2lshos::lsh {

namespace {

// Functions per kernel call: bounds the stack scratch of HashAll and
// ProjectAll whatever L*m is. A multiple of kernels::kFuncPad.
constexpr uint32_t kChunk = 512;

}  // namespace

HashFamily::HashFamily(uint32_t dim, const E2lshParams& params)
    : dim_(dim), L_(params.L), m_(params.m) {
  const uint32_t funcs = L_ * m_;
  stride_ = (funcs + kernels::kFuncPad - 1) / kernels::kFuncPad * kernels::kFuncPad;
  radii_.resize(params.num_radii());
  util::Rng master(params.seed);
  for (uint32_t r = 0; r < radii_.size(); ++r) {
    Radius& rad = radii_[r];
    rad.w = params.w * params.radii[r];
    rad.a.assign(static_cast<size_t>(dim) * stride_, 0.f);
    rad.b.assign(stride_, 0.0);
    // CompoundHash(dim, m, w, child)'s draw order: per function, a ~ N(0, I_d)
    // coordinate by coordinate, then b ~ U[0, w).
    for (uint32_t l = 0; l < L_; ++l) {
      util::Rng child = master.Fork();
      for (uint32_t j = 0; j < m_; ++j) {
        const uint32_t f = l * m_ + j;
        for (uint32_t i = 0; i < dim; ++i) {
          rad.a[static_cast<size_t>(i) * stride_ + f] =
              static_cast<float>(child.Gaussian());
        }
        rad.b[f] = child.Uniform(0.0, rad.w);
      }
    }
  }
}

void HashFamily::HashAll(uint32_t radius_idx, const float* o, uint32_t* out) const {
  const Radius& rad = radii_[radius_idx];
  const kernels::Kernel& kernel = kernels::Active();
  float dots[kChunk];
  int32_t floors[kChunk];
  uint32_t l = 0, j = 0;
  uint64_t h = kFoldBasis;
  for (uint32_t begin = 0; begin < stride_; begin += kChunk) {
    const uint32_t n = std::min(kChunk, stride_ - begin);
    kernel.dots(rad.a.data() + begin, stride_, o, dim_, n, dots);
    kernel.floors(dots, rad.b.data() + begin, rad.w, n, floors);
    for (uint32_t f = 0; f < n && l < L_; ++f) {
      h = FoldStep(h, floors[f]);
      if (++j == m_) {
        out[l++] = FoldFinish(h);
        h = kFoldBasis;
        j = 0;
      }
    }
  }
}

void HashFamily::ProjectAll(uint32_t radius_idx, const float* o, double* out) const {
  const Radius& rad = radii_[radius_idx];
  const uint32_t funcs = L_ * m_;
  float dots[kChunk];
  for (uint32_t begin = 0; begin < funcs; begin += kChunk) {
    const uint32_t n = std::min(kChunk, stride_ - begin);
    kernels::Active().dots(rad.a.data() + begin, stride_, o, dim_, n, dots);
    for (uint32_t f = 0; f < n && begin + f < funcs; ++f) {
      out[begin + f] = (static_cast<double>(dots[f]) + rad.b[begin + f]) / rad.w;
    }
  }
}

uint64_t HashFamily::MemoryBytes() const {
  // Per function: d coefficients, b and w. The packed matrix's padding
  // (under kFuncPad functions per radius) is left out, so the figure is
  // the one every saved meta records.
  return static_cast<uint64_t>(radii_.size()) * L_ * m_ *
         (dim_ * sizeof(float) + 2 * sizeof(double));
}

}  // namespace e2lshos::lsh
