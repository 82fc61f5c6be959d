#include "lsh/hash_function.h"

#include <cmath>

#include "util/distance.h"
#include "util/mathutil.h"

namespace e2lshos::lsh {

LshFunction::LshFunction(uint32_t dim, double w, util::Rng& rng) : w_(w) {
  a_.resize(dim);
  for (auto& v : a_) v = static_cast<float>(rng.Gaussian());
  b_ = rng.Uniform(0.0, w);
}

int32_t LshFunction::Hash(const float* o) const {
  const double proj = static_cast<double>(util::Dot(a_.data(), o, a_.size())) + b_;
  return static_cast<int32_t>(std::floor(proj / w_));
}

double LshFunction::Project(const float* o) const {
  return (static_cast<double>(util::Dot(a_.data(), o, a_.size())) + b_) / w_;
}

CompoundHash::CompoundHash(uint32_t dim, uint32_t m, double w, util::Rng& rng) {
  funcs_.reserve(m);
  for (uint32_t j = 0; j < m; ++j) funcs_.emplace_back(dim, w, rng);
}

uint32_t CompoundHash::Fold(const int32_t* values, uint32_t m) {
  uint64_t h = kFoldBasis;
  for (uint32_t j = 0; j < m; ++j) h = FoldStep(h, values[j]);
  return FoldFinish(h);
}

uint32_t CompoundHash::Hash32(const float* o) const {
  uint64_t h = kFoldBasis;
  for (const auto& f : funcs_) h = FoldStep(h, f.Hash(o));
  return FoldFinish(h);
}

void CompoundHash::HashVector(const float* o, int32_t* out) const {
  for (uint32_t j = 0; j < funcs_.size(); ++j) out[j] = funcs_[j].Hash(o);
}

double CollisionProbability(double x) {
  if (x <= 0.0) return 0.0;
  const double kSqrt2Pi = 2.5066282746310002;
  return 1.0 - 2.0 * util::NormalCdf(-x) -
         (2.0 / (kSqrt2Pi * x)) * (1.0 - std::exp(-0.5 * x * x));
}

}  // namespace e2lshos::lsh
