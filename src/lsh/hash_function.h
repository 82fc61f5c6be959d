// p-stable LSH hash functions for the Euclidean distance (Datar et al.).
//
//   h(o) = floor((a . o + b) / w)            (paper Eq. 1)
//   g_i(o) = (h_i1(o), ..., h_im(o))         (paper Eq. 4)
//
// A compound hash g_i is folded into a single 32-bit value v (paper
// Sec. 5.2): the low u bits index the hash table, the remaining v-u bits
// become the fingerprint stored next to the object id in the bucket.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace e2lshos::lsh {

/// \brief One scalar LSH function h(o) = floor((a.o + b) / w).
class LshFunction {
 public:
  LshFunction() = default;

  /// Draw a ~ N(0, I_d), b ~ U[0, w).
  LshFunction(uint32_t dim, double w, util::Rng& rng);

  /// Hash a d-dimensional point.
  int32_t Hash(const float* o) const;

  /// The projection value (a.o + b) / w before flooring (used by tests
  /// and by multi-probe style analyses).
  double Project(const float* o) const;

  uint32_t dim() const { return static_cast<uint32_t>(a_.size()); }
  double w() const { return w_; }
  const std::vector<float>& a() const { return a_; }
  double b() const { return b_; }

 private:
  std::vector<float> a_;
  double b_ = 0.0;
  double w_ = 1.0;
};

/// \brief A compound hash g(o) of m independent LSH functions folded to a
/// 32-bit value, one function at a time. Indexes hash through
/// HashFamily's packed kernels instead; this is the reference they are
/// tested against.
class CompoundHash {
 public:
  CompoundHash() = default;

  /// Build m functions over dimension `dim` with bucket width `w`.
  CompoundHash(uint32_t dim, uint32_t m, double w, util::Rng& rng);

  /// 32-bit folded hash of a point: FNV-1a over the m floor values with a
  /// final avalanche. Two points receive equal values iff all m component
  /// hashes collide (modulo a 2^-32 false-collision rate).
  uint32_t Hash32(const float* o) const;

  /// The raw m-dimensional hash vector (diagnostics / tests).
  void HashVector(const float* o, int32_t* out) const;

  uint32_t m() const { return static_cast<uint32_t>(funcs_.size()); }

  /// Fold an m-vector of floor values to the 32-bit compound value.
  static uint32_t Fold(const int32_t* values, uint32_t m);

 private:
  std::vector<LshFunction> funcs_;
};

/// The 32-bit compound fold, in steps: start from kFoldBasis, take each
/// component floor in order with FoldStep (FNV-1a), then FoldFinish (a
/// splitmix-style avalanche, so the low u bits used as the table index
/// are well mixed). CompoundHash::Fold and HashFamily::HashAll share it.
inline constexpr uint64_t kFoldBasis = 0xcbf29ce484222325ULL;

inline uint64_t FoldStep(uint64_t h, int32_t value) {
  return (h ^ static_cast<uint32_t>(value)) * 0x100000001b3ULL;
}

inline uint32_t FoldFinish(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return static_cast<uint32_t>(h);
}

/// \brief Collision probability p_w(s) of h for two points at distance s,
/// parameterized by x = w / s:
///
///   p(x) = 1 - 2 Phi(-x) - (2 / (sqrt(2 pi) x)) (1 - exp(-x^2 / 2)).
///
/// Monotonically increasing in x (so decreasing in the distance s).
double CollisionProbability(double w_over_s);

}  // namespace e2lshos::lsh
