// Distance and dot-product kernels.
//
// The paper accelerates hash value and distance computations with
// AVX-512 (Sec. 3.5). Here the hash side runs through run-time
// dispatched SIMD kernels (lsh/projection_kernels.h) that reproduce
// Dot below bit for bit; these scalar forms are the reference. Their
// arithmetic order is fixed — four accumulators over i % 4, multiply then
// add, summed ((a0 + a1) + a2) + a3, then the tail — and the project
// compiles with -ffp-contract=off, so no compiler flag (-march=native,
// an FMA target) changes a result. The compiler may still vectorize the
// four independent accumulators, which changes no bit. All
// method-vs-method comparisons share these kernels, so relative speedups
// are preserved.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace e2lshos::util {

/// \brief Squared Euclidean distance between two d-dimensional vectors.
inline float SquaredL2(const float* a, const float* b, size_t d) {
  size_t i = 0;
  float acc0 = 0.f, acc1 = 0.f, acc2 = 0.f, acc3 = 0.f;
  for (; i + 4 <= d; i += 4) {
    const float d0 = a[i] - b[i];
    const float d1 = a[i + 1] - b[i + 1];
    const float d2 = a[i + 2] - b[i + 2];
    const float d3 = a[i + 3] - b[i + 3];
    acc0 += d0 * d0;
    acc1 += d1 * d1;
    acc2 += d2 * d2;
    acc3 += d3 * d3;
  }
  float acc = acc0 + acc1 + acc2 + acc3;
  for (; i < d; ++i) {
    const float diff = a[i] - b[i];
    acc += diff * diff;
  }
  return acc;
}

/// \brief Euclidean distance.
inline float L2(const float* a, const float* b, size_t d) {
  return std::sqrt(SquaredL2(a, b, d));
}

/// \brief Dot product a . b over d dimensions.
inline float Dot(const float* a, const float* b, size_t d) {
  size_t i = 0;
  float acc0 = 0.f, acc1 = 0.f, acc2 = 0.f, acc3 = 0.f;
  for (; i + 4 <= d; i += 4) {
    acc0 += a[i] * b[i];
    acc1 += a[i + 1] * b[i + 1];
    acc2 += a[i + 2] * b[i + 2];
    acc3 += a[i + 3] * b[i + 3];
  }
  float acc = acc0 + acc1 + acc2 + acc3;
  for (; i < d; ++i) acc += a[i] * b[i];
  return acc;
}

/// \brief Squared L2 norm of a vector.
inline float SquaredNorm(const float* a, size_t d) { return Dot(a, a, d); }

}  // namespace e2lshos::util
