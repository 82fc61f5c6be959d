#include "lsh/projection_kernels.h"

#include <cmath>

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define E2LSHOS_X86_KERNELS 1
#include <immintrin.h>
#endif

namespace e2lshos::lsh::kernels {

namespace {

// The reference: util::Dot's arithmetic, run for kBlock functions side by
// side (lanes are independent, so the compiler may vectorize across them
// without changing a bit; 4 x kBlock accumulators fit the 16 registers of
// baseline x86-64 and of most other targets).
void DotsScalar(const float* mat, size_t stride, const float* o, uint32_t dim,
                uint32_t funcs, float* dots) {
  constexpr uint32_t kBlock = 8;
  const uint32_t body = dim & ~3u;
  for (uint32_t f0 = 0; f0 < funcs; f0 += kBlock) {
    const float* col = mat + f0;
    float acc[4][kBlock] = {};
    uint32_t i = 0;
    for (; i < body; i += 4) {
      for (uint32_t k = 0; k < 4; ++k) {
        const float x = o[i + k];
        const float* a = col + static_cast<size_t>(i + k) * stride;
        for (uint32_t f = 0; f < kBlock; ++f) acc[k][f] += a[f] * x;
      }
    }
    float* out = dots + f0;
    for (uint32_t f = 0; f < kBlock; ++f) {
      out[f] = ((acc[0][f] + acc[1][f]) + acc[2][f]) + acc[3][f];
    }
    for (; i < dim; ++i) {
      const float x = o[i];
      const float* a = col + static_cast<size_t>(i) * stride;
      for (uint32_t f = 0; f < kBlock; ++f) out[f] += a[f] * x;
    }
  }
}

void FloorsScalar(const float* dots, const double* b, double w, uint32_t funcs,
                  int32_t* floors) {
  for (uint32_t f = 0; f < funcs; ++f) {
    floors[f] = static_cast<int32_t>(
        std::floor((static_cast<double>(dots[f]) + b[f]) / w));
  }
}

#if defined(E2LSHOS_X86_KERNELS)

__attribute__((target("avx2"))) void DotsAvx2(const float* mat, size_t stride,
                                              const float* o, uint32_t dim,
                                              uint32_t funcs, float* dots) {
  const uint32_t body = dim & ~3u;
  for (uint32_t f0 = 0; f0 < funcs; f0 += 16) {
    const float* col = mat + f0;
    __m256 acc[4][2];
    for (auto& k : acc) k[0] = k[1] = _mm256_setzero_ps();
    uint32_t i = 0;
    for (; i < body; i += 4) {
      for (uint32_t k = 0; k < 4; ++k) {
        const __m256 x = _mm256_set1_ps(o[i + k]);
        const float* a = col + static_cast<size_t>(i + k) * stride;
        acc[k][0] = _mm256_add_ps(acc[k][0], _mm256_mul_ps(_mm256_loadu_ps(a), x));
        acc[k][1] = _mm256_add_ps(acc[k][1], _mm256_mul_ps(_mm256_loadu_ps(a + 8), x));
      }
    }
    __m256 sum[2];
    for (uint32_t v = 0; v < 2; ++v) {
      sum[v] = _mm256_add_ps(
          _mm256_add_ps(_mm256_add_ps(acc[0][v], acc[1][v]), acc[2][v]), acc[3][v]);
    }
    for (; i < dim; ++i) {
      const __m256 x = _mm256_set1_ps(o[i]);
      const float* a = col + static_cast<size_t>(i) * stride;
      sum[0] = _mm256_add_ps(sum[0], _mm256_mul_ps(_mm256_loadu_ps(a), x));
      sum[1] = _mm256_add_ps(sum[1], _mm256_mul_ps(_mm256_loadu_ps(a + 8), x));
    }
    _mm256_storeu_ps(dots + f0, sum[0]);
    _mm256_storeu_ps(dots + f0 + 8, sum[1]);
  }
}

__attribute__((target("avx2"))) void FloorsAvx2(const float* dots, const double* b,
                                                double w, uint32_t funcs,
                                                int32_t* floors) {
  const __m256d vw = _mm256_set1_pd(w);
  for (uint32_t f = 0; f < funcs; f += 4) {
    __m256d x = _mm256_cvtps_pd(_mm_loadu_ps(dots + f));
    x = _mm256_div_pd(_mm256_add_pd(x, _mm256_loadu_pd(b + f)), vw);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(floors + f),
                     _mm256_cvttpd_epi32(_mm256_floor_pd(x)));
  }
}

// V registers (16 functions each) per accumulator.
template <uint32_t V>
__attribute__((target("avx512f"))) inline void DotsBlockAvx512(
    const float* col, size_t stride, const float* o, uint32_t dim, float* out) {
  const uint32_t body = dim & ~3u;
  __m512 acc[4][V];
  for (auto& k : acc) {
    for (auto& v : k) v = _mm512_setzero_ps();
  }
  uint32_t i = 0;
  for (; i < body; i += 4) {
    for (uint32_t k = 0; k < 4; ++k) {
      const __m512 x = _mm512_set1_ps(o[i + k]);
      const float* a = col + static_cast<size_t>(i + k) * stride;
      for (uint32_t v = 0; v < V; ++v) {
        acc[k][v] = _mm512_add_ps(acc[k][v], _mm512_mul_ps(_mm512_loadu_ps(a + 16 * v), x));
      }
    }
  }
  __m512 sum[V];
  for (uint32_t v = 0; v < V; ++v) {
    sum[v] = _mm512_add_ps(
        _mm512_add_ps(_mm512_add_ps(acc[0][v], acc[1][v]), acc[2][v]), acc[3][v]);
  }
  for (; i < dim; ++i) {
    const __m512 x = _mm512_set1_ps(o[i]);
    const float* a = col + static_cast<size_t>(i) * stride;
    for (uint32_t v = 0; v < V; ++v) {
      sum[v] = _mm512_add_ps(sum[v], _mm512_mul_ps(_mm512_loadu_ps(a + 16 * v), x));
    }
  }
  for (uint32_t v = 0; v < V; ++v) _mm512_storeu_ps(out + 16 * v, sum[v]);
}

__attribute__((target("avx512f"))) void DotsAvx512(const float* mat, size_t stride,
                                                   const float* o, uint32_t dim,
                                                   uint32_t funcs, float* dots) {
  uint32_t f0 = 0;
  for (; f0 + 64 <= funcs; f0 += 64) {
    DotsBlockAvx512<4>(mat + f0, stride, o, dim, dots + f0);
  }
  for (; f0 < funcs; f0 += 16) DotsBlockAvx512<1>(mat + f0, stride, o, dim, dots + f0);
}

__attribute__((target("avx512f"))) void FloorsAvx512(const float* dots,
                                                     const double* b, double w,
                                                     uint32_t funcs, int32_t* floors) {
  // All-lanes maskz forms: the unmasked ones start from an undefined
  // register, which GCC 12 reports as maybe-uninitialized.
  constexpr __mmask8 kAll = 0xFF;
  const __m512d vw = _mm512_set1_pd(w);
  for (uint32_t f = 0; f < funcs; f += 8) {
    __m512d x = _mm512_maskz_cvtps_pd(kAll, _mm256_loadu_ps(dots + f));
    x = _mm512_div_pd(_mm512_add_pd(x, _mm512_loadu_pd(b + f)), vw);
    x = _mm512_maskz_roundscale_pd(kAll, x, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(floors + f),
                        _mm512_maskz_cvttpd_epi32(kAll, x));
  }
}

#endif  // E2LSHOS_X86_KERNELS

}  // namespace

std::vector<Kernel> Supported() {
  std::vector<Kernel> out{{"scalar", DotsScalar, FloorsScalar}};
#if defined(E2LSHOS_X86_KERNELS)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) out.push_back({"avx2", DotsAvx2, FloorsAvx2});
  if (__builtin_cpu_supports("avx512f")) {
    out.push_back({"avx512f", DotsAvx512, FloorsAvx512});
  }
#endif
  return out;
}

const Kernel& Active() {
  static const Kernel kernel = Supported().back();
  return kernel;
}

}  // namespace e2lshos::lsh::kernels
