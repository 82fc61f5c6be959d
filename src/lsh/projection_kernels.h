// Batched p-stable projections over a packed coefficient matrix: the
// engine's per-radius hash kernel (paper Sec. 3.5 computes hash values
// with AVX-512).
//
// A radius's L*m projection vectors live in one [dim][stride] float
// matrix: coefficient i of function f sits at mat[i * stride + f], and
// stride is L*m rounded up to kFuncPad with zero padding. One pass over
// the matrix projects a point onto every function at once.
//
// Every kernel is bit-identical to the scalar LshFunction::Hash. Per
// function it keeps util::Dot's order: four accumulators over i % 4,
// multiply then add (never a fused multiply-add), summed
// ((a0 + a1) + a2) + a3, then the i >= dim - dim % 4 tail added in order.
// The floor step is floor(((double)dot + b) / w), exact in every lane
// width. The SIMD paths only run the same operations across 8 or 16
// functions per instruction, so hash values, and with them stored
// images and answers, do not depend on which path runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace e2lshos::lsh::kernels {

/// Functions per matrix row are padded to a multiple of this: one
/// AVX-512 register of floats.
inline constexpr uint32_t kFuncPad = 16;

/// dots[f] = a_f . o for f < funcs, over a packed matrix `mat` with row
/// stride `stride`. `funcs` is a multiple of kFuncPad and `mat` may point
/// at any column of the matrix (mat + first_func).
using DotsFn = void (*)(const float* mat, size_t stride, const float* o,
                        uint32_t dim, uint32_t funcs, float* dots);

/// floors[f] = (int32)floor(((double)dots[f] + b[f]) / w) for f < funcs
/// (a multiple of kFuncPad).
using FloorsFn = void (*)(const float* dots, const double* b, double w,
                          uint32_t funcs, int32_t* floors);

struct Kernel {
  const char* name;
  DotsFn dots;
  FloorsFn floors;
};

/// Every kernel this CPU runs: the scalar reference first (the only one
/// on non-x86 and pre-AVX2 CPUs), then AVX2 and AVX-512F when CPUID
/// reports them.
std::vector<Kernel> Supported();

/// The widest of Supported(), chosen once on first use.
const Kernel& Active();

}  // namespace e2lshos::lsh::kernels
