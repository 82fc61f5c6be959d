// Tests for the LSH primitives: hash functions, collision probabilities,
// parameter derivation, fingerprint splitting, hash family determinism.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "lsh/fingerprint.h"
#include "lsh/hash_family.h"
#include "lsh/hash_function.h"
#include "lsh/params.h"
#include "lsh/projection_kernels.h"
#include "util/distance.h"
#include "util/rng.h"

namespace e2lshos::lsh {
namespace {

std::vector<float> RandomPoint(uint32_t d, util::Rng& rng, double scale = 1.0) {
  std::vector<float> p(d);
  for (auto& v : p) v = static_cast<float>(rng.Gaussian(0.0, scale));
  return p;
}

// A point at exact distance `dist` from `base` in a random direction.
std::vector<float> PointAtDistance(const std::vector<float>& base, double dist,
                                   util::Rng& rng) {
  std::vector<float> dir(base.size());
  double norm = 0.0;
  for (auto& v : dir) {
    v = static_cast<float>(rng.Gaussian());
    norm += static_cast<double>(v) * v;
  }
  norm = std::sqrt(norm);
  std::vector<float> out(base.size());
  for (size_t i = 0; i < base.size(); ++i) {
    out[i] = base[i] + static_cast<float>(dist * dir[i] / norm);
  }
  return out;
}

TEST(LshFunction, HashIsFloorOfProjection) {
  util::Rng rng(1);
  LshFunction h(16, 4.0, rng);
  util::Rng rng2(2);
  const auto p = RandomPoint(16, rng2);
  EXPECT_EQ(h.Hash(p.data()),
            static_cast<int32_t>(std::floor(h.Project(p.data()))));
}

TEST(LshFunction, OffsetWithinBucketWidth) {
  util::Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    LshFunction h(8, 2.5, rng);
    EXPECT_GE(h.b(), 0.0);
    EXPECT_LT(h.b(), 2.5);
  }
}

TEST(LshFunction, IdenticalPointsAlwaysCollide) {
  util::Rng rng(4);
  LshFunction h(32, 4.0, rng);
  util::Rng rng2(5);
  const auto p = RandomPoint(32, rng2);
  const auto q = p;
  EXPECT_EQ(h.Hash(p.data()), h.Hash(q.data()));
}

TEST(CollisionProbability, AnalyticPropertiesHold) {
  // Monotonically increasing in x = w/s; limits 0 and 1.
  EXPECT_DOUBLE_EQ(CollisionProbability(0.0), 0.0);
  double prev = 0.0;
  for (double x = 0.1; x < 50.0; x *= 1.5) {
    const double p = CollisionProbability(x);
    EXPECT_GT(p, prev);
    EXPECT_GT(p, 0.0);
    EXPECT_LT(p, 1.0);
    prev = p;
  }
  EXPECT_GT(CollisionProbability(100.0), 0.98);
}

TEST(CollisionProbability, MatchesEmpiricalRate) {
  // Empirical collision frequency of h at distance s must match p_w(w/s).
  const uint32_t d = 64;
  const double w = 4.0;
  util::Rng rng(6);
  for (const double dist : {1.0, 2.0, 4.0}) {
    int collisions = 0;
    const int trials = 4000;
    for (int t = 0; t < trials; ++t) {
      LshFunction h(d, w, rng);
      const auto p = RandomPoint(d, rng);
      const auto q = PointAtDistance(p, dist, rng);
      collisions += h.Hash(p.data()) == h.Hash(q.data());
    }
    const double expected = CollisionProbability(w / dist);
    EXPECT_NEAR(static_cast<double>(collisions) / trials, expected, 0.035)
        << "at distance " << dist;
  }
}

TEST(CompoundHash, EqualIffAllComponentsEqual) {
  util::Rng rng(7);
  CompoundHash g(16, 8, 4.0, rng);
  util::Rng rng2(8);
  const auto p = RandomPoint(16, rng2);
  std::vector<int32_t> vp(8), vq(8);
  g.HashVector(p.data(), vp.data());
  // Identical point: identical fold.
  EXPECT_EQ(g.Hash32(p.data()), g.Hash32(p.data()));
  // A nearby point colliding on all m components folds equal.
  const auto q = PointAtDistance(p, 0.001, rng2);
  g.HashVector(q.data(), vq.data());
  if (vp == vq) EXPECT_EQ(g.Hash32(p.data()), g.Hash32(q.data()));
}

TEST(CompoundHash, FoldIsDeterministicAndSensitive) {
  std::vector<int32_t> a{1, 2, 3, 4};
  std::vector<int32_t> b{1, 2, 3, 5};
  EXPECT_EQ(CompoundHash::Fold(a.data(), 4), CompoundHash::Fold(a.data(), 4));
  EXPECT_NE(CompoundHash::Fold(a.data(), 4), CompoundHash::Fold(b.data(), 4));
}

TEST(CompoundHash, FarPointsRarelyCollide) {
  // With m=12 components, p2^m is tiny: far pairs should essentially
  // never fold equal.
  util::Rng rng(9);
  int collisions = 0;
  for (int t = 0; t < 500; ++t) {
    CompoundHash g(32, 12, 4.0, rng);
    const auto p = RandomPoint(32, rng);
    const auto q = PointAtDistance(p, 8.0, rng);  // far: w/s = 0.5
    collisions += g.Hash32(p.data()) == g.Hash32(q.data());
  }
  EXPECT_LE(collisions, 2);
}

TEST(Params, Equation5Derivation) {
  E2lshConfig cfg;
  cfg.c = 2.0;
  cfg.w = 4.0;
  cfg.x_max = 1.0;
  auto params = ComputeParams(1000000, 128, cfg);
  ASSERT_TRUE(params.ok());
  // p1 = p(4) ~ 0.8005, p2 = p(2) ~ 0.6095 (Datar et al. values).
  EXPECT_NEAR(params->p1, 0.8005, 0.001);
  EXPECT_NEAR(params->p2, 0.6095, 0.001);
  // rho = ln(1/p1)/ln(1/p2) ~ 0.449.
  EXPECT_NEAR(params->rho, 0.449, 0.005);
  // m = ln(n)/ln(1/p2) ~ 27.9 -> 28.
  EXPECT_EQ(params->m, 28u);
  // S = 2L by default.
  EXPECT_EQ(params->S, 2ULL * params->L);
}

TEST(Params, RhoOverrideControlsL) {
  E2lshConfig cfg;
  cfg.rho = 0.25;
  auto params = ComputeParams(100000, 64, cfg);
  ASSERT_TRUE(params.ok());
  EXPECT_EQ(params->L, static_cast<uint32_t>(std::ceil(std::pow(100000, 0.25))));
  EXPECT_NEAR(params->rho, 0.25, 1e-12);
}

TEST(Params, GammaScalesMNotL) {
  E2lshConfig a, b;
  a.rho = b.rho = 0.25;
  a.gamma = 1.0;
  b.gamma = 1.5;
  auto pa = ComputeParams(100000, 64, a);
  auto pb = ComputeParams(100000, 64, b);
  ASSERT_TRUE(pa.ok());
  ASSERT_TRUE(pb.ok());
  EXPECT_EQ(pa->L, pb->L);  // index size unchanged (paper Sec. 3.3)
  EXPECT_GT(pb->m, pa->m);
  EXPECT_NEAR(static_cast<double>(pb->m) / pa->m, 1.5, 0.1);
}

TEST(Params, RadiusLadderCoversRmax) {
  E2lshConfig cfg;
  cfg.c = 2.0;
  cfg.x_max = 1.0;
  auto params = ComputeParams(10000, 100, cfg);
  ASSERT_TRUE(params.ok());
  const double r_max = 2.0 * std::sqrt(100.0);
  EXPECT_GE(params->radii.back(), r_max);
  EXPECT_EQ(params->radii.front(), 1.0);
  for (size_t i = 1; i < params->radii.size(); ++i) {
    EXPECT_DOUBLE_EQ(params->radii[i], params->radii[i - 1] * 2.0);
  }
  // Ladder shorter than the conservative bound + 1 extra rung.
  EXPECT_LE(params->radii.size(),
            static_cast<size_t>(std::ceil(std::log2(r_max))) + 2);
}

TEST(Params, InvalidInputsRejected) {
  E2lshConfig cfg;
  EXPECT_FALSE(ComputeParams(1, 64, cfg).ok());   // n too small
  EXPECT_FALSE(ComputeParams(1000, 0, cfg).ok()); // d = 0
  cfg.c = 1.0;
  EXPECT_FALSE(ComputeParams(1000, 64, cfg).ok());
  cfg.c = 2.0;
  cfg.w = 0.0;
  EXPECT_FALSE(ComputeParams(1000, 64, cfg).ok());
  cfg.w = 4.0;
  cfg.gamma = 0.0;
  EXPECT_FALSE(ComputeParams(1000, 64, cfg).ok());
}

TEST(Params, RhoForWidthMatchesTheory) {
  // rho approaches 1/c for large w and stays below 1.
  EXPECT_LT(RhoForWidth(4.0, 2.0), 0.5);
  EXPECT_GT(RhoForWidth(4.0, 2.0), 0.4);
  EXPECT_LT(RhoForWidth(16.0, 2.0), RhoForWidth(1.0, 2.0));
}

TEST(Fingerprint, SplitRoundTrips) {
  const FingerprintScheme fp{12};
  const uint32_t h = 0xdeadbeef;
  EXPECT_EQ(fp.TableIndex(h), h & 0xfff);
  EXPECT_EQ(fp.Fingerprint(h), h >> 12);
  EXPECT_EQ((fp.Fingerprint(h) << 12) | fp.TableIndex(h), h);
  EXPECT_EQ(fp.fingerprint_bits(), 20u);
  EXPECT_EQ(fp.table_slots(), 4096u);
}

TEST(Fingerprint, DefaultSlightlyBelowLog2N) {
  EXPECT_EQ(FingerprintScheme::ForDatabaseSize(1 << 16).u, 14u);
  EXPECT_EQ(FingerprintScheme::ForDatabaseSize(1000000).u, 17u);  // log2 ~ 19.9
  EXPECT_EQ(FingerprintScheme::ForDatabaseSize(100).u, 8u);       // clamped low
  EXPECT_EQ(FingerprintScheme::ForDatabaseSize(1ULL << 40).u, 28u);  // clamped
}

TEST(HashFamily, DeterministicForSameSeed) {
  E2lshConfig cfg;
  cfg.rho = 0.25;
  cfg.seed = 777;
  auto params = ComputeParams(5000, 16, cfg);
  ASSERT_TRUE(params.ok());
  HashFamily fam1(16, *params), fam2(16, *params);
  util::Rng rng(10);
  const auto p = RandomPoint(16, rng);
  std::vector<uint32_t> h1(params->L), h2(params->L);
  for (uint32_t r = 0; r < params->num_radii(); ++r) {
    fam1.HashAll(r, p.data(), h1.data());
    fam2.HashAll(r, p.data(), h2.data());
    EXPECT_EQ(h1, h2);
  }
}

TEST(HashFamily, BucketWidthScalesWithRadius) {
  E2lshConfig cfg;
  cfg.rho = 0.2;
  auto params = ComputeParams(5000, 16, cfg);
  ASSERT_TRUE(params.ok());
  HashFamily fam(16, *params);
  // Component width at radius index r is w * c^r.
  for (uint32_t r = 0; r < params->num_radii(); ++r) {
    EXPECT_NEAR(fam.w(r), params->w * params->radii[r], 1e-9);
  }
}

TEST(HashFamily, WiderBucketsCatchFartherNeighbors) {
  // At a large radius, two points at distance ~4 should nearly always
  // fold equal; at radius 1 they almost never should.
  E2lshConfig cfg;
  cfg.rho = 0.2;
  cfg.x_max = 4.0;
  auto params = ComputeParams(5000, 32, cfg);
  ASSERT_TRUE(params.ok());
  HashFamily fam(32, *params);
  util::Rng rng(11);
  int near_radius_collisions = 0, far_radius_collisions = 0;
  const uint32_t last = params->num_radii() - 1;
  std::vector<uint32_t> hp(params->L), hq(params->L);
  for (int t = 0; t < 200; ++t) {
    const auto p = RandomPoint(32, rng, 2.0);
    const auto q = PointAtDistance(p, 4.0, rng);
    const uint32_t l = static_cast<uint32_t>(t) % params->L;
    fam.HashAll(0, p.data(), hp.data());
    fam.HashAll(0, q.data(), hq.data());
    near_radius_collisions += hp[l] == hq[l];
    fam.HashAll(last, p.data(), hp.data());
    fam.HashAll(last, q.data(), hq.data());
    far_radius_collisions += hp[l] == hq[l];
  }
  EXPECT_LT(near_radius_collisions, 20);
  EXPECT_GT(far_radius_collisions, 120);
}

// Property sweep: the empirical compound collision probability at the
// design distances brackets (p2^m, p1^m) as the theory requires.
struct CollisionCase {
  double w;
  double dist;
};

class CompoundCollisionTest : public ::testing::TestWithParam<CollisionCase> {};

TEST_P(CompoundCollisionTest, EmpiricalRateNearTheory) {
  const auto [w, dist] = GetParam();
  const uint32_t d = 48;
  const uint32_t m = 4;
  util::Rng rng(12);
  int collisions = 0;
  const int trials = 3000;
  for (int t = 0; t < trials; ++t) {
    CompoundHash g(d, m, w, rng);
    const auto p = RandomPoint(d, rng);
    const auto q = PointAtDistance(p, dist, rng);
    collisions += g.Hash32(p.data()) == g.Hash32(q.data());
  }
  const double single = CollisionProbability(w / dist);
  const double expected = std::pow(single, m);
  EXPECT_NEAR(static_cast<double>(collisions) / trials, expected,
              0.03 + 3.0 * std::sqrt(expected * (1 - expected) / trials));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CompoundCollisionTest,
    ::testing::Values(CollisionCase{2.0, 1.0}, CollisionCase{4.0, 1.0},
                      CollisionCase{4.0, 2.0}, CollisionCase{8.0, 1.0},
                      CollisionCase{8.0, 4.0}, CollisionCase{16.0, 2.0}));

// ---------------------------------------------------------------------------
// Packed projection kernels: every path this host runs is bit-identical to
// util::Dot and to the scalar floor step, so hash values never depend on
// the CPU.
// ---------------------------------------------------------------------------

uint32_t Bits(float v) {
  uint32_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

constexpr uint32_t kDims[] = {1, 7, 13, 100, 128, 960};

TEST(ProjectionKernels, ScalarIsAlwaysSupportedAndFirst) {
  const auto supported = kernels::Supported();
  ASSERT_FALSE(supported.empty());
  EXPECT_STREQ(supported.front().name, "scalar");
  EXPECT_STREQ(kernels::Active().name, supported.back().name);
}

TEST(ProjectionKernels, EveryKernelMatchesDotAndScalarFloors) {
  util::Rng rng(31);
  for (const uint32_t d : kDims) {
    for (const uint32_t funcs : {1u, 21u, 64u, 105u, 252u, 333u}) {
      const uint32_t stride =
          (funcs + kernels::kFuncPad - 1) / kernels::kFuncPad * kernels::kFuncPad;
      std::vector<float> mat(static_cast<size_t>(d) * stride, 0.f);
      std::vector<double> b(stride, 0.0);
      for (uint32_t f = 0; f < funcs; ++f) {
        for (uint32_t i = 0; i < d; ++i) {
          mat[static_cast<size_t>(i) * stride + f] = static_cast<float>(rng.Gaussian());
        }
        b[f] = rng.Uniform(0.0, 4.0);
      }
      const auto o = RandomPoint(d, rng, 3.0);
      // The reference: one util::Dot per function over its own vector.
      std::vector<float> want(funcs);
      std::vector<float> row(d);
      for (uint32_t f = 0; f < funcs; ++f) {
        for (uint32_t i = 0; i < d; ++i) row[i] = mat[static_cast<size_t>(i) * stride + f];
        want[f] = util::Dot(row.data(), o.data(), d);
      }
      std::vector<int32_t> want_floors(stride);
      kernels::Supported().front().floors(want.data(), b.data(), 4.0, funcs / 16 * 16,
                                          want_floors.data());
      for (uint32_t f = funcs / 16 * 16; f < funcs; ++f) {
        want_floors[f] = static_cast<int32_t>(
            std::floor((static_cast<double>(want[f]) + b[f]) / 4.0));
      }
      for (const auto& k : kernels::Supported()) {
        std::vector<float> dots(stride, -1.f);
        k.dots(mat.data(), stride, o.data(), d, stride, dots.data());
        std::vector<int32_t> floors(stride);
        k.floors(dots.data(), b.data(), 4.0, stride, floors.data());
        for (uint32_t f = 0; f < funcs; ++f) {
          ASSERT_EQ(Bits(dots[f]), Bits(want[f]))
              << k.name << " d=" << d << " funcs=" << funcs << " f=" << f;
          ASSERT_EQ(floors[f], want_floors[f])
              << k.name << " d=" << d << " funcs=" << funcs << " f=" << f;
        }
        // Padding functions have zero coefficients: their dot is +0.
        for (uint32_t f = funcs; f < stride; ++f) EXPECT_EQ(dots[f], 0.f) << k.name;
      }
    }
  }
}

TEST(ProjectionKernels, KernelsAgreeOnAColumnWindow) {
  // HashAll hands a kernel the matrix from some column on (mat + begin):
  // the result must not depend on where the window starts.
  util::Rng rng(32);
  const uint32_t d = 13, stride = 64;
  std::vector<float> mat(static_cast<size_t>(d) * stride);
  for (auto& v : mat) v = static_cast<float>(rng.Gaussian());
  const auto o = RandomPoint(d, rng);
  std::vector<float> full(stride), window(32);
  for (const auto& k : kernels::Supported()) {
    k.dots(mat.data(), stride, o.data(), d, stride, full.data());
    k.dots(mat.data() + 16, stride, o.data(), d, 32, window.data());
    for (uint32_t f = 0; f < 32; ++f) EXPECT_EQ(Bits(window[f]), Bits(full[16 + f])) << k.name;
  }
}

// The compound hashes HashFamily(dim, params) must equal, function for
// function, CompoundHash objects drawn in the same order from the same seed.
TEST(HashFamily, HashAllMatchesCompoundHashReference) {
  util::Rng prng(33);
  for (const uint32_t d : kDims) {
    for (const auto& [L, m] : {std::pair<uint32_t, uint32_t>{1, 1}, {3, 7}, {12, 21}, {5, 13}}) {
      E2lshParams params;
      params.w = 4.0;
      params.seed = 1000 + d + L * m;
      params.L = L;
      params.m = m;
      params.radii = {1.0, 2.0, 8.0};
      HashFamily fam(d, params);
      util::Rng master(params.seed);
      std::vector<std::vector<CompoundHash>> ref(params.num_radii());
      for (uint32_t r = 0; r < params.num_radii(); ++r) {
        for (uint32_t l = 0; l < L; ++l) {
          util::Rng child = master.Fork();
          ref[r].emplace_back(d, m, params.w * params.radii[r], child);
        }
      }
      std::vector<uint32_t> out(L);
      std::vector<double> proj(static_cast<size_t>(L) * m);
      std::vector<int32_t> floors(m);
      for (int t = 0; t < 20; ++t) {
        const auto p = RandomPoint(d, prng, 0.5 + t);
        for (uint32_t r = 0; r < params.num_radii(); ++r) {
          fam.HashAll(r, p.data(), out.data());
          fam.ProjectAll(r, p.data(), proj.data());
          for (uint32_t l = 0; l < L; ++l) {
            ASSERT_EQ(out[l], ref[r][l].Hash32(p.data()))
                << "d=" << d << " L=" << L << " m=" << m << " r=" << r << " l=" << l;
            for (uint32_t j = 0; j < m; ++j) {
              floors[j] = static_cast<int32_t>(std::floor(proj[l * m + j]));
            }
            EXPECT_EQ(CompoundHash::Fold(floors.data(), m), out[l]);
          }
        }
      }
    }
  }
}

// Pinned outputs, recorded with the per-function hash before the packed
// kernels existed: the same seed must keep producing the same tables.
E2lshParams PinnedParams() {
  E2lshParams p;
  p.c = 2.0;
  p.w = 4.0;
  p.seed = 20230328;
  p.m = 10;
  p.L = 9;
  p.radii = {1.0, 2.0, 4.0, 8.0};
  return p;
}

std::vector<float> PinnedPoint(uint32_t d) {
  std::vector<float> p(d);
  for (uint32_t i = 0; i < d; ++i) p[i] = static_cast<float>(i % 7) * 0.375f - 1.125f;
  return p;
}

TEST(HashFamily, HashAllMatchesPinnedValues) {
  struct Pinned {
    uint32_t d, r;
    std::vector<uint32_t> hashes;
  };
  const Pinned pinned[] = {
      {13, 0, {0xf575708eu, 0xfd8ba110u, 0x1fb39531u, 0x01afed67u, 0x52478a58u,
               0x605a54e7u, 0xebb05b1cu, 0x40c64da3u, 0xb2f10d3au}},
      {128, 0, {0x85b297ffu, 0x600bd089u, 0xf8769fd9u, 0x2fdc4e96u, 0x9b590260u,
                0xe349d55eu, 0x75640cafu, 0x4bbb012du, 0xeff7abc7u}},
      {128, 3, {0xf5bbe302u, 0x01afed67u, 0x78d74678u, 0xcef159d2u, 0x9049b2beu,
                0x9a8d75bcu, 0xdcc8518fu, 0xe63b0f90u, 0x9049b2beu}},
  };
  const E2lshParams params = PinnedParams();
  for (const auto& want : pinned) {
    HashFamily fam(want.d, params);
    const auto p = PinnedPoint(want.d);
    std::vector<uint32_t> out(params.L);
    fam.HashAll(want.r, p.data(), out.data());
    EXPECT_EQ(out, want.hashes) << "d=" << want.d << " r=" << want.r;
  }
}

TEST(HashFamily, MemoryBytesCountsEveryFunction) {
  const E2lshParams params = PinnedParams();
  HashFamily fam(128, params);
  EXPECT_EQ(fam.MemoryBytes(), 4ull * 9 * 10 * (128 * sizeof(float) + 2 * sizeof(double)));
}


}  // namespace
}  // namespace e2lshos::lsh
