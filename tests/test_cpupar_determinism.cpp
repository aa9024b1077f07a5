/// CpuPar determinism regression: the parallel CPU backend must produce
/// BYTE-identical results (stored pattern and raw value bits, memcmp) under
/// any worker count, across repeated runs, and against the Sequential
/// backend — the contract backend_cpupar/pool.hpp documents and the serving
/// layer's bit-exactness guarantee stands on. Unlike the differential fuzz
/// sweep this deliberately uses irrational real-valued weights, so any
/// cross-thread reassociation of a floating-point fold (which exact
/// integer-valued fuzzing cannot see) flips result bits here.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "algorithms/pagerank.hpp"
#include "backend_cpupar/pool.hpp"
#include "gbtl/gbtl.hpp"
#include "gpu_sim/thread_pool.hpp"

namespace {

using grb::IndexArrayType;
using grb::IndexType;

constexpr std::size_t kWorkerCounts[] = {1, 2, 8};
constexpr int kRuns = 16;

struct Tuples {
  IndexArrayType idx;
  std::vector<double> vals;

  bool bytes_equal(const Tuples& other) const {
    return idx == other.idx && vals.size() == other.vals.size() &&
           std::memcmp(vals.data(), other.vals.data(),
                       vals.size() * sizeof(double)) == 0;
  }
};

/// Seeded uniform digraph with real-valued (non-integer) weights: sums over
/// these are inexact, so they detect any change in combination order.
template <typename Tag>
grb::Matrix<double, Tag> random_graph(unsigned seed, IndexType n,
                                      IndexType out_degree) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<IndexType> vertex(0, n - 1);
  std::uniform_real_distribution<double> weight(0.1, 1.0);
  IndexArrayType rows, cols;
  std::vector<double> vals;
  for (IndexType i = 0; i < n; ++i)
    for (IndexType d = 0; d < out_degree; ++d) {
      rows.push_back(i);
      cols.push_back(vertex(rng));
      vals.push_back(weight(rng));
    }
  grb::Matrix<double, Tag> a(n, n);
  a.build(rows, cols, vals, grb::Plus<double>{});  // merge duplicate cells
  return a;
}

template <typename Tag>
grb::Vector<double, Tag> random_vector(unsigned seed, IndexType n) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> weight(0.1, 1.0);
  std::bernoulli_distribution keep(0.7);
  grb::Vector<double, Tag> u(n);
  for (IndexType i = 0; i < n; ++i)
    if (keep(rng)) u.setElement(i, weight(rng));
  return u;
}

template <typename Tag>
Tuples run_pagerank(unsigned seed) {
  const auto a = random_graph<Tag>(seed, 300, 6);
  grb::Vector<double, Tag> rank(a.nrows());
  algorithms::pagerank(a, rank, 0.85, 1e-12, 40);
  Tuples t;
  rank.extractTuples(t.idx, t.vals);
  return t;
}

template <typename Tag>
Tuples run_vxm(unsigned seed) {
  const auto a = random_graph<Tag>(seed, 300, 6);
  const auto u = random_vector<Tag>(seed + 1, a.nrows());
  grb::Vector<double, Tag> w(a.ncols());
  grb::vxm(w, grb::NoMask{}, grb::NoAccumulate{},
           grb::ArithmeticSemiring<double>{}, u, a);
  Tuples t;
  w.extractTuples(t.idx, t.vals);
  return t;
}

template <typename Tag>
Tuples run_mxm_reduce(unsigned seed) {
  // A*A then a row reduction: covers the Gustavson chunked path and the
  // row-parallel monoid fold in one go.
  const auto a = random_graph<Tag>(seed, 120, 5);
  grb::Matrix<double, Tag> c(a.nrows(), a.ncols());
  grb::mxm(c, grb::NoMask{}, grb::NoAccumulate{},
           grb::ArithmeticSemiring<double>{}, a, a);
  grb::Vector<double, Tag> w(c.nrows());
  grb::reduce(w, grb::NoMask{}, grb::NoAccumulate{}, grb::PlusMonoid<double>{},
              c);
  Tuples t;
  w.extractTuples(t.idx, t.vals);
  return t;
}

template <typename Tag>
Tuples run_masked_mxm(unsigned seed) {
  // A*A under A's own structure: the mask-seeded Gustavson, on enough rows
  // (three kRowChunk chunks) that several workers run it at once.
  const auto a = random_graph<Tag>(seed, 2500, 4);
  grb::Matrix<double, Tag> c(a.nrows(), a.ncols());
  grb::mxm(c, grb::structure(a), grb::NoAccumulate{},
           grb::ArithmeticSemiring<double>{}, a, a);
  IndexArrayType rows, cols;
  Tuples t;
  c.extractTuples(rows, cols, t.vals);
  for (std::size_t k = 0; k < rows.size(); ++k)
    t.idx.push_back(rows[k] * a.ncols() + cols[k]);
  return t;
}

class CpuParDeterminism : public ::testing::TestWithParam<unsigned> {};

/// Same graph + seed, 16 runs under pools of 1, 2, and 8 workers: every run
/// byte-identical to the Sequential reference.
TEST_P(CpuParDeterminism, PageRankByteIdenticalAcrossWorkerCounts) {
  const unsigned seed = 7100 + GetParam();
  const Tuples want = run_pagerank<grb::Sequential>(seed);
  ASSERT_FALSE(want.idx.empty());
  for (const std::size_t workers : kWorkerCounts) {
    gpu_sim::ThreadPool pool(workers);
    grb::cpupar_backend::ScopedPool bind(pool);
    for (int run = 0; run < kRuns; ++run) {
      const Tuples got = run_pagerank<grb::CpuPar>(seed);
      ASSERT_TRUE(got.bytes_equal(want))
          << "pagerank diverged from sequential bytes: seed " << seed
          << ", workers " << workers << ", run " << run;
    }
  }
}

TEST_P(CpuParDeterminism, VxmByteIdenticalAcrossWorkerCounts) {
  const unsigned seed = 7200 + GetParam();
  const Tuples want = run_vxm<grb::Sequential>(seed);
  for (const std::size_t workers : kWorkerCounts) {
    gpu_sim::ThreadPool pool(workers);
    grb::cpupar_backend::ScopedPool bind(pool);
    for (int run = 0; run < kRuns; ++run) {
      const Tuples got = run_vxm<grb::CpuPar>(seed);
      ASSERT_TRUE(got.bytes_equal(want))
          << "vxm diverged from sequential bytes: seed " << seed
          << ", workers " << workers << ", run " << run;
    }
  }
}

TEST_P(CpuParDeterminism, MxmReduceByteIdenticalAcrossWorkerCounts) {
  const unsigned seed = 7300 + GetParam();
  const Tuples want = run_mxm_reduce<grb::Sequential>(seed);
  for (const std::size_t workers : kWorkerCounts) {
    gpu_sim::ThreadPool pool(workers);
    grb::cpupar_backend::ScopedPool bind(pool);
    for (int run = 0; run < kRuns; ++run) {
      const Tuples got = run_mxm_reduce<grb::CpuPar>(seed);
      ASSERT_TRUE(got.bytes_equal(want))
          << "mxm+reduce diverged from sequential bytes: seed " << seed
          << ", workers " << workers << ", run " << run;
    }
  }
}

TEST_P(CpuParDeterminism, MaskedMxmByteIdenticalAcrossWorkerCounts) {
  const unsigned seed = 7400 + GetParam();
  const Tuples want = run_masked_mxm<grb::Sequential>(seed);
  ASSERT_FALSE(want.idx.empty());
  for (const std::size_t workers : kWorkerCounts) {
    gpu_sim::ThreadPool pool(workers);
    grb::cpupar_backend::ScopedPool bind(pool);
    for (int run = 0; run < kRuns; ++run) {
      const Tuples got = run_masked_mxm<grb::CpuPar>(seed);
      ASSERT_TRUE(got.bytes_equal(want))
          << "masked mxm diverged from sequential bytes: seed " << seed
          << ", workers " << workers << ", run " << run;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CpuParDeterminism, ::testing::Range(0u, 3u));

/// The GBTL_CPUPAR_THREADS override and clamp logic of
/// default_worker_count() — pool sizing must be predictable, since the
/// determinism contract is what makes it *safe* to vary.
TEST(CpuParPool, DefaultWorkerCountHonorsEnvOverride) {
  // The harness itself may run under a GBTL_CPUPAR_THREADS override (the
  // TSan CI stage does exactly that): stash and restore it.
  const char* ambient = std::getenv("GBTL_CPUPAR_THREADS");
  const std::string saved = ambient ? ambient : "";
  unsetenv("GBTL_CPUPAR_THREADS");
  const std::size_t base = grb::cpupar_backend::default_worker_count();
  EXPECT_GE(base, 1u);
  EXPECT_LE(base, 8u);
  ASSERT_EQ(setenv("GBTL_CPUPAR_THREADS", "5", 1), 0);
  EXPECT_EQ(grb::cpupar_backend::default_worker_count(), 5u);
  ASSERT_EQ(setenv("GBTL_CPUPAR_THREADS", "0", 1), 0);  // invalid -> fallback
  EXPECT_EQ(grb::cpupar_backend::default_worker_count(), base);
  if (ambient)
    setenv("GBTL_CPUPAR_THREADS", saved.c_str(), 1);
  else
    unsetenv("GBTL_CPUPAR_THREADS");
}

TEST(CpuParPool, ScopedPoolRebindsAndRestores) {
  gpu_sim::ThreadPool outer(2), inner(4);
  {
    grb::cpupar_backend::ScopedPool bind_outer(outer);
    EXPECT_EQ(&grb::cpupar_backend::pool(), &outer);
    {
      grb::cpupar_backend::ScopedPool bind_inner(inner);
      EXPECT_EQ(&grb::cpupar_backend::pool(), &inner);
    }
    EXPECT_EQ(&grb::cpupar_backend::pool(), &outer);
  }
  EXPECT_NE(&grb::cpupar_backend::pool(), &outer);
  EXPECT_NE(&grb::cpupar_backend::pool(), &inner);
}

}  // namespace
