/// Randomized cross-backend equivalence: for every operation, random
/// operands (random shapes, densities, masks, accumulators, output
/// contents) are evaluated on the sequential oracle and the GPU backend,
/// and results are compared tuple-for-tuple. This is the property suite
/// that makes the simulated CUDA backend trustworthy.

#include <gtest/gtest.h>

#include <random>

#include "gbtl/gbtl.hpp"

namespace {

using grb::IndexArrayType;
using grb::IndexType;
using grb::NoAccumulate;
using grb::NoMask;

struct RandomCase {
  unsigned seed;
};

class Equivalence : public ::testing::TestWithParam<unsigned> {
 protected:
  std::mt19937 rng{GetParam()};

  IndexType dim() {
    return std::uniform_int_distribution<IndexType>(1, 24)(rng);
  }
  double density() {
    return std::uniform_real_distribution<double>(0.05, 0.6)(rng);
  }

  /// Random sparse matrix produced simultaneously on both backends.
  template <typename T>
  std::pair<grb::Matrix<T, grb::Sequential>, grb::Matrix<T, grb::GpuSim>>
  random_matrix(IndexType nrows, IndexType ncols) {
    std::uniform_real_distribution<double> val(-4.0, 4.0);
    std::bernoulli_distribution keep(density());
    IndexArrayType rows, cols;
    std::vector<T> vals;
    for (IndexType i = 0; i < nrows; ++i)
      for (IndexType j = 0; j < ncols; ++j)
        if (keep(rng)) {
          rows.push_back(i);
          cols.push_back(j);
          vals.push_back(static_cast<T>(val(rng)));
        }
    grb::Matrix<T, grb::Sequential> s(nrows, ncols);
    s.build(rows, cols, vals, grb::Second<T>{});
    grb::Matrix<T, grb::GpuSim> g(nrows, ncols);
    g.build(rows, cols, vals, grb::Second<T>{});
    return {std::move(s), std::move(g)};
  }

  template <typename T>
  std::pair<grb::Vector<T, grb::Sequential>, grb::Vector<T, grb::GpuSim>>
  random_vector(IndexType n) {
    std::uniform_real_distribution<double> val(-4.0, 4.0);
    std::bernoulli_distribution keep(density());
    IndexArrayType idx;
    std::vector<T> vals;
    for (IndexType i = 0; i < n; ++i)
      if (keep(rng)) {
        idx.push_back(i);
        vals.push_back(static_cast<T>(val(rng)));
      }
    grb::Vector<T, grb::Sequential> s(n);
    s.build(idx, vals, grb::Second<T>{});
    grb::Vector<T, grb::GpuSim> g(n);
    g.build(idx, vals, grb::Second<T>{});
    return {std::move(s), std::move(g)};
  }

  template <typename T>
  static void expect_same(const grb::Matrix<T, grb::Sequential>& s,
                          const grb::Matrix<T, grb::GpuSim>& g) {
    IndexArrayType sr, sc, gr, gc;
    std::vector<T> sv, gv;
    s.extractTuples(sr, sc, sv);
    g.extractTuples(gr, gc, gv);
    ASSERT_EQ(sr, gr);
    ASSERT_EQ(sc, gc);
    ASSERT_EQ(sv.size(), gv.size());
    for (std::size_t k = 0; k < sv.size(); ++k)
      EXPECT_NEAR(sv[k], gv[k], 1e-9) << "value index " << k;
  }

  template <typename T>
  static void expect_same(const grb::Vector<T, grb::Sequential>& s,
                          const grb::Vector<T, grb::GpuSim>& g) {
    IndexArrayType si, gi;
    std::vector<T> sv, gv;
    s.extractTuples(si, sv);
    g.extractTuples(gi, gv);
    ASSERT_EQ(si, gi);
    ASSERT_EQ(sv.size(), gv.size());
    for (std::size_t k = 0; k < sv.size(); ++k)
      EXPECT_NEAR(sv[k], gv[k], 1e-9) << "value index " << k;
  }
};

TEST_P(Equivalence, Mxm) {
  const IndexType m = dim(), k = dim(), n = dim();
  auto [sa, ga] = random_matrix<double>(m, k);
  auto [sb, gb] = random_matrix<double>(k, n);
  auto [sc, gc] = random_matrix<double>(m, n);
  grb::mxm(sc, NoMask{}, NoAccumulate{}, grb::ArithmeticSemiring<double>{},
           sa, sb);
  grb::mxm(gc, NoMask{}, NoAccumulate{}, grb::ArithmeticSemiring<double>{},
           ga, gb);
  expect_same(sc, gc);
}

TEST_P(Equivalence, MxmMaskedAccumReplace) {
  const IndexType n = dim();
  auto [sa, ga] = random_matrix<double>(n, n);
  auto [sm, gm] = random_matrix<std::uint8_t>(n, n);
  auto [sc, gc] = random_matrix<double>(n, n);
  grb::mxm(sc, sm, grb::Plus<double>{}, grb::ArithmeticSemiring<double>{},
           sa, sa, grb::Replace);
  grb::mxm(gc, gm, grb::Plus<double>{}, grb::ArithmeticSemiring<double>{},
           ga, ga, grb::Replace);
  expect_same(sc, gc);
}

TEST_P(Equivalence, MxmComplementMaskMerge) {
  const IndexType n = dim();
  auto [sa, ga] = random_matrix<double>(n, n);
  auto [sm, gm] = random_matrix<std::uint8_t>(n, n);
  auto [sc, gc] = random_matrix<double>(n, n);
  grb::mxm(sc, grb::complement(sm), NoAccumulate{},
           grb::ArithmeticSemiring<double>{}, sa, sa, grb::Merge);
  grb::mxm(gc, grb::complement(gm), NoAccumulate{},
           grb::ArithmeticSemiring<double>{}, ga, ga, grb::Merge);
  expect_same(sc, gc);
}

TEST_P(Equivalence, MxmMinPlus) {
  const IndexType n = dim();
  auto [sa, ga] = random_matrix<double>(n, n);
  auto [sc, gc] = random_matrix<double>(n, n);
  grb::mxm(sc, NoMask{}, NoAccumulate{}, grb::MinPlusSemiring<double>{}, sa,
           sa);
  grb::mxm(gc, NoMask{}, NoAccumulate{}, grb::MinPlusSemiring<double>{}, ga,
           ga);
  expect_same(sc, gc);
}

TEST_P(Equivalence, MxvAndVxmWithMasks) {
  const IndexType m = dim(), n = dim();
  auto [sa, ga] = random_matrix<double>(m, n);
  auto [su, gu] = random_vector<double>(n);
  auto [sw, gw] = random_vector<double>(m);
  auto [smask, gmask] = random_vector<std::uint8_t>(m);
  grb::mxv(sw, smask, grb::Plus<double>{}, grb::ArithmeticSemiring<double>{},
           sa, su, grb::Merge);
  grb::mxv(gw, gmask, grb::Plus<double>{}, grb::ArithmeticSemiring<double>{},
           ga, gu, grb::Merge);
  expect_same(sw, gw);

  auto [su2, gu2] = random_vector<double>(m);
  auto [sw2, gw2] = random_vector<double>(n);
  grb::vxm(sw2, NoMask{}, NoAccumulate{}, grb::MinPlusSemiring<double>{},
           su2, sa, grb::Replace);
  grb::vxm(gw2, NoMask{}, NoAccumulate{}, grb::MinPlusSemiring<double>{},
           gu2, ga, grb::Replace);
  expect_same(sw2, gw2);
}

TEST_P(Equivalence, EwiseMatrixOps) {
  const IndexType m = dim(), n = dim();
  auto [sa, ga] = random_matrix<double>(m, n);
  auto [sb, gb] = random_matrix<double>(m, n);
  auto [sc, gc] = random_matrix<double>(m, n);
  grb::eWiseAdd(sc, NoMask{}, NoAccumulate{}, grb::Plus<double>{}, sa, sb);
  grb::eWiseAdd(gc, NoMask{}, NoAccumulate{}, grb::Plus<double>{}, ga, gb);
  expect_same(sc, gc);

  grb::eWiseMult(sc, NoMask{}, NoAccumulate{}, grb::Times<double>{}, sa, sb);
  grb::eWiseMult(gc, NoMask{}, NoAccumulate{}, grb::Times<double>{}, ga, gb);
  expect_same(sc, gc);
}

TEST_P(Equivalence, EwiseVectorOpsWithStructureMask) {
  const IndexType n = dim();
  auto [su, gu] = random_vector<double>(n);
  auto [sv, gv] = random_vector<double>(n);
  auto [sw, gw] = random_vector<double>(n);
  auto [sm, gm] = random_vector<std::uint8_t>(n);
  grb::eWiseAdd(sw, grb::structure(sm), grb::Min<double>{},
                grb::Max<double>{}, su, sv, grb::Replace);
  grb::eWiseAdd(gw, grb::structure(gm), grb::Min<double>{},
                grb::Max<double>{}, gu, gv, grb::Replace);
  expect_same(sw, gw);

  grb::eWiseMult(sw, grb::complement(grb::structure(sm)), NoAccumulate{},
                 grb::Plus<double>{}, su, sv, grb::Merge);
  grb::eWiseMult(gw, grb::complement(grb::structure(gm)), NoAccumulate{},
                 grb::Plus<double>{}, gu, gv, grb::Merge);
  expect_same(sw, gw);
}

TEST_P(Equivalence, ApplyAndReduce) {
  const IndexType m = dim(), n = dim();
  auto [sa, ga] = random_matrix<double>(m, n);
  auto [sc, gc] = random_matrix<double>(m, n);
  grb::apply(sc, NoMask{}, NoAccumulate{}, grb::AdditiveInverse<double>{},
             sa);
  grb::apply(gc, NoMask{}, NoAccumulate{}, grb::AdditiveInverse<double>{},
             ga);
  expect_same(sc, gc);

  auto [sw, gw] = random_vector<double>(m);
  grb::reduce(sw, NoMask{}, grb::Plus<double>{}, grb::PlusMonoid<double>{},
              sa);
  grb::reduce(gw, NoMask{}, grb::Plus<double>{}, grb::PlusMonoid<double>{},
              ga);
  expect_same(sw, gw);

  double ss = 0, gs = 0;
  grb::reduce(ss, NoAccumulate{}, grb::MaxMonoid<double>{}, sa);
  grb::reduce(gs, NoAccumulate{}, grb::MaxMonoid<double>{}, ga);
  EXPECT_NEAR(ss, gs, 1e-9);
}

TEST_P(Equivalence, TransposeOp) {
  const IndexType m = dim(), n = dim();
  auto [sa, ga] = random_matrix<double>(m, n);
  grb::Matrix<double, grb::Sequential> st(n, m);
  grb::Matrix<double, grb::GpuSim> gt(n, m);
  grb::transpose(st, NoMask{}, NoAccumulate{}, sa);
  grb::transpose(gt, NoMask{}, NoAccumulate{}, ga);
  expect_same(st, gt);
}

TEST_P(Equivalence, ExtractAndAssign) {
  const IndexType n = std::max<IndexType>(dim(), 4);
  auto [sa, ga] = random_matrix<double>(n, n);

  IndexArrayType rows{0, n - 1, 1};
  IndexArrayType cols{n - 2, 0};
  grb::Matrix<double, grb::Sequential> ssub(3, 2);
  grb::Matrix<double, grb::GpuSim> gsub(3, 2);
  grb::extract(ssub, NoMask{}, NoAccumulate{}, sa, rows, cols);
  grb::extract(gsub, NoMask{}, NoAccumulate{}, ga, rows, cols);
  expect_same(ssub, gsub);

  auto [sc, gc] = random_matrix<double>(n, n);
  grb::assign(sc, NoMask{}, grb::Plus<double>{}, ssub, rows, cols);
  grb::assign(gc, NoMask{}, grb::Plus<double>{}, gsub, rows, cols);
  expect_same(sc, gc);

  auto [su, gu] = random_vector<double>(n);
  grb::Vector<double, grb::Sequential> sx(3);
  grb::Vector<double, grb::GpuSim> gx(3);
  grb::extract(sx, NoMask{}, NoAccumulate{}, su, rows);
  grb::extract(gx, NoMask{}, NoAccumulate{}, gu, rows);
  expect_same(sx, gx);

  auto [sw, gw] = random_vector<double>(n);
  grb::assign(sw, NoMask{}, NoAccumulate{}, sx, rows);
  grb::assign(gw, NoMask{}, NoAccumulate{}, gx, rows);
  expect_same(sw, gw);
}

TEST_P(Equivalence, ColumnExtractThroughTranspose) {
  const IndexType n = std::max<IndexType>(dim(), 3);
  auto [sa, ga] = random_matrix<double>(n, n);
  grb::Vector<double, grb::Sequential> srow(n);
  grb::Vector<double, grb::GpuSim> grow(n);
  const IndexType target = n / 2;
  grb::extract(srow, NoMask{}, NoAccumulate{}, grb::transpose(sa),
               grb::all_indices(n), target, grb::Replace);
  grb::extract(grow, NoMask{}, NoAccumulate{}, grb::transpose(ga),
               grb::all_indices(n), target, grb::Replace);
  expect_same(srow, grow);
}

TEST_P(Equivalence, KroneckerAndSelect) {
  const IndexType m = std::uniform_int_distribution<IndexType>(1, 6)(rng);
  const IndexType n = std::uniform_int_distribution<IndexType>(1, 6)(rng);
  auto [sa, ga] = random_matrix<double>(m, m);
  auto [sb, gb] = random_matrix<double>(n, n);
  grb::Matrix<double, grb::Sequential> sk(m * n, m * n);
  grb::Matrix<double, grb::GpuSim> gk(m * n, m * n);
  grb::kronecker(sk, NoMask{}, NoAccumulate{}, grb::Times<double>{}, sa, sb);
  grb::kronecker(gk, NoMask{}, NoAccumulate{}, grb::Times<double>{}, ga, gb);
  expect_same(sk, gk);

  auto pred = [](IndexType i, IndexType j, double v) {
    return (i + j) % 2 == 0 && v > 0.0;
  };
  grb::Matrix<double, grb::Sequential> ss(m * n, m * n);
  grb::Matrix<double, grb::GpuSim> gs(m * n, m * n);
  grb::select(ss, NoMask{}, NoAccumulate{}, pred, sk);
  grb::select(gs, NoMask{}, NoAccumulate{}, pred, gk);
  expect_same(ss, gs);
}

TEST_P(Equivalence, ConstantAssignWithComplementMask) {
  const IndexType n = dim();
  auto [sw, gw] = random_vector<double>(n);
  auto [sm, gm] = random_vector<std::uint8_t>(n);
  grb::assign(sw, grb::complement(grb::structure(sm)), NoAccumulate{}, 3.5,
              grb::all_indices(n));
  grb::assign(gw, grb::complement(grb::structure(gm)), NoAccumulate{}, 3.5,
              grb::all_indices(n));
  expect_same(sw, gw);
}

TEST_P(Equivalence, ApplyIndexedMatrixAndVector) {
  const IndexType m = dim(), n = dim();
  auto [sa, ga] = random_matrix<double>(m, n);
  auto [sc, gc] = random_matrix<double>(m, n);
  auto idx_op = [](IndexType i, IndexType j, double v) {
    return v * 0.5 + static_cast<double>(i) - static_cast<double>(j);
  };
  grb::applyIndexed(sc, NoMask{}, NoAccumulate{}, idx_op, sa);
  grb::applyIndexed(gc, NoMask{}, NoAccumulate{}, idx_op, ga);
  expect_same(sc, gc);

  auto [su, gu] = random_vector<double>(n);
  auto [sw, gw] = random_vector<double>(n);
  auto vec_op = [](IndexType i, double v) { return v + 10.0 * i; };
  grb::applyIndexed(sw, NoMask{}, grb::Plus<double>{}, vec_op, su,
                    grb::Replace);
  grb::applyIndexed(gw, NoMask{}, grb::Plus<double>{}, vec_op, gu,
                    grb::Replace);
  expect_same(sw, gw);
}

TEST_P(Equivalence, SelectVectorWithIndexPredicate) {
  const IndexType n = dim();
  auto [su, gu] = random_vector<double>(n);
  auto [sw, gw] = random_vector<double>(n);
  auto pred = [](IndexType i, double v) { return i % 2 == 0 && v < 1.0; };
  grb::select(sw, NoMask{}, NoAccumulate{}, pred, su, grb::Replace);
  grb::select(gw, NoMask{}, NoAccumulate{}, pred, gu, grb::Replace);
  expect_same(sw, gw);
}

TEST_P(Equivalence, ResizeShrinkGrow) {
  const IndexType n = std::max<IndexType>(dim(), 6);
  auto [sa, ga] = random_matrix<double>(n, n);
  sa.resize(n - 2, n - 3);
  ga.resize(n - 2, n - 3);
  expect_same(sa, ga);
  sa.resize(n + 4, n + 1);
  ga.resize(n + 4, n + 1);
  expect_same(sa, ga);

  auto [su, gu] = random_vector<double>(n);
  su.resize(n - 2);
  gu.resize(n - 2);
  expect_same(su, gu);
  su.resize(n + 3);
  gu.resize(n + 3);
  expect_same(su, gu);
}

TEST_P(Equivalence, MaskedConstantAssignFastPath) {
  // The GPU fast path for masked constant assign over GrB_ALL × GrB_ALL
  // must agree with the sequential reference, given the explicit identity
  // arrays, for value and structural masks.
  const IndexType n = dim();
  auto [sc, gc] = random_matrix<double>(n, n);
  auto [sm, gm] = random_matrix<std::uint8_t>(n, n);
  const auto rows = grb::all_indices(n);
  const auto all = grb::GrB_ALL;
  grb::assign(sc, sm, NoAccumulate{}, 7.5, rows, rows, grb::Merge);
  grb::assign(gc, gm, NoAccumulate{}, 7.5, all, all, grb::Merge);
  expect_same(sc, gc);

  auto [sc2, gc2] = random_matrix<double>(n, n);
  grb::assign(sc2, grb::structure(sm), NoAccumulate{}, -1.25, rows, rows,
              grb::Replace);
  grb::assign(gc2, grb::structure(gm), NoAccumulate{}, -1.25, all, all,
              grb::Replace);
  expect_same(sc2, gc2);
}

INSTANTIATE_TEST_SUITE_P(Sweep, Equivalence,
                         ::testing::Range(100u, 112u));

}  // namespace
