/// Unit tests for the shard-aware storage layer: the row-block planner and
/// its halo (column-span) annotation, the ShardedMatrix frontend surface,
/// single-shard passthrough equivalence with the monolithic GpuSim backend,
/// multi-shard mxv/vxm bit-exactness against the Sequential oracle (real
/// non-integer doubles — any re-association of the fold order fails the
/// memcmp), bit-exactness of every matrix op GpuShard delegates to the
/// single-device pipelines against the same oracle, the halo-exchange
/// DeviceStats counters, and the headline capability: serving a graph whose
/// CSR exceeds a single context's arena by spreading it over several
/// contexts.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/bfs.hpp"
#include "algorithms/connected_components.hpp"
#include "algorithms/sssp.hpp"
#include "gbtl/gbtl.hpp"
#include "gpu_sim/error.hpp"
#include "gpu_sim/placement.hpp"
#include "sparse/shard_plan.hpp"

namespace {

using grb::IndexArrayType;
using grb::IndexType;

// --------------------------------------------------------------------------
// Planner
// --------------------------------------------------------------------------

TEST(ShardPlan, CoversAllRowsContiguouslyAndBalancesNnz) {
  // Skewed degrees: row i has i+1 entries -> total 55 over 10 rows.
  IndexArrayType offsets{0};
  for (IndexType i = 0; i < 10; ++i)
    offsets.push_back(offsets.back() + i + 1);

  const auto plan = sparse::plan_shards(offsets.data(), 10, 3);
  ASSERT_EQ(plan.count(), 3u);
  EXPECT_EQ(plan.shards.front().row_begin, 0u);
  EXPECT_EQ(plan.shards.back().row_end, 10u);
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < plan.count(); ++s) {
    if (s > 0) {
      EXPECT_EQ(plan.shards[s].row_begin, plan.shards[s - 1].row_end);
    }
    total += plan.shards[s].nnz;
  }
  EXPECT_EQ(total, 55u);
  // Every cut sits within one row's degree of the ideal third (the planner
  // can't split a row). Ideal share is 55/3 ~ 18.3; max row degree is 10.
  for (const auto& sh : plan.shards) EXPECT_LE(sh.nnz, 18u + 10u);
}

TEST(ShardPlan, EmptyMatrixDegradesToEvenRowSplit) {
  IndexArrayType offsets(9, 0);  // 8 rows, no entries
  const auto plan = sparse::plan_shards(offsets.data(), 8, 4);
  ASSERT_EQ(plan.count(), 4u);
  for (const auto& sh : plan.shards) {
    EXPECT_EQ(sh.rows(), 2u);
    EXPECT_EQ(sh.nnz, 0u);
  }
}

TEST(ShardPlan, MoreShardsThanRowsLeavesTrailingShardsEmpty) {
  IndexArrayType offsets{0, 2, 4};  // 2 rows
  const auto plan = sparse::plan_shards(offsets.data(), 2, 4);
  ASSERT_EQ(plan.count(), 4u);
  EXPECT_EQ(plan.shards.back().row_end, 2u);
  std::size_t nonempty = 0;
  for (const auto& sh : plan.shards) nonempty += sh.rows() > 0 ? 1 : 0;
  EXPECT_LE(nonempty, 2u);
}

TEST(ShardPlan, ColSpansBoundExactlyTheReferencedColumns) {
  // Two rows per shard; shard 0 touches cols {1, 5}, shard 1 cols {0, 7}.
  IndexArrayType offsets{0, 1, 2, 3, 4};
  IndexArrayType cols{5, 1, 7, 0};
  auto plan = sparse::plan_shards(offsets.data(), 4, 2);
  ASSERT_EQ(plan.count(), 2u);
  sparse::annotate_col_spans(plan, offsets.data(), cols.data());
  EXPECT_EQ(plan.shards[0].col_begin, 1u);
  EXPECT_EQ(plan.shards[0].col_end, 6u);
  EXPECT_EQ(plan.shards[1].col_begin, 0u);
  EXPECT_EQ(plan.shards[1].col_end, 8u);
  EXPECT_EQ(plan.shards[0].halo_cols(), 5u);
}

TEST(ShardPlan, ChooseCountFollowsBudgetAndPin) {
  // No pin: ceil(bytes / budget), clamped to the device count. Mask any
  // GBTL_SHARDS the environment may carry (CI sets it for fuzz stages).
  sparse::ShardCountGuard unpin(0);
  EXPECT_EQ(sparse::choose_shard_count(100, 1, 10), 1u);   // one device
  EXPECT_EQ(sparse::choose_shard_count(100, 4, 30), 4u);   // ceil=4
  EXPECT_EQ(sparse::choose_shard_count(100, 4, 60), 2u);   // ceil=2
  EXPECT_EQ(sparse::choose_shard_count(10, 4, 60), 1u);    // fits one
  EXPECT_EQ(sparse::choose_shard_count(1000, 4, 60), 4u);  // clamped
  EXPECT_EQ(sparse::choose_shard_count(100, 4, 0), 4u);    // no budget info
  {
    sparse::ShardCountGuard pin(3);
    EXPECT_EQ(sparse::choose_shard_count(10, 1, 1000), 3u);  // pin verbatim
  }
  EXPECT_EQ(sparse::choose_shard_count(10, 4, 1000), 1u);  // guard restored
}

// --------------------------------------------------------------------------
// Fixtures for backend comparisons
// --------------------------------------------------------------------------

struct Coo {
  IndexType nrows = 0, ncols = 0;
  IndexArrayType r, c;
  std::vector<double> v;
};

/// Deterministic sprinkle of non-integer doubles; ~density of the slots.
Coo random_coo(IndexType nrows, IndexType ncols, double density,
               unsigned seed) {
  Coo g;
  g.nrows = nrows;
  g.ncols = ncols;
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> val(-2.0, 2.0);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (IndexType i = 0; i < nrows; ++i)
    for (IndexType j = 0; j < ncols; ++j)
      if (coin(rng) < density) {
        g.r.push_back(i);
        g.c.push_back(j);
        g.v.push_back(val(rng));
      }
  return g;
}

template <typename Tag>
grb::Matrix<double, Tag> to_backend(const Coo& g) {
  grb::Matrix<double, Tag> a(g.nrows, g.ncols);
  a.build(g.r, g.c, g.v);
  return a;
}

template <typename Tag>
grb::Vector<double, Tag> sparse_vector(IndexType n, double density,
                                       unsigned seed) {
  grb::Vector<double, Tag> u(n);
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> val(-2.0, 2.0);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (IndexType i = 0; i < n; ++i)
    if (coin(rng) < density) u.setElement(i, val(rng));
  return u;
}

template <typename TagA, typename TagB>
void expect_vectors_bit_exact(const grb::Vector<double, TagA>& a,
                              const grb::Vector<double, TagB>& b,
                              const char* what) {
  IndexArrayType ia, ib;
  std::vector<double> va, vb;
  a.extractTuples(ia, va);
  b.extractTuples(ib, vb);
  EXPECT_EQ(ia, ib) << what << ": structure differs";
  ASSERT_EQ(va.size(), vb.size()) << what;
  if (!va.empty()) {
    EXPECT_EQ(
        std::memcmp(va.data(), vb.data(), va.size() * sizeof(double)), 0)
        << what << ": values not bit-exact";
  }
}

// --------------------------------------------------------------------------
// ShardedMatrix frontend surface
// --------------------------------------------------------------------------

TEST(ShardedMatrix, BuildExtractElementOpsRoundTrip) {
  const Coo g = random_coo(17, 13, 0.2, 99);
  auto a = to_backend<grb::GpuShard>(g);
  EXPECT_EQ(a.nrows(), 17u);
  EXPECT_EQ(a.ncols(), 13u);
  EXPECT_EQ(a.nvals(), g.v.size());

  IndexArrayType r2, c2;
  std::vector<double> v2;
  a.extractTuples(r2, c2, v2);
  // Row-major sorted; rebuild a Sequential matrix and compare tuples.
  auto s = to_backend<grb::Sequential>(g);
  IndexArrayType rs, cs;
  std::vector<double> vs;
  s.extractTuples(rs, cs, vs);
  EXPECT_EQ(r2, rs);
  EXPECT_EQ(c2, cs);
  EXPECT_EQ(std::memcmp(v2.data(), vs.data(), vs.size() * sizeof(double)),
            0);

  a.setElement(3, 7, 1.25);
  EXPECT_TRUE(a.hasElement(3, 7));
  EXPECT_EQ(a.extractElement(3, 7), 1.25);
  a.removeElement(3, 7);
  EXPECT_FALSE(a.hasElement(3, 7));
  EXPECT_THROW((void)a.extractElement(3, 7), grb::NoValueException);
  EXPECT_THROW(a.setElement(17, 0, 1.0), grb::IndexOutOfBoundsException);
}

// --------------------------------------------------------------------------
// Passthrough + multi-shard equivalence
// --------------------------------------------------------------------------

class ShardedOps : public ::testing::Test {
 protected:
  void SetUp() override {
    placement_.emplace(
        std::vector<gpu_sim::Context*>{&gpu_sim::device(), &extra_});
  }
  void TearDown() override { placement_.reset(); }

  gpu_sim::Context extra_;
  std::optional<gpu_sim::ScopedPlacement> placement_;
};

TEST_F(ShardedOps, SingleShardPassthroughMatchesGpuSim) {
  const Coo g = random_coo(40, 40, 0.12, 7);
  auto gs = to_backend<grb::GpuSim>(g);
  auto sh = to_backend<grb::GpuShard>(g);
  auto u_gs = sparse_vector<grb::GpuSim>(40, 0.5, 21);
  auto u_sh = sparse_vector<grb::GpuShard>(40, 0.5, 21);

  sparse::ShardCountGuard pin(1);
  grb::Vector<double, grb::GpuSim> w_gs(40);
  grb::Vector<double, grb::GpuShard> w_sh(40);
  grb::mxv(w_gs, grb::NoMask{}, grb::NoAccumulate{},
           grb::ArithmeticSemiring<double>{}, gs, u_gs);
  grb::mxv(w_sh, grb::NoMask{}, grb::NoAccumulate{},
           grb::ArithmeticSemiring<double>{}, sh, u_sh);
  expect_vectors_bit_exact(w_sh, w_gs, "1-shard mxv");

  grb::vxm(w_gs, grb::NoMask{}, grb::NoAccumulate{},
           grb::ArithmeticSemiring<double>{}, u_gs, gs);
  grb::vxm(w_sh, grb::NoMask{}, grb::NoAccumulate{},
           grb::ArithmeticSemiring<double>{}, u_sh, sh);
  expect_vectors_bit_exact(w_sh, w_gs, "1-shard vxm");
}

TEST_F(ShardedOps, MultiShardMxvVxmBitExactVsSequential) {
  const Coo g = random_coo(61, 61, 0.15, 31);
  auto seq = to_backend<grb::Sequential>(g);
  auto sh = to_backend<grb::GpuShard>(g);
  auto u_seq = sparse_vector<grb::Sequential>(61, 0.4, 5);
  auto u_sh = sparse_vector<grb::GpuShard>(61, 0.4, 5);

  for (std::size_t count : {2u, 4u}) {
    sparse::ShardCountGuard pin(count);
    grb::Vector<double, grb::Sequential> w_seq(61);
    grb::Vector<double, grb::GpuShard> w_sh(61);

    grb::mxv(w_seq, grb::NoMask{}, grb::NoAccumulate{},
             grb::ArithmeticSemiring<double>{}, seq, u_seq);
    grb::mxv(w_sh, grb::NoMask{}, grb::NoAccumulate{},
             grb::ArithmeticSemiring<double>{}, sh, u_sh);
    expect_vectors_bit_exact(w_sh, w_seq, "n-shard mxv");

    // Accumulate a second product on top: exercises write_vector's accum
    // path over shard-gathered T̃.
    grb::mxv(w_seq, grb::NoMask{}, grb::Plus<double>{},
             grb::MinPlusSemiring<double>{}, seq, u_seq);
    grb::mxv(w_sh, grb::NoMask{}, grb::Plus<double>{},
             grb::MinPlusSemiring<double>{}, sh, u_sh);
    expect_vectors_bit_exact(w_sh, w_seq, "n-shard mxv accum");

    grb::vxm(w_seq, grb::NoMask{}, grb::NoAccumulate{},
             grb::ArithmeticSemiring<double>{}, u_seq, seq);
    grb::vxm(w_sh, grb::NoMask{}, grb::NoAccumulate{},
             grb::ArithmeticSemiring<double>{}, u_sh, sh);
    expect_vectors_bit_exact(w_sh, w_seq, "n-shard vxm");

    // Masked + replace over the sharded path.
    grb::Vector<double, grb::Sequential> m_seq(61);
    grb::Vector<double, grb::GpuShard> m_sh(61);
    for (IndexType i = 0; i < 61; i += 2) {
      m_seq.setElement(i, 1.0);
      m_sh.setElement(i, 1.0);
    }
    grb::vxm(w_seq, m_seq, grb::NoAccumulate{},
             grb::ArithmeticSemiring<double>{}, u_seq, seq, grb::Replace);
    grb::vxm(w_sh, m_sh, grb::NoAccumulate{},
             grb::ArithmeticSemiring<double>{}, u_sh, sh, grb::Replace);
    expect_vectors_bit_exact(w_sh, w_seq, "n-shard masked vxm");
  }
}

// --------------------------------------------------------------------------
// Delegated tier: every matrix op GpuShard runs through its home view
// --------------------------------------------------------------------------

/// Host image of one result: row-major tuples (`c` stays empty for vectors
/// and scalars).
struct Snapshot {
  std::string what;
  IndexArrayType r, c;
  std::vector<double> v;
};

/// Runs every matrix op GpuShard delegates to its home view on backend Tag
/// and records each result. The calls mix matrix masks (plain, complement,
/// structure; the mask stores some zeros), a Plus accumulator, Replace and
/// an aliased mxm. Every matrix result is n columns wide and is multiplied
/// into u as well: on GpuShard that mxv reads the row-block shards, so a
/// delegated write that left a shard slice stale shows up there.
template <typename Tag>
std::vector<Snapshot> run_delegated_ops() {
  using Mat = grb::Matrix<double, Tag>;
  using Vec = grb::Vector<double, Tag>;
  constexpr IndexType n = 24;
  Coo mask = random_coo(n, n, 0.3, 47);
  for (std::size_t k = 0; k < mask.v.size(); k += 3) mask.v[k] = 0.0;
  const auto A = to_backend<Tag>(random_coo(n, n, 0.2, 41));
  const auto B = to_backend<Tag>(random_coo(n, n, 0.2, 43));
  const auto M = to_backend<Tag>(mask);
  const auto S = to_backend<Tag>(random_coo(6, 6, 0.5, 67));
  const auto KA = to_backend<Tag>(random_coo(4, 4, 0.4, 59));  // KA (x) KB
  const auto KB = to_backend<Tag>(random_coo(6, 6, 0.3, 61));  // is n x n
  const auto u = sparse_vector<Tag>(n, 0.5, 53);
  const IndexArrayType rows6{1, 5, 9, 14, 20, 23}, cols6{22, 0, 7, 3, 18, 11};
  IndexArrayType perm, rot;  // n-long permutations
  for (IndexType i = 0; i < n; ++i) {
    perm.push_back(n - 1 - i);
    rot.push_back((5 * i + 3) % n);
  }
  const grb::ArithmeticSemiring<double> sr;
  const grb::Plus<double> plus;
  const grb::Times<double> times;
  const grb::NoMask none;
  const grb::NoAccumulate no_acc;

  std::vector<Snapshot> out;
  auto record_vec = [&](std::string what, const Vec& w) {
    out.push_back({std::move(what), {}, {}, {}});
    w.extractTuples(out.back().r, out.back().v);
  };
  auto record = [&](const std::string& what, const Mat& C) {
    out.push_back({what, {}, {}, {}});
    C.extractTuples(out.back().r, out.back().c, out.back().v);
    Vec w(C.nrows());
    grb::mxv(w, none, no_acc, sr, C, u);
    record_vec(what + ", then mxv", w);
  };

  Mat C(n, n);
  grb::mxm(C, none, no_acc, sr, A, B);
  record("mxm", C);
  grb::mxm(C, grb::complement(M), plus, sr, A, grb::transpose(B),
           grb::Replace);
  record("mxm <!M> accum replace, B'", C);
  grb::mxm(C, none, no_acc, sr, C, C);
  record("mxm aliased C = C C", C);

  Mat E(n, n);
  grb::eWiseAdd(E, M, no_acc, plus, A, B);
  record("eWiseAdd <M>", E);
  grb::eWiseMult(E, grb::structure(M), plus, times, A, B);
  record("eWiseMult <s(M)> accum", E);

  Mat P(n, n);
  grb::apply(P, none, no_acc, grb::AdditiveInverse<double>{}, A);
  record("apply", P);
  grb::applyIndexed(
      P, grb::complement(grb::structure(M)), plus,
      [](IndexType i, IndexType j, double v) {
        return 0.75 * v + 0.125 * static_cast<double>(i) -
               0.0625 * static_cast<double>(j);
      },
      B, grb::Replace);
  record("applyIndexed <!s(M)> accum replace", P);

  Mat T(n, n);
  grb::transpose(T, M, plus, A);
  record("transpose <M> accum", T);

  Mat X(n, n);
  grb::extract(X, none, no_acc, A, perm, rot);
  record("extract", X);

  Mat D = B;
  grb::assign(D, grb::complement(M), plus, S, rows6, cols6);
  record("assign <!M> accum", D);
  grb::assign(D, grb::structure(M), no_acc, 0.375, cols6, rows6,
              grb::Replace);
  record("assign constant <s(M)> replace", D);

  Mat K(n, n);
  grb::kronecker(K, M, plus, times, KA, KB);
  record("kronecker <M> accum", K);

  Mat L(n, n);
  grb::select(
      L, none, no_acc,
      [](IndexType i, IndexType j, double v) { return i >= j && v > -0.5; },
      A);
  record("select", L);

  Vec r(n);
  grb::reduce(r, none, no_acc, grb::PlusMonoid<double>{}, grb::transpose(A));
  record_vec("reduce A' to vector", r);
  double total = 0.5;
  grb::reduce(total, plus, grb::PlusMonoid<double>{}, A);
  out.push_back({"reduce A to scalar", {}, {}, {total}});
  Vec col(n);
  grb::extract(col, none, no_acc, A, perm, IndexType{5});
  record_vec("extract column", col);
  return out;
}

TEST_F(ShardedOps, DelegatedMatrixOpsBitExactVsSequential) {
  const auto want = run_delegated_ops<grb::Sequential>();
  for (const auto& w : want)
    EXPECT_FALSE(w.v.empty()) << w.what << ": the oracle result is empty";

  for (std::size_t count : {1u, 2u, 4u}) {
    sparse::ShardCountGuard pin(count);
    const auto got = run_delegated_ops<grb::GpuShard>();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t k = 0; k < got.size(); ++k) {
      SCOPED_TRACE(testing::Message()
                   << count << " shards: " << want[k].what);
      EXPECT_EQ(got[k].what, want[k].what);
      EXPECT_EQ(got[k].r, want[k].r) << "structure differs";
      EXPECT_EQ(got[k].c, want[k].c) << "structure differs";
      ASSERT_EQ(got[k].v.size(), want[k].v.size());
      if (!want[k].v.empty()) {
        EXPECT_EQ(std::memcmp(got[k].v.data(), want[k].v.data(),
                              want[k].v.size() * sizeof(double)),
                  0)
            << "values not bit-exact";
      }
    }
  }
}

TEST_F(ShardedOps, IterativeAlgorithmsRunUnchangedOnShards) {
  // Connected ring + chords so bfs/cc reach everything.
  Coo g;
  g.nrows = g.ncols = 48;
  auto add = [&](IndexType i, IndexType j, double w) {
    g.r.push_back(i);
    g.c.push_back(j);
    g.v.push_back(w);
  };
  for (IndexType i = 0; i < 48; ++i) {
    add(i, (i + 1) % 48, 1.0 + 0.125 * static_cast<double>(i % 7));
    add((i + 1) % 48, i, 1.0 + 0.125 * static_cast<double>(i % 7));
    if (i % 5 == 0) {
      add(i, (i + 17) % 48, 2.5);
      add((i + 17) % 48, i, 2.5);
    }
  }
  auto seq = to_backend<grb::Sequential>(g);
  auto sh = to_backend<grb::GpuShard>(g);

  sparse::ShardCountGuard pin(2);

  grb::Vector<IndexType, grb::Sequential> lv_seq(48);
  grb::Vector<IndexType, grb::GpuShard> lv_sh(48);
  algorithms::bfs_level(seq, 3, lv_seq);
  algorithms::bfs_level(sh, 3, lv_sh);
  IndexArrayType is, ish;
  std::vector<IndexType> vs, vsh;
  lv_seq.extractTuples(is, vs);
  lv_sh.extractTuples(ish, vsh);
  EXPECT_EQ(is, ish);
  EXPECT_EQ(vs, vsh);

  grb::Vector<double, grb::Sequential> d_seq(48);
  grb::Vector<double, grb::GpuShard> d_sh(48);
  algorithms::sssp(seq, 3, d_seq);
  algorithms::sssp(sh, 3, d_sh);
  expect_vectors_bit_exact(d_sh, d_seq, "sssp");

  grb::Vector<IndexType, grb::Sequential> cl_seq(48);
  grb::Vector<IndexType, grb::GpuShard> cl_sh(48);
  const auto n_seq = algorithms::connected_components(seq, cl_seq);
  const auto n_sh = algorithms::connected_components(sh, cl_sh);
  EXPECT_EQ(n_seq, n_sh);
  cl_seq.extractTuples(is, vs);
  cl_sh.extractTuples(ish, vsh);
  EXPECT_EQ(is, ish);
  EXPECT_EQ(vs, vsh);
}

TEST_F(ShardedOps, HaloCountersChargeTheExchange) {
  const Coo g = random_coo(50, 50, 0.2, 11);
  auto sh = to_backend<grb::GpuShard>(g);
  auto u = sparse_vector<grb::GpuShard>(50, 0.6, 13);
  grb::Vector<double, grb::GpuShard> w(50);

  sparse::ShardCountGuard pin(2);
  const auto before = gpu_sim::device().stats();
  grb::mxv(w, grb::NoMask{}, grb::NoAccumulate{},
           grb::ArithmeticSemiring<double>{}, sh, u);
  const auto delta = gpu_sim::device().stats() - before;
  // shards_active is a lifetime high-water mark (not differenced): earlier
  // tests in this binary may have fanned out wider, so bound from below.
  EXPECT_GE(delta.shards_active, 2u);
  EXPECT_GT(delta.halo_bytes_exchanged, 0u);
  // Shard 1's halo upload rides its transfer stream while shard 0's kernel
  // is still running — some exchange time must be hidden.
  EXPECT_GT(delta.halo_seconds_hidden, 0.0);
}

TEST(ShardedOversized, GraphBiggerThanOneArenaIsServedAcrossContexts) {
  // ~1.9k nnz -> CSR ~36 KB, CSR+CSC estimate ~72 KB. Give each context a
  // 32 KB arena: the monolithic device image cannot exist, two shards can.
  const Coo g = random_coo(96, 96, 0.2, 123);
  const std::uint64_t csr_bytes =
      (96 + 1) * sizeof(IndexType) +
      g.v.size() * (sizeof(IndexType) + sizeof(double));
  gpu_sim::DeviceProperties small;
  small.total_global_memory = (csr_bytes * 3) / 4;

  gpu_sim::Context home{small, /*worker_count=*/1};
  gpu_sim::Context second{small, /*worker_count=*/1};
  gpu_sim::ScopedDevice bind(home);
  gpu_sim::ScopedPlacement place({&home, &second});

  // Monolithic upload genuinely overflows the arena.
  EXPECT_THROW((void)to_backend<grb::GpuSim>(g), gpu_sim::DeviceBadAlloc);

  auto sh = to_backend<grb::GpuShard>(g);
  auto u = sparse_vector<grb::GpuShard>(96, 0.5, 77);
  grb::Vector<double, grb::GpuShard> w(96);
  grb::mxv(w, grb::NoMask{}, grb::NoAccumulate{},
           grb::ArithmeticSemiring<double>{}, sh, u);  // budget-driven plan

  EXPECT_GE(sh.impl().plan().count(), 2u)
      << "the budget heuristic must fan out an oversized graph";

  auto seq = to_backend<grb::Sequential>(g);
  auto u_seq = sparse_vector<grb::Sequential>(96, 0.5, 77);
  grb::Vector<double, grb::Sequential> w_seq(96);
  grb::mxv(w_seq, grb::NoMask{}, grb::NoAccumulate{},
           grb::ArithmeticSemiring<double>{}, seq, u_seq);
  expect_vectors_bit_exact(w, w_seq, "oversized mxv");
}

}  // namespace
