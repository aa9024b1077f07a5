/// CpuPar determinism regression: the parallel CPU backend must produce
/// BYTE-identical results (stored pattern and raw value bits, memcmp) under
/// any worker count, across repeated runs, and against the Sequential
/// backend — the contract backend_cpupar/pool.hpp documents and the serving
/// layer's bit-exactness guarantee stands on. Unlike the differential fuzz
/// sweep this deliberately uses irrational real-valued weights, so any
/// cross-thread reassociation of a floating-point fold (which exact
/// integer-valued fuzzing cannot see) flips result bits here. The
/// CpuParBorrowedOps suite runs every op CpuPar borrows from the Sequential
/// bodies on outputs spanning several chunks, under a valued mask and an
/// accumulator, so each op's chunked loop and its chunked epilogue are both
/// compared.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "algorithms/pagerank.hpp"
#include "backend_cpupar/pool.hpp"
#include "gbtl/gbtl.hpp"
#include "gbtl/overlay_ops.hpp"
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

/// Seeded nrows x ncols matrix, @p per_row entries per row, with
/// real-valued (non-integer) weights: sums over these are inexact, so they
/// detect any change in combination order. A share @p zeros of the entries
/// is stored as 0.0, which a valued mask reads as false.
template <typename Tag>
grb::Matrix<double, Tag> random_matrix(unsigned seed, IndexType nrows,
                                       IndexType ncols, IndexType per_row,
                                       double zeros = 0.0) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<IndexType> column(0, ncols - 1);
  std::uniform_real_distribution<double> weight(0.1, 1.0);
  std::bernoulli_distribution zero(zeros);
  IndexArrayType rows, cols;
  std::vector<double> vals;
  for (IndexType i = 0; i < nrows; ++i)
    for (IndexType d = 0; d < per_row; ++d) {
      rows.push_back(i);
      cols.push_back(column(rng));
      vals.push_back(weight(rng));
      if (zeros > 0.0 && zero(rng)) vals.back() = 0.0;
    }
  grb::Matrix<double, Tag> a(nrows, ncols);
  a.build(rows, cols, vals, grb::Plus<double>{});  // merge duplicate cells
  return a;
}

/// Seeded uniform digraph: random_matrix on n x n.
template <typename Tag>
grb::Matrix<double, Tag> random_graph(unsigned seed, IndexType n,
                                      IndexType out_degree) {
  return random_matrix<Tag>(seed, n, n, out_degree);
}

template <typename Tag>
grb::Vector<double, Tag> random_vector(unsigned seed, IndexType n,
                                       double zeros = 0.0) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> weight(0.1, 1.0);
  std::bernoulli_distribution keep(0.7);
  std::bernoulli_distribution zero(zeros);
  grb::Vector<double, Tag> u(n);
  for (IndexType i = 0; i < n; ++i)
    if (keep(rng)) u.setElement(i, zeros > 0.0 && zero(rng) ? 0.0 : weight(rng));
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

// ---------------------------------------------------------------------------
// Every op CpuPar borrows from Sequential, across several chunks
// ---------------------------------------------------------------------------

/// Rows of every output: four kVectorChunk chunks (the last one partial), so
/// each op's Exec::ranges loop and the pooled epilogue after it split
/// across workers. Narrow matrices keep a valued mask dense enough to meet
/// the result on about a third of its entries.
constexpr IndexType kRows = 1000;
constexpr IndexType kCols = 48;
constexpr int kChunkedRuns = 4;
static_assert(kRows >= 3 * grb::cpupar_backend::kVectorChunk);

/// A result's stored positions (row-major for matrices) and the raw bytes
/// of its values.
struct Snapshot {
  IndexArrayType idx;
  std::vector<unsigned char> bytes;

  bool bytes_equal(const Snapshot& other) const {
    return idx == other.idx && bytes.size() == other.bytes.size() &&
           std::memcmp(bytes.data(), other.bytes.data(), bytes.size()) == 0;
  }
};

template <typename T>
void append_bytes(Snapshot& s, const std::vector<T>& vals) {
  for (const T v : vals) {  // by value: vector<bool> hands out proxies
    unsigned char raw[sizeof(T)];
    std::memcpy(raw, &v, sizeof(T));
    s.bytes.insert(s.bytes.end(), raw, raw + sizeof(T));
  }
}

template <typename T, typename Tag>
Snapshot snapshot(const grb::Vector<T, Tag>& w) {
  Snapshot s;
  std::vector<T> vals;
  w.extractTuples(s.idx, vals);
  append_bytes(s, vals);
  return s;
}

template <typename T, typename Tag>
Snapshot snapshot(const grb::Matrix<T, Tag>& c) {
  Snapshot s;
  IndexArrayType rows, cols;
  std::vector<T> vals;
  c.extractTuples(rows, cols, vals);
  for (std::size_t k = 0; k < rows.size(); ++k)
    s.idx.push_back(rows[k] * c.ncols() + cols[k]);
  append_bytes(s, vals);
  return s;
}

/// @p count indices drawn from [0, bound), repeats allowed.
IndexArrayType random_indices(unsigned seed, std::size_t count,
                              IndexType bound) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<IndexType> pick(0, bound - 1);
  IndexArrayType idx(count);
  for (auto& i : idx) i = pick(rng);
  return idx;
}

/// Replacement rows in every chunk of a kRows-row matrix, one of them
/// emptied, with real-valued weights.
grb::MatrixOverlay<double> random_overlay(unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> weight(0.1, 1.0);
  grb::MatrixOverlay<double> ov;
  for (const IndexType r : {3, 255, 256, 511, 600, 767, 999}) {
    ov.rows.push_back(r);
    if (r != 600)
      for (IndexType c = r % 5; c < kCols; c += 5) {
        ov.cols.push_back(c);
        ov.vals.push_back(weight(rng));
      }
    ov.offsets.push_back(ov.cols.size());
  }
  return ov;
}

enum class Borrowed {
  kEWiseAddVec, kEWiseMultVec, kEWiseAddMat, kEWiseMultMat,
  kApplyVec, kApplyMat, kApplyIndexedVec, kApplyIndexedMat,
  kSelectVec, kSelectMat, kReduceMatToVec,
  kExtractVec, kExtractMat, kExtractCol,
  kAssignVec, kAssignVecConstant, kAssignMat, kAssignMatConstant,
  kTranspose, kKronecker, kMxv, kMxvOverlay, kApplyToBool,
};

constexpr const char* kBorrowedNames[] = {
    "EWiseAddVec", "EWiseMultVec", "EWiseAddMat", "EWiseMultMat",
    "ApplyVec", "ApplyMat", "ApplyIndexedVec", "ApplyIndexedMat",
    "SelectVec", "SelectMat", "ReduceMatToVec",
    "ExtractVec", "ExtractMat", "ExtractCol",
    "AssignVec", "AssignVecConstant", "AssignMat", "AssignMatConstant",
    "Transpose", "Kronecker", "Mxv", "MxvOverlay", "ApplyToBool",
};

/// One borrowed op on seeded operands, under a valued mask (a third of its
/// entries stored zeros) and a Plus accumulator over a prefilled output.
template <typename Tag>
Snapshot run_borrowed(Borrowed op, unsigned seed) {
  const auto a = random_matrix<Tag>(seed, kRows, kCols, 6);
  // Denser than a, so that a ∩ b and each column of b reach most rows.
  const auto b = random_matrix<Tag>(seed + 1, kRows, kCols, 24);
  const auto u = random_vector<Tag>(seed + 2, kRows);
  const auto v = random_vector<Tag>(seed + 3, kRows);
  const auto mask = random_vector<Tag>(seed + 4, kRows, 0.3);
  const auto mmask = random_matrix<Tag>(seed + 5, kRows, kCols, 16, 0.3);
  auto w = random_vector<Tag>(seed + 6, kRows);
  auto c = random_matrix<Tag>(seed + 7, kRows, kCols, 4);
  const grb::Plus<double> plus;
  const grb::Times<double> times;

  switch (op) {
    case Borrowed::kEWiseAddVec:
      grb::eWiseAdd(w, mask, plus, times, u, v);
      return snapshot(w);
    case Borrowed::kEWiseMultVec:
      grb::eWiseMult(w, mask, plus, times, u, v);
      return snapshot(w);
    case Borrowed::kEWiseAddMat:
      grb::eWiseAdd(c, mmask, plus, times, a, b);
      return snapshot(c);
    case Borrowed::kEWiseMultMat:
      grb::eWiseMult(c, mmask, plus, times, a, b);
      return snapshot(c);
    case Borrowed::kApplyVec:
      grb::apply(w, mask, plus, [](double x) { return x * 0.7 + 0.3; }, u);
      return snapshot(w);
    case Borrowed::kApplyMat:
      grb::apply(c, mmask, plus, [](double x) { return x * 0.7 + 0.3; }, a);
      return snapshot(c);
    case Borrowed::kApplyIndexedVec:
      grb::applyIndexed(
          w, mask, plus,
          [](IndexType i, double x) { return x / static_cast<double>(i + 3); },
          u);
      return snapshot(w);
    case Borrowed::kApplyIndexedMat:
      grb::applyIndexed(c, mmask, plus,
                        [](IndexType i, IndexType j, double x) {
                          return x / static_cast<double>(i + j + 3);
                        },
                        a);
      return snapshot(c);
    case Borrowed::kSelectVec:
      grb::select(w, mask, plus,
                  [](IndexType i, double x) { return i % 3 != 0 && x > 0.3; },
                  u);
      return snapshot(w);
    case Borrowed::kSelectMat:
      grb::select(c, mmask, plus,
                  [](IndexType i, IndexType j, double x) {
                    return (i + j) % 3 != 0 && x > 0.3;
                  },
                  a);
      return snapshot(c);
    case Borrowed::kReduceMatToVec:
      grb::reduce(w, mask, plus, grb::PlusMonoid<double>{}, a);
      return snapshot(w);
    case Borrowed::kExtractVec:
      grb::extract(w, mask, plus, u, random_indices(seed + 8, kRows, kRows));
      return snapshot(w);
    case Borrowed::kExtractMat:
      grb::extract(c, mmask, plus, a, random_indices(seed + 8, kRows, kRows),
                   random_indices(seed + 9, kCols, kCols));
      return snapshot(c);
    case Borrowed::kExtractCol:
      grb::extract(w, mask, plus, b, random_indices(seed + 8, kRows, kRows),
                   IndexType{7});
      return snapshot(w);
    case Borrowed::kAssignVec:
      grb::assign(w, mask, plus, random_vector<Tag>(seed + 8, 700),
                  random_indices(seed + 9, 700, kRows));
      return snapshot(w);
    case Borrowed::kAssignVecConstant:
      grb::assign(w, mask, plus, 0.37, random_indices(seed + 8, 700, kRows));
      return snapshot(w);
    case Borrowed::kAssignMat:
      grb::assign(c, mmask, plus, random_matrix<Tag>(seed + 8, 700, 30, 6),
                  random_indices(seed + 9, 700, kRows),
                  random_indices(seed + 10, 30, kCols));
      return snapshot(c);
    case Borrowed::kAssignMatConstant:
      grb::assign(c, mmask, plus, 0.37, random_indices(seed + 8, 500, kRows),
                  random_indices(seed + 9, 10, kCols));
      return snapshot(c);
    case Borrowed::kTranspose:
      grb::transpose(c, mmask, plus,
                     random_matrix<Tag>(seed + 8, kCols, kRows, 120));
      return snapshot(c);
    case Borrowed::kKronecker: {
      // A's kRows rows split; C has 2 * kRows rows.
      auto ck = random_matrix<Tag>(seed + 8, 2 * kRows, 3 * 16, 4);
      grb::kronecker(ck,
                     random_matrix<Tag>(seed + 9, 2 * kRows, 3 * 16, 16, 0.3),
                     plus, times, random_matrix<Tag>(seed + 10, kRows, 16, 3),
                     random_matrix<Tag>(seed + 11, 2, 3, 3));
      return snapshot(ck);
    }
    case Borrowed::kMxv:
      grb::mxv(w, mask, plus, grb::ArithmeticSemiring<double>{}, a,
               random_vector<Tag>(seed + 8, kCols));
      return snapshot(w);
    case Borrowed::kMxvOverlay:
      grb::mxv_overlay(w, mask, plus, grb::ArithmeticSemiring<double>{}, a,
                       random_overlay(seed + 8),
                       random_vector<Tag>(seed + 9, kCols));
      return snapshot(w);
    case Borrowed::kApplyToBool: {
      // A bool output: two chunks writing one word of vector<bool> storage
      // would race here under TSan.
      grb::Vector<bool, Tag> flags(kRows);
      for (IndexType i = 0; i < kRows; i += 3) flags.setElement(i, i % 2 == 0);
      grb::apply(flags, mask, grb::Plus<bool>{},
                 [](double x) { return x > 0.5; }, u);
      return snapshot(flags);
    }
  }
  ADD_FAILURE() << "unknown op";
  return {};
}

class CpuParBorrowedOps : public ::testing::TestWithParam<int> {};

/// Each borrowed op: byte-identical to Sequential at 1, 2 and 8 workers.
/// Three seeds, so that a slot at a chunk boundary which one seed's mask
/// happens to hide is written under another's.
TEST_P(CpuParBorrowedOps, ByteIdenticalAcrossChunksAndWorkerCounts) {
  const auto op = static_cast<Borrowed>(GetParam());
  for (unsigned s = 0; s < 3; ++s) {
    const unsigned seed = 7500 + 16 * static_cast<unsigned>(GetParam()) + s;
    const Snapshot want = run_borrowed<grb::Sequential>(op, seed);
    ASSERT_FALSE(want.idx.empty());
    for (const std::size_t workers : kWorkerCounts) {
      gpu_sim::ThreadPool pool(workers);
      grb::cpupar_backend::ScopedPool bind(pool);
      for (int run = 0; run < kChunkedRuns; ++run) {
        const Snapshot got = run_borrowed<grb::CpuPar>(op, seed);
        ASSERT_TRUE(got.bytes_equal(want))
            << kBorrowedNames[GetParam()]
            << " diverged from sequential bytes: seed " << seed
            << ", workers " << workers << ", run " << run;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ops, CpuParBorrowedOps,
    ::testing::Range(0, static_cast<int>(std::size(kBorrowedNames))),
    [](const ::testing::TestParamInfo<int>& info) {
      return std::string(kBorrowedNames[info.param]);
    });

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
