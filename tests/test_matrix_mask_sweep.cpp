/// Matrix-op write-semantics sweep: every combination of
///   mask kind   {none, value, structure, complement(value),
///                complement(structure)}
/// x accumulate  {none, Plus}
/// x output ctl  {Merge, Replace}
/// is run for mxm, eWiseAdd, eWiseMult and select on MATRIX outputs,
/// differentially: the GpuSim backend must produce the sequential backend's
/// result pattern- and value-exactly, and CpuPar must reproduce its bytes
/// at 1 and 4 workers. (The sequential backend's own semantics are pinned
/// against an independent reference model in test_mask_sweep.cpp.) Matrix
/// assign (from a matrix and from a scalar) and extract run the same sweep
/// with GrB_ALL as the rows, the columns or both: on every backend each
/// result must be byte-identical to the call with explicit identity arrays.

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "backend_cpupar/pool.hpp"
#include "gbtl/gbtl.hpp"
#include "gpu_sim/thread_pool.hpp"
#include "spgemm_pin.hpp"

namespace {

using grb::IndexType;

enum class MaskKind {
  None,
  Value,
  Structure,
  ComplementValue,
  ComplementStructure
};
enum class AccumKind { None, Plus };
enum class OpKind { Mxm, EwiseAdd, EwiseMult, Select };

constexpr std::size_t kDim = 8;

template <typename Tag>
struct Problem {
  grb::Matrix<double, Tag> c0{kDim, kDim};
  grb::Matrix<double, Tag> a{kDim, kDim};
  grb::Matrix<double, Tag> b{kDim, kDim};
  grb::Matrix<bool, Tag> mask{kDim, kDim};
};

/// Materialize the same random problem for either backend.
template <typename Tag>
Problem<Tag> make_problem(unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> val(-4.0, 4.0);
  std::bernoulli_distribution keep(0.4), truthy(0.5);
  Problem<Tag> p;
  for (IndexType i = 0; i < kDim; ++i)
    for (IndexType j = 0; j < kDim; ++j) {
      if (keep(rng)) p.c0.setElement(i, j, val(rng));
      if (keep(rng)) p.a.setElement(i, j, val(rng));
      if (keep(rng)) p.b.setElement(i, j, val(rng));
      if (keep(rng)) p.mask.setElement(i, j, truthy(rng));
    }
  return p;
}

/// Call @p call(mask, accum) with the runtime-selected mask and accumulator.
template <typename Tag, typename Call>
void with_mask_accum(const Problem<Tag>& p, MaskKind mk, AccumKind ak,
                     Call&& call) {
  auto with_mask = [&](const auto& acc) {
    switch (mk) {
      case MaskKind::None: call(grb::NoMask{}, acc); break;
      case MaskKind::Value: call(p.mask, acc); break;
      case MaskKind::Structure: call(grb::structure(p.mask), acc); break;
      case MaskKind::ComplementValue:
        call(grb::complement(p.mask), acc);
        break;
      case MaskKind::ComplementStructure:
        call(grb::complement(grb::structure(p.mask)), acc);
        break;
    }
  };
  if (ak == AccumKind::None)
    with_mask(grb::NoAccumulate{});
  else
    with_mask(grb::Plus<double>{});
}

template <typename Tag>
void run_op(Problem<Tag>& p, OpKind op, MaskKind mk, AccumKind ak,
            grb::OutputControl outp) {
  with_mask_accum(p, mk, ak, [&](const auto& m, const auto& acc) {
    switch (op) {
      case OpKind::Mxm:
        grb::mxm(p.c0, m, acc, grb::ArithmeticSemiring<double>{}, p.a, p.b,
                 outp);
        break;
      case OpKind::EwiseAdd:
        grb::eWiseAdd(p.c0, m, acc, grb::Plus<double>{}, p.a, p.b, outp);
        break;
      case OpKind::EwiseMult:
        grb::eWiseMult(p.c0, m, acc, grb::Times<double>{}, p.a, p.b, outp);
        break;
      case OpKind::Select:
        grb::select(p.c0, m, acc,
                    [](IndexType i, IndexType j, double v) {
                      return j < i + 2 && v > -2.0;
                    },
                    p.a, outp);
        break;
    }
  });
}

void expect_same(const grb::Matrix<double, grb::GpuSim>& got,
                 const grb::Matrix<double, grb::Sequential>& want,
                 const std::string& label) {
  ASSERT_EQ(got.nvals(), want.nvals()) << label;
  for (IndexType i = 0; i < kDim; ++i)
    for (IndexType j = 0; j < kDim; ++j) {
      ASSERT_EQ(got.hasElement(i, j), want.hasElement(i, j))
          << label << " at (" << i << "," << j << ")";
      if (want.hasElement(i, j)) {
        EXPECT_DOUBLE_EQ(got.extractElement(i, j), want.extractElement(i, j))
            << label << " at (" << i << "," << j << ")";
      }
    }
}

struct Tuples {
  grb::IndexArrayType rows, cols;
  std::vector<double> vals;

  bool bytes_equal(const Tuples& o) const {
    return rows == o.rows && cols == o.cols && vals.size() == o.vals.size() &&
           std::memcmp(vals.data(), o.vals.data(),
                       vals.size() * sizeof(double)) == 0;
  }
};

template <typename Tag>
Tuples tuples_of(const grb::Matrix<double, Tag>& m) {
  Tuples t;
  m.extractTuples(t.rows, t.cols, t.vals);
  return t;
}

using Combo = std::tuple<int /*op*/, int /*mask*/, int /*accum*/,
                         int /*replace*/, unsigned /*seed*/>;

class MatrixMaskSweep : public ::testing::TestWithParam<Combo> {};

std::string combo_name(const ::testing::TestParamInfo<Combo>& info) {
  static const char* op_names[] = {"Mxm", "EwiseAdd", "EwiseMult", "Select"};
  static const char* mask_names[] = {"NoMask", "Value", "Structure",
                                     "ComplValue", "ComplStructure"};
  return std::string(op_names[std::get<0>(info.param)]) + "_" +
         mask_names[std::get<1>(info.param)] +
         (std::get<2>(info.param) ? "_PlusAccum" : "_NoAccum") +
         (std::get<3>(info.param) ? "_Replace" : "_Merge") + "_s" +
         std::to_string(std::get<4>(info.param));
}

/// Run the combo on a fresh problem of backend Tag; returns the output.
template <typename Tag>
Problem<Tag> run_combo(const Combo& c) {
  const auto [opi, mki, aki, repi, seed] = c;
  const unsigned s = seed * 7919u + opi * 1031u + mki * 131u + aki * 17u +
                     repi;
  auto p = make_problem<Tag>(s);
  run_op(p, static_cast<OpKind>(opi), static_cast<MaskKind>(mki),
         static_cast<AccumKind>(aki), repi ? grb::Replace : grb::Merge);
  return p;
}

TEST_P(MatrixMaskSweep, GpuMatchesSequential) {
  sparse::SpgemmModeGuard pin(
      spgemm_pin_from_env().value_or(sparse::spgemm_mode()));
  const auto seq = run_combo<grb::Sequential>(GetParam());
  const auto gpu = run_combo<grb::GpuSim>(GetParam());
  expect_same(gpu.c0, seq.c0, combo_name(::testing::TestParamInfo<Combo>(
                                  GetParam(), 0)));
}

TEST_P(MatrixMaskSweep, CpuParMatchesSequentialBytes) {
  const Tuples want = tuples_of(run_combo<grb::Sequential>(GetParam()).c0);
  for (const std::size_t workers : {1u, 4u}) {
    gpu_sim::ThreadPool pool(workers);
    grb::cpupar_backend::ScopedPool bind(pool);
    EXPECT_TRUE(
        tuples_of(run_combo<grb::CpuPar>(GetParam()).c0).bytes_equal(want))
        << "workers " << workers;
  }
}

// --- GrB_ALL against the explicit identity arrays ---------------------------

enum class IndexForm { Assign, AssignScalar, Extract };

using IndexCombo = std::tuple<int /*form*/, int /*mask*/, int /*accum*/,
                              int /*replace*/, unsigned /*seed*/>;

class MatrixIndexSweep : public ::testing::TestWithParam<IndexCombo> {};

std::string index_combo_name(
    const ::testing::TestParamInfo<IndexCombo>& info) {
  static const char* form_names[] = {"Assign", "AssignScalar", "Extract"};
  static const char* mask_names[] = {"NoMask", "Value", "Structure",
                                     "ComplValue", "ComplStructure"};
  return std::string(form_names[std::get<0>(info.param)]) + "_" +
         mask_names[std::get<1>(info.param)] +
         (std::get<2>(info.param) ? "_PlusAccum" : "_NoAccum") +
         (std::get<3>(info.param) ? "_Replace" : "_Merge") + "_s" +
         std::to_string(std::get<4>(info.param));
}

/// Run the combo's form on a fresh problem of backend Tag with the given
/// row and column index arguments; returns the output's bytes.
template <typename Tag, typename RowIdx, typename ColIdx>
Tuples run_index_form(const IndexCombo& c, const RowIdx& rows,
                      const ColIdx& cols) {
  const auto [formi, mki, aki, repi, seed] = c;
  auto p = make_problem<Tag>(seed * 7919u + formi * 1031u + mki * 131u +
                             aki * 17u + repi);
  const grb::OutputControl outp = repi ? grb::Replace : grb::Merge;
  with_mask_accum(p, static_cast<MaskKind>(mki), static_cast<AccumKind>(aki),
                  [&](const auto& m, const auto& acc) {
    switch (static_cast<IndexForm>(formi)) {
      case IndexForm::Assign:
        grb::assign(p.c0, m, acc, p.a, rows, cols, outp);
        break;
      case IndexForm::AssignScalar:
        grb::assign(p.c0, m, acc, 2.5, rows, cols, outp);
        break;
      case IndexForm::Extract:
        grb::extract(p.c0, m, acc, p.a, rows, cols, outp);
        break;
    }
  });
  return tuples_of(p.c0);
}

template <typename Tag>
void expect_grb_all_is_identity(const IndexCombo& c,
                                const std::string& backend) {
  const grb::IndexArrayType id = grb::all_indices(kDim);
  const Tuples want = run_index_form<Tag>(c, id, id);
  EXPECT_TRUE(run_index_form<Tag>(c, grb::GrB_ALL, id).bytes_equal(want))
      << backend << ": rows GrB_ALL";
  EXPECT_TRUE(run_index_form<Tag>(c, id, grb::GrB_ALL).bytes_equal(want))
      << backend << ": columns GrB_ALL";
  EXPECT_TRUE(
      run_index_form<Tag>(c, grb::GrB_ALL, grb::GrB_ALL).bytes_equal(want))
      << backend << ": both GrB_ALL";
}

TEST_P(MatrixIndexSweep, GrbAllMatchesIdentityArraysOnEveryBackend) {
  expect_grb_all_is_identity<grb::Sequential>(GetParam(), "sequential");
  expect_grb_all_is_identity<grb::CpuPar>(GetParam(), "cpupar");
  for (const auto mode : {sparse::FusionMode::Off, sparse::FusionMode::Fuse}) {
    sparse::FusionGuard guard(mode);
    expect_grb_all_is_identity<grb::GpuSim>(
        GetParam(),
        mode == sparse::FusionMode::Off ? "gpusim/off" : "gpusim/fuse");
  }
  expect_grb_all_is_identity<grb::GpuShard>(GetParam(), "gpushard");
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, MatrixIndexSweep,
    ::testing::Combine(::testing::Range(0, 3),   // assign / scalar / extract
                       ::testing::Range(0, 5),   // mask kinds
                       ::testing::Range(0, 2),   // accum kinds
                       ::testing::Range(0, 2),   // merge/replace
                       ::testing::Values(1u, 2u)),
    index_combo_name);

INSTANTIATE_TEST_SUITE_P(
    AllCombos, MatrixMaskSweep,
    ::testing::Combine(::testing::Range(0, 4),   // op kinds
                       ::testing::Range(0, 5),   // mask kinds
                       ::testing::Range(0, 2),   // accum kinds
                       ::testing::Range(0, 2),   // merge/replace
                       ::testing::Values(1u, 2u)),
    combo_name);

}  // namespace
