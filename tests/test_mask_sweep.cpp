/// Exhaustive write-semantics sweep: every combination of
///   mask kind   {none, value, structure, complement(value),
///                complement(structure)}
/// x accumulate  {none, Plus}
/// x output ctl  {Merge, Replace}
/// is run for eWiseAdd (vector) and apply (matrix) on BOTH backends and
/// compared against a self-contained reference model of the GraphBLAS
/// pipeline written directly in this file (dense optional arrays). The same
/// sweep runs every vector form of assign/extract with GrB_ALL on every
/// backend: each result must be byte-identical to the call that passes the
/// explicit identity array.

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <random>
#include <tuple>
#include <vector>

#include "gbtl/gbtl.hpp"

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

const char* name(MaskKind m) {
  switch (m) {
    case MaskKind::None: return "none";
    case MaskKind::Value: return "value";
    case MaskKind::Structure: return "structure";
    case MaskKind::ComplementValue: return "complement-value";
    case MaskKind::ComplementStructure: return "complement-structure";
  }
  return "?";
}

using Dense = std::vector<std::optional<double>>;
using DenseMask = std::vector<std::optional<bool>>;

/// Reference implementation of the GraphBLAS write pipeline for a
/// union-with-plus T̃ (eWiseAdd) — written independently of the library.
Dense reference_ewise_add(const Dense& w0, const Dense& u, const Dense& v,
                          const DenseMask& mask, MaskKind mk, AccumKind ak,
                          bool replace) {
  const std::size_t n = w0.size();
  Dense t(n), z(n), out(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (u[i] && v[i])
      t[i] = *u[i] + *v[i];
    else if (u[i])
      t[i] = u[i];
    else if (v[i])
      t[i] = v[i];
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (ak == AccumKind::None) {
      z[i] = t[i];
    } else {
      if (w0[i] && t[i])
        z[i] = *w0[i] + *t[i];
      else if (t[i])
        z[i] = t[i];
      else
        z[i] = w0[i];
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    bool allowed = true;
    if (mk != MaskKind::None) {
      bool present = mask[i].has_value();
      bool truthy = present && (mk == MaskKind::Structure ||
                                mk == MaskKind::ComplementStructure
                                    ? true
                                    : *mask[i]);
      bool base = present && truthy;
      allowed = (mk == MaskKind::ComplementValue ||
                 mk == MaskKind::ComplementStructure)
                    ? !base
                    : base;
    }
    if (allowed)
      out[i] = z[i];
    else
      out[i] = replace ? std::nullopt : w0[i];
  }
  return out;
}

template <typename Tag>
grb::Vector<double, Tag> to_vec(const Dense& d) {
  grb::Vector<double, Tag> v(d.size());
  for (std::size_t i = 0; i < d.size(); ++i)
    if (d[i]) v.setElement(i, *d[i]);
  return v;
}

template <typename Tag>
grb::Vector<bool, Tag> to_mask(const DenseMask& d) {
  grb::Vector<bool, Tag> v(d.size());
  for (std::size_t i = 0; i < d.size(); ++i)
    if (d[i]) v.setElement(i, *d[i]);
  return v;
}

template <typename Tag>
void expect_matches(const grb::Vector<double, Tag>& got, const Dense& want,
                    const std::string& label) {
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got.hasElement(i), want[i].has_value())
        << label << " position " << i;
    if (want[i]) {
      EXPECT_DOUBLE_EQ(got.extractElement(i), *want[i])
          << label << " position " << i;
    }
  }
}

/// Call @p call(mask, accum) with the runtime-selected mask and accumulator.
template <typename Tag, typename Call>
void with_mask_accum(const grb::Vector<bool, Tag>& mask, MaskKind mk,
                     AccumKind ak, Call&& call) {
  auto with_mask = [&](const auto& acc) {
    switch (mk) {
      case MaskKind::None: call(grb::NoMask{}, acc); break;
      case MaskKind::Value: call(mask, acc); break;
      case MaskKind::Structure: call(grb::structure(mask), acc); break;
      case MaskKind::ComplementValue: call(grb::complement(mask), acc); break;
      case MaskKind::ComplementStructure:
        call(grb::complement(grb::structure(mask)), acc);
        break;
    }
  };
  if (ak == AccumKind::None)
    with_mask(grb::NoAccumulate{});
  else
    with_mask(grb::Plus<double>{});
}

/// Run the library with runtime-selected mask/accum/outp.
template <typename Tag>
void run_library(grb::Vector<double, Tag>& w,
                 const grb::Vector<bool, Tag>& mask,
                 const grb::Vector<double, Tag>& u,
                 const grb::Vector<double, Tag>& v, MaskKind mk,
                 AccumKind ak, grb::OutputControl outp) {
  with_mask_accum(mask, mk, ak, [&](const auto& m, const auto& acc) {
    grb::eWiseAdd(w, m, acc, grb::Plus<double>{}, u, v, outp);
  });
}

/// A vector's stored positions and the bytes of their values.
struct VecBytes {
  grb::IndexArrayType idx;
  std::vector<double> vals;

  bool operator==(const VecBytes& o) const {
    return idx == o.idx && vals.size() == o.vals.size() &&
           (vals.empty() || std::memcmp(vals.data(), o.vals.data(),
                                        vals.size() * sizeof(double)) == 0);
  }
};

/// The inputs of one index-form run: w0, u and mask as in the eWiseAdd
/// sweep, plus the columns of a matrix for the column gather.
struct IndexFormCase {
  Dense w0, u;
  DenseMask mask;
  std::vector<Dense> a_cols;
};

constexpr const char* kIndexForms[] = {"assign vector", "assign scalar",
                                       "extract vector", "extract column"};

/// Every vector form of assign/extract with index argument @p idx (GrB_ALL
/// or an explicit array), one result per form in kIndexForms order.
template <typename Tag, typename Idx>
std::vector<VecBytes> run_index_forms(const IndexFormCase& c, MaskKind mk,
                                      AccumKind ak, grb::OutputControl outp,
                                      const Idx& idx) {
  const IndexType n = c.w0.size();
  const auto mask = to_mask<Tag>(c.mask);
  const auto u = to_vec<Tag>(c.u);
  grb::Matrix<double, Tag> a(n, c.a_cols.size());
  for (IndexType j = 0; j < c.a_cols.size(); ++j)
    for (IndexType i = 0; i < n; ++i)
      if (c.a_cols[j][i]) a.setElement(i, j, *c.a_cols[j][i]);
  std::vector<VecBytes> out;
  const auto run = [&](const auto& op) {
    auto w = to_vec<Tag>(c.w0);
    with_mask_accum(mask, mk, ak,
                    [&](const auto& m, const auto& acc) { op(w, m, acc); });
    VecBytes b;
    w.extractTuples(b.idx, b.vals);
    out.push_back(std::move(b));
  };
  run([&](auto& w, const auto& m, const auto& acc) {
    grb::assign(w, m, acc, u, idx, outp);
  });
  run([&](auto& w, const auto& m, const auto& acc) {
    grb::assign(w, m, acc, 2.5, idx, outp);
  });
  run([&](auto& w, const auto& m, const auto& acc) {
    grb::extract(w, m, acc, u, idx, outp);
  });
  run([&](auto& w, const auto& m, const auto& acc) {
    grb::extract(w, m, acc, a, idx, IndexType{1}, outp);
  });
  return out;
}

using Combo = std::tuple<int /*mask*/, int /*accum*/, int /*replace*/,
                         unsigned /*seed*/>;

class MaskSweep : public ::testing::TestWithParam<Combo> {};

/// Test-name generator. Kept as a named function: lambdas with brace
/// initializers inside INSTANTIATE_TEST_SUITE_P would split the macro's
/// argument list at every brace-level comma.
std::string combo_name(const ::testing::TestParamInfo<Combo>& info) {
  static const char* mask_names[] = {"NoMask", "Value", "Structure",
                                     "ComplValue", "ComplStructure"};
  return std::string(mask_names[std::get<0>(info.param)]) +
         (std::get<1>(info.param) ? "_PlusAccum" : "_NoAccum") +
         (std::get<2>(info.param) ? "_Replace" : "_Merge") + "_s" +
         std::to_string(std::get<3>(info.param));
}

TEST_P(MaskSweep, EwiseAddVectorMatchesReferenceOnBothBackends) {
  const auto [mki, aki, repi, seed] = GetParam();
  const auto mk = static_cast<MaskKind>(mki);
  const auto ak = static_cast<AccumKind>(aki);
  const bool replace = repi != 0;

  std::mt19937 rng(seed * 7919u + mki * 131u + aki * 17u + repi);
  const std::size_t n = 16;
  std::uniform_real_distribution<double> val(-5.0, 5.0);
  std::bernoulli_distribution keep(0.5), truthy(0.5);

  Dense w0(n), u(n), v(n);
  DenseMask mask(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (keep(rng)) w0[i] = val(rng);
    if (keep(rng)) u[i] = val(rng);
    if (keep(rng)) v[i] = val(rng);
    if (keep(rng)) mask[i] = truthy(rng);
  }

  const Dense want = reference_ewise_add(w0, u, v, mask, mk, ak, replace);
  const std::string label = std::string("mask=") + name(mk) +
                            " accum=" + (ak == AccumKind::None ? "no" : "plus") +
                            " replace=" + (replace ? "yes" : "no");

  {
    auto w = to_vec<grb::Sequential>(w0);
    run_library(w, to_mask<grb::Sequential>(mask), to_vec<grb::Sequential>(u),
                to_vec<grb::Sequential>(v), mk, ak,
                replace ? grb::Replace : grb::Merge);
    expect_matches(w, want, "[seq] " + label);
  }
  {
    auto w = to_vec<grb::GpuSim>(w0);
    run_library(w, to_mask<grb::GpuSim>(mask), to_vec<grb::GpuSim>(u),
                to_vec<grb::GpuSim>(v), mk, ak,
                replace ? grb::Replace : grb::Merge);
    expect_matches(w, want, "[gpu] " + label);
  }
}

TEST_P(MaskSweep, GrbAllMatchesIdentityArrayOnEveryBackend) {
  const auto [mki, aki, repi, seed] = GetParam();
  const auto mk = static_cast<MaskKind>(mki);
  const auto ak = static_cast<AccumKind>(aki);
  const grb::OutputControl outp = repi != 0 ? grb::Replace : grb::Merge;

  std::mt19937 rng(seed * 104729u + mki * 131u + aki * 17u + repi);
  const std::size_t n = 16;
  std::uniform_real_distribution<double> val(-5.0, 5.0);
  std::bernoulli_distribution keep(0.5), truthy(0.5);
  IndexFormCase c{Dense(n), Dense(n), DenseMask(n),
                  std::vector<Dense>(3, Dense(n))};
  for (std::size_t i = 0; i < n; ++i) {
    if (keep(rng)) c.w0[i] = val(rng);
    if (keep(rng)) c.u[i] = val(rng);
    if (keep(rng)) c.mask[i] = truthy(rng);
    for (Dense& col : c.a_cols)
      if (keep(rng)) col[i] = val(rng);
  }
  const grb::IndexArrayType identity = grb::all_indices(n);

  const auto expect_same = [&](const std::string& backend, const auto& got,
                               const auto& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t f = 0; f < got.size(); ++f)
      EXPECT_TRUE(got[f] == want[f]) << backend << ": " << kIndexForms[f];
  };
  const auto sweep = [&]<typename Tag>(const std::string& backend) {
    expect_same(backend,
                run_index_forms<Tag>(c, mk, ak, outp, grb::GrB_ALL),
                run_index_forms<Tag>(c, mk, ak, outp, identity));
  };
  sweep.template operator()<grb::Sequential>("sequential");
  sweep.template operator()<grb::CpuPar>("cpupar");
  for (const auto mode : {sparse::FusionMode::Off, sparse::FusionMode::Fuse}) {
    sparse::FusionGuard guard(mode);
    sweep.template operator()<grb::GpuSim>(
        mode == sparse::FusionMode::Off ? "gpusim/off" : "gpusim/fuse");
  }
  sweep.template operator()<grb::GpuShard>("gpushard");
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, MaskSweep,
    ::testing::Combine(::testing::Range(0, 5),   // mask kinds
                       ::testing::Range(0, 2),   // accum kinds
                       ::testing::Range(0, 2),   // merge/replace
                       ::testing::Values(1u, 2u, 3u)),
    combo_name);

}  // namespace
