/// Differential fuzzing: seeded random COO graphs (banded, uniform,
/// power-law) x {semirings, masks incl. complement/structure, accumulators,
/// replace} run through mxv/vxm/mxm/eWiseAdd/eWiseMult on ALL THREE
/// registered backends (Sequential, CpuPar, GpuSim) and checked bit-for-bit
/// against a naive dense oracle that implements the GraphBLAS write
/// semantics (Z = accum(C,T), mask, Replace/Merge) with nothing shared with
/// any backend's sparse machinery. Failure messages name the dissenting
/// backend ("seq ..." / "cpupar ..." / "gpu ..."). The CpuPar legs run on a
/// real 3-worker pool bound by the fixture, so the cross-thread chunk paths
/// are exercised even on single-core CI machines.
///
/// Bit-for-bit equality across kernels with different summation orders is
/// made valid by fuzzing with integer-valued doubles in [-4, 4]: all
/// products and sums at these shapes are exactly representable, so floating
/// addition is associative on the fuzzed domain. mxv and vxm additionally
/// sweep every SpMV dispatch mode (adaptive, forced row-parallel, forced
/// load-balanced with a tiny chunk to force cross-team partial rows) — all
/// kernel variants must produce identical stored patterns and values.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <random>
#include <set>
#include <vector>

#include "algorithms/bfs.hpp"
#include "algorithms/sssp.hpp"
#include "backend_cpupar/pool.hpp"
#include "gbtl/gbtl.hpp"
#include "gbtl/overlay.hpp"
#include "gbtl/overlay_ops.hpp"
#include "gpu_sim/placement.hpp"
#include "gpu_sim/thread_pool.hpp"
#include "sparse/bitmap.hpp"
#include "sparse/fusion_plan.hpp"
#include "sparse/shard_plan.hpp"
#include "sparse/spgemm_select.hpp"
#include "sparse/spmv_select.hpp"
#include "spgemm_pin.hpp"

namespace {

using grb::IndexArrayType;
using grb::IndexType;
using grb::NoAccumulate;
using grb::NoMask;

// Five seeded cases per gtest instance; 40 instances per op = 200 seeded
// cases per op without exploding the ctest entry count.
constexpr unsigned kCasesPerInstance = 5;
constexpr unsigned kInstances = 40;

// mxv/vxm sweep every SpMV dispatch mode zipped with a traversal-direction
// pin AND a fusion-mode pin, so each run also exercises the push scatter /
// pull gather engines and the composite-launch chain rule alongside the
// kernel variants (a full cross product would multiply fuzz time for no new
// code paths: direction is chosen before the SpMV kernel, and the chain
// rule is a cost-model layer orthogonal to both).
struct GpuModeZip {
  sparse::SpmvMode spmv;
  sparse::DirectionMode direction;
  sparse::FusionMode fusion;
};
constexpr GpuModeZip kModePairs[] = {
    {sparse::SpmvMode::Adaptive, sparse::DirectionMode::Auto,
     sparse::FusionMode::Auto},
    {sparse::SpmvMode::ForceCsrScalar, sparse::DirectionMode::ForcePush,
     sparse::FusionMode::Off},
    {sparse::SpmvMode::ForceCsrLoadBalanced, sparse::DirectionMode::ForcePull,
     sparse::FusionMode::Fuse},
};

// mxv/vxm also run a GpuShard leg with the shard count zipped over the
// seeded cases (1 = passthrough, 2 and 4 = real row-block fan-outs over a
// two-context placement): the halo broadcast, per-shard kernels, and
// shard-order merge must reproduce the oracle bit-for-bit. GBTL_SHARDS
// pins the count for sanitizer re-runs the same way GBTL_SPGEMM_MODE pins
// the SpGEMM strategy — honor the pin when present, zip otherwise.
constexpr std::size_t kShardCounts[] = {1, 2, 4};
std::size_t shard_count_for_case(unsigned c) {
  if (sparse::shard_count_override() > 0) return sparse::shard_count_override();
  return kShardCounts[c % (sizeof(kShardCounts) / sizeof(kShardCounts[0]))];
}

// mxm sweeps every SpGEMM strategy: forced ESC, forced hash, and Auto —
// the selector's pick must be bit-exact with both forced paths and the
// sequential oracle. scripts/ci.sh pins the sanitizer re-run to one mode
// via GBTL_SPGEMM_MODE (spgemm_pin.hpp).
std::vector<sparse::SpgemmMode> spgemm_sweep_modes() {
  if (const auto pin = spgemm_pin_from_env()) return {*pin};
  return {sparse::SpgemmMode::Esc, sparse::SpgemmMode::Hash,
          sparse::SpgemmMode::Auto};
}

// --------------------------------------------------------------------------
// Dense oracle
// --------------------------------------------------------------------------

struct DenseVec {
  IndexType n = 0;
  std::vector<double> val;
  std::vector<std::uint8_t> pres;

  explicit DenseVec(IndexType n_ = 0) : n(n_), val(n_, 0.0), pres(n_, 0) {}
};

struct DenseMat {
  IndexType nr = 0, nc = 0;
  std::vector<double> val;
  std::vector<std::uint8_t> pres;

  DenseMat(IndexType r = 0, IndexType c = 0)
      : nr(r), nc(c), val(r * c, 0.0), pres(r * c, 0) {}
  double& v(IndexType i, IndexType j) { return val[i * nc + j]; }
  double v(IndexType i, IndexType j) const { return val[i * nc + j]; }
  std::uint8_t& p(IndexType i, IndexType j) { return pres[i * nc + j]; }
  std::uint8_t p(IndexType i, IndexType j) const { return pres[i * nc + j]; }
};

/// Lowered mask interpretation, mirroring grb::MaskDesc.
struct MaskSpec {
  bool has = false;
  bool complement = false;
  bool structural = false;

  bool allows(bool present, double value) const {
    if (!has) return true;
    const bool ok = structural ? present : (present && value != 0.0);
    return complement ? !ok : ok;
  }
};

/// Oracle accumulator: absent = no accumulation.
using OracleAccum = std::function<double(double, double)>;

/// GraphBLAS write semantics on dense storage:
///   Z = accum ? accum(C, T) merged elementwise : T
///   out = mask-allowed ? Z : (replace ? absent : old C)
void oracle_write(DenseVec& c, const DenseVec& t, const DenseVec* mask,
                  const MaskSpec& ms, const OracleAccum& accum,
                  bool replace) {
  for (IndexType i = 0; i < c.n; ++i) {
    const bool mp = mask != nullptr && mask->pres[i];
    const double mv = mask != nullptr ? mask->val[i] : 0.0;
    const bool allowed = ms.allows(mp, mv);
    double zv = 0.0;
    bool zp = false;
    if (accum) {
      if (c.pres[i] && t.pres[i]) {
        zv = accum(c.val[i], t.val[i]);
        zp = true;
      } else if (t.pres[i]) {
        zv = t.val[i];
        zp = true;
      } else if (c.pres[i]) {
        zv = c.val[i];
        zp = true;
      }
    } else {
      zv = t.val[i];
      zp = t.pres[i] != 0;
    }
    if (allowed) {
      c.val[i] = zv;
      c.pres[i] = zp ? 1 : 0;
    } else if (replace) {
      c.pres[i] = 0;
    }
  }
}

void oracle_write(DenseMat& c, const DenseMat& t, const DenseMat* mask,
                  const MaskSpec& ms, const OracleAccum& accum,
                  bool replace) {
  for (IndexType i = 0; i < c.nr; ++i)
    for (IndexType j = 0; j < c.nc; ++j) {
      const bool mp = mask != nullptr && mask->p(i, j);
      const double mv = mask != nullptr ? mask->v(i, j) : 0.0;
      const bool allowed = ms.allows(mp, mv);
      double zv = 0.0;
      bool zp = false;
      if (accum) {
        if (c.p(i, j) && t.p(i, j)) {
          zv = accum(c.v(i, j), t.v(i, j));
          zp = true;
        } else if (t.p(i, j)) {
          zv = t.v(i, j);
          zp = true;
        } else if (c.p(i, j)) {
          zv = c.v(i, j);
          zp = true;
        }
      } else {
        zv = t.v(i, j);
        zp = t.p(i, j) != 0;
      }
      if (allowed) {
        c.v(i, j) = zv;
        c.p(i, j) = zp ? 1 : 0;
      } else if (replace) {
        c.p(i, j) = 0;
      }
    }
}

/// t = A (+.x) u with GraphBLAS presence semantics: t[i] is stored iff some
/// k has both A(i,k) and u(k) stored.
template <typename SR>
DenseVec oracle_mxv(const DenseMat& a, const DenseVec& u, const SR& sr) {
  DenseVec t(a.nr);
  for (IndexType i = 0; i < a.nr; ++i) {
    double acc = sr.zero();
    bool any = false;
    for (IndexType k = 0; k < a.nc; ++k) {
      if (a.p(i, k) && u.pres[k]) {
        acc = sr.add(acc, sr.mult(a.v(i, k), u.val[k]));
        any = true;
      }
    }
    if (any) {
      t.val[i] = acc;
      t.pres[i] = 1;
    }
  }
  return t;
}

/// t = u (+.x) A: t[j] folds u(k) * A(k, j) over k in ascending order — the
/// same combination order as both backends' push/pull formulations.
template <typename SR>
DenseVec oracle_vxm(const DenseVec& u, const DenseMat& a, const SR& sr) {
  DenseVec t(a.nc);
  for (IndexType j = 0; j < a.nc; ++j) {
    double acc = sr.zero();
    bool any = false;
    for (IndexType k = 0; k < a.nr; ++k) {
      if (u.pres[k] && a.p(k, j)) {
        acc = sr.add(acc, sr.mult(u.val[k], a.v(k, j)));
        any = true;
      }
    }
    if (any) {
      t.val[j] = acc;
      t.pres[j] = 1;
    }
  }
  return t;
}

template <typename SR>
DenseMat oracle_mxm(const DenseMat& a, const DenseMat& b, const SR& sr) {
  DenseMat t(a.nr, b.nc);
  for (IndexType i = 0; i < a.nr; ++i)
    for (IndexType j = 0; j < b.nc; ++j) {
      double acc = sr.zero();
      bool any = false;
      for (IndexType k = 0; k < a.nc; ++k) {
        if (a.p(i, k) && b.p(k, j)) {
          acc = sr.add(acc, sr.mult(a.v(i, k), b.v(k, j)));
          any = true;
        }
      }
      if (any) {
        t.v(i, j) = acc;
        t.p(i, j) = 1;
      }
    }
  return t;
}

template <typename Op>
DenseVec oracle_ewise_add(const DenseVec& u, const DenseVec& v,
                          const Op& op) {
  DenseVec t(u.n);
  for (IndexType i = 0; i < u.n; ++i) {
    if (u.pres[i] && v.pres[i]) {
      t.val[i] = op(u.val[i], v.val[i]);
      t.pres[i] = 1;
    } else if (u.pres[i]) {
      t.val[i] = u.val[i];
      t.pres[i] = 1;
    } else if (v.pres[i]) {
      t.val[i] = v.val[i];
      t.pres[i] = 1;
    }
  }
  return t;
}

template <typename Op>
DenseVec oracle_ewise_mult(const DenseVec& u, const DenseVec& v,
                           const Op& op) {
  DenseVec t(u.n);
  for (IndexType i = 0; i < u.n; ++i)
    if (u.pres[i] && v.pres[i]) {
      t.val[i] = op(u.val[i], v.val[i]);
      t.pres[i] = 1;
    }
  return t;
}

template <typename Op>
DenseMat oracle_ewise_add(const DenseMat& a, const DenseMat& b,
                          const Op& op) {
  DenseMat t(a.nr, a.nc);
  for (IndexType k = 0; k < a.nr * a.nc; ++k) {
    if (a.pres[k] && b.pres[k]) {
      t.val[k] = op(a.val[k], b.val[k]);
      t.pres[k] = 1;
    } else if (a.pres[k]) {
      t.val[k] = a.val[k];
      t.pres[k] = 1;
    } else if (b.pres[k]) {
      t.val[k] = b.val[k];
      t.pres[k] = 1;
    }
  }
  return t;
}

template <typename Op>
DenseMat oracle_ewise_mult(const DenseMat& a, const DenseMat& b,
                           const Op& op) {
  DenseMat t(a.nr, a.nc);
  for (IndexType k = 0; k < a.nr * a.nc; ++k)
    if (a.pres[k] && b.pres[k]) {
      t.val[k] = op(a.val[k], b.val[k]);
      t.pres[k] = 1;
    }
  return t;
}

// --------------------------------------------------------------------------
// Seeded input generation (tuples shared by oracle + both backends)
// --------------------------------------------------------------------------

struct MatTuples {
  IndexType nr, nc;
  IndexArrayType rows, cols;
  std::vector<double> vals;
};

struct VecTuples {
  IndexType n;
  IndexArrayType idx;
  std::vector<double> vals;
};

enum class Family { Banded, Uniform, PowerLaw };

/// Integer-valued doubles: exact products/sums => order-independent
/// floating arithmetic on the fuzzed domain.
double int_value(std::mt19937& rng) {
  return static_cast<double>(std::uniform_int_distribution<int>(-4, 4)(rng));
}

MatTuples gen_matrix(std::mt19937& rng, IndexType nr, IndexType nc,
                     Family family) {
  MatTuples m{nr, nc, {}, {}, {}};
  std::set<std::pair<IndexType, IndexType>> cells;
  switch (family) {
    case Family::Banded: {
      const IndexType bw = std::uniform_int_distribution<IndexType>(1, 3)(rng);
      std::bernoulli_distribution keep(0.8);
      for (IndexType i = 0; i < nr; ++i)
        for (IndexType j = (i > bw ? i - bw : 0);
             j < std::min<IndexType>(nc, i + bw + 1); ++j)
          if (keep(rng)) cells.emplace(i, j);
      break;
    }
    case Family::Uniform: {
      std::bernoulli_distribution keep(
          std::uniform_real_distribution<double>(0.05, 0.5)(rng));
      for (IndexType i = 0; i < nr; ++i)
        for (IndexType j = 0; j < nc; ++j)
          if (keep(rng)) cells.emplace(i, j);
      break;
    }
    case Family::PowerLaw: {
      // Hub rows with ~nr/(rank+1) targets, rank randomly permuted over
      // rows — a miniature scale-free degree profile.
      std::vector<IndexType> rank(nr);
      for (IndexType i = 0; i < nr; ++i) rank[i] = i;
      std::shuffle(rank.begin(), rank.end(), rng);
      std::uniform_int_distribution<IndexType> col(0, nc - 1);
      for (IndexType i = 0; i < nr; ++i) {
        const IndexType deg =
            std::min<IndexType>(nc, nr / (rank[i] + 1));
        for (IndexType d = 0; d < deg; ++d) cells.emplace(i, col(rng));
      }
      break;
    }
  }
  for (const auto& [i, j] : cells) {
    m.rows.push_back(i);
    m.cols.push_back(j);
    m.vals.push_back(int_value(rng));
  }
  return m;
}

VecTuples gen_vector(std::mt19937& rng, IndexType n, double density) {
  VecTuples v{n, {}, {}};
  std::bernoulli_distribution keep(density);
  for (IndexType i = 0; i < n; ++i)
    if (keep(rng)) {
      v.idx.push_back(i);
      v.vals.push_back(int_value(rng));
    }
  return v;
}

/// 0/1-valued mask tuples: stored zeros exercise value- vs structure-mask
/// divergence.
VecTuples gen_mask_vector(std::mt19937& rng, IndexType n) {
  VecTuples v{n, {}, {}};
  std::bernoulli_distribution keep(0.5);
  std::bernoulli_distribution truthy(0.6);
  for (IndexType i = 0; i < n; ++i)
    if (keep(rng)) {
      v.idx.push_back(i);
      v.vals.push_back(truthy(rng) ? 1.0 : 0.0);
    }
  return v;
}

MatTuples gen_mask_matrix(std::mt19937& rng, IndexType nr, IndexType nc) {
  MatTuples m{nr, nc, {}, {}, {}};
  std::bernoulli_distribution keep(0.5);
  std::bernoulli_distribution truthy(0.6);
  for (IndexType i = 0; i < nr; ++i)
    for (IndexType j = 0; j < nc; ++j)
      if (keep(rng)) {
        m.rows.push_back(i);
        m.cols.push_back(j);
        m.vals.push_back(truthy(rng) ? 1.0 : 0.0);
      }
  return m;
}

DenseMat densify(const MatTuples& m) {
  DenseMat d(m.nr, m.nc);
  for (std::size_t k = 0; k < m.vals.size(); ++k) {
    d.v(m.rows[k], m.cols[k]) = m.vals[k];
    d.p(m.rows[k], m.cols[k]) = 1;
  }
  return d;
}

DenseVec densify(const VecTuples& v) {
  DenseVec d(v.n);
  for (std::size_t k = 0; k < v.vals.size(); ++k) {
    d.val[v.idx[k]] = v.vals[k];
    d.pres[v.idx[k]] = 1;
  }
  return d;
}

template <typename T, typename Tag>
grb::Matrix<T, Tag> to_backend(const MatTuples& m) {
  grb::Matrix<T, Tag> a(m.nr, m.nc);
  std::vector<T> vals(m.vals.begin(), m.vals.end());
  a.build(m.rows, m.cols, vals, grb::Second<T>{});
  return a;
}

template <typename T, typename Tag>
grb::Vector<T, Tag> to_backend(const VecTuples& v) {
  grb::Vector<T, Tag> u(v.n);
  std::vector<T> vals(v.vals.begin(), v.vals.end());
  u.build(v.idx, vals, grb::Second<T>{});
  return u;
}

// --------------------------------------------------------------------------
// Comparison against the oracle (exact equality)
// --------------------------------------------------------------------------

template <typename Tag>
void expect_matches(const grb::Vector<double, Tag>& got,
                    const DenseVec& want, const char* what) {
  IndexArrayType gi;
  std::vector<double> gv;
  got.extractTuples(gi, gv);
  IndexArrayType wi;
  std::vector<double> wv;
  for (IndexType i = 0; i < want.n; ++i)
    if (want.pres[i]) {
      wi.push_back(i);
      wv.push_back(want.val[i]);
    }
  ASSERT_EQ(gi, wi) << what << ": stored pattern differs from oracle";
  for (std::size_t k = 0; k < wv.size(); ++k)
    ASSERT_EQ(gv[k], wv[k]) << what << ": value at index " << wi[k];
}

template <typename Tag>
void expect_matches(const grb::Matrix<double, Tag>& got,
                    const DenseMat& want, const char* what) {
  IndexArrayType gr, gc;
  std::vector<double> gv;
  got.extractTuples(gr, gc, gv);
  IndexArrayType wr, wc;
  std::vector<double> wv;
  for (IndexType i = 0; i < want.nr; ++i)
    for (IndexType j = 0; j < want.nc; ++j)
      if (want.p(i, j)) {
        wr.push_back(i);
        wc.push_back(j);
        wv.push_back(want.v(i, j));
      }
  ASSERT_EQ(gr, wr) << what << ": row pattern differs from oracle";
  ASSERT_EQ(gc, wc) << what << ": col pattern differs from oracle";
  for (std::size_t k = 0; k < wv.size(); ++k)
    ASSERT_EQ(gv[k], wv[k]) << what << ": value at (" << wr[k] << ","
                            << wc[k] << ")";
}

// --------------------------------------------------------------------------
// Runtime-pick -> compile-time-object dispatch
// --------------------------------------------------------------------------

template <typename F>
void with_semiring(unsigned pick, F&& f) {
  switch (pick % 3) {
    case 0:
      f(grb::ArithmeticSemiring<double>{});
      break;
    case 1:
      f(grb::MinPlusSemiring<double>{});
      break;
    default:
      f(grb::MaxTimesSemiring<double>{});
      break;
  }
}

template <typename F>
void with_binary_op(unsigned pick, F&& f) {
  switch (pick % 4) {
    case 0:
      f(grb::Plus<double>{});
      break;
    case 1:
      f(grb::Times<double>{});
      break;
    case 2:
      f(grb::Min<double>{});
      break;
    default:
      f(grb::Max<double>{});
      break;
  }
}

/// f(frontendAccum, oracleAccum)
template <typename F>
void with_accum(unsigned pick, F&& f) {
  switch (pick % 3) {
    case 0:
      f(NoAccumulate{}, OracleAccum{});
      break;
    case 1:
      f(grb::Plus<double>{},
        OracleAccum{[](double a, double b) { return a + b; }});
      break;
    default:
      f(grb::Min<double>{},
        OracleAccum{[](double a, double b) { return std::min(a, b); }});
      break;
  }
}

/// f(frontendMaskArg, MaskSpec) for each of the five mask variants.
template <typename MaskObj, typename F>
void for_each_mask_variant(const MaskObj& m, F&& f) {
  f(NoMask{}, MaskSpec{false, false, false});
  f(m, MaskSpec{true, false, false});
  f(grb::structure(m), MaskSpec{true, false, true});
  f(grb::complement(m), MaskSpec{true, true, false});
  f(grb::complement(grb::structure(m)), MaskSpec{true, true, true});
}

// --------------------------------------------------------------------------
// The fuzz fixture
// --------------------------------------------------------------------------

class DifferentialFuzz : public ::testing::TestWithParam<unsigned> {
 protected:
  static Family family_of(std::mt19937& rng) {
    switch (std::uniform_int_distribution<int>(0, 2)(rng)) {
      case 0:
        return Family::Banded;
      case 1:
        return Family::Uniform;
      default:
        return Family::PowerLaw;
    }
  }

  static IndexType dim(std::mt19937& rng) {
    return std::uniform_int_distribution<IndexType>(1, 12)(rng);
  }

 private:
  // Tiny chunks force multi-team partial-row paths in the load-balanced
  // kernel even at fuzz-sized matrices.
  gpu_sim::KnobGuard<sparse::spmv_lb_chunk_knob> small_lb_chunks_{4};
  // Bind a real 3-worker pool for the CpuPar legs: default_worker_count()
  // is 1 on single-core CI machines, which would silently collapse every
  // CpuPar op to its serial fallback path.
  gpu_sim::ThreadPool cpupar_pool_{3};
  grb::cpupar_backend::ScopedPool bind_cpupar_{cpupar_pool_};
  // A second context under the GpuShard legs, so shard counts 2 and 4
  // exercise a genuinely cross-device halo exchange (count 4 round-robins
  // two shards onto each context).
  gpu_sim::Context shard_ctx_;
  gpu_sim::ScopedPlacement bind_placement_{
      std::vector<gpu_sim::Context*>{&gpu_sim::device(), &shard_ctx_}};
};

TEST_P(DifferentialFuzz, Mxv) {
  for (unsigned c = 0; c < kCasesPerInstance; ++c) {
    const unsigned seed = 1000 + GetParam() * kCasesPerInstance + c;
    std::mt19937 rng(seed);
    const IndexType m = dim(rng), n = dim(rng);
    const auto at = gen_matrix(rng, m, n, family_of(rng));
    const auto ut = gen_vector(rng, n, 0.3 + 0.6 * (seed % 7) / 7.0);
    const auto wt = gen_vector(rng, m, 0.5);
    const auto mt = gen_mask_vector(rng, m);
    const bool replace = rng() % 2 == 0;
    const unsigned sr_pick = rng(), acc_pick = rng();

    const DenseMat da = densify(at);
    const DenseVec du = densify(ut);
    const DenseVec dw0 = densify(wt);
    const DenseVec dm = densify(mt);

    auto sa = to_backend<double, grb::Sequential>(at);
    auto ga = to_backend<double, grb::GpuSim>(at);
    auto pa = to_backend<double, grb::CpuPar>(at);
    auto su = to_backend<double, grb::Sequential>(ut);
    auto gu = to_backend<double, grb::GpuSim>(ut);
    auto pu = to_backend<double, grb::CpuPar>(ut);
    auto smask = to_backend<std::uint8_t, grb::Sequential>(mt);
    auto gmask = to_backend<std::uint8_t, grb::GpuSim>(mt);
    auto pmask = to_backend<std::uint8_t, grb::CpuPar>(mt);

    with_semiring(sr_pick, [&](auto sr) {
      with_accum(acc_pick, [&](auto accum, const OracleAccum& oacc) {
        const DenseVec t = oracle_mxv(da, du, sr);
        unsigned variant = 0;
        for_each_mask_variant(smask, [&](auto sm, const MaskSpec& ms) {
          DenseVec want = dw0;
          oracle_write(want, t, ms.has ? &dm : nullptr, ms, oacc, replace);

          auto sw = to_backend<double, grb::Sequential>(wt);
          grb::mxv(sw, sm, accum, sr, sa, su,
                   replace ? grb::Replace : grb::Merge);
          expect_matches(sw, want, "seq mxv");

          auto pw = to_backend<double, grb::CpuPar>(wt);
          unsigned pv = 0;
          for_each_mask_variant(pmask, [&](auto pm, const MaskSpec&) {
            if (pv++ != variant) return;
            grb::mxv(pw, pm, accum, sr, pa, pu,
                     replace ? grb::Replace : grb::Merge);
          });
          expect_matches(pw, want, "cpupar mxv");

          // GPU: every SpMV dispatch mode (zipped with direction and
          // fusion pins) must agree with the oracle.
          for (const auto& [mode, dmode, fmode] : kModePairs) {
            sparse::SpmvModeGuard guard(mode);
            sparse::DirectionModeGuard dguard(dmode);
            sparse::FusionGuard fguard(fmode);
            auto gw = to_backend<double, grb::GpuSim>(wt);
            // Rebuild the gpu-side mask variant for this iteration.
            unsigned v = 0;
            for_each_mask_variant(gmask, [&](auto gm, const MaskSpec&) {
              if (v++ != variant) return;
              grb::mxv(gw, gm, accum, sr, ga, gu,
                       replace ? grb::Replace : grb::Merge);
            });
            expect_matches(gw, want, "gpu mxv");
          }

          // Sharded multi-device leg: the row blocks' halo broadcasts and
          // shard-order merge must agree with the oracle bit-for-bit.
          {
            sparse::ShardCountGuard sguard(shard_count_for_case(c));
            auto ha = to_backend<double, grb::GpuShard>(at);
            auto hu = to_backend<double, grb::GpuShard>(ut);
            auto hmask = to_backend<std::uint8_t, grb::GpuShard>(mt);
            auto hw = to_backend<double, grb::GpuShard>(wt);
            unsigned hv = 0;
            for_each_mask_variant(hmask, [&](auto hm, const MaskSpec&) {
              if (hv++ != variant) return;
              grb::mxv(hw, hm, accum, sr, ha, hu,
                       replace ? grb::Replace : grb::Merge);
            });
            expect_matches(hw, want, "gpushard mxv");
          }
          ++variant;
        });
      });
    });
    if (::testing::Test::HasFatalFailure()) {
      ADD_FAILURE() << "seed " << seed;
      return;
    }
  }
}

TEST_P(DifferentialFuzz, Vxm) {
  for (unsigned c = 0; c < kCasesPerInstance; ++c) {
    const unsigned seed = 2000 + GetParam() * kCasesPerInstance + c;
    std::mt19937 rng(seed);
    const IndexType m = dim(rng), n = dim(rng);
    const auto at = gen_matrix(rng, m, n, family_of(rng));
    const auto ut = gen_vector(rng, m, 0.3 + 0.6 * (seed % 5) / 5.0);
    const auto wt = gen_vector(rng, n, 0.5);
    const auto mt = gen_mask_vector(rng, n);
    const bool replace = rng() % 2 == 0;
    const unsigned sr_pick = rng(), acc_pick = rng();

    const DenseMat da = densify(at);
    const DenseVec du = densify(ut);
    const DenseVec dm = densify(mt);

    auto sa = to_backend<double, grb::Sequential>(at);
    auto ga = to_backend<double, grb::GpuSim>(at);
    auto pa = to_backend<double, grb::CpuPar>(at);
    auto su = to_backend<double, grb::Sequential>(ut);
    auto gu = to_backend<double, grb::GpuSim>(ut);
    auto pu = to_backend<double, grb::CpuPar>(ut);
    auto smask = to_backend<std::uint8_t, grb::Sequential>(mt);
    auto gmask = to_backend<std::uint8_t, grb::GpuSim>(mt);
    auto pmask = to_backend<std::uint8_t, grb::CpuPar>(mt);

    with_semiring(sr_pick, [&](auto sr) {
      with_accum(acc_pick, [&](auto accum, const OracleAccum& oacc) {
        const DenseVec t = oracle_vxm(du, da, sr);
        unsigned variant = 0;
        for_each_mask_variant(smask, [&](auto sm, const MaskSpec& ms) {
          DenseVec want = densify(wt);
          oracle_write(want, t, ms.has ? &dm : nullptr, ms, oacc, replace);

          auto sw = to_backend<double, grb::Sequential>(wt);
          grb::vxm(sw, sm, accum, sr, su, sa,
                   replace ? grb::Replace : grb::Merge);
          expect_matches(sw, want, "seq vxm");

          auto pw = to_backend<double, grb::CpuPar>(wt);
          unsigned pv = 0;
          for_each_mask_variant(pmask, [&](auto pm, const MaskSpec&) {
            if (pv++ != variant) return;
            grb::vxm(pw, pm, accum, sr, pu, pa,
                     replace ? grb::Replace : grb::Merge);
          });
          expect_matches(pw, want, "cpupar vxm");

          for (const auto& [mode, dmode, fmode] : kModePairs) {
            sparse::SpmvModeGuard guard(mode);
            sparse::DirectionModeGuard dguard(dmode);
            sparse::FusionGuard fguard(fmode);
            auto gw = to_backend<double, grb::GpuSim>(wt);
            unsigned v = 0;
            for_each_mask_variant(gmask, [&](auto gm, const MaskSpec&) {
              if (v++ != variant) return;
              grb::vxm(gw, gm, accum, sr, gu, ga,
                       replace ? grb::Replace : grb::Merge);
            });
            expect_matches(gw, want, "gpu vxm");
          }

          {
            sparse::ShardCountGuard sguard(shard_count_for_case(c));
            auto ha = to_backend<double, grb::GpuShard>(at);
            auto hu = to_backend<double, grb::GpuShard>(ut);
            auto hmask = to_backend<std::uint8_t, grb::GpuShard>(mt);
            auto hw = to_backend<double, grb::GpuShard>(wt);
            unsigned hv = 0;
            for_each_mask_variant(hmask, [&](auto hm, const MaskSpec&) {
              if (hv++ != variant) return;
              grb::vxm(hw, hm, accum, sr, hu, ha,
                       replace ? grb::Replace : grb::Merge);
            });
            expect_matches(hw, want, "gpushard vxm");
          }
          ++variant;
        });
      });
    });
    if (::testing::Test::HasFatalFailure()) {
      ADD_FAILURE() << "seed " << seed;
      return;
    }
  }
}

TEST_P(DifferentialFuzz, Mxm) {
  const auto modes = spgemm_sweep_modes();
  const auto before = gpu_sim::device().stats();
  for (unsigned c = 0; c < kCasesPerInstance; ++c) {
    const unsigned seed = 3000 + GetParam() * kCasesPerInstance + c;
    std::mt19937 rng(seed);
    const IndexType m = dim(rng), k = dim(rng), n = dim(rng);
    const auto at = gen_matrix(rng, m, k, family_of(rng));
    const auto bt = gen_matrix(rng, k, n, family_of(rng));
    const auto ct = gen_matrix(rng, m, n, Family::Uniform);
    const auto mt = gen_mask_matrix(rng, m, n);
    const bool replace = rng() % 2 == 0;
    const unsigned sr_pick = rng(), acc_pick = rng();

    const DenseMat da = densify(at);
    const DenseMat db = densify(bt);
    const DenseMat dm = densify(mt);

    auto sa = to_backend<double, grb::Sequential>(at);
    auto ga = to_backend<double, grb::GpuSim>(at);
    auto pa = to_backend<double, grb::CpuPar>(at);
    auto sb = to_backend<double, grb::Sequential>(bt);
    auto gb = to_backend<double, grb::GpuSim>(bt);
    auto pb = to_backend<double, grb::CpuPar>(bt);
    auto smask = to_backend<std::uint8_t, grb::Sequential>(mt);
    auto gmask = to_backend<std::uint8_t, grb::GpuSim>(mt);
    auto pmask = to_backend<std::uint8_t, grb::CpuPar>(mt);

    with_semiring(sr_pick, [&](auto sr) {
      with_accum(acc_pick, [&](auto accum, const OracleAccum& oacc) {
        const DenseMat t = oracle_mxm(da, db, sr);
        unsigned variant = 0;
        for_each_mask_variant(smask, [&](auto sm, const MaskSpec& ms) {
          DenseMat want = densify(ct);
          oracle_write(want, t, ms.has ? &dm : nullptr, ms, oacc, replace);

          auto sc = to_backend<double, grb::Sequential>(ct);
          grb::mxm(sc, sm, accum, sr, sa, sb,
                   replace ? grb::Replace : grb::Merge);
          expect_matches(sc, want, "seq mxm");

          auto pc = to_backend<double, grb::CpuPar>(ct);
          unsigned pv = 0;
          for_each_mask_variant(pmask, [&](auto pm, const MaskSpec&) {
            if (pv++ != variant) return;
            grb::mxm(pc, pm, accum, sr, pa, pb,
                     replace ? grb::Replace : grb::Merge);
          });
          expect_matches(pc, want, "cpupar mxm");

          // GPU: every SpGEMM strategy (forced ESC, forced hash, Auto)
          // must agree with the oracle bit-for-bit.
          for (const auto mode : modes) {
            sparse::SpgemmModeGuard guard(mode);
            auto gc = to_backend<double, grb::GpuSim>(ct);
            unsigned v = 0;
            for_each_mask_variant(gmask, [&](auto gm, const MaskSpec&) {
              if (v++ != variant) return;
              grb::mxm(gc, gm, accum, sr, ga, gb,
                       replace ? grb::Replace : grb::Merge);
            });
            expect_matches(gc, want, "gpu mxm");
          }
          ++variant;
        });
      });
    });
    if (::testing::Test::HasFatalFailure()) {
      ADD_FAILURE() << "seed " << seed;
      return;
    }
  }
  // Every GPU mxm above recorded its strategy decision; the masked variants
  // (4 of the 5 mask kinds, 2 of them non-complemented) must have exercised
  // the mask-aware paths that skip disallowed products.
  const auto delta = gpu_sim::device().stats() - before;
  EXPECT_GT(delta.spgemm_selections_total(), 0u);
  EXPECT_GT(delta.spgemm_masked_products_avoided, 0u);
}

TEST_P(DifferentialFuzz, EWiseAdd) {
  for (unsigned c = 0; c < kCasesPerInstance; ++c) {
    const unsigned seed = 4000 + GetParam() * kCasesPerInstance + c;
    std::mt19937 rng(seed);
    const IndexType n = dim(rng);
    const auto ut = gen_vector(rng, n, 0.5);
    const auto vt = gen_vector(rng, n, 0.5);
    const auto wt = gen_vector(rng, n, 0.5);
    const auto mt = gen_mask_vector(rng, n);
    const IndexType mr = dim(rng), mc = dim(rng);
    const auto a2 = gen_matrix(rng, mr, mc, family_of(rng));
    const auto b2 = gen_matrix(rng, mr, mc, family_of(rng));
    const auto c2 = gen_matrix(rng, mr, mc, Family::Uniform);
    const auto mm = gen_mask_matrix(rng, mr, mc);
    const bool replace = rng() % 2 == 0;
    const unsigned op_pick = rng(), acc_pick = rng();

    const DenseVec du = densify(ut), dv = densify(vt), dm = densify(mt);
    const DenseMat dA = densify(a2), dB = densify(b2), dM = densify(mm);

    auto su = to_backend<double, grb::Sequential>(ut);
    auto gu = to_backend<double, grb::GpuSim>(ut);
    auto sv = to_backend<double, grb::Sequential>(vt);
    auto gv = to_backend<double, grb::GpuSim>(vt);
    auto pu = to_backend<double, grb::CpuPar>(ut);
    auto pv2 = to_backend<double, grb::CpuPar>(vt);
    auto smask = to_backend<std::uint8_t, grb::Sequential>(mt);
    auto gmask = to_backend<std::uint8_t, grb::GpuSim>(mt);
    auto pmask = to_backend<std::uint8_t, grb::CpuPar>(mt);
    auto sA = to_backend<double, grb::Sequential>(a2);
    auto gA = to_backend<double, grb::GpuSim>(a2);
    auto pA = to_backend<double, grb::CpuPar>(a2);
    auto sB = to_backend<double, grb::Sequential>(b2);
    auto gB = to_backend<double, grb::GpuSim>(b2);
    auto pB = to_backend<double, grb::CpuPar>(b2);
    auto sM = to_backend<std::uint8_t, grb::Sequential>(mm);
    auto gM = to_backend<std::uint8_t, grb::GpuSim>(mm);
    auto pM = to_backend<std::uint8_t, grb::CpuPar>(mm);

    with_binary_op(op_pick, [&](auto op) {
      with_accum(acc_pick, [&](auto accum, const OracleAccum& oacc) {
        const DenseVec t = oracle_ewise_add(du, dv, op);
        unsigned variant = 0;
        for_each_mask_variant(smask, [&](auto sm, const MaskSpec& ms) {
          DenseVec want = densify(wt);
          oracle_write(want, t, ms.has ? &dm : nullptr, ms, oacc, replace);
          auto sw = to_backend<double, grb::Sequential>(wt);
          grb::eWiseAdd(sw, sm, accum, op, su, sv,
                        replace ? grb::Replace : grb::Merge);
          expect_matches(sw, want, "seq eWiseAdd vec");
          auto pw = to_backend<double, grb::CpuPar>(wt);
          unsigned pvar = 0;
          for_each_mask_variant(pmask, [&](auto pm, const MaskSpec&) {
            if (pvar++ != variant) return;
            grb::eWiseAdd(pw, pm, accum, op, pu, pv2,
                          replace ? grb::Replace : grb::Merge);
          });
          expect_matches(pw, want, "cpupar eWiseAdd vec");
          // The GPU leg runs with fusion off and forced on (matrix eWise ops
          // never join a composite-launch chain, so only the vector leg
          // sweeps fusion).
          for (const auto fmode :
               {sparse::FusionMode::Off, sparse::FusionMode::Fuse}) {
            sparse::FusionGuard fguard(fmode);
            auto gw = to_backend<double, grb::GpuSim>(wt);
            unsigned v = 0;
            for_each_mask_variant(gmask, [&](auto gm, const MaskSpec&) {
              if (v++ != variant) return;
              grb::eWiseAdd(gw, gm, accum, op, gu, gv,
                            replace ? grb::Replace : grb::Merge);
            });
            expect_matches(gw, want, "gpu eWiseAdd vec");
          }
          ++variant;
        });

        const DenseMat tm = oracle_ewise_add(dA, dB, op);
        unsigned mvariant = 0;
        for_each_mask_variant(sM, [&](auto sm, const MaskSpec& ms) {
          DenseMat want = densify(c2);
          oracle_write(want, tm, ms.has ? &dM : nullptr, ms, oacc, replace);
          auto sc = to_backend<double, grb::Sequential>(c2);
          grb::eWiseAdd(sc, sm, accum, op, sA, sB,
                        replace ? grb::Replace : grb::Merge);
          expect_matches(sc, want, "seq eWiseAdd mat");
          auto pc = to_backend<double, grb::CpuPar>(c2);
          unsigned pvar = 0;
          for_each_mask_variant(pM, [&](auto pm, const MaskSpec&) {
            if (pvar++ != mvariant) return;
            grb::eWiseAdd(pc, pm, accum, op, pA, pB,
                          replace ? grb::Replace : grb::Merge);
          });
          expect_matches(pc, want, "cpupar eWiseAdd mat");
          auto gc = to_backend<double, grb::GpuSim>(c2);
          unsigned v = 0;
          for_each_mask_variant(gM, [&](auto gm, const MaskSpec&) {
            if (v++ != mvariant) return;
            grb::eWiseAdd(gc, gm, accum, op, gA, gB,
                          replace ? grb::Replace : grb::Merge);
          });
          expect_matches(gc, want, "gpu eWiseAdd mat");
          ++mvariant;
        });
      });
    });
    if (::testing::Test::HasFatalFailure()) {
      ADD_FAILURE() << "seed " << seed;
      return;
    }
  }
}

TEST_P(DifferentialFuzz, EWiseMult) {
  for (unsigned c = 0; c < kCasesPerInstance; ++c) {
    const unsigned seed = 5000 + GetParam() * kCasesPerInstance + c;
    std::mt19937 rng(seed);
    const IndexType n = dim(rng);
    const auto ut = gen_vector(rng, n, 0.6);
    const auto vt = gen_vector(rng, n, 0.6);
    const auto wt = gen_vector(rng, n, 0.5);
    const auto mt = gen_mask_vector(rng, n);
    const IndexType mr = dim(rng), mc = dim(rng);
    const auto a2 = gen_matrix(rng, mr, mc, family_of(rng));
    const auto b2 = gen_matrix(rng, mr, mc, family_of(rng));
    const auto c2 = gen_matrix(rng, mr, mc, Family::Uniform);
    const auto mm = gen_mask_matrix(rng, mr, mc);
    const bool replace = rng() % 2 == 0;
    const unsigned op_pick = rng(), acc_pick = rng();

    const DenseVec du = densify(ut), dv = densify(vt), dm = densify(mt);
    const DenseMat dA = densify(a2), dB = densify(b2), dM = densify(mm);

    auto su = to_backend<double, grb::Sequential>(ut);
    auto gu = to_backend<double, grb::GpuSim>(ut);
    auto sv = to_backend<double, grb::Sequential>(vt);
    auto gv = to_backend<double, grb::GpuSim>(vt);
    auto pu = to_backend<double, grb::CpuPar>(ut);
    auto pv2 = to_backend<double, grb::CpuPar>(vt);
    auto smask = to_backend<std::uint8_t, grb::Sequential>(mt);
    auto gmask = to_backend<std::uint8_t, grb::GpuSim>(mt);
    auto pmask = to_backend<std::uint8_t, grb::CpuPar>(mt);
    auto sA = to_backend<double, grb::Sequential>(a2);
    auto gA = to_backend<double, grb::GpuSim>(a2);
    auto pA = to_backend<double, grb::CpuPar>(a2);
    auto sB = to_backend<double, grb::Sequential>(b2);
    auto gB = to_backend<double, grb::GpuSim>(b2);
    auto pB = to_backend<double, grb::CpuPar>(b2);
    auto sM = to_backend<std::uint8_t, grb::Sequential>(mm);
    auto gM = to_backend<std::uint8_t, grb::GpuSim>(mm);
    auto pM = to_backend<std::uint8_t, grb::CpuPar>(mm);

    with_binary_op(op_pick, [&](auto op) {
      with_accum(acc_pick, [&](auto accum, const OracleAccum& oacc) {
        const DenseVec t = oracle_ewise_mult(du, dv, op);
        unsigned variant = 0;
        for_each_mask_variant(smask, [&](auto sm, const MaskSpec& ms) {
          DenseVec want = densify(wt);
          oracle_write(want, t, ms.has ? &dm : nullptr, ms, oacc, replace);
          auto sw = to_backend<double, grb::Sequential>(wt);
          grb::eWiseMult(sw, sm, accum, op, su, sv,
                         replace ? grb::Replace : grb::Merge);
          expect_matches(sw, want, "seq eWiseMult vec");
          auto pw = to_backend<double, grb::CpuPar>(wt);
          unsigned pvar = 0;
          for_each_mask_variant(pmask, [&](auto pm, const MaskSpec&) {
            if (pvar++ != variant) return;
            grb::eWiseMult(pw, pm, accum, op, pu, pv2,
                           replace ? grb::Replace : grb::Merge);
          });
          expect_matches(pw, want, "cpupar eWiseMult vec");
          for (const auto fmode :
               {sparse::FusionMode::Off, sparse::FusionMode::Fuse}) {
            sparse::FusionGuard fguard(fmode);
            auto gw = to_backend<double, grb::GpuSim>(wt);
            unsigned v = 0;
            for_each_mask_variant(gmask, [&](auto gm, const MaskSpec&) {
              if (v++ != variant) return;
              grb::eWiseMult(gw, gm, accum, op, gu, gv,
                             replace ? grb::Replace : grb::Merge);
            });
            expect_matches(gw, want, "gpu eWiseMult vec");
          }
          ++variant;
        });

        const DenseMat tm = oracle_ewise_mult(dA, dB, op);
        unsigned mvariant = 0;
        for_each_mask_variant(sM, [&](auto sm, const MaskSpec& ms) {
          DenseMat want = densify(c2);
          oracle_write(want, tm, ms.has ? &dM : nullptr, ms, oacc, replace);
          auto sc = to_backend<double, grb::Sequential>(c2);
          grb::eWiseMult(sc, sm, accum, op, sA, sB,
                         replace ? grb::Replace : grb::Merge);
          expect_matches(sc, want, "seq eWiseMult mat");
          auto pc = to_backend<double, grb::CpuPar>(c2);
          unsigned pvar = 0;
          for_each_mask_variant(pM, [&](auto pm, const MaskSpec&) {
            if (pvar++ != mvariant) return;
            grb::eWiseMult(pc, pm, accum, op, pA, pB,
                           replace ? grb::Replace : grb::Merge);
          });
          expect_matches(pc, want, "cpupar eWiseMult mat");
          auto gc = to_backend<double, grb::GpuSim>(c2);
          unsigned v = 0;
          for_each_mask_variant(gM, [&](auto gm, const MaskSpec&) {
            if (v++ != mvariant) return;
            grb::eWiseMult(gc, gm, accum, op, gA, gB,
                           replace ? grb::Replace : grb::Merge);
          });
          expect_matches(gc, want, "gpu eWiseMult mat");
          ++mvariant;
        });
      });
    });
    if (::testing::Test::HasFatalFailure()) {
      ADD_FAILURE() << "seed " << seed;
      return;
    }
  }
}

// --------------------------------------------------------------------------
// Traversal corpus: whole-algorithm differential runs
// --------------------------------------------------------------------------

template <typename T, typename Tag>
void expect_same_tuples(const grb::Vector<T, Tag>& got,
                        const grb::Vector<T, grb::Sequential>& want,
                        const char* what) {
  IndexArrayType gi, wi;
  std::vector<T> gv, wv;
  got.extractTuples(gi, gv);
  want.extractTuples(wi, wv);
  ASSERT_EQ(gi, wi) << what << ": stored pattern differs from sequential";
  for (std::size_t k = 0; k < wv.size(); ++k)
    ASSERT_EQ(gv[k], wv[k]) << what << ": value at index " << wi[k];
}

/// Directed chain 0->1->...->n-1 with random shortcut and back edges: BFS
/// runs ~n levels deep, so every level's direction choice (and the
/// frontier/visited bookkeeping between levels) gets exercised repeatedly
/// within one traversal.
MatTuples gen_long_path(std::mt19937& rng, IndexType n) {
  MatTuples m{n, n, {}, {}, {}};
  std::set<std::pair<IndexType, IndexType>> cells;
  for (IndexType i = 0; i + 1 < n; ++i) cells.emplace(i, i + 1);
  std::uniform_int_distribution<IndexType> v(0, n - 1);
  for (IndexType e = 0; e < n / 2; ++e) {
    const IndexType a = v(rng), b = v(rng);
    if (a != b) cells.emplace(a, b);
  }
  for (const auto& [i, j] : cells) {
    m.rows.push_back(i);
    m.cols.push_back(j);
    m.vals.push_back(0.0);
  }
  return m;
}

/// Multi-level BFS and SSSP on power-law and long-path digraphs: the full
/// traversal — every level's masked vxm, assign, and nvals — must end in a
/// bit-identical result on the GPU backend under forced-push, forced-pull,
/// and auto direction selection. Positive integer weights keep the min-plus
/// folds exact; power-law shapes make Auto actually flip direction on the
/// hub levels.
TEST_P(DifferentialFuzz, Traversal) {
  for (unsigned c = 0; c < kCasesPerInstance; ++c) {
    const unsigned seed = 6000 + GetParam() * kCasesPerInstance + c;
    std::mt19937 rng(seed);
    const IndexType n = std::uniform_int_distribution<IndexType>(2, 60)(rng);
    MatTuples at = rng() % 2 == 0 ? gen_matrix(rng, n, n, Family::PowerLaw)
                                  : gen_long_path(rng, n);
    for (auto& w : at.vals)
      w = static_cast<double>(
          std::uniform_int_distribution<int>(1, 4)(rng));
    const IndexType source =
        std::uniform_int_distribution<IndexType>(0, n - 1)(rng);

    auto sa = to_backend<double, grb::Sequential>(at);
    auto ga = to_backend<double, grb::GpuSim>(at);
    auto pa = to_backend<double, grb::CpuPar>(at);

    grb::Vector<IndexType, grb::Sequential> slv(n);
    algorithms::bfs_level(sa, source, slv);
    grb::Vector<double, grb::Sequential> sdist(n);
    algorithms::sssp(sa, source, sdist);

    grb::Vector<IndexType, grb::CpuPar> plv(n);
    algorithms::bfs_level(pa, source, plv);
    expect_same_tuples(plv, slv, "cpupar bfs_level");
    grb::Vector<double, grb::CpuPar> pdist(n);
    algorithms::sssp(pa, source, pdist);
    expect_same_tuples(pdist, sdist, "cpupar sssp");

    // Direction zipped with fusion mode: whole traversals must be
    // bit-identical whether each level's ops are charged separately or
    // chained into composite launches.
    constexpr std::pair<sparse::DirectionMode, sparse::FusionMode>
        kTraversalZip[] = {
            {sparse::DirectionMode::ForcePush, sparse::FusionMode::Off},
            {sparse::DirectionMode::ForcePull, sparse::FusionMode::Fuse},
            {sparse::DirectionMode::Auto, sparse::FusionMode::Auto},
        };
    for (const auto& [dmode, fmode] : kTraversalZip) {
      sparse::DirectionModeGuard dguard(dmode);
      sparse::FusionGuard fguard(fmode);
      grb::Vector<IndexType, grb::GpuSim> glv(n);
      algorithms::bfs_level(ga, source, glv);
      expect_same_tuples(glv, slv, "gpu bfs_level");
      grb::Vector<double, grb::GpuSim> gdist(n);
      algorithms::sssp(ga, source, gdist);
      expect_same_tuples(gdist, sdist, "gpu sssp");
    }
    if (::testing::Test::HasFatalFailure()) {
      ADD_FAILURE() << "seed " << seed;
      return;
    }
  }
}

/// Delta-overlay leg: mxv_overlay / vxm_overlay over (base, replacement-row
/// overlay) pairs, zipped across three overlay regimes — {no overlay, a
/// couple of dirty rows, dirty mass at the compaction threshold (~1/3 of
/// rows, including rows replaced by EMPTY content)} — against the dense
/// oracle run on the merged matrix. Same mask/accum/replace sweep and GPU
/// dispatch-mode zip as the plain Mxv/Vxm legs: the overlay ops feed the
/// same output pipeline, so they must honor every write-semantics variant
/// bit-for-bit, under eager and fused execution alike.
TEST_P(DifferentialFuzz, Overlay) {
  for (unsigned c = 0; c < kCasesPerInstance; ++c) {
    const unsigned seed = 7000 + GetParam() * kCasesPerInstance + c;
    std::mt19937 rng(seed);
    const IndexType m = dim(rng), n = dim(rng);
    const MatTuples bt = gen_matrix(rng, m, n, family_of(rng));

    // Overlay regime zipped over the cases.
    std::size_t n_dirty = 0;
    switch (c % 3) {
      case 0: n_dirty = 0; break;                          // clean snapshot
      case 1: n_dirty = 1 + rng() % 2; break;              // small delta
      default: n_dirty = std::max<IndexType>(1, m / 3);    // near threshold
    }
    n_dirty = std::min<std::size_t>(n_dirty, m);
    std::set<IndexType> dirty;
    while (dirty.size() < n_dirty)
      dirty.insert(std::uniform_int_distribution<IndexType>(0, m - 1)(rng));

    // Replacement content per dirty row (possibly empty — a row deletion);
    // merged = base with dirty rows substituted, in canonical order.
    grb::MatrixOverlay<double> ov;
    MatTuples merged{m, n, {}, {}, {}};
    std::bernoulli_distribution keep(0.4);
    for (IndexType i = 0; i < m; ++i) {
      if (dirty.count(i)) {
        ov.rows.push_back(i);
        for (IndexType j = 0; j < n; ++j)
          if (keep(rng)) {
            const double v = int_value(rng);
            ov.cols.push_back(j);
            ov.vals.push_back(v);
            merged.rows.push_back(i);
            merged.cols.push_back(j);
            merged.vals.push_back(v);
          }
        ov.offsets.push_back(ov.cols.size());
      } else {
        for (std::size_t k = 0; k < bt.vals.size(); ++k)
          if (bt.rows[k] == i) {
            merged.rows.push_back(i);
            merged.cols.push_back(bt.cols[k]);
            merged.vals.push_back(bt.vals[k]);
          }
      }
    }

    const auto ut = gen_vector(rng, n, 0.3 + 0.6 * (seed % 7) / 7.0);
    const auto vt = gen_vector(rng, m, 0.3 + 0.6 * (seed % 5) / 5.0);
    const auto wmt = gen_vector(rng, m, 0.5);
    const auto wnt = gen_vector(rng, n, 0.5);
    const auto mmt = gen_mask_vector(rng, m);
    const auto mnt = gen_mask_vector(rng, n);
    const bool replace = rng() % 2 == 0;
    const unsigned sr_pick = rng(), acc_pick = rng();

    const DenseMat dmerged = densify(merged);
    const DenseVec du = densify(ut);
    const DenseVec dv = densify(vt);
    const DenseVec dmm = densify(mmt);
    const DenseVec dmn = densify(mnt);

    auto sb = to_backend<double, grb::Sequential>(bt);
    auto pb = to_backend<double, grb::CpuPar>(bt);
    auto gb = to_backend<double, grb::GpuSim>(bt);
    auto su = to_backend<double, grb::Sequential>(ut);
    auto pu = to_backend<double, grb::CpuPar>(ut);
    auto gu = to_backend<double, grb::GpuSim>(ut);
    auto sv = to_backend<double, grb::Sequential>(vt);
    auto pv = to_backend<double, grb::CpuPar>(vt);
    auto gv = to_backend<double, grb::GpuSim>(vt);
    auto smm = to_backend<std::uint8_t, grb::Sequential>(mmt);
    auto pmm = to_backend<std::uint8_t, grb::CpuPar>(mmt);
    auto gmm = to_backend<std::uint8_t, grb::GpuSim>(mmt);
    auto smn = to_backend<std::uint8_t, grb::Sequential>(mnt);
    auto pmn = to_backend<std::uint8_t, grb::CpuPar>(mnt);
    auto gmn = to_backend<std::uint8_t, grb::GpuSim>(mnt);

    with_semiring(sr_pick, [&](auto sr) {
      with_accum(acc_pick, [&](auto accum, const OracleAccum& oacc) {
        // ---- mxv_overlay: w(m) = (base+ov)(m x n) . u(n)
        {
          const DenseVec t = oracle_mxv(dmerged, du, sr);
          unsigned variant = 0;
          for_each_mask_variant(smm, [&](auto sm, const MaskSpec& ms) {
            DenseVec want = densify(wmt);
            oracle_write(want, t, ms.has ? &dmm : nullptr, ms, oacc,
                         replace);

            auto sw = to_backend<double, grb::Sequential>(wmt);
            grb::mxv_overlay(sw, sm, accum, sr, sb, ov, su,
                             replace ? grb::Replace : grb::Merge);
            expect_matches(sw, want, "seq mxv_overlay");

            auto pw = to_backend<double, grb::CpuPar>(wmt);
            unsigned pvariant = 0;
            for_each_mask_variant(pmm, [&](auto pm, const MaskSpec&) {
              if (pvariant++ != variant) return;
              grb::mxv_overlay(pw, pm, accum, sr, pb, ov, pu,
                               replace ? grb::Replace : grb::Merge);
            });
            expect_matches(pw, want, "cpupar mxv_overlay");

            for (const auto& [mode, dmode, fmode] : kModePairs) {
              sparse::SpmvModeGuard guard(mode);
              sparse::DirectionModeGuard dguard(dmode);
              sparse::FusionGuard fguard(fmode);
              auto gw = to_backend<double, grb::GpuSim>(wmt);
              unsigned gvariant = 0;
              for_each_mask_variant(gmm, [&](auto gm, const MaskSpec&) {
                if (gvariant++ != variant) return;
                grb::mxv_overlay(gw, gm, accum, sr, gb, ov, gu,
                                 replace ? grb::Replace : grb::Merge);
              });
              expect_matches(gw, want, "gpu mxv_overlay");
            }
            ++variant;
          });
        }
        // ---- vxm_overlay: w(n) = v(m) . (base+ov)(m x n)
        {
          const DenseVec t = oracle_vxm(dv, dmerged, sr);
          unsigned variant = 0;
          for_each_mask_variant(smn, [&](auto sm, const MaskSpec& ms) {
            DenseVec want = densify(wnt);
            oracle_write(want, t, ms.has ? &dmn : nullptr, ms, oacc,
                         replace);

            auto sw = to_backend<double, grb::Sequential>(wnt);
            grb::vxm_overlay(sw, sm, accum, sr, sv, sb, ov,
                             replace ? grb::Replace : grb::Merge);
            expect_matches(sw, want, "seq vxm_overlay");

            auto pw = to_backend<double, grb::CpuPar>(wnt);
            unsigned pvariant = 0;
            for_each_mask_variant(pmn, [&](auto pm, const MaskSpec&) {
              if (pvariant++ != variant) return;
              grb::vxm_overlay(pw, pm, accum, sr, pv, pb, ov,
                               replace ? grb::Replace : grb::Merge);
            });
            expect_matches(pw, want, "cpupar vxm_overlay");

            for (const auto& [mode, dmode, fmode] : kModePairs) {
              sparse::SpmvModeGuard guard(mode);
              sparse::DirectionModeGuard dguard(dmode);
              sparse::FusionGuard fguard(fmode);
              auto gw = to_backend<double, grb::GpuSim>(wnt);
              unsigned gvariant = 0;
              for_each_mask_variant(gmn, [&](auto gm, const MaskSpec&) {
                if (gvariant++ != variant) return;
                grb::vxm_overlay(gw, gm, accum, sr, gv, gb, ov,
                                 replace ? grb::Replace : grb::Merge);
              });
              expect_matches(gw, want, "gpu vxm_overlay");
            }
            ++variant;
          });
        }
      });
    });
    if (::testing::Test::HasFatalFailure()) {
      ADD_FAILURE() << "seed " << seed;
      return;
    }
  }
}

/// Bit-format leg: mxv/vxm over LogicalSemiring<double> — the exactness
/// domain of the word-granularity Bit engine (gen_matrix stores values in
/// [-4, 4] including zeros, so the truth plane genuinely diverges from the
/// structure plane). Each case runs the Sequential CSR oracle, CpuPar, then
/// GpuSim with the Bit engine forced — zipped across the SpMV dispatch pins,
/// since the bit bypass must honor every write-semantics variant regardless
/// of which CSR engine it preempted — and once more in Auto mode (whatever
/// the selector picks must still be exact). Square matrices so one frontier
/// drives both orientations. End-of-test counter deltas prove the forced
/// legs really ran the Bit engine and built views.
TEST_P(DifferentialFuzz, BitTraversal) {
  const auto before = gpu_sim::device().stats();
  for (unsigned c = 0; c < kCasesPerInstance; ++c) {
    const unsigned seed = 8000 + GetParam() * kCasesPerInstance + c;
    std::mt19937 rng(seed);
    const IndexType n = dim(rng);
    const auto at = gen_matrix(rng, n, n, family_of(rng));
    const auto ut = gen_vector(rng, n, 0.3 + 0.6 * (seed % 7) / 7.0);
    const auto wt = gen_vector(rng, n, 0.5);
    const auto mt = gen_mask_vector(rng, n);
    const bool replace = rng() % 2 == 0;
    const unsigned acc_pick = rng();
    const bool do_vxm = c % 2 == 0;  // alternate orientations across cases

    const DenseMat da = densify(at);
    const DenseVec du = densify(ut);
    const DenseVec dw0 = densify(wt);
    const DenseVec dm = densify(mt);

    auto sa = to_backend<double, grb::Sequential>(at);
    auto ga = to_backend<double, grb::GpuSim>(at);
    auto pa = to_backend<double, grb::CpuPar>(at);
    auto su = to_backend<double, grb::Sequential>(ut);
    auto gu = to_backend<double, grb::GpuSim>(ut);
    auto pu = to_backend<double, grb::CpuPar>(ut);
    auto smask = to_backend<std::uint8_t, grb::Sequential>(mt);
    auto gmask = to_backend<std::uint8_t, grb::GpuSim>(mt);
    auto pmask = to_backend<std::uint8_t, grb::CpuPar>(mt);

    const grb::LogicalSemiring<double> sr;
    with_accum(acc_pick, [&](auto accum, const OracleAccum& oacc) {
      const DenseVec t = do_vxm ? oracle_vxm(du, da, sr) : oracle_mxv(da, du, sr);
      unsigned variant = 0;
      for_each_mask_variant(smask, [&](auto sm, const MaskSpec& ms) {
        DenseVec want = dw0;
        oracle_write(want, t, ms.has ? &dm : nullptr, ms, oacc, replace);
        const auto dir = replace ? grb::Replace : grb::Merge;

        auto sw = to_backend<double, grb::Sequential>(wt);
        if (do_vxm)
          grb::vxm(sw, sm, accum, sr, su, sa, dir);
        else
          grb::mxv(sw, sm, accum, sr, sa, su, dir);
        expect_matches(sw, want, "seq bit-leg oracle");

        auto pw = to_backend<double, grb::CpuPar>(wt);
        unsigned pv = 0;
        for_each_mask_variant(pmask, [&](auto pm, const MaskSpec&) {
          if (pv++ != variant) return;
          if (do_vxm)
            grb::vxm(pw, pm, accum, sr, pu, pa, dir);
          else
            grb::mxv(pw, pm, accum, sr, pa, pu, dir);
        });
        expect_matches(pw, want, "cpupar bit-leg");

        // Forced Bit under every dispatch pin, then the selector's own call.
        constexpr unsigned kPins =
            sizeof(kModePairs) / sizeof(kModePairs[0]);
        for (unsigned leg = 0; leg <= kPins; ++leg) {
          const bool forced = leg < kPins;
          sparse::BitModeGuard bguard(forced ? sparse::BitMode::Force
                                             : sparse::BitMode::Auto);
          const auto& [mode, dmode, fmode] =
              kModePairs[forced ? leg : 0];
          sparse::SpmvModeGuard guard(mode);
          sparse::DirectionModeGuard dguard(dmode);
          sparse::FusionGuard fguard(fmode);
          auto gw = to_backend<double, grb::GpuSim>(wt);
          unsigned v = 0;
          for_each_mask_variant(gmask, [&](auto gm, const MaskSpec&) {
            if (v++ != variant) return;
            if (do_vxm)
              grb::vxm(gw, gm, accum, sr, gu, ga, dir);
            else
              grb::mxv(gw, gm, accum, sr, ga, gu, dir);
          });
          expect_matches(gw, want,
                         forced ? "gpu bit forced" : "gpu bit auto");
        }
        ++variant;
      });
    });
    if (::testing::Test::HasFatalFailure()) {
      ADD_FAILURE() << "seed " << seed;
      return;
    }
  }
  // The forced legs must actually have exercised the Bit engine: word
  // traffic recorded, views materialized at least once.
  const auto delta = gpu_sim::device().stats() - before;
  EXPECT_GT(delta.bit_selections, 0u);
  EXPECT_GT(delta.bit_words_touched, 0u);
  EXPECT_GT(delta.bit_conversions, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialFuzz,
                         ::testing::Range(0u, kInstances));

// Registered after the sweep so that in a single-process run of this binary
// (scripts/ci.sh's pool-leak stage — under ctest each test is its own
// process and the invariant is vacuous) it executes last: after every fuzz
// Deterministic counter check: a dense 4x4 multiply under a diagonal mask
// generates 64 partial products of which only 16 (4 per row, folding into
// the 4 diagonal outputs) are allowed — both strategies must record the
// selection and report exactly 48 products skipped by the mask (ESC at its
// pre-sort filter, hash at its seeded tables).
TEST(SpgemmCounters, MaskedSweepRecordsSelectionsAndAvoidedProducts) {
  auto& dev = gpu_sim::device();
  grb::Matrix<double, grb::GpuSim> a(4, 4), b(4, 4), mask(4, 4);
  IndexArrayType rows, cols;
  std::vector<double> vals;
  for (IndexType i = 0; i < 4; ++i)
    for (IndexType j = 0; j < 4; ++j) {
      rows.push_back(i);
      cols.push_back(j);
      vals.push_back(1.0 + static_cast<double>(i + 2 * j));
    }
  a.build(rows, cols, vals);
  b.build(rows, cols, vals);
  mask.build({0, 1, 2, 3}, {0, 1, 2, 3}, {1.0, 1.0, 1.0, 1.0});

  grb::Matrix<double, grb::GpuSim> want(4, 4);
  {
    sparse::SpgemmModeGuard guard(sparse::SpgemmMode::Esc);
    grb::mxm(want, grb::structure(mask), grb::NoAccumulate{},
             grb::ArithmeticSemiring<double>{}, a, b, grb::Replace);
  }
  for (const auto mode :
       {sparse::SpgemmMode::Esc, sparse::SpgemmMode::Hash}) {
    sparse::SpgemmModeGuard guard(mode);
    const auto before = dev.stats();
    grb::Matrix<double, grb::GpuSim> c(4, 4);
    grb::mxm(c, grb::structure(mask), grb::NoAccumulate{},
             grb::ArithmeticSemiring<double>{}, a, b, grb::Replace);
    const auto delta = dev.stats() - before;
    const auto strategy = mode == sparse::SpgemmMode::Esc
                              ? gpu_sim::SpgemmStrategy::kEsc
                              : gpu_sim::SpgemmStrategy::kHash;
    EXPECT_EQ(delta.spgemm_selections[static_cast<std::size_t>(strategy)],
              1u);
    EXPECT_EQ(delta.spgemm_masked_products_avoided, 48u)
        << gpu_sim::to_string(strategy);
    if (mode == sparse::SpgemmMode::Hash) {
      EXPECT_GT(delta.spgemm_hash_table_bytes, 0u);
    }
    // Both strategies must land on the identical stored result.
    IndexArrayType cr, cc, wr, wc;
    std::vector<double> cv, wv;
    c.extractTuples(cr, cc, cv);
    want.extractTuples(wr, wc, wv);
    EXPECT_EQ(cr, wr);
    EXPECT_EQ(cc, wc);
    EXPECT_EQ(cv, wv);
  }
}

// case has churned the device allocator, all client allocations must be
// back, and trimming the pool must return the cached bytes to the heap.
TEST(ZPoolLeak, DeviceHeapReturnsToZeroAfterSweepAndTrim) {
  auto& dev = gpu_sim::device();
  EXPECT_EQ(dev.stats().bytes_in_use, 0u)
      << "a fuzz case leaked a device allocation";
  dev.trim();
  EXPECT_EQ(dev.stats().pool_bytes_held, 0u)
      << "trim() left cached blocks behind";
}

}  // namespace
