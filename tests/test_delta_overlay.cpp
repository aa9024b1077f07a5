/// Delta-CSR overlay property tests: any interleaving of add/remove batches
/// followed by a read must equal a from-scratch CSR build of the same edge
/// set — checked against a std::map reference model that shares no code
/// with the overlay machinery. Covers random batches with duplicate edges,
/// removes of absent edges, add-then-remove round trips (the overlay must
/// come back CLEAN, not merely equivalent), empty deltas, and batch sizes
/// straddling the compaction boundary. The overlay-aware mxv/vxm ops are
/// then diffed bit-for-bit against the plain ops on a monolithically
/// rebuilt matrix, on all three monolithic backends (Sequential, CpuPar on
/// a real 3-worker pool, GpuSim), across mask/accum/replace variants —
/// integer-valued weights make floating sums exact, so "bit-for-bit" is a
/// valid demand (see test_differential_fuzz.cpp) — and every malformed
/// overlay shape must be rejected on all three before it is read.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "backend_cpupar/pool.hpp"
#include "gbtl/gbtl.hpp"
#include "gbtl/overlay_ops.hpp"
#include "gpu_sim/thread_pool.hpp"
#include "graph/delta_csr.hpp"
#include "graph/graph_matrix.hpp"
#include "service/graph_store.hpp"

namespace {

using gbtl_graph::BaseCsr;
using gbtl_graph::BaseCsrPtr;
using gbtl_graph::DeltaOverlay;
using gbtl_graph::DeltaOverlayPtr;
using gbtl_graph::EdgeList;
using gbtl_graph::Index;
using grb::IndexArrayType;
using grb::IndexType;

// ---------------------------------------------------------------------------
// Reference model: a sorted map of live edges. Mutation semantics mirror
// apply_updates' contract (removes before adds, adds upsert last-wins,
// removes of absent edges are no-ops) with none of its machinery.
// ---------------------------------------------------------------------------

using Model = std::map<std::pair<Index, Index>, double>;

Model model_of(const EdgeList& g) {
  Model m;
  for (std::size_t e = 0; e < g.src.size(); ++e)
    m[{g.src[e], g.dst[e]}] = g.weighted() ? g.weight[e] : 1.0;
  return m;
}

void model_apply(Model& m, const EdgeList& adds, const EdgeList& removes) {
  for (std::size_t e = 0; e < removes.src.size(); ++e)
    m.erase({removes.src[e], removes.dst[e]});
  for (std::size_t e = 0; e < adds.src.size(); ++e)
    m[{adds.src[e], adds.dst[e]}] = adds.weighted() ? adds.weight[e] : 1.0;
}

/// materialize(base, overlay) must equal the model exactly: same edges in
/// the same canonical (row-major, column-ascending) order, same value BITS.
void expect_matches_model(const BaseCsr& base, const DeltaOverlay* ov,
                          const Model& model, const char* what) {
  const EdgeList got = gbtl_graph::materialize(base, ov);
  ASSERT_EQ(got.num_edges(), model.size()) << what << ": live edge count";
  std::size_t e = 0;
  for (const auto& [edge, w] : model) {
    ASSERT_EQ(got.src[e], edge.first) << what << ": src at entry " << e;
    ASSERT_EQ(got.dst[e], edge.second) << what << ": dst at entry " << e;
    ASSERT_EQ(std::memcmp(&got.weight[e], &w, sizeof(double)), 0)
        << what << ": weight bits at entry " << e;
    ++e;
  }
}

// ---------------------------------------------------------------------------
// Seeded batch generation
// ---------------------------------------------------------------------------

EdgeList random_graph(std::mt19937& rng, Index n, std::size_t edges) {
  std::uniform_int_distribution<Index> v(0, n - 1);
  std::uniform_int_distribution<int> w(-4, 4);
  EdgeList g;
  g.num_vertices = n;
  for (std::size_t e = 0; e < edges; ++e) {
    g.src.push_back(v(rng));
    g.dst.push_back(v(rng));
    g.weight.push_back(static_cast<double>(w(rng)));
  }
  return g;
}

/// A mutation batch biased toward REAL structural changes: removes are
/// drawn from the live edge set when possible (plus some absent no-ops),
/// adds mix fresh endpoints with duplicates of earlier adds in the same
/// batch (exercising last-wins).
void random_batch(std::mt19937& rng, Index n, const Model& live,
                  EdgeList& adds, EdgeList& removes) {
  std::uniform_int_distribution<Index> v(0, n - 1);
  std::uniform_int_distribution<int> w(-4, 4);
  adds = EdgeList{};
  removes = EdgeList{};
  adds.num_vertices = removes.num_vertices = n;

  const std::size_t n_rm = rng() % 4;
  for (std::size_t e = 0; e < n_rm && !live.empty(); ++e) {
    if (rng() % 4 == 0) {  // remove of a (probably) absent edge: a no-op
      removes.src.push_back(v(rng));
      removes.dst.push_back(v(rng));
    } else {
      auto it = live.begin();
      std::advance(it, rng() % live.size());
      removes.src.push_back(it->first.first);
      removes.dst.push_back(it->first.second);
    }
  }
  const std::size_t n_add = 1 + rng() % 5;
  for (std::size_t e = 0; e < n_add; ++e) {
    if (!adds.src.empty() && rng() % 3 == 0) {  // in-batch duplicate
      const std::size_t d = rng() % adds.src.size();
      adds.src.push_back(adds.src[d]);
      adds.dst.push_back(adds.dst[d]);
    } else {
      adds.src.push_back(v(rng));
      adds.dst.push_back(v(rng));
    }
    adds.weight.push_back(static_cast<double>(w(rng)));
  }
}

// ---------------------------------------------------------------------------
// Mutation-sequence properties (no backends involved)
// ---------------------------------------------------------------------------

class DeltaOverlayFuzz : public ::testing::TestWithParam<unsigned> {};

/// The core property: after ANY sequence of batches, (base, overlay) reads
/// exactly like a from-scratch build of the surviving edge set.
TEST_P(DeltaOverlayFuzz, RandomBatchSequencesMatchModel) {
  for (unsigned c = 0; c < 4; ++c) {
    const unsigned seed = 5000 + GetParam() * 4 + c;
    std::mt19937 rng(seed);
    const Index n = 4 + rng() % 12;
    const EdgeList initial = random_graph(rng, n, 2 + rng() % 20);

    BaseCsrPtr base = gbtl_graph::build_base_csr(initial);
    DeltaOverlayPtr overlay;
    Model model = model_of(initial);
    std::size_t live = base->num_edges();
    ASSERT_EQ(live, model.size()) << "seed " << seed;
    expect_matches_model(*base, nullptr, model, "initial build");

    for (int step = 0; step < 12; ++step) {
      EdgeList adds, removes;
      random_batch(rng, n, model, adds, removes);
      auto res = gbtl_graph::apply_updates(*base, overlay.get(), live, adds,
                                           removes);
      model_apply(model, adds, removes);
      overlay = res.overlay;
      live = res.live_nnz;
      ASSERT_EQ(live, model.size()) << "seed " << seed << " step " << step;
      expect_matches_model(*base, overlay.get(), model, "after batch");
      if (::testing::Test::HasFatalFailure()) {
        ADD_FAILURE() << "seed " << seed << " step " << step;
        return;
      }

      // Occasionally fold and continue on the fresh base — compaction must
      // be invisible to readers.
      if (overlay != nullptr && step % 5 == 4) {
        base = gbtl_graph::compact(*base, *overlay);
        overlay = nullptr;
        ASSERT_EQ(base->num_edges(), model.size())
            << "seed " << seed << ": compaction changed the edge count";
        expect_matches_model(*base, nullptr, model, "after compaction");
      }
    }
  }
}

/// Rows restored to their base content must DROP OUT of the overlay, not
/// linger as equivalent copies — this is what keeps long add/remove churn
/// from growing the overlay without bound.
TEST(DeltaOverlay, AddThenRemoveRoundTripLeavesCleanOverlay) {
  EdgeList g;
  g.num_vertices = 6;
  g.src = {0, 1, 2};
  g.dst = {1, 2, 3};
  g.weight = {1.0, 2.0, 3.0};
  const BaseCsrPtr base = gbtl_graph::build_base_csr(g);

  EdgeList adds;
  adds.num_vertices = 6;
  adds.src = {0, 4};
  adds.dst = {5, 4};
  adds.weight = {7.0, 8.0};
  const EdgeList none{6, {}, {}, {}};

  auto up = gbtl_graph::apply_updates(*base, nullptr, base->num_edges(),
                                      adds, none);
  ASSERT_NE(up.overlay, nullptr);
  EXPECT_EQ(up.overlay->dirty_rows(), 2u);
  EXPECT_EQ(up.edges_added, 2u);
  EXPECT_FALSE(up.structural_removals);
  EXPECT_EQ(up.live_nnz, 5u);

  // Remove exactly what was added: every dirty row returns to its base
  // content, so the overlay must disappear entirely (nullptr, not empty).
  auto down = gbtl_graph::apply_updates(*base, up.overlay.get(), up.live_nnz,
                                        none, adds);
  EXPECT_EQ(down.overlay, nullptr);
  EXPECT_TRUE(down.structural_removals);
  EXPECT_EQ(down.edges_removed, 2u);
  EXPECT_EQ(down.live_nnz, base->num_edges());
  expect_matches_model(*base, down.overlay.get(), model_of(g), "round trip");
}

/// In-batch semantics: removes land before adds (a removed-then-re-added
/// edge survives with the new weight) and duplicate adds resolve last-wins
/// — the grb::Second dup rule build() uses.
TEST(DeltaOverlay, RemovesBeforeAddsAndDuplicatesLastWins) {
  EdgeList g;
  g.num_vertices = 4;
  g.src = {0};
  g.dst = {1};
  g.weight = {1.0};
  const BaseCsrPtr base = gbtl_graph::build_base_csr(g);

  EdgeList adds;
  adds.num_vertices = 4;
  adds.src = {0, 0, 0};
  adds.dst = {1, 2, 2};
  adds.weight = {5.0, 6.0, 7.0};  // (0,2) twice: 7 must win
  EdgeList removes;
  removes.num_vertices = 4;
  removes.src = {0};
  removes.dst = {1};  // removed, then re-added with weight 5

  auto up = gbtl_graph::apply_updates(*base, nullptr, base->num_edges(),
                                      adds, removes);
  Model want;
  want[{0, 1}] = 5.0;
  want[{0, 2}] = 7.0;
  ASSERT_NE(up.overlay, nullptr);
  expect_matches_model(*base, up.overlay.get(), want, "removes-then-adds");
  // The re-add makes the net structural change additive, but the remove DID
  // delete a stored edge first — warm starts must see that.
  EXPECT_TRUE(up.structural_removals);
  EXPECT_EQ(up.live_nnz, 2u);
}

/// An empty batch publishes an unchanged view and touches nothing.
TEST(DeltaOverlay, EmptyDeltaIsANoOp) {
  std::mt19937 rng(99);
  const EdgeList g = random_graph(rng, 8, 12);
  const BaseCsrPtr base = gbtl_graph::build_base_csr(g);
  const EdgeList none{8, {}, {}, {}};

  auto up = gbtl_graph::apply_updates(*base, nullptr, base->num_edges(),
                                      none, none);
  EXPECT_EQ(up.overlay, nullptr);
  EXPECT_TRUE(up.affected.empty());
  EXPECT_EQ(up.edges_added, 0u);
  EXPECT_EQ(up.edges_removed, 0u);
  EXPECT_EQ(up.live_nnz, base->num_edges());
  expect_matches_model(*base, nullptr, model_of(g), "empty delta");
}

/// `affected` is the sorted unique endpoint set of the batch — the seed
/// frontier the incremental algorithms propagate from.
TEST(DeltaOverlay, AffectedVerticesAreSortedUniqueEndpoints) {
  EdgeList g;
  g.num_vertices = 10;
  g.src = {1};
  g.dst = {2};
  g.weight = {1.0};
  const BaseCsrPtr base = gbtl_graph::build_base_csr(g);

  EdgeList adds;
  adds.num_vertices = 10;
  adds.src = {7, 3, 7};
  adds.dst = {3, 9, 9};
  adds.weight = {1.0, 1.0, 1.0};
  EdgeList removes;
  removes.num_vertices = 10;
  removes.src = {1};
  removes.dst = {2};

  auto up = gbtl_graph::apply_updates(*base, nullptr, base->num_edges(),
                                      adds, removes);
  EXPECT_EQ(up.affected, (IndexArrayType{1, 2, 3, 7, 9}));
}

// ---------------------------------------------------------------------------
// GraphStore publish semantics: O(delta) base sharing + compaction boundary
// ---------------------------------------------------------------------------

/// Proof the publish path is O(delta): below the compaction threshold every
/// published version holds the SAME BaseCsr object (pointer identity) —
/// only crossing the threshold pays a rebuild, bumping the generation.
TEST(GraphStoreStreaming, PublishSharesBaseUntilCompactionThreshold) {
  std::mt19937 rng(17);
  service::GraphStore store;
  store.add("g", random_graph(rng, 32, 100));
  const auto v1 = store.get("g");
  ASSERT_NE(v1, nullptr);
  EXPECT_EQ(v1->version, 1u);
  EXPECT_EQ(v1->base_generation, 1u);
  EXPECT_EQ(v1->prev_version, 0u);

  // Policy: compact once the overlay holds MORE than 8 entries.
  gbtl_graph::CompactionPolicy policy;
  policy.min_overlay_nnz = 1;
  policy.max_overlay_ratio = 8.0 / static_cast<double>(v1->num_edges());

  const EdgeList none{32, {}, {}, {}};
  auto prev = v1;
  std::size_t published = 0;
  while (true) {
    EdgeList adds;
    adds.num_vertices = 32;
    // One brand-new edge per batch into a previously untouched row region.
    adds.src = {static_cast<Index>(published % 32)};
    adds.dst = {static_cast<Index>((published * 7 + 1) % 32)};
    adds.weight = {2.0};
    const auto snap = store.apply_edges("g", adds, none, policy);
    ASSERT_NE(snap, nullptr);
    ++published;
    EXPECT_EQ(snap->version, prev->version + 1);
    EXPECT_EQ(snap->prev_version, prev->version);
    if (snap->overlay != nullptr) {
      // Still below threshold: the base must be the SAME object.
      EXPECT_EQ(snap->base.get(), v1->base.get())
          << "publish " << published << " rebuilt the base below threshold";
      EXPECT_EQ(snap->base_generation, v1->base_generation);
    } else {
      // Crossed it: fresh base, bumped generation, overlay folded away.
      EXPECT_NE(snap->base.get(), v1->base.get());
      EXPECT_EQ(snap->base_generation, v1->base_generation + 1);
      EXPECT_EQ(snap->base->num_edges(), snap->num_edges());
      EXPECT_EQ(store.stats().compactions, 1u);
      break;
    }
    prev = snap;
    ASSERT_LT(published, 64u) << "compaction never triggered";
  }
  EXPECT_EQ(store.stats().mutations, published);
}

/// Batch sizes that land the overlay exactly AT and just OVER the
/// threshold: should_compact is strict (>), so "exactly at ratio" stays an
/// overlay and one more entry folds it.
TEST(GraphStoreStreaming, CompactionBoundaryIsStrict) {
  gbtl_graph::CompactionPolicy policy;
  policy.min_overlay_nnz = 4;
  policy.max_overlay_ratio = 0.25;
  EXPECT_FALSE(policy.should_compact(3, 16));  // below min_overlay_nnz
  EXPECT_FALSE(policy.should_compact(4, 16));  // == ratio: stays
  EXPECT_TRUE(policy.should_compact(5, 16));   // > ratio: folds
  EXPECT_TRUE(policy.should_compact(40, 16));
}

// ---------------------------------------------------------------------------
// Satellite 1: device cache invalidation of retired versions
// ---------------------------------------------------------------------------

TEST(DeviceGraphCacheStreaming, InvalidateRetiredDropsOldVersionsAndBases) {
  gpu_sim::Context ctx;
  gpu_sim::ScopedDevice bind(ctx);
  service::GraphStore store;
  std::mt19937 rng(23);
  store.add("g", random_graph(rng, 16, 40));
  store.add("stable", random_graph(rng, 8, 10));

  service::DeviceGraphCache cache(ctx, ctx.properties().total_global_memory);
  const auto v1 = store.get("g");
  cache.get_or_upload(v1);
  cache.get_or_upload_base(v1);
  cache.get_or_upload(store.get("stable"));
  ASSERT_EQ(cache.entries(), 3u);

  // Nothing retired yet: the sweep is a no-op.
  EXPECT_EQ(cache.invalidate_retired(store), 0u);
  EXPECT_EQ(cache.entries(), 3u);

  // Publish v2 via a small batch: v1's MERGED entry is retired, but the
  // base entry survives (same generation — that sharing is the point).
  EdgeList adds;
  adds.num_vertices = 16;
  adds.src = {0};
  adds.dst = {15};
  adds.weight = {3.0};
  const EdgeList none{16, {}, {}, {}};
  gbtl_graph::CompactionPolicy lax;  // defaults: far from compaction
  ASSERT_NE(store.apply_edges("g", adds, none, lax), nullptr);

  const std::size_t before = cache.stats().resident_bytes;
  EXPECT_EQ(cache.invalidate_retired(store), 1u);
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_LT(cache.stats().resident_bytes, before);

  // Bulk re-add bumps the base generation too: now the base entry retires.
  store.add("g", random_graph(rng, 16, 40));
  EXPECT_EQ(cache.invalidate_retired(store), 1u);
  EXPECT_EQ(cache.entries(), 1u);  // only "stable" remains
  EXPECT_EQ(cache.stats().invalidations, 2u);

  // A dropped name retires everything under it.
  store.add("stable", random_graph(rng, 8, 10));
  EXPECT_EQ(cache.invalidate_retired(store), 1u);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.stats().resident_bytes, 0u);
}

// ---------------------------------------------------------------------------
// Overlay-aware ops: bit-exact vs the plain ops on a monolithic rebuild
// ---------------------------------------------------------------------------

template <typename Tag>
void expect_bits_equal(const grb::Vector<double, Tag>& got,
                       const grb::Vector<double, grb::Sequential>& want,
                       const char* what) {
  IndexArrayType gi, wi;
  std::vector<double> gv, wv;
  got.extractTuples(gi, gv);
  want.extractTuples(wi, wv);
  ASSERT_EQ(gi, wi) << what << ": stored pattern differs";
  ASSERT_EQ(gv.size(), wv.size());
  if (!wv.empty())
    ASSERT_EQ(std::memcmp(gv.data(), wv.data(), wv.size() * sizeof(double)),
              0)
        << what << ": value bits differ";
}

class OverlayOpsFuzz : public ::testing::TestWithParam<unsigned> {
 private:
  // Real 3-worker pool so the CpuPar legs exercise cross-thread chunking
  // even on single-core CI machines (see test_differential_fuzz.cpp).
  gpu_sim::ThreadPool cpupar_pool_{3};
  grb::cpupar_backend::ScopedPool bind_cpupar_{cpupar_pool_};
};

/// For seeded (base, overlay, u, mask) tuples: mxv_overlay / vxm_overlay on
/// every backend == plain mxv / vxm on the monolithically rebuilt merged
/// matrix on Sequential, across {NoMask, value mask, complement} x
/// {NoAccumulate, Plus} x {Merge, Replace}.
TEST_P(OverlayOpsFuzz, MxvVxmMatchMonolithicRebuild) {
  for (unsigned c = 0; c < 4; ++c) {
    const unsigned seed = 6000 + GetParam() * 4 + c;
    std::mt19937 rng(seed);
    const Index n = 3 + rng() % 10;
    const EdgeList initial = random_graph(rng, n, 1 + rng() % 18);

    BaseCsrPtr base = gbtl_graph::build_base_csr(initial);
    DeltaOverlayPtr overlay;
    Model model = model_of(initial);
    std::size_t live = base->num_edges();
    for (int step = 0; step < 3; ++step) {  // a few batches deep
      EdgeList adds, removes;
      random_batch(rng, n, model, adds, removes);
      auto res = gbtl_graph::apply_updates(*base, overlay.get(), live, adds,
                                           removes);
      model_apply(model, adds, removes);
      overlay = res.overlay;
      live = res.live_nnz;
    }
    const DeltaOverlay empty;
    const DeltaOverlay& ov = overlay ? *overlay : empty;

    // Merged monolithic rebuild = the oracle operand.
    const EdgeList merged = gbtl_graph::materialize(*base, overlay.get());
    const auto oracle_a =
        gbtl_graph::to_matrix<double, grb::Sequential>(merged);
    const auto sbase = gbtl_graph::base_to_matrix<double, grb::Sequential>(*base);
    const auto pbase = gbtl_graph::base_to_matrix<double, grb::CpuPar>(*base);
    const auto gbase = gbtl_graph::base_to_matrix<double, grb::GpuSim>(*base);

    // Shared input/output/mask tuples (integer-valued).
    std::uniform_int_distribution<int> wgen(-4, 4);
    IndexArrayType uidx, widx, midx;
    std::vector<double> uval, wval;
    std::vector<std::uint8_t> mval;
    for (Index i = 0; i < n; ++i) {
      if (rng() % 3 != 0) {
        uidx.push_back(i);
        uval.push_back(static_cast<double>(wgen(rng)));
      }
      if (rng() % 2 == 0) {
        widx.push_back(i);
        wval.push_back(static_cast<double>(wgen(rng)));
      }
      if (rng() % 2 == 0) {
        midx.push_back(i);
        mval.push_back(rng() % 3 != 0 ? 1 : 0);
      }
    }

    auto make_vec = [&](auto tag, const IndexArrayType& idx,
                        const std::vector<double>& vals) {
      grb::Vector<double, decltype(tag)> v(n);
      if (!idx.empty()) v.build(idx, vals, grb::Second<double>{});
      return v;
    };
    auto make_mask = [&](auto tag) {
      grb::Vector<std::uint8_t, decltype(tag)> m(n);
      if (!midx.empty()) m.build(midx, mval, grb::Second<std::uint8_t>{});
      return m;
    };

    const auto run_all = [&](auto accum, auto outp, unsigned mask_variant,
                             const char* label) {
      // Oracle: plain ops on the monolithic merged matrix, Sequential.
      auto su = make_vec(grb::Sequential{}, uidx, uval);
      auto smask = make_mask(grb::Sequential{});

      auto apply_leg = [&](auto tag, const auto& base_m, const char* who) {
        using LegTag = decltype(tag);
        auto u = make_vec(tag, uidx, uval);
        auto mask = make_mask(tag);

        // mxv leg
        {
          grb::Vector<double, grb::Sequential> want(n);
          if (!widx.empty()) want.build(widx, wval, grb::Second<double>{});
          grb::Vector<double, LegTag> got(n);
          if (!widx.empty()) got.build(widx, wval, grb::Second<double>{});
          switch (mask_variant) {
            case 0:
              grb::mxv(want, grb::NoMask{}, accum,
                       grb::ArithmeticSemiring<double>{}, oracle_a, su, outp);
              grb::mxv_overlay(got, grb::NoMask{}, accum,
                               grb::ArithmeticSemiring<double>{}, base_m, ov,
                               u, outp);
              break;
            case 1:
              grb::mxv(want, smask, accum, grb::ArithmeticSemiring<double>{},
                       oracle_a, su, outp);
              grb::mxv_overlay(got, mask, accum,
                               grb::ArithmeticSemiring<double>{}, base_m, ov,
                               u, outp);
              break;
            default:
              grb::mxv(want, grb::complement(smask), accum,
                       grb::ArithmeticSemiring<double>{}, oracle_a, su, outp);
              grb::mxv_overlay(got, grb::complement(mask), accum,
                               grb::ArithmeticSemiring<double>{}, base_m, ov,
                               u, outp);
              break;
          }
          expect_bits_equal(got, want,
                            (std::string(who) + " mxv_overlay " + label)
                                .c_str());
        }
        // vxm leg
        {
          grb::Vector<double, grb::Sequential> want(n);
          if (!widx.empty()) want.build(widx, wval, grb::Second<double>{});
          grb::Vector<double, LegTag> got(n);
          if (!widx.empty()) got.build(widx, wval, grb::Second<double>{});
          switch (mask_variant) {
            case 0:
              grb::vxm(want, grb::NoMask{}, accum,
                       grb::ArithmeticSemiring<double>{}, su, oracle_a, outp);
              grb::vxm_overlay(got, grb::NoMask{}, accum,
                               grb::ArithmeticSemiring<double>{}, u, base_m,
                               ov, outp);
              break;
            case 1:
              grb::vxm(want, smask, accum, grb::ArithmeticSemiring<double>{},
                       su, oracle_a, outp);
              grb::vxm_overlay(got, mask, accum,
                               grb::ArithmeticSemiring<double>{}, u, base_m,
                               ov, outp);
              break;
            default:
              grb::vxm(want, grb::complement(smask), accum,
                       grb::ArithmeticSemiring<double>{}, su, oracle_a, outp);
              grb::vxm_overlay(got, grb::complement(mask), accum,
                               grb::ArithmeticSemiring<double>{}, u, base_m,
                               ov, outp);
              break;
          }
          expect_bits_equal(got, want,
                            (std::string(who) + " vxm_overlay " + label)
                                .c_str());
        }
      };

      apply_leg(grb::Sequential{}, sbase, "seq");
      apply_leg(grb::CpuPar{}, pbase, "cpupar");
      apply_leg(grb::GpuSim{}, gbase, "gpu");
    };

    for (unsigned mv = 0; mv < 3; ++mv) {
      run_all(grb::NoAccumulate{}, grb::Merge, mv, "noacc/merge");
      run_all(grb::Plus<double>{}, grb::Merge, mv, "plus/merge");
      run_all(grb::NoAccumulate{}, grb::Replace, mv, "noacc/replace");
      run_all(grb::Plus<double>{}, grb::Replace, mv, "plus/replace");
      if (::testing::Test::HasFatalFailure()) {
        ADD_FAILURE() << "seed " << seed << " mask variant " << mv;
        return;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Overlay-aware ops: a malformed overlay is rejected before dispatch
// ---------------------------------------------------------------------------

/// One way to break an overlay of a kPath x kPath matrix.
struct MalformedOverlay {
  const char* what;
  bool out_of_bounds;  // IndexOutOfBoundsException, else InvalidValueException
  grb::MatrixOverlay<double> ov;
};

constexpr IndexType kPath = 70;

std::vector<MalformedOverlay> malformed_overlays() {
  // Well formed: rows 5 and 40 replaced, three entries.
  grb::MatrixOverlay<double> good;
  good.rows = {5, 40};
  good.offsets = {0, 2, 3};
  good.cols = {4, 6, 39};
  good.vals = {1.5, 2.5, 3.5};

  std::vector<MalformedOverlay> bad;
  auto add = [&](const char* what, bool oob, auto&& edit) {
    MalformedOverlay m{what, oob, good};
    edit(m.ov);
    bad.push_back(std::move(m));
  };
  add("row past A.nrows", true, [](auto& ov) { ov.rows = {5, kPath}; });
  add("rows descending", false, [](auto& ov) { ov.rows = {40, 5}; });
  add("row repeated", false, [](auto& ov) { ov.rows = {5, 5}; });
  add("one offset short", false, [](auto& ov) { ov.offsets = {0, 3}; });
  add("offsets not from 0", false, [](auto& ov) { ov.offsets = {1, 2, 3}; });
  add("offsets not to cols.size", false,
      [](auto& ov) { ov.offsets = {0, 2, 2}; });
  add("offsets decreasing", false, [](auto& ov) { ov.offsets = {0, 4, 3}; });
  add("one value short", false, [](auto& ov) { ov.vals.pop_back(); });
  add("column past A.ncols", true, [](auto& ov) { ov.cols[1] = kPath; });
  return bad;
}

/// Runs @p op, which must throw the exception @p m names with a message
/// naming @p op_name.
template <typename Fn>
void expect_rejected(const MalformedOverlay& m, const char* who,
                     const char* op_name, Fn&& op) {
  const std::string where =
      std::string(who) + " " + op_name + ", " + m.what + ": ";
  try {
    op();
    ADD_FAILURE() << where << "did not throw";
  } catch (const grb::IndexOutOfBoundsException& e) {
    EXPECT_TRUE(m.out_of_bounds) << where << e.what();
    EXPECT_NE(std::string(e.what()).find(op_name), std::string::npos)
        << where << e.what();
  } catch (const grb::InvalidValueException& e) {
    EXPECT_FALSE(m.out_of_bounds) << where << e.what();
    EXPECT_NE(std::string(e.what()).find(op_name), std::string::npos)
        << where << e.what();
  }
}

/// Every malformed shape throws on Sequential, CpuPar and GpuSim, for both
/// overlay ops, before any backend reads the overlay — so w is unchanged.
TEST(OverlayOpsValidation, MalformedOverlayThrowsAndLeavesOutputUnchanged) {
  gpu_sim::ThreadPool pool(3);
  grb::cpupar_backend::ScopedPool bind(pool);

  auto check_backend = [&](auto tag, const char* who) {
    using Tag = decltype(tag);
    // The path 0 -> 1 -> ... -> kPath-1.
    IndexArrayType src, dst;
    std::vector<double> ones;
    for (IndexType i = 0; i + 1 < kPath; ++i) {
      src.push_back(i);
      dst.push_back(i + 1);
      ones.push_back(1.0);
    }
    grb::Matrix<double, Tag> a(kPath, kPath);
    a.build(src, dst, ones);
    grb::Vector<double, Tag> u(kPath);
    for (IndexType i = 0; i < kPath; i += 2) u.setElement(i, 0.5 + i);
    grb::Vector<double, Tag> w(kPath);
    for (IndexType i = 1; i < kPath; i += 3) w.setElement(i, 2.0 * i);
    IndexArrayType want_idx, got_idx;
    std::vector<double> want_vals, got_vals;
    w.extractTuples(want_idx, want_vals);

    for (const auto& m : malformed_overlays()) {
      expect_rejected(m, who, "mxv_overlay", [&] {
        grb::mxv_overlay(w, grb::NoMask{}, grb::Plus<double>{},
                         grb::ArithmeticSemiring<double>{}, a, m.ov, u);
      });
      expect_rejected(m, who, "vxm_overlay", [&] {
        grb::vxm_overlay(w, grb::NoMask{}, grb::Plus<double>{},
                         grb::ArithmeticSemiring<double>{}, u, a, m.ov);
      });
      w.extractTuples(got_idx, got_vals);
      EXPECT_EQ(got_idx, want_idx) << who << ", " << m.what;
      EXPECT_EQ(got_vals, want_vals) << who << ", " << m.what;
    }
  };
  check_backend(grb::Sequential{}, "seq");
  check_backend(grb::CpuPar{}, "cpupar");
  check_backend(grb::GpuSim{}, "gpu");
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaOverlayFuzz, ::testing::Range(0u, 8u));
INSTANTIATE_TEST_SUITE_P(Seeds, OverlayOpsFuzz, ::testing::Range(0u, 6u));

}  // namespace
