#pragma once

/// PageRank through the row-normalized transition matrix M = D⁻¹A, spelled
/// with frontend ops: a value-1 copy of the graph's pattern, its row sums,
/// grb::diag and an mxm, then rank·M under (+, ×) every iteration. This is
/// how algorithms::pagerank computed ranks before it scaled the rank vector
/// by 1/out-degree instead. The tests hold the library to it bit for bit,
/// and compare its device cost against the library's.

#include "gbtl/gbtl.hpp"

/// Start, teleport and stopping rule follow algorithms::detail::pagerank_run:
/// uniform over @p seeds (sorted, distinct), or over every vertex when
/// @p seeds is null; @p warm keeps @p rank as the start. Returns the number
/// of iterations run.
template <typename T, typename Tag>
grb::IndexType transition_matrix_pagerank(const grb::Matrix<T, Tag>& graph,
                                          const grb::IndexArrayType* seeds,
                                          bool warm,
                                          grb::Vector<double, Tag>& rank,
                                          double damping, double tol,
                                          grb::IndexType max_iterations) {
  using grb::IndexType;
  using grb::NoAccumulate;
  using grb::NoMask;
  const IndexType n = graph.nrows();
  grb::Matrix<double, Tag> pattern(n, n);
  grb::apply(pattern, NoMask{}, NoAccumulate{}, [](const T&) { return 1.0; },
             graph);
  grb::Vector<double, Tag> out_degree(n), inv_degree(n);
  grb::reduce(out_degree, NoMask{}, NoAccumulate{}, grb::PlusMonoid<double>{},
              pattern);
  grb::apply(inv_degree, NoMask{}, NoAccumulate{},
             grb::MultiplicativeInverse<double>{}, out_degree);
  grb::Matrix<double, Tag> M(n, n);
  grb::mxm(M, NoMask{}, NoAccumulate{}, grb::ArithmeticSemiring<double>{},
           grb::diag(inv_degree), pattern);

  const grb::IndexArrayType all = grb::all_indices(n);
  const grb::IndexArrayType& targets = seeds != nullptr ? *seeds : all;
  const double share = 1.0 / static_cast<double>(targets.size());
  if (!warm) {
    rank.clear();
    grb::assign(rank, NoMask{}, NoAccumulate{}, share, targets);
  }
  grb::Vector<bool, Tag> dangling(n);
  grb::assign(dangling, grb::complement(grb::structure(out_degree)),
              NoAccumulate{}, true, all);

  const grb::ExecutionPolicy policy;
  grb::Vector<double, Tag> next(n), diff(n), dangling_rank(n);
  for (IndexType it = 0; it < max_iterations; ++it) {
    policy.checkpoint("transition_matrix_pagerank");
    grb::vxm(next, NoMask{}, NoAccumulate{}, grb::ArithmeticSemiring<double>{},
             rank, M, grb::Replace);
    grb::apply(next, NoMask{}, NoAccumulate{},
               grb::BindSecond<double, grb::Times<double>>{damping}, next);
    double dangling_mass = 0.0;
    grb::eWiseMult(dangling_rank, grb::structure(dangling), NoAccumulate{},
                   grb::First<double>{}, rank, rank, grb::Replace);
    grb::reduce(dangling_mass, NoAccumulate{}, grb::PlusMonoid<double>{},
                dangling_rank);
    const double mass = 1.0 - damping + damping * dangling_mass;
    const double teleport =
        seeds != nullptr ? mass * share : mass / static_cast<double>(n);
    grb::assign(next, NoMask{}, grb::Plus<double>{}, teleport, targets);
    grb::eWiseAdd(diff, NoMask{}, NoAccumulate{}, grb::Minus<double>{}, next,
                  rank, grb::Replace);
    grb::apply(diff, NoMask{}, NoAccumulate{}, grb::Abs<double>{}, diff);
    double delta = 0.0;
    grb::reduce(delta, NoAccumulate{}, grb::PlusMonoid<double>{}, diff);
    rank = next;
    if (delta < tol) return it + 1;
  }
  return max_iterations;
}
