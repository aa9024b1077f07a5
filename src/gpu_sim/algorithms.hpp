#pragma once

/// @file algorithms.hpp
/// Thrust-style device primitive library on top of the simulated launch
/// API. The GBTL-CUDA backend composes its GraphBLAS operations from these
/// primitives exactly the way the paper's CUDA backend composed Thrust/CUSP
/// calls. Each primitive both executes functionally and charges the cost
/// model with a realistic pass structure (a scan is two passes, a radix
/// sort is four key passes plus payload movement, ...).

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "gpu_sim/context.hpp"
#include "gpu_sim/device_vector.hpp"

namespace gpu_sim {

// ---------------------------------------------------------------------------
// Elementwise primitives
// ---------------------------------------------------------------------------

template <typename T>
void fill(device_vector<T>& v, const T& value) {
  Context& ctx = v.context();
  T* d = v.data();
  ctx.launch_n(v.size(), LaunchStats{v.size(), 0, v.size() * sizeof(T)},
               [=](std::size_t i) { d[i] = value; });
}

/// v[i] = start + i
template <typename T>
void sequence(device_vector<T>& v, T start = T{0}) {
  Context& ctx = v.context();
  T* d = v.data();
  ctx.launch_n(v.size(), LaunchStats{v.size(), 0, v.size() * sizeof(T)},
               [=](std::size_t i) { d[i] = start + static_cast<T>(i); });
}

/// out[i] = f(in[i])
template <typename TIn, typename TOut, typename UnaryOp>
void transform(const device_vector<TIn>& in, device_vector<TOut>& out,
               UnaryOp f) {
  Context& ctx = in.context();
  out.resize(in.size());
  const TIn* s = in.data();
  TOut* d = out.data();
  ctx.launch_n(in.size(),
               LaunchStats{in.size(), in.size() * sizeof(TIn),
                           in.size() * sizeof(TOut)},
               [=](std::size_t i) { d[i] = f(s[i]); });
}

/// out[i] = f(a[i], b[i])
template <typename TA, typename TB, typename TOut, typename BinaryOp>
void transform(const device_vector<TA>& a, const device_vector<TB>& b,
               device_vector<TOut>& out, BinaryOp f) {
  Context& ctx = a.context();
  out.resize(a.size());
  const TA* pa = a.data();
  const TB* pb = b.data();
  TOut* d = out.data();
  ctx.launch_n(a.size(),
               LaunchStats{a.size(),
                           a.size() * (sizeof(TA) + sizeof(TB)),
                           a.size() * sizeof(TOut)},
               [=](std::size_t i) { d[i] = f(pa[i], pb[i]); });
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

/// Tree reduction; result lands on the host (thrust::reduce semantics, which
/// implicitly costs a scalar D2H inside the primitive — modeled as part of
/// the kernel's launch overhead).
template <typename T, typename BinaryOp>
T reduce(const device_vector<T>& v, T init, BinaryOp op) {
  Context& ctx = v.context();
  const T* d = v.data();
  T acc = init;
  // Functionally sequential; modeled as a two-level tree reduction: one
  // full read pass plus a negligible second stage.
  for (std::size_t i = 0; i < v.size(); ++i) acc = op(acc, d[i]);
  ctx.account_kernel(LaunchStats{v.size(), v.size() * sizeof(T), 64});
  ctx.account_kernel(LaunchStats{256, 256 * sizeof(T), sizeof(T)});
  return acc;
}

template <typename T>
T reduce_sum(const device_vector<T>& v) {
  return reduce(v, T{0}, [](T a, T b) { return a + b; });
}

/// Count of elements satisfying the predicate.
template <typename T, typename Pred>
std::size_t count_if(const device_vector<T>& v, Pred pred) {
  Context& ctx = v.context();
  const T* d = v.data();
  std::size_t n = 0;
  for (std::size_t i = 0; i < v.size(); ++i)
    if (pred(d[i])) ++n;
  ctx.account_kernel(LaunchStats{v.size(), v.size() * sizeof(T), 64});
  return n;
}

/// Does pred(i) hold for every i < n? One kernel reading @p bytes_read, its
/// bool result a scalar readback charged like count_if's.
template <typename Pred>
bool all_of_n(Context& ctx, std::size_t n, std::uint64_t bytes_read,
              Pred pred) {
  bool all = true;
  for (std::size_t i = 0; i < n && all; ++i) all = pred(i);
  ctx.account_kernel(LaunchStats{n, bytes_read, 64});
  return all;
}

// ---------------------------------------------------------------------------
// Scans
// ---------------------------------------------------------------------------

/// Exclusive prefix sum; returns the grand total (handy for sizing output
/// buffers of stream compaction, the CUSP idiom).
template <typename T>
T exclusive_scan(const device_vector<T>& in, device_vector<T>& out,
                 T init = T{0}) {
  Context& ctx = in.context();
  out.resize(in.size());
  const T* s = in.data();
  T* d = out.data();
  T run = init;
  for (std::size_t i = 0; i < in.size(); ++i) {
    d[i] = run;
    run = run + s[i];
  }
  // Work-efficient scan: up-sweep + down-sweep = 2 passes.
  const std::uint64_t traffic = 2ull * in.size() * sizeof(T);
  ctx.account_kernel(LaunchStats{in.size(), traffic, traffic});
  return run;
}

template <typename T>
void inclusive_scan(const device_vector<T>& in, device_vector<T>& out) {
  Context& ctx = in.context();
  out.resize(in.size());
  const T* s = in.data();
  T* d = out.data();
  T run{};
  for (std::size_t i = 0; i < in.size(); ++i) {
    run = (i == 0) ? s[0] : run + s[i];
    d[i] = run;
  }
  const std::uint64_t traffic = 2ull * in.size() * sizeof(T);
  ctx.account_kernel(LaunchStats{in.size(), traffic, traffic});
}

// ---------------------------------------------------------------------------
// Gather / scatter / compaction
// ---------------------------------------------------------------------------

/// out[i] = in[map[i]]
template <typename T, typename I>
void gather(const device_vector<I>& map, const device_vector<T>& in,
            device_vector<T>& out) {
  Context& ctx = map.context();
  out.resize(map.size());
  const I* m = map.data();
  const T* s = in.data();
  T* d = out.data();
  ctx.launch_n(map.size(),
               LaunchStats{map.size(),
                           map.size() * (sizeof(I) + sizeof(T)),
                           map.size() * sizeof(T)},
               [=](std::size_t i) { d[i] = s[m[i]]; });
}

/// out[map[i]] = in[i]
template <typename T, typename I>
void scatter(const device_vector<T>& in, const device_vector<I>& map,
             device_vector<T>& out) {
  Context& ctx = map.context();
  const T* s = in.data();
  const I* m = map.data();
  T* d = out.data();
  ctx.launch_n(in.size(),
               LaunchStats{in.size(),
                           in.size() * (sizeof(I) + sizeof(T)),
                           in.size() * sizeof(T)},
               [=](std::size_t i) { d[m[i]] = s[i]; });
}

/// Stream compaction: copy in[i] to the output where flags[i] != 0,
/// preserving order. Returns the number of elements kept. Modeled as
/// scan + scatter (two launches), the canonical CUDA formulation.
template <typename T, typename F>
std::size_t copy_flagged(const device_vector<T>& in,
                         const device_vector<F>& flags,
                         device_vector<T>& out) {
  Context& ctx = in.context();
  const T* s = in.data();
  const F* f = flags.data();
  std::size_t kept = 0;
  std::vector<T> tmp;
  tmp.reserve(in.size());
  for (std::size_t i = 0; i < in.size(); ++i)
    if (f[i] != F{0}) tmp.push_back(s[i]);
  kept = tmp.size();
  out.resize(kept);
  if (kept > 0) std::copy(tmp.begin(), tmp.end(), out.data());
  const std::uint64_t scan_traffic = 2ull * in.size() * sizeof(F);
  ctx.account_kernel(LaunchStats{in.size(), scan_traffic, scan_traffic});
  ctx.account_kernel(LaunchStats{in.size(),
                                 in.size() * (sizeof(T) + sizeof(F)),
                                 kept * sizeof(T)});
  return kept;
}

/// Stream compaction of set positions: write the indices i where
/// flags[i] != 0 to @p out in ascending order. Returns the number kept.
/// This is the dense-bitmap -> sparse-frontier conversion of the
/// direction-optimizing traversal engine; modeled as scan + scatter, the
/// same two-launch shape as copy_flagged.
template <typename F, typename I>
std::size_t flagged_indices(const device_vector<F>& flags,
                            device_vector<I>& out) {
  Context& ctx = flags.context();
  const F* f = flags.data();
  std::vector<I> tmp;
  for (std::size_t i = 0; i < flags.size(); ++i)
    if (f[i] != F{0}) tmp.push_back(static_cast<I>(i));
  const std::size_t kept = tmp.size();
  out.resize(kept);
  if (kept > 0) std::copy(tmp.begin(), tmp.end(), out.data());
  const std::uint64_t scan_traffic = 2ull * flags.size() * sizeof(F);
  ctx.account_kernel(LaunchStats{flags.size(), scan_traffic, scan_traffic});
  ctx.account_kernel(LaunchStats{flags.size(), flags.size() * sizeof(F),
                                 kept * sizeof(I)});
  return kept;
}

// ---------------------------------------------------------------------------
// Sorting and segmented operations
// ---------------------------------------------------------------------------

/// Stable argsort of @p keys: fills @p perm with indices such that
/// keys[perm[]] is nondecreasing. Modeled as a 4-pass LSB radix sort over
/// 32-bit keys carrying a 4-byte payload.
template <typename K, typename I>
void stable_argsort(const device_vector<K>& keys, device_vector<I>& perm) {
  Context& ctx = keys.context();
  perm.resize(keys.size());
  const K* k = keys.data();
  I* p = perm.data();
  std::iota(p, p + keys.size(), I{0});
  std::stable_sort(p, p + keys.size(),
                   [k](I a, I b) { return k[a] < k[b]; });
  const std::uint64_t pass = keys.size() * (sizeof(K) + sizeof(I));
  ctx.account_kernel(LaunchStats{4ull * keys.size(), 4ull * pass, 4ull * pass});
}

/// In-place stable sort_by_key of (keys, values) — the thrust workhorse for
/// building sparse structures. Same radix cost model as stable_argsort.
template <typename K, typename V>
void sort_by_key(device_vector<K>& keys, device_vector<V>& values) {
  Context& ctx = keys.context();
  device_vector<std::uint64_t> perm(ctx);
  stable_argsort(keys, perm);
  device_vector<K> sorted_keys(ctx);
  device_vector<V> sorted_vals(ctx);
  gather(perm, keys, sorted_keys);
  gather(perm, values, sorted_vals);
  keys = std::move(sorted_keys);
  values = std::move(sorted_vals);
}

/// reduce_by_key over a sorted key sequence: collapses runs of equal keys,
/// combining values with @p op. Returns the number of distinct runs.
template <typename K, typename V, typename BinaryOp>
std::size_t reduce_by_key(const device_vector<K>& keys,
                          const device_vector<V>& values,
                          device_vector<K>& out_keys,
                          device_vector<V>& out_values, BinaryOp op) {
  Context& ctx = keys.context();
  const K* k = keys.data();
  const V* v = values.data();
  std::vector<K> rk;
  std::vector<V> rv;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (!rk.empty() && rk.back() == k[i]) {
      rv.back() = op(rv.back(), v[i]);
    } else {
      rk.push_back(k[i]);
      rv.push_back(v[i]);
    }
  }
  out_keys.resize(rk.size());
  out_values.resize(rv.size());
  if (!rk.empty()) {
    std::copy(rk.begin(), rk.end(), out_keys.data());
    std::copy(rv.begin(), rv.end(), out_values.data());
  }
  const std::uint64_t read = keys.size() * (sizeof(K) + sizeof(V));
  const std::uint64_t written = rk.size() * (sizeof(K) + sizeof(V));
  ctx.account_kernel(LaunchStats{keys.size(), read, written});
  return rk.size();
}

/// Deduplicate a sorted sequence in place (thrust::unique). Returns the
/// number of distinct elements. Modeled as flag + scan + scatter.
template <typename T>
std::size_t unique(device_vector<T>& v) {
  Context& ctx = v.context();
  T* d = v.data();
  std::size_t out = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (out == 0 || !(d[out - 1] == d[i])) d[out++] = d[i];
  }
  const std::uint64_t traffic = 3ull * v.size() * sizeof(T);
  ctx.account_kernel(LaunchStats{v.size(), traffic, traffic});
  ctx.account_kernel(LaunchStats{v.size(), 2 * v.size(), 2 * v.size()});
  v.resize(out);
  return out;
}

/// out[0] = in[0]; out[i] = in[i] - in[i-1] (thrust::adjacent_difference).
/// The inverse of inclusive_scan; used to recover per-row counts from CSR
/// offsets.
template <typename T>
void adjacent_difference(const device_vector<T>& in, device_vector<T>& out) {
  Context& ctx = in.context();
  out.resize(in.size());
  const T* s = in.data();
  T* d = out.data();
  ctx.launch_n(in.size(),
               LaunchStats{in.size(), 2 * in.size() * sizeof(T),
                           in.size() * sizeof(T)},
               [=](std::size_t i) {
                 d[i] = (i == 0) ? s[0] : s[i] - s[i - 1];
               });
}

/// Vectorized binary search: for each needle, index of the first element of
/// the sorted haystack that is >= needle (thrust::lower_bound). Used to
/// build CSR row offsets from sorted COO row indices.
template <typename T, typename I>
void lower_bound(const device_vector<T>& sorted_haystack,
                 const device_vector<T>& needles, device_vector<I>& out) {
  Context& ctx = needles.context();
  out.resize(needles.size());
  const T* h = sorted_haystack.data();
  const T* n = needles.data();
  const std::size_t hn = sorted_haystack.size();
  I* d = out.data();
  std::uint64_t log_n = 1;
  while ((1ull << log_n) < std::max<std::size_t>(hn, 2)) ++log_n;
  ctx.launch_n(needles.size(),
               LaunchStats{needles.size() * log_n,
                           needles.size() * log_n * sizeof(T),
                           needles.size() * sizeof(I)},
               [=](std::size_t i) {
                 d[i] = static_cast<I>(std::lower_bound(h, h + hn, n[i]) - h);
               });
}

}  // namespace gpu_sim
