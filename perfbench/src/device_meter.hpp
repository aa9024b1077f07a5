#pragma once

/// @file device_meter.hpp
/// Times the benchmark's calls into the library on one simulated device:
/// host wall seconds (raw and relative to the speed readings taken after
/// every call) and the device makespan delta of every call, plus a span per
/// call when tracing is on. Reading makespan_s() drains the lazy op-DAG, so
/// each call's simulated time includes the fused work it queued.

#include <string>
#include <vector>

#include "common.hpp"
#include "gpu_sim/context.hpp"

namespace perfbench {

/// One timed call: its layer name, host wall seconds (raw and relative to
/// the speed reference) and simulated seconds.
struct CallPart {
  std::string name;
  double raw_s = 0.0;
  double host_s = 0.0;
  double sim_s = 0.0;
};

class DeviceMeter {
 public:
  DeviceMeter(gpu_sim::Context& ctx, std::uint64_t request, LocalSpeed& speed)
      : ctx_(ctx), request_(request), speed_(speed) {}

  template <typename Fn>
  void call(const std::string& name, Fn&& fn) {
    const double before = speed_.last();
    CallPart part{name};
    {
      ScopedSpan span(name, request_);
      const double sim0 = ctx_.makespan_s();
      const auto t0 = Clock::now();
      fn();
      const double sim1 = ctx_.makespan_s();
      part.raw_s = seconds_between(t0, Clock::now());
      part.sim_s = sim1 - sim0;
      span.set_sim(part.sim_s);
    }
    part.host_s = part.raw_s * 2.0 / (before + speed_.tick());
    parts_.push_back(std::move(part));
  }

  const std::vector<CallPart>& parts() const { return parts_; }
  /// Sums of the calls' raw and scaled host seconds.
  std::pair<double, double> host_s() const {
    double raw = 0.0, scaled = 0.0;
    for (const CallPart& p : parts_) {
      raw += p.raw_s;
      scaled += p.host_s;
    }
    return {raw, scaled};
  }

 private:
  gpu_sim::Context& ctx_;
  std::uint64_t request_;
  LocalSpeed& speed_;
  std::vector<CallPart> parts_;
};

/// The same interface for host backends (the Sequential oracle): no device,
/// nothing timed.
struct HostMeter {
  template <typename Fn>
  void call(const std::string&, Fn&& fn) {
    fn();
  }
};

/// The gpu_sim and sparse layer metrics of one pass: the device's counters
/// @p st and the pass's host wall seconds @p host_s.
inline void report_device_layers(const gpu_sim::DeviceStats& st, double host_s,
                                 Report& report) {
  auto count = [&](const std::string& name, std::uint64_t v) {
    report.set(name, static_cast<double>(v), "count");
  };
  auto share = [&](const std::string& name, std::uint64_t part,
                   std::uint64_t total) {
    report.set(name,
               total == 0 ? 0.0
                          : static_cast<double>(part) /
                                static_cast<double>(total),
               "fraction");
  };
  report.set("gpu_sim.kernel_s", st.simulated_kernel_time_s, "s");
  report.set("gpu_sim.transfer_s", st.simulated_transfer_time_s, "s");
  report.set("gpu_sim.overlap_hidden_s", st.overlap_seconds_hidden, "s");
  count("gpu_sim.launches", st.kernel_launches);
  count("gpu_sim.launches_elided", st.launches_elided);
  report.set("gpu_sim.kernel_bytes",
             static_cast<double>(st.kernel_bytes_read + st.kernel_bytes_written),
             "B");
  count("gpu_sim.h2d_count", st.h2d_transfers);
  report.set("gpu_sim.h2d_bytes", static_cast<double>(st.h2d_bytes), "B");
  count("gpu_sim.d2h_count", st.d2h_transfers);
  report.set("gpu_sim.d2h_bytes", static_cast<double>(st.d2h_bytes), "B");
  report.set("gpu_sim.pool_hit_rate", st.pool_hit_rate(), "fraction");
  report.set("gpu_sim.host_us_per_launch",
             st.kernel_launches == 0
                 ? 0.0
                 : host_s / static_cast<double>(st.kernel_launches) * 1e6,
             "us");

  using gpu_sim::SpgemmStrategy;
  using gpu_sim::SpmvKernelKind;
  using gpu_sim::TraversalDirection;
  share("sparse.pull_share",
        st.direction_selections[static_cast<unsigned>(TraversalDirection::kPull)],
        st.direction_selections_total());
  share("sparse.spmv_lb_share",
        st.kernel_selections[static_cast<unsigned>(
            SpmvKernelKind::kCsrLoadBalanced)],
        st.kernel_selections_total());
  share("sparse.spgemm_hash_share",
        st.spgemm_selections[static_cast<unsigned>(SpgemmStrategy::kHash)],
        st.spgemm_selections_total());
  count("sparse.bit_selections", st.bit_selections);
  count("sparse.fused_groups", st.fused_launches);
}

}  // namespace perfbench
