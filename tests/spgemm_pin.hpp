#pragma once

/// GBTL_SPGEMM_MODE=esc|hash|auto pins the GpuSim SpGEMM strategy for a
/// whole test binary. The test binaries read it, not the library, so
/// scripts/ci.sh can replay a sweep on one engine under the sanitizers
/// (the variable cannot reach ctest-discovered shards, so CI invokes the
/// binaries directly).

#include <cstdlib>
#include <optional>

#include "gpu_sim/knob.hpp"
#include "sparse/spgemm_select.hpp"

inline constexpr gpu_sim::KnobName<sparse::SpgemmMode> kSpgemmModeNames[] = {
    {"esc", sparse::SpgemmMode::Esc},
    {"hash", sparse::SpgemmMode::Hash},
    {"auto", sparse::SpgemmMode::Auto}};

/// The pinned strategy, or nullopt when GBTL_SPGEMM_MODE is unset or names
/// none (the fuzz harness must know whether a pin was set).
inline std::optional<sparse::SpgemmMode> spgemm_pin_from_env() {
  const char* pin = std::getenv("GBTL_SPGEMM_MODE");
  if (pin == nullptr) return std::nullopt;
  return gpu_sim::parse_named<kSpgemmModeNames>(pin);
}
