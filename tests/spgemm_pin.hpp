#pragma once

/// GBTL_SPGEMM_MODE=esc|hash|auto pins the GpuSim SpGEMM strategy for a
/// whole test binary. The test binaries read it, not the library, so
/// scripts/ci.sh can replay a sweep on one engine under the sanitizers
/// (the variable cannot reach ctest-discovered shards, so CI invokes the
/// binaries directly).

#include <cstdlib>
#include <cstring>
#include <optional>

#include "sparse/spgemm_select.hpp"

inline std::optional<sparse::SpgemmMode> spgemm_pin_from_env() {
  const char* pin = std::getenv("GBTL_SPGEMM_MODE");
  if (pin == nullptr) return std::nullopt;
  if (std::strcmp(pin, "esc") == 0) return sparse::SpgemmMode::Esc;
  if (std::strcmp(pin, "hash") == 0) return sparse::SpgemmMode::Hash;
  if (std::strcmp(pin, "auto") == 0) return sparse::SpgemmMode::Auto;
  return std::nullopt;
}
