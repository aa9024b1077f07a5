#pragma once

/// @file knob.hpp
/// Process-wide tuning knobs (docs/env_vars.md). Every knob follows one
/// rule: an atomic value, seeded once at first use from an optional
/// environment variable, and pinned for a scope by a KnobGuard. Service
/// workers read knobs while a test or bench thread pins them, so every read
/// and write goes through the atomic.

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <type_traits>

namespace gpu_sim {

/// One value an enumerated knob's environment variable accepts, by name.
template <typename T>
struct KnobName {
  const char* name;
  T value;
};

/// The value @p text names in the constexpr table @p Names; nullopt when it
/// names none.
template <const auto& Names>
auto parse_named(const char* text)
    -> std::optional<std::remove_cvref_t<decltype(Names[0].value)>> {
  for (const auto& entry : Names)
    if (std::strcmp(text, entry.name) == 0) return entry.value;
  return std::nullopt;
}

/// @p text as a positive count (leading digits, strtol rules); nullopt when
/// it reads as zero, negative or no number.
inline std::optional<std::size_t> parse_count(const char* text) {
  const long v = std::strtol(text, nullptr, 10);
  if (v > 0) return static_cast<std::size_t>(v);
  return std::nullopt;
}

template <typename T>
class Knob {
 public:
  using Parser = std::optional<T> (*)(const char*);

  /// A knob only guards move.
  explicit Knob(T initial) : value_(initial) {}
  /// A knob seeded from environment variable @p env when it is set and
  /// @p parse accepts it, else @p fallback. The variable is read here only:
  /// held in a function-local static, the knob reads it once, at first use.
  Knob(T fallback, const char* env, Parser parse)
      : value_(seed(fallback, env, parse)) {}

  T get() const { return value_.load(); }
  void set(T v) { value_.store(v); }
  /// Set @p v and return the value it replaced.
  T exchange(T v) { return value_.exchange(v); }

 private:
  static T seed(T fallback, const char* env, Parser parse) {
    const char* text = std::getenv(env);
    if (text == nullptr) return fallback;
    return parse(text).value_or(fallback);
  }

  std::atomic<T> value_;
};

/// Pins the knob that @p knob (a function returning a Knob<T>&) names to a
/// value for the guard's lifetime, then restores the value it replaced, so
/// guards nest.
template <auto& knob>
class KnobGuard {
 public:
  using Value = decltype(knob().get());

  explicit KnobGuard(Value v) : saved_(knob().exchange(v)) {}
  ~KnobGuard() { knob().set(saved_); }

  KnobGuard(const KnobGuard&) = delete;
  KnobGuard& operator=(const KnobGuard&) = delete;

 private:
  Value saved_;
};

}  // namespace gpu_sim
