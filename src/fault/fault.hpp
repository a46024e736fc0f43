// Deterministic, seeded fault injection for the serving path.
//
// A *fault site* is a named point in the code where a hardware or software
// fault can be simulated: a bit flip in fetched node bytes, a corrupted
// snapshot segment, a truncated index file, an exhausted query budget, a
// crashed batch worker. Sites are registered by name in a central table
// (sites.hpp declares the name constants call sites use), so the campaign
// driver can enumerate and sweep every one of them.
//
// Design constraints, mirroring obs::TraceSession:
//   * Zero overhead when disarmed: call sites guard on fault::enabled(), a
//     single relaxed atomic load. No scope installed -> no locking, no work.
//   * Deterministic: whether a site fires and the corruption payload it
//     yields are a pure function of (Spec, evaluation index). The same seed
//     always injects the same fault at the same point.
//   * One-shot by default: a Spec fires on the trigger-th evaluation of its
//     site for `count` evaluations and then stays quiet, so a retried query
//     sees clean data — the recovery path the engine's degradation policy
//     depends on is actually exercised.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace psb::fault {

/// One entry of the central fault-site registry.
struct SiteInfo {
  std::string_view name;
  std::string_view description;
};

/// Every registered site, in registry order (stable across runs).
std::span<const SiteInfo> sites();

/// True when `name` names a registered site.
bool is_site(std::string_view name) noexcept;

/// One armed fault: fire on the `trigger`-th evaluation (0-based) of `site`,
/// for `count` consecutive evaluations; `seed` derives the corruption payload.
struct Spec {
  std::string site;
  std::uint64_t seed = 0;
  std::uint64_t trigger = 0;
  std::uint64_t count = 1;
};

/// True when an InjectionScope is active (relaxed atomic load; the only cost
/// paid on production paths).
bool enabled() noexcept;

/// Result of evaluating a site: whether the fault fires here and the seeded
/// payload bits that parameterize the corruption (which bit to flip, how many
/// bytes to truncate, ...).
struct Shot {
  bool fire = false;
  std::uint64_t payload = 0;

  explicit operator bool() const noexcept { return fire; }
};

/// Evaluate a site against the active scope. Returns a non-firing Shot when
/// injection is disabled or no Spec targets the site. Thread-safe.
Shot evaluate(std::string_view site);

/// Arena corruption hook: under an active injection scope, let `site` strike
/// `arena` in place (`arena->corrupt(payload)`); a no-op for a null arena.
template <typename Arena>
void strike(Arena* arena, std::string_view site) {
  if (arena == nullptr || !enabled()) return;
  if (const Shot shot = evaluate(site)) arena->corrupt(shot.payload);
}

/// RAII scope arming a set of Specs as the process-wide injection plan.
/// Scopes do not nest: constructing a second concurrent scope throws
/// psb::InternalError. Every Spec's site must be registered
/// (psb::InvalidArgument otherwise).
class InjectionScope {
 public:
  explicit InjectionScope(Spec spec);
  explicit InjectionScope(std::vector<Spec> specs);
  ~InjectionScope();
  InjectionScope(const InjectionScope&) = delete;
  InjectionScope& operator=(const InjectionScope&) = delete;

  /// How many times `site` fired / was evaluated under this scope.
  std::uint64_t fired(std::string_view site) const;
  std::uint64_t evaluations(std::string_view site) const;

  /// Total fires across all sites.
  std::uint64_t total_fired() const;

  struct State;  // implementation detail; public so fault.cpp's free functions can share it

 private:
  State* state_;
};

/// Flip one bit of `bytes` chosen by `payload` (no-op on an empty range).
/// The canonical corruption primitive shared by the bit-flip sites.
void flip_bit(void* data, std::size_t bytes, std::uint64_t payload) noexcept;

/// SplitMix64 — the deterministic payload/derivation mixer.
std::uint64_t mix(std::uint64_t x) noexcept;

}  // namespace psb::fault
