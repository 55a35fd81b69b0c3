// Deterministic fault injection: named failpoints for chaos testing.
//
// A failpoint is a named site in a production code path (cache disk write,
// socket send, page allocation, worker-thread body, ...) where a test run
// can inject a failure.  Sites are instrumented once with the TWM_FAILPOINT
// macro and stay in release builds: when no failpoint is configured the
// macro costs one relaxed atomic load and branches straight past the
// registry — no lock, no string hashing, no allocation.
//
// Activation is a spec string, from the TWM_FAILPOINTS environment variable
// or `twm_cli --failpoints`:
//
//   name=action[@count|:prob][;name=action...]
//
//   cache.disk_write=err        every hit fails
//   cache.disk_write=err@3      exactly the 3rd hit fails (1-based, one-shot)
//   socket.send=drop:0.1        each hit fails with probability 0.1
//   page.alloc=oom@100          the 100th page allocation throws bad_alloc
//
// Actions are interpreted by the site: `err` = the operation reports
// failure, `oom` = allocation failure (std::bad_alloc), `drop` = data is
// silently discarded (sockets), `eintr` = one synthetic EINTR before the
// real call (retry-loop coverage).  Sites ignore actions that make no sense
// for them by treating any fired action as their natural failure mode.
//
// Both triggers are deterministic: `@count` counts hits per failpoint, and
// `:prob` draws from a per-failpoint RNG seeded from TWM_FAILPOINTS_SEED
// (default 1) xor the FNV-1a hash of the name — the same spec + seed + hit
// sequence always fires the same hits, so a chaos failure reproduces.
//
// The registry is process-wide and thread-safe.  Note for this repo: the
// arch-flagged wide backends live in a separate shared library (twm_wide)
// that absorbs its own copy of the static lib, so its registry instance is
// distinct.  Both copies self-configure from TWM_FAILPOINTS at load time,
// which happens before main() — so the environment variable reaches every
// site, while failpoints_configure() (and the CLI's --failpoints flag,
// which calls it) reaches only the static-lib copy: every service, cache
// (region resume included — it is the cache) and worker site, plus memsim
// sites on the scalar and --simd 64 paths.  Chaos runs that must hit
// wide-backend page allocation set the environment variable instead.
#ifndef TWM_UTIL_FAILPOINT_H
#define TWM_UTIL_FAILPOINT_H

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace twm::util {

enum class FailAction { Err, Oom, Drop, Eintr };

std::string_view to_string(FailAction a);

// Parses and installs a failpoint spec, replacing any previous
// configuration.  An empty spec deactivates everything.  Returns false and
// fills `error` (when non-null) on a malformed spec — the previous
// configuration is left untouched in that case.
bool failpoints_configure(std::string_view spec, std::string* error = nullptr);

// Deactivates all failpoints and resets hit/trip counters.
void failpoints_clear();

// Seed for `:prob` triggers (also read from TWM_FAILPOINTS_SEED at startup).
// Takes effect for failpoints configured *after* the call.
void failpoints_set_seed(std::uint64_t seed);

namespace detail {
extern std::atomic<bool> g_failpoints_enabled;
std::optional<FailAction> failpoint_hit_slow(std::string_view name);
}  // namespace detail

// True when any failpoint is configured — the macro's fast-path gate.
inline bool failpoints_enabled() {
  return detail::g_failpoints_enabled.load(std::memory_order_relaxed);
}

// Records a hit on `name` and returns the action when the trigger fires.
// Prefer the TWM_FAILPOINT macro, which skips the call entirely when no
// failpoint is configured.
inline std::optional<FailAction> failpoint_hit(std::string_view name) {
  if (!failpoints_enabled()) return std::nullopt;
  return detail::failpoint_hit_slow(name);
}

// Times `name` actually fired (not merely was hit) since configure/clear.
// Test observability and degradation counters.
std::uint64_t failpoint_trips(std::string_view name);

// Names of all configured failpoints (spec order).
std::vector<std::string> failpoint_names();

}  // namespace twm::util

// Evaluates to std::optional<FailAction>; empty unless a configured
// failpoint named `name` fires on this hit.  Usage:
//
//   if (auto fp = TWM_FAILPOINT("cache.disk_write")) return false;
#define TWM_FAILPOINT(name) (::twm::util::failpoint_hit(name))

#endif  // TWM_UTIL_FAILPOINT_H
