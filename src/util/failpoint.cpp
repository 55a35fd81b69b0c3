#include "util/failpoint.h"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>

#include "util/rng.h"

namespace twm::util {

namespace {

// Uniform double in [0, 1) from the top 53 bits of one engine draw.
double uniform01(Rng& rng) {
  return static_cast<double>(rng.next_u64() >> 11) * (1.0 / 9007199254740992.0);
}

struct Failpoint {
  std::string name;
  FailAction action = FailAction::Err;
  // Trigger: count > 0 fires exactly on the count-th hit (one-shot);
  // prob >= 0 fires each hit with that probability; neither set fires on
  // every hit.
  std::uint64_t count = 0;
  double prob = -1.0;
  Rng rng{1};
  std::uint64_t hits = 0;
  std::uint64_t trips = 0;
};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<Failpoint>> points;
  std::uint64_t seed = 1;
};

Registry& registry() {
  static Registry r;
  return r;
}

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::optional<FailAction> parse_action(std::string_view s) {
  if (s == "err") return FailAction::Err;
  if (s == "oom") return FailAction::Oom;
  if (s == "drop") return FailAction::Drop;
  if (s == "eintr") return FailAction::Eintr;
  return std::nullopt;
}

bool parse_point(std::string_view item, std::uint64_t seed,
                 std::unique_ptr<Failpoint>& out, std::string* error) {
  const auto fail = [&](const std::string& msg) {
    if (error) *error = "failpoint \"" + std::string(item) + "\": " + msg;
    return false;
  };
  const std::size_t eq = item.find('=');
  if (eq == std::string_view::npos || eq == 0) return fail("expected name=action");
  auto fp = std::make_unique<Failpoint>();
  fp->name = std::string(item.substr(0, eq));
  std::string_view rhs = item.substr(eq + 1);
  std::string_view action = rhs;
  if (const std::size_t at = rhs.find('@'); at != std::string_view::npos) {
    action = rhs.substr(0, at);
    const std::string n(rhs.substr(at + 1));
    char* end = nullptr;
    const unsigned long long v = std::strtoull(n.c_str(), &end, 10);
    if (n.empty() || *end != '\0' || v == 0)
      return fail("count after '@' must be a positive integer");
    fp->count = v;
  } else if (const std::size_t colon = rhs.find(':'); colon != std::string_view::npos) {
    action = rhs.substr(0, colon);
    const std::string p(rhs.substr(colon + 1));
    char* end = nullptr;
    const double v = std::strtod(p.c_str(), &end);
    if (p.empty() || *end != '\0' || !(v > 0.0) || v > 1.0)
      return fail("probability after ':' must be in (0, 1]");
    fp->prob = v;
  }
  const auto a = parse_action(action);
  if (!a) return fail("unknown action \"" + std::string(action) + "\" (err|oom|drop|eintr)");
  fp->action = *a;
  fp->rng = Rng(seed ^ fnv1a(fp->name));
  out = std::move(fp);
  return true;
}

}  // namespace

namespace detail {

std::atomic<bool> g_failpoints_enabled{false};

std::optional<FailAction> failpoint_hit_slow(std::string_view name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& fp : r.points) {
    if (fp->name != name) continue;
    ++fp->hits;
    bool fire;
    if (fp->count > 0)
      fire = fp->hits == fp->count;
    else if (fp->prob >= 0.0)
      fire = uniform01(fp->rng) < fp->prob;
    else
      fire = true;
    if (!fire) return std::nullopt;
    ++fp->trips;
    return fp->action;
  }
  return std::nullopt;
}

}  // namespace detail

std::string_view to_string(FailAction a) {
  switch (a) {
    case FailAction::Err: return "err";
    case FailAction::Oom: return "oom";
    case FailAction::Drop: return "drop";
    case FailAction::Eintr: return "eintr";
  }
  return "?";
}

bool failpoints_configure(std::string_view spec, std::string* error) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<std::unique_ptr<Failpoint>> parsed;
  std::string_view rest = spec;
  while (!rest.empty()) {
    const std::size_t semi = rest.find(';');
    std::string_view item =
        semi == std::string_view::npos ? rest : rest.substr(0, semi);
    rest = semi == std::string_view::npos ? std::string_view{} : rest.substr(semi + 1);
    if (item.empty()) continue;  // tolerate "a=err;;b=err" and trailing ';'
    std::unique_ptr<Failpoint> fp;
    if (!parse_point(item, r.seed, fp, error)) return false;
    parsed.push_back(std::move(fp));
  }
  r.points = std::move(parsed);
  detail::g_failpoints_enabled.store(!r.points.empty(), std::memory_order_relaxed);
  return true;
}

void failpoints_clear() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.points.clear();
  detail::g_failpoints_enabled.store(false, std::memory_order_relaxed);
}

void failpoints_set_seed(std::uint64_t seed) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.seed = seed;
}

std::uint64_t failpoint_trips(std::string_view name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& fp : r.points)
    if (fp->name == name) return fp->trips;
  return 0;
}

std::vector<std::string> failpoint_names() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<std::string> names;
  names.reserve(r.points.size());
  for (const auto& fp : r.points) names.push_back(fp->name);
  return names;
}

namespace {

// Self-configures from the environment at load time, before main().
struct EnvInit {
  EnvInit() {
    if (const char* seed = std::getenv("TWM_FAILPOINTS_SEED")) {
      char* end = nullptr;
      const unsigned long long v = std::strtoull(seed, &end, 10);
      if (end && *end == '\0') failpoints_set_seed(v);
    }
    if (const char* spec = std::getenv("TWM_FAILPOINTS")) {
      std::string error;
      if (!failpoints_configure(spec, &error))
        std::fprintf(stderr, "twm: ignoring TWM_FAILPOINTS: %s\n", error.c_str());
    }
  }
};
const EnvInit g_env_init;

}  // namespace

}  // namespace twm::util
