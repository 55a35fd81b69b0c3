// Shared command-line handling for the bench executables.
//
// Every bench parses its flags into a twm::api::CampaignSpec — the same
// declarative value `twm_cli run` executes from a JSON file — so the bench
// flag surface and the public API cannot drift:
//
//   --backend=scalar|packed   simulation backend (default: packed)
//   --threads=N               worker threads for the campaign (default: 1)
//   --json=PATH               where to write the bench's JSON result line
//
// Both `--flag=value` and `--flag value` are accepted.  The spec's
// geometry / march / scheme / class members are filled by each bench (they
// reproduce fixed tables from the paper); the flags above set its `run`
// request, and spellings are parsed by the one canonical parser set in
// api/spec.h (api::parse_backend).
#ifndef TWM_BENCH_BENCH_COMMON_H
#define TWM_BENCH_BENCH_COMMON_H

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "api/spec.h"

namespace twm::bench {

struct BenchArgs {
  api::CampaignSpec spec;  // run.{backend,threads} from flags
  std::string json;        // empty = no JSON artifact
};

inline BenchArgs parse_bench_args(int argc, char** argv, const std::string& default_json = "") {
  BenchArgs a;
  a.json = default_json;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // Accept both `--flag=value` and `--flag value`.
    if ((arg == "--backend" || arg == "--threads" || arg == "--json") && i + 1 < argc)
      arg += std::string("=") + argv[++i];
    const auto starts = [&](const char* p) { return arg.rfind(p, 0) == 0; };
    if (starts("--backend=")) {
      const std::string v = arg.substr(10);
      const auto backend = api::parse_backend(v);
      if (!backend) {
        std::fprintf(stderr, "unknown backend '%s' (want scalar|packed)\n", v.c_str());
        std::exit(1);
      }
      a.spec.backend = *backend;
    } else if (starts("--threads=")) {
      a.spec.threads = static_cast<unsigned>(std::strtoul(arg.c_str() + 10, nullptr, 10));
      if (a.spec.threads == 0) a.spec.threads = 1;
    } else if (starts("--json=")) {
      a.json = arg.substr(7);
    } else {
      std::fprintf(stderr,
                   "unknown argument '%s' (want --backend=scalar|packed --threads=N "
                   "--json=PATH)\n",
                   arg.c_str());
      std::exit(1);
    }
  }
  return a;
}

// Wall-clock seconds of a callable.
template <typename F>
double time_seconds(F&& f) {
  const auto t0 = std::chrono::steady_clock::now();
  f();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace twm::bench

#endif  // TWM_BENCH_BENCH_COMMON_H
