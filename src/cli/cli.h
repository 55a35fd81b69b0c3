// Command-line interface core (the `twm_cli` tool).
//
// Kept as a library function so the argument handling and output are unit
// tested; tools/twm_cli.cpp is a two-line wrapper.
//
// Commands:
//   list                                   catalog with lint capabilities
//   show <march>                           print a march and its lint
//   transform <march> --width B [--scheme twm|s1|sym]
//                                          print the transparent test(s),
//                                          prediction, and complexities
//   complexity <march> --width B           formula + measured costs, all schemes
//   simulate <march> --width B --words N [--seed S]
//            [--fault saf:W.B=V | tf:W.B=u | tf:W.B=d | ret:W.B=V]
//                                          run a transparent session and
//                                          report the verdict
//   coverage <march> --width B --words N [--scheme twm|twm-misr|sym|tsmarch|
//            s1|tomt|ref|womarch|all] [--classes saf,tf,cfst,cfid,cfin,ret,af]
//            [--seeds 0,1,2] [--backend scalar|packed] [--threads T]
//            [--simd auto|64|256|512|tiled[:4096]] [--collapse on|off]
//            [--regions N]
//                                          per-fault-class coverage campaign
//                                          on the selected simulation backend
//                                          (packed = one fault universe per
//                                          SIMD lane, 64/256/512 or a
//                                          4096-lane tile per bit-parallel
//                                          pass; --simd auto
//                                          picks the widest the CPU supports,
//                                          a forced width errors cleanly when
//                                          unsupported); --scheme all sweeps
//                                          every scheme and prints a scheme x
//                                          fault-class table; the scheduler
//                                          drops settled fault universes
//                                          between seed rounds, aborts
//                                          settled sessions early and
//                                          collapses equivalent faults
//                                          (--collapse off isolates that);
//                                          --regions N shards the
//                                          fault list by victim address slice
//                                          so a huge-memory campaign touches
//                                          one region's page working set at a
//                                          time (verdict-identical for any N)
//   simd [--json]                          lane-block width support table for
//                                          this CPU (cpuid probe) and the
//                                          width `auto` resolves to; --json
//                                          emits the probe machine-readable
//                                          so schedulers can place campaigns
//   spec <march> --width B --words N [coverage flags...]
//                                          print the CampaignSpec JSON the
//                                          coverage command line denotes —
//                                          the migration bridge from flags
//                                          to declarative spec files
//   run <spec.json> [--sink jsonl|csv|table] [--out F] [--regions N]
//       [--deadline-ms T] [--cache-dir D]
//                                          execute the campaign(s) in a spec
//                                          file (single object or batch
//                                          array), streaming per-unit
//                                          records into the selected sink;
//                                          --regions overrides run.regions;
//                                          --deadline-ms overrides
//                                          run.deadline_ms (cooperative
//                                          wall-clock budget — see
//                                          api/spec.h; the campaign_end
//                                          record reports timed_out);
//                                          --cache-dir uses the same
//                                          disk-backed result cache as serve:
//                                          completed cells replay, every
//                                          settled region is stored, and an
//                                          interrupted run of the same spec
//                                          resumes at region grain
//   explore <dse.json> [--out F] [--resume F] [--threads T] [--rounds R]
//           [--stop-after K]
//                                          coverage-guided evolutionary
//                                          search over the march space
//                                          (src/explore): seeds a population
//                                          from the catalog plus random
//                                          marches, mutates/splices with the
//                                          validity-preserving operators,
//                                          scores candidates through
//                                          api::run_campaign (inline-march
//                                          specs, shared result cache) and
//                                          prints the Pareto front of
//                                          (weighted complexity, per-class
//                                          coverage); --resume persists the
//                                          full search state after every
//                                          round and continues an
//                                          interrupted search on the same
//                                          deterministic trajectory;
//                                          --stop-after K stops after K
//                                          rounds (pairs with --resume);
//                                          --out writes the JSON report
//   serve [--host A] [--port P] [--cache-dir D] [--cache-entries N]
//         [--max-clients M] [--idle-timeout-ms T]
//                                          campaign daemon: accepts submit
//                                          frames over TCP (JSON-lines
//                                          protocol, src/service/protocol.h),
//                                          queues campaigns onto the shared
//                                          engine and streams each client its
//                                          own record stream; completed
//                                          (scheme, class, seed-set) cells
//                                          land in a content-addressed result
//                                          cache (memory LRU + optional disk
//                                          dir) so a resubmitted or extended
//                                          spec replays instead of
//                                          re-simulating; --port 0 binds an
//                                          ephemeral port, reported in the
//                                          {"type":"serving",...} line;
//                                          --idle-timeout-ms drops clients
//                                          that send no frame for T ms
//                                          (typed timeout error frame; 0 =
//                                          never, the default)
//   submit <spec.json> [--host A] [--port P] [--retries N] [--backoff-ms B]
//          [--stats] [--shutdown]
//                                          send the spec(s) in a file to a
//                                          running daemon and tail the
//                                          JSON-lines result stream; exits 1
//                                          when the server reports an error;
//                                          --stats/--shutdown append the
//                                          control frames; --retries N
//                                          re-attempts an exchange up to N
//                                          extra times on connect failures,
//                                          dropped connections and error
//                                          frames marked retryable, with
//                                          jittered exponential backoff
//                                          starting at --backoff-ms
//                                          (default 100)
//
// Every command also accepts --failpoints "name=action[@N|:P];..." — the
// chaos-injection spec from util/failpoint.h, equivalent to setting
// TWM_FAILPOINTS for the in-process registry.  Any other flag a command
// does not read is an error ("unknown flag --X for <cmd>", exit 1).
//
// coverage, spec and run all speak twm::api (src/api): the flag surface is
// parsed into a CampaignSpec, validated field by field, and executed by
// api::run_campaign with a ResultSink attached — `coverage` is `run` with
// a table sink and a spec assembled from flags.
//
// Returns 0 on success (for simulate: also when no fault is detected), 1 on
// usage errors, 2 when simulate detects a fault.
#ifndef TWM_CLI_CLI_H
#define TWM_CLI_CLI_H

#include <ostream>
#include <string>
#include <vector>

namespace twm {

int run_cli(const std::vector<std::string>& args, std::ostream& out, std::ostream& err);

}  // namespace twm

#endif  // TWM_CLI_CLI_H
