// Tests for the CLI core: every command's happy path, usage errors, fault
// specs, and exit codes.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "api/spec.h"
#include "cli/cli.h"

namespace twm {
namespace {

struct CliRun {
  int rc;
  std::string out;
  std::string err;
};

CliRun cli(std::vector<std::string> args) {
  std::ostringstream out, err;
  const int rc = run_cli(args, out, err);
  return {rc, out.str(), err.str()};
}

// Writes `content` to a fresh file under the test temp dir and returns its
// path.
std::string write_temp(const std::string& name, const std::string& content) {
  const std::string path = ::testing::TempDir() + "twm_cli_" + name;
  std::ofstream f(path);
  f << content;
  return path;
}

TEST(Cli, NoArgsPrintsUsage) {
  const auto r = cli({});
  EXPECT_EQ(r.rc, 1);
  EXPECT_NE(r.err.find("usage:"), std::string::npos);
}

TEST(Cli, UnknownCommandPrintsUsage) {
  EXPECT_EQ(cli({"frobnicate"}).rc, 1);
}

TEST(Cli, ListShowsCatalog) {
  const auto r = cli({"list"});
  EXPECT_EQ(r.rc, 0);
  EXPECT_NE(r.out.find("March C-"), std::string::npos);
  EXPECT_NE(r.out.find("March G"), std::string::npos);
  EXPECT_NE(r.out.find("CF:full"), std::string::npos);
}

TEST(Cli, ShowPrintsMarchAndLint) {
  const auto r = cli({"show", "March U"});
  EXPECT_EQ(r.rc, 0);
  EXPECT_NE(r.out.find("March U: {"), std::string::npos);
  EXPECT_NE(r.out.find("lint:"), std::string::npos);
}

TEST(Cli, ShowUnknownMarchFailsCleanly) {
  const auto r = cli({"show", "March Z"});
  EXPECT_EQ(r.rc, 1);
  EXPECT_NE(r.err.find("error:"), std::string::npos);
}

TEST(Cli, TransformDefaultsToTwm) {
  const auto r = cli({"transform", "March C-", "--width", "32"});
  EXPECT_EQ(r.rc, 0);
  EXPECT_NE(r.out.find("ATMarch"), std::string::npos);
  EXPECT_NE(r.out.find("TCM=35N TCP=21N"), std::string::npos);
}

TEST(Cli, TransformScheme1) {
  const auto r = cli({"transform", "March C-", "--width", "4", "--scheme", "s1"});
  EXPECT_EQ(r.rc, 0);
  EXPECT_NE(r.out.find("TCM=33N"), std::string::npos);
}

TEST(Cli, TransformSymmetric) {
  const auto r = cli({"transform", "March C-", "--width", "8", "--scheme", "sym"});
  EXPECT_EQ(r.rc, 0);
  EXPECT_NE(r.out.find("TCP=0"), std::string::npos);
}

TEST(Cli, TransformRejectsBadInput) {
  EXPECT_EQ(cli({"transform", "March C-"}).rc, 1);                              // no width
  EXPECT_EQ(cli({"transform", "March C-", "--width", "12"}).rc, 1);             // not 2^m
  EXPECT_EQ(cli({"transform", "March C-", "--width", "x"}).rc, 1);              // not a number
  EXPECT_EQ(cli({"transform", "March C-", "--width", "8", "--scheme", "zz"}).rc, 1);
  EXPECT_EQ(cli({"transform", "March C-", "--width"}).rc, 1);                   // missing value
}

TEST(Cli, ComplexityTable) {
  const auto r = cli({"complexity", "March U", "--width", "8"});
  EXPECT_EQ(r.rc, 0);
  EXPECT_NE(r.out.find("29N"), std::string::npos);  // the paper's worked example
  EXPECT_NE(r.out.find("scheme 2 [13]"), std::string::npos);
}

TEST(Cli, SimulateCleanMemory) {
  const auto r = cli({"simulate", "March C-", "--width", "8", "--words", "16"});
  EXPECT_EQ(r.rc, 0);
  EXPECT_NE(r.out.find("verdict: clean"), std::string::npos);
  EXPECT_NE(r.out.find("contents preserved: yes"), std::string::npos);
}

TEST(Cli, SimulateDetectsInjectedFault) {
  const auto r = cli({"simulate", "March C-", "--width", "8", "--words", "16", "--fault",
                      "tf:3.2=u"});
  EXPECT_EQ(r.rc, 2);
  EXPECT_NE(r.out.find("injected: TF(^) @w3.b2"), std::string::npos);
  EXPECT_NE(r.out.find("FAULT DETECTED"), std::string::npos);
}

TEST(Cli, SimulateMultipleFaults) {
  const auto r = cli({"simulate", "March C-", "--width", "8", "--words", "8", "--fault",
                      "saf:1.0=1", "--fault", "saf:2.7=0"});
  EXPECT_EQ(r.rc, 2);
}

TEST(Cli, SimulateRejectsBadFaultSpecs) {
  EXPECT_EQ(cli({"simulate", "March C-", "--width", "8", "--words", "8", "--fault", "bogus"}).rc,
            1);
  EXPECT_EQ(cli({"simulate", "March C-", "--width", "8", "--words", "8", "--fault",
                 "zap:1.0=1"}).rc,
            1);
  EXPECT_EQ(cli({"simulate", "March C-", "--width", "8", "--words", "8", "--fault",
                 "saf:9.0=1"}).rc,
            1);  // out of range
}

TEST(Cli, SimulateRetentionFaultWithMarchG) {
  const auto r = cli({"simulate", "March G", "--width", "8", "--words", "8", "--fault",
                      "ret:2.2=1", "--seed", "5"});
  // Detected unless the random content already holds the decay value at
  // both pauses — March G's complementary pauses make detection certain.
  EXPECT_EQ(r.rc, 2);
}

TEST(Cli, CoverageDefaultsToPackedBackend) {
  const auto r = cli({"coverage", "March C-", "--width", "4", "--words", "2"});
  EXPECT_EQ(r.rc, 0);
  EXPECT_NE(r.out.find("backend=packed"), std::string::npos);
  EXPECT_NE(r.out.find("SAF"), std::string::npos);
  EXPECT_NE(r.out.find("CFin"), std::string::npos);
  EXPECT_NE(r.out.find("faults/s"), std::string::npos);
}

TEST(Cli, CoverageBackendsReportIdenticalTables) {
  const std::vector<std::string> base{"coverage", "March C-", "--width", "4", "--words", "2",
                                      "--classes", "saf,tf,cfin", "--seeds", "0,3"};
  auto scalar = base;
  scalar.insert(scalar.end(), {"--backend", "scalar"});
  auto packed = base;
  packed.insert(packed.end(), {"--backend", "packed", "--threads", "2"});
  const auto rs = cli(scalar);
  const auto rp = cli(packed);
  ASSERT_EQ(rs.rc, 0);
  ASSERT_EQ(rp.rc, 0);
  // Identical coverage numbers, different header/footer: compare the table
  // body rows only.
  const auto body = [](const std::string& s) {
    return s.substr(s.find("| fault class"), s.rfind("+") - s.find("| fault class"));
  };
  EXPECT_EQ(body(rs.out), body(rp.out));
}

TEST(Cli, CoverageSchemeAndClassSelection) {
  const auto r = cli({"coverage", "March G", "--width", "4", "--words", "2", "--scheme", "ref",
                      "--classes", "ret", "--seeds", "0"});
  EXPECT_EQ(r.rc, 0);
  EXPECT_NE(r.out.find("RET"), std::string::npos);
  EXPECT_NE(r.out.find("SMarch+AMarch"), std::string::npos);
}

TEST(Cli, CoverageSchemeAllPrintsComparisonTable) {
  const auto r = cli({"coverage", "March C-", "--width", "4", "--words", "2", "--scheme", "all",
                      "--classes", "saf,tf", "--seeds", "0"});
  EXPECT_EQ(r.rc, 0);
  EXPECT_NE(r.out.find("all schemes"), std::string::npos);
  // One row per scheme, one column per fault class.
  EXPECT_NE(r.out.find("| scheme"), std::string::npos);
  EXPECT_NE(r.out.find("SAF (16)"), std::string::npos);
  EXPECT_NE(r.out.find("TF (16)"), std::string::npos);
  EXPECT_NE(r.out.find("SMarch+AMarch (nontransparent)"), std::string::npos);
  EXPECT_NE(r.out.find("TWMarch (MISR)"), std::string::npos);
  EXPECT_NE(r.out.find("symmetric TWMarch"), std::string::npos);
  EXPECT_NE(r.out.find("TOMT model [13]"), std::string::npos);
}

TEST(Cli, CoverageSchemeAllAgreesWithSingleSchemeRun) {
  const auto all = cli({"coverage", "March C-", "--width", "4", "--words", "2", "--scheme",
                        "all", "--classes", "saf", "--seeds", "0,1"});
  const auto one = cli({"coverage", "March C-", "--width", "4", "--words", "2", "--scheme",
                        "tomt", "--classes", "saf", "--seeds", "0,1"});
  ASSERT_EQ(all.rc, 0);
  ASSERT_EQ(one.rc, 0);
  // The TOMT row of the sweep must contain the same "det/total (pct)" cell
  // the dedicated campaign reports.
  const auto row_at = all.out.find("TOMT model [13]");
  ASSERT_NE(row_at, std::string::npos);
  const std::string row = all.out.substr(row_at, all.out.find('\n', row_at) - row_at);
  const auto cell_at = one.out.find("| SAF");
  ASSERT_NE(cell_at, std::string::npos);
  const std::string cell_line = one.out.substr(cell_at, one.out.find('\n', cell_at) - cell_at);
  // Extract "x/16" from the single-scheme SAF line and require it in the row.
  const auto slash = cell_line.find("/16");
  ASSERT_NE(slash, std::string::npos);
  auto start = slash;
  while (start > 0 && std::isdigit(static_cast<unsigned char>(cell_line[start - 1]))) --start;
  EXPECT_NE(row.find(cell_line.substr(start, slash - start + 3)), std::string::npos)
      << "row: " << row << "\ncell: " << cell_line;
}

TEST(Cli, CoverageRejectsThreadsZero) {
  const auto r = cli({"coverage", "March C-", "--width", "4", "--words", "2", "--threads", "0"});
  EXPECT_EQ(r.rc, 1);
  EXPECT_NE(r.err.find("--threads"), std::string::npos);
}

TEST(Cli, CoverageRejectsGarbageSeeds) {
  for (const char* bad : {"x", "1,x", "-1", " 1", "2x", "1.5"}) {
    const auto r = cli({"coverage", "March C-", "--width", "4", "--words", "2", "--seeds", bad});
    EXPECT_EQ(r.rc, 1) << "--seeds " << bad;
    EXPECT_NE(r.err.find("--seeds"), std::string::npos) << "--seeds " << bad;
  }
}

TEST(Cli, CoverageRejectsEmptySeeds) {
  for (const char* empty : {"", ","}) {
    const auto r = cli({"coverage", "March C-", "--width", "4", "--words", "2", "--seeds",
                        empty});
    EXPECT_EQ(r.rc, 1) << "--seeds '" << empty << "'";
    EXPECT_NE(r.err.find("at least one seed"), std::string::npos);
  }
}

TEST(Cli, CoverageRejectsUnknownBackendWithMessage) {
  const auto r = cli({"coverage", "March C-", "--width", "4", "--words", "2", "--backend",
                      "quantum"});
  EXPECT_EQ(r.rc, 1);
  EXPECT_NE(r.err.find("unknown backend 'quantum'"), std::string::npos);
  EXPECT_NE(r.err.find("scalar|packed"), std::string::npos);
}

TEST(Cli, SimdPrintsSupportTableAndBest) {
  const auto r = cli({"simd"});
  EXPECT_EQ(r.rc, 0);
  EXPECT_NE(r.out.find("width"), std::string::npos);
  EXPECT_NE(r.out.find("512"), std::string::npos);
  EXPECT_NE(r.out.find("best: "), std::string::npos);
  // 64 lanes are always supported, so the best line carries a valid width.
  const bool best_valid = r.out.find("best: 64") != std::string::npos ||
                          r.out.find("best: 256") != std::string::npos ||
                          r.out.find("best: 512") != std::string::npos;
  EXPECT_TRUE(best_valid) << r.out;
}

TEST(Cli, CoverageReportsResolvedSimdWidth) {
  const auto r = cli({"coverage", "March C-", "--width", "4", "--words", "2", "--classes",
                      "saf", "--simd", "64"});
  EXPECT_EQ(r.rc, 0) << r.err;
  EXPECT_NE(r.out.find("simd 64, forced"), std::string::npos) << r.out;
  const auto a = cli({"coverage", "March C-", "--width", "4", "--words", "2", "--classes",
                      "saf", "--simd", "auto"});
  EXPECT_EQ(a.rc, 0) << a.err;
  EXPECT_NE(a.out.find("auto"), std::string::npos) << a.out;
  // The scalar backend has no lanes and prints no simd note.
  const auto s = cli({"coverage", "March C-", "--width", "4", "--words", "2", "--classes",
                      "saf", "--backend", "scalar", "--simd", "64"});
  EXPECT_EQ(s.rc, 0) << s.err;
  EXPECT_EQ(s.out.find("simd"), std::string::npos) << s.out;
}

TEST(Cli, CoverageForcedWidthsMatchDefault) {
  // Forced widths the CPU supports must reproduce the auto table exactly;
  // a forced width it cannot execute must error cleanly (tested wherever
  // the host lacks one).
  const std::vector<std::string> base{"coverage", "March C-",  "--width", "4",
                                      "--words",  "4",         "--seeds", "0,1",
                                      "--classes", "saf,tf,af"};
  auto with_simd = [&](const std::string& w) {
    auto args = base;
    args.push_back("--simd");
    args.push_back(w);
    return cli(args);
  };
  const auto table_of = [](const std::string& out) {
    return out.substr(out.find('\n') + 1);  // drop the header line (names the width)
  };
  const auto ref = with_simd("64");
  ASSERT_EQ(ref.rc, 0) << ref.err;
  for (const std::string w : {"256", "512"}) {
    const auto r = with_simd(w);
    const auto probe = cli({"simd", "--json"});
    const bool supported =
        probe.out.find("{\"width\":" + w + ",\"supported\":true}") != std::string::npos;
    if (supported) {
      EXPECT_EQ(r.rc, 0) << r.err;
      // Same coverage numbers, fault counts, and totals at every width.
      EXPECT_EQ(table_of(r.out).substr(0, table_of(r.out).rfind(" faults in")),
                table_of(ref.out).substr(0, table_of(ref.out).rfind(" faults in")))
          << "--simd " << w;
    } else {
      EXPECT_EQ(r.rc, 1);
      EXPECT_NE(r.err.find("not supported"), std::string::npos) << r.err;
    }
  }
}

TEST(Cli, CoverageRejectsUnknownSimdWidth) {
  const auto r = cli({"coverage", "March C-", "--width", "4", "--words", "2", "--simd", "128"});
  EXPECT_EQ(r.rc, 1);
  EXPECT_NE(r.err.find("unknown simd width '128'"), std::string::npos);
  EXPECT_NE(r.err.find("auto|64|256|512"), std::string::npos);
}

TEST(Cli, CoverageRejectsUnknownScheduleAndCollapse) {
  for (const char* mode : {"dense", "sparse"}) {
    const auto bad_schedule =
        cli({"coverage", "March C-", "--width", "4", "--words", "2", "--schedule", mode});
    EXPECT_EQ(bad_schedule.rc, 1) << mode;
    EXPECT_NE(bad_schedule.err.find(std::string("unknown schedule '") + mode + "'"),
              std::string::npos);
  }
  EXPECT_EQ(cli({"coverage", "March C-", "--width", "4", "--words", "2", "--schedule", "repack"})
                .rc,
            0);
  const auto bad_collapse =
      cli({"coverage", "March C-", "--width", "4", "--words", "2", "--collapse", "maybe"});
  EXPECT_EQ(bad_collapse.rc, 1);
  EXPECT_NE(bad_collapse.err.find("--collapse expects on|off"), std::string::npos);
}

TEST(Cli, CoverageCollapseOnAndOffReportIdenticalTables) {
  const std::vector<std::string> base{"coverage", "March C-", "--width", "4",
                                     "--words",   "4",        "--scheme", "all"};
  auto with_collapse = [&](const char* collapse) {
    auto args = base;
    args.insert(args.end(), {"--collapse", collapse});
    return cli(args);
  };
  const auto off = with_collapse("off");
  const auto on = with_collapse("on");
  EXPECT_EQ(off.rc, 0);
  EXPECT_EQ(on.rc, 0);
  EXPECT_NE(off.out.find("no collapse"), std::string::npos);
  EXPECT_EQ(on.out.find("no collapse"), std::string::npos);
  // The coverage cells (detected/total) must be identical; only the header
  // and the faults/s footer may differ.
  auto cells = [](const std::string& out) {
    std::vector<std::string> v;
    std::size_t pos = 0;
    while ((pos = out.find('/', pos)) != std::string::npos) {
      std::size_t a = pos;
      while (a > 0 && std::isdigit(static_cast<unsigned char>(out[a - 1]))) --a;
      std::size_t b = pos + 1;
      while (b < out.size() && std::isdigit(static_cast<unsigned char>(out[b]))) ++b;
      if (a < pos && b > pos + 1) v.push_back(out.substr(a, b - a));
      pos = b;
    }
    return v;
  };
  EXPECT_FALSE(cells(off.out).empty());
  EXPECT_EQ(cells(off.out), cells(on.out));
}

TEST(Cli, SimdJsonEmitsMachineReadableProbe) {
  const auto r = cli({"simd", "--json"});
  EXPECT_EQ(r.rc, 0);
  EXPECT_NE(r.out.find("{\"widths\":["), std::string::npos);
  EXPECT_NE(r.out.find("{\"width\":64,\"supported\":true}"), std::string::npos);
  EXPECT_NE(r.out.find("\"best\":"), std::string::npos);
  // No table leaks into the JSON output.
  EXPECT_EQ(r.out.find("+--"), std::string::npos);
}

TEST(Cli, SpecCommandPrintsTheCoverageCommandsSpec) {
  const auto r = cli({"spec", "March C-", "--width", "4", "--words", "2", "--classes",
                      "saf,cfid:inter", "--scheme", "all", "--seeds", "0,7", "--threads", "3",
                      "--backend", "scalar", "--name", "bridge"});
  ASSERT_EQ(r.rc, 0) << r.err;
  const api::CampaignSpec spec = api::spec_from_json(r.out);
  EXPECT_EQ(spec.name, "bridge");
  EXPECT_EQ(spec.words, 2u);
  EXPECT_EQ(spec.width, 4u);
  EXPECT_EQ(spec.march, "March C-");
  EXPECT_EQ(spec.schemes.size(), std::size(kAllSchemes));
  EXPECT_EQ(spec.classes,
            (std::vector<api::ClassSel>{{api::ClassKind::Saf, CfScope::Both},
                                        {api::ClassKind::CFid, CfScope::InterWord}}));
  EXPECT_EQ(spec.seeds, (std::vector<std::uint64_t>{0, 7}));
  EXPECT_EQ(spec.backend, CoverageBackend::Scalar);
  EXPECT_EQ(spec.threads, 3u);
}

TEST(Cli, SpecCommandRejectsInvalidFieldsWithPaths) {
  const auto r = cli({"spec", "March Z", "--width", "4", "--words", "2"});
  EXPECT_EQ(r.rc, 1);
  EXPECT_NE(r.err.find("error: march:"), std::string::npos);
  EXPECT_NE(r.err.find("March Z"), std::string::npos);
}

TEST(Cli, RunExecutesASpecFileThroughEverySink) {
  const auto spec = cli({"spec", "March C-", "--width", "4", "--words", "2", "--classes",
                         "saf", "--seeds", "0"});
  ASSERT_EQ(spec.rc, 0) << spec.err;
  const std::string path = write_temp("run_spec.json", spec.out);

  const auto table = cli({"run", path});
  EXPECT_EQ(table.rc, 0) << table.err;
  EXPECT_NE(table.out.find("coverage: March C-, N=2, B=4"), std::string::npos);
  EXPECT_NE(table.out.find("| SAF"), std::string::npos);

  const auto jsonl = cli({"run", path, "--sink", "jsonl"});
  EXPECT_EQ(jsonl.rc, 0) << jsonl.err;
  EXPECT_EQ(jsonl.out.rfind("{\"type\":\"campaign_begin\"", 0), 0u) << jsonl.out;
  EXPECT_NE(jsonl.out.find("{\"type\":\"unit\""), std::string::npos);
  EXPECT_NE(jsonl.out.find("{\"type\":\"campaign_end\""), std::string::npos);

  const auto csv = cli({"run", path, "--sink", "csv"});
  EXPECT_EQ(csv.rc, 0) << csv.err;
  EXPECT_EQ(csv.out.rfind("campaign,scheme,class,fault,", 0), 0u);

  // --out writes the stream to a file instead of stdout.
  const std::string out_path = ::testing::TempDir() + "twm_cli_run_out.jsonl";
  const auto filed = cli({"run", path, "--sink", "jsonl", "--out", out_path});
  EXPECT_EQ(filed.rc, 0) << filed.err;
  EXPECT_TRUE(filed.out.empty());
  std::ifstream written(out_path);
  std::string first_line;
  std::getline(written, first_line);
  EXPECT_EQ(first_line.rfind("{\"type\":\"campaign_begin\"", 0), 0u);
  std::remove(out_path.c_str());
}

TEST(Cli, RunCoverageParityOnAggregates) {
  // The spec-vs-legacy contract the CI job enforces, in-process: the same
  // campaign driven through `run` (jsonl cells) and through the legacy
  // `coverage` table must report identical detected/total counts.
  const std::vector<std::string> flags{"March C-", "--width", "4", "--words", "2",
                                       "--classes", "saf,tf", "--seeds", "0,1",
                                       "--scheme",  "twm"};
  auto spec_args = flags;
  spec_args.insert(spec_args.begin(), "spec");
  const auto spec = cli(spec_args);
  ASSERT_EQ(spec.rc, 0) << spec.err;
  const std::string path = write_temp("parity_spec.json", spec.out);
  const auto jsonl = cli({"run", path, "--sink", "jsonl"});
  ASSERT_EQ(jsonl.rc, 0) << jsonl.err;

  auto coverage_args = flags;
  coverage_args.insert(coverage_args.begin(), "coverage");
  const auto table = cli(coverage_args);
  ASSERT_EQ(table.rc, 0) << table.err;

  // jsonl end record: {"scheme":"twm","class":"saf","total":16,"detected_all":16,...}
  for (const char* cls : {"saf", "tf"}) {
    const std::string key = std::string("\"class\":\"") + cls + "\",\"total\":16,\"detected_all\":";
    const auto at = jsonl.out.find(key);
    ASSERT_NE(at, std::string::npos) << cls << "\n" << jsonl.out;
    const std::string detected =
        jsonl.out.substr(at + key.size(),
                         jsonl.out.find(',', at + key.size()) - at - key.size());
    // The coverage table prints the same cell as "detected/total".
    EXPECT_NE(table.out.find(detected + "/16"), std::string::npos)
        << cls << ": detected=" << detected << "\n" << table.out;
  }
}

TEST(Cli, RunRejectsMissingFileUnknownSinkAndBadSpec) {
  EXPECT_EQ(cli({"run"}).rc, 1);
  const auto missing = cli({"run", "/nonexistent/spec.json"});
  EXPECT_EQ(missing.rc, 1);
  EXPECT_NE(missing.err.find("cannot read"), std::string::npos);

  const std::string good = write_temp(
      "good_spec.json",
      R"({"memory":{"words":2,"width":4},"march":"March C-","schemes":["twm"],
          "classes":["saf"],"seeds":[0]})");
  const auto bad_sink = cli({"run", good, "--sink", "xml"});
  EXPECT_EQ(bad_sink.rc, 1);
  EXPECT_NE(bad_sink.err.find("unknown sink 'xml'"), std::string::npos);

  // A rejected invocation must not truncate a previous run's --out file.
  const std::string precious = write_temp("precious.jsonl", "previous results\n");
  const auto clobber = cli({"run", good, "--sink", "xml", "--out", precious});
  EXPECT_EQ(clobber.rc, 1);
  std::ifstream still_there(precious);
  std::string content;
  std::getline(still_there, content);
  EXPECT_EQ(content, "previous results");

  const std::string malformed = write_temp("malformed.json", "{\"memory\": ");
  const auto parse_fail = cli({"run", malformed});
  EXPECT_EQ(parse_fail.rc, 1);
  EXPECT_NE(parse_fail.err.find("error:"), std::string::npos);

  const std::string invalid = write_temp(
      "invalid_spec.json",
      R"({"memory":{"words":0,"width":4},"march":"March C-","schemes":["twm"],
          "classes":["saf"],"seeds":[0]})");
  const auto invalid_run = cli({"run", invalid});
  EXPECT_EQ(invalid_run.rc, 1);
  EXPECT_NE(invalid_run.err.find("memory.words"), std::string::npos);
}

TEST(Cli, RunExecutesBatchSpecs) {
  const std::string path = write_temp(
      "batch_spec.json",
      R"([{"name":"a","memory":{"words":2,"width":2},"march":"March C-",
           "schemes":["twm"],"classes":["saf"],"seeds":[0]},
          {"name":"b","memory":{"words":2,"width":2},"march":"March C-",
           "schemes":["tomt"],"classes":["tf"],"seeds":[0]}])");
  const auto r = cli({"run", path, "--sink", "jsonl"});
  ASSERT_EQ(r.rc, 0) << r.err;
  EXPECT_NE(r.out.find("\"name\":\"a\""), std::string::npos);
  EXPECT_NE(r.out.find("\"name\":\"b\""), std::string::npos);
  // Two campaigns, two begin/end pairs.
  std::size_t begins = 0, pos = 0;
  while ((pos = r.out.find("\"type\":\"campaign_begin\"", pos)) != std::string::npos) {
    ++begins;
    pos += 1;
  }
  EXPECT_EQ(begins, 2u);
}

TEST(Cli, CommandsRejectFlagsTheyDoNotRead) {
  const std::string spec = write_temp(
      "flag_spec.json",
      R"({"memory":{"words":2,"width":2},"march":"March C-","schemes":["twm"],
          "classes":["saf"],"seeds":[0]})");
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases = {
      {{"run", spec, "--checkpoint", "x"}, "--checkpoint for run"},
      {{"run", spec, "--regoins", "4"}, "--regoins for run"},
      {{"serve", "--cache-dri", "d"}, "--cache-dri for serve"},
      {{"coverage", "March C-", "--width", "2", "--words", "2", "--fault", "saf:0.0=1"},
       "--fault for coverage"},
      {{"simd", "--out", "f"}, "--out for simd"}};
  for (const auto& [args, flag] : cases) {
    const auto r = cli(args);
    EXPECT_EQ(r.rc, 1) << flag;
    EXPECT_NE(r.err.find("error: unknown flag " + flag), std::string::npos) << r.err;
  }
  // --failpoints is global.
  EXPECT_EQ(cli({"list", "--failpoints", ""}).rc, 0);
}

TEST(Cli, RunCacheDirReplaysABatch) {
  const std::string path = write_temp(
      "cached_batch.json",
      R"([{"name":"a","memory":{"words":8,"width":2},"march":"March C-",
           "schemes":["twm"],"classes":["saf"],"seeds":[0],"run":{"regions":2}},
          {"name":"b","memory":{"words":8,"width":2},"march":"March C-",
           "schemes":["tomt"],"classes":["tf"],"seeds":[0]}])");
  const std::string dir = ::testing::TempDir() + "twm_cli_cache_dir";
  std::filesystem::remove_all(dir);
  const auto units = [](const std::string& out) {
    std::istringstream in(out);
    std::string line, kept;
    while (std::getline(in, line))
      if (line.find("\"type\":\"unit\"") != std::string::npos) kept += line + "\n";
    return kept;
  };
  const auto first = cli({"run", path, "--sink", "jsonl", "--cache-dir", dir});
  ASSERT_EQ(first.rc, 0) << first.err;
  // 2 region entries + 1 cell entry for "a", 1 cell entry for "b".
  std::size_t entries = 0;
  for (const auto& f : std::filesystem::directory_iterator(dir)) entries += !f.is_directory();
  EXPECT_EQ(entries, 4u);
  const auto second = cli({"run", path, "--sink", "jsonl", "--cache-dir", dir});
  ASSERT_EQ(second.rc, 0) << second.err;
  EXPECT_EQ(units(second.out), units(first.out));
  EXPECT_NE(units(first.out), "");
  std::filesystem::remove_all(dir);
}

TEST(Cli, CoverageAcceptsScopedCouplingClasses) {
  const auto r = cli({"coverage", "March C-", "--width", "4", "--words", "2", "--classes",
                      "cfid:inter,cfid:intra", "--seeds", "0"});
  EXPECT_EQ(r.rc, 0) << r.err;
  EXPECT_NE(r.out.find("CFid inter"), std::string::npos);
  EXPECT_NE(r.out.find("CFid intra"), std::string::npos);
}

TEST(Cli, RunExecutesInlineMarchSpec) {
  const std::string path = write_temp(
      "inline_spec.json",
      R"json({"name":"inline","memory":{"words":2,"width":4},
          "march_ops":["any(w0)","up(r0,w1)","down(r1,w0)","any(r0)"],
          "schemes":["twm"],"classes":["saf"],"seeds":[0]})json");
  const auto r = cli({"run", path});
  ASSERT_EQ(r.rc, 0) << r.err;
  // The table header names the march by its canonical printed body.
  EXPECT_NE(r.out.find("coverage: { any(w(0)); up(r(0),w(1)); down(r(1),w(0)); any(r(0)) }"),
            std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("| SAF"), std::string::npos);

  // Inline and library spellings of the same march report identical cells.
  const std::string c_minus = write_temp(
      "inline_cminus.json",
      R"json({"name":"i","memory":{"words":2,"width":4},
          "march_ops":["any(w0)","up(r0,w1)","up(r1,w0)","down(r0,w1)","down(r1,w0)","any(r0)"],
          "schemes":["twm"],"classes":["saf","tf"],"seeds":[0,1]})json");
  const auto inline_run = cli({"run", c_minus, "--sink", "csv"});
  ASSERT_EQ(inline_run.rc, 0) << inline_run.err;
  const std::string lib = write_temp(
      "lib_cminus.json",
      R"({"name":"i","memory":{"words":2,"width":4},"march":"March C-",
          "schemes":["twm"],"classes":["saf","tf"],"seeds":[0,1]})");
  const auto lib_run = cli({"run", lib, "--sink", "csv"});
  ASSERT_EQ(lib_run.rc, 0) << lib_run.err;
  EXPECT_EQ(inline_run.out, lib_run.out);
}

TEST(Cli, RunRejectsBadInlineMarch) {
  const std::string path = write_temp(
      "bad_inline.json",
      R"json({"name":"x","memory":{"words":2,"width":4},
          "march_ops":["any(w0)","up(bogus)"],
          "schemes":["twm"],"classes":["saf"],"seeds":[0]})json");
  const auto r = cli({"run", path});
  EXPECT_EQ(r.rc, 1);
  EXPECT_NE(r.err.find("march_ops[1]"), std::string::npos) << r.err;
}

// ---- explore -----------------------------------------------------------

std::string tiny_dse(const std::string& classes = R"(["saf"])",
                     const std::string& search = R"({"population":4,"rounds":1,"seed":1})") {
  return std::string(R"({"name":"cli-dse","memory":{"words":2,"width":4},)") +
         R"("objective":{"scheme":"twm","classes":)" + classes + "}," +
         R"("seeds":[0],"search":)" + search + "}";
}

TEST(Cli, ExploreRunsASmallSearch) {
  const std::string path = write_temp("dse_ok.json", tiny_dse());
  const auto r = cli({"explore", path});
  ASSERT_EQ(r.rc, 0) << r.err;
  EXPECT_NE(r.out.find("exploring 'cli-dse'"), std::string::npos);
  EXPECT_NE(r.out.find("round 1/1"), std::string::npos);
  EXPECT_NE(r.out.find("Pareto front"), std::string::npos);
  EXPECT_NE(r.out.find("| SAF"), std::string::npos);
}

TEST(Cli, ExploreRejectsUnknownObjectiveClass) {
  const std::string path = write_temp("dse_bad_class.json", tiny_dse(R"(["saf","warp"])"));
  const auto r = cli({"explore", path});
  EXPECT_EQ(r.rc, 1);
  EXPECT_NE(r.err.find("objective.classes[1]"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("warp"), std::string::npos) << r.err;
}

TEST(Cli, ExploreRejectsDegeneratePopulation) {
  const std::string path = write_temp(
      "dse_pop.json", tiny_dse(R"(["saf"])", R"({"population":1,"rounds":1,"seed":1})"));
  const auto r = cli({"explore", path});
  EXPECT_EQ(r.rc, 1);
  EXPECT_NE(r.err.find("search.population"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("two parents"), std::string::npos) << r.err;
}

TEST(Cli, ExploreRejectsMalformedResumeState) {
  const std::string spec_path = write_temp("dse_resume_spec.json", tiny_dse());
  const std::string state_path = write_temp("dse_state.json", "not json at all");
  const auto r = cli({"explore", spec_path, "--resume", state_path});
  EXPECT_EQ(r.rc, 1);
  EXPECT_NE(r.err.find("not a search state"), std::string::npos) << r.err;

  // A state for a different spec is rejected, not silently restarted.
  const auto fresh = cli({"explore", spec_path, "--resume", state_path + ".new"});
  ASSERT_EQ(fresh.rc, 0) << fresh.err;
  const std::string other = write_temp("dse_other.json", tiny_dse(R"(["tf"])"));
  const auto mismatch = cli({"explore", other, "--resume", state_path + ".new"});
  EXPECT_EQ(mismatch.rc, 1);
  EXPECT_NE(mismatch.err.find("identity mismatch"), std::string::npos) << mismatch.err;
  std::remove((state_path + ".new").c_str());
}

TEST(Cli, ExploreUsageAndMissingFile) {
  EXPECT_EQ(cli({"explore"}).rc, 1);
  const auto missing = cli({"explore", "/nonexistent/dse.json"});
  EXPECT_EQ(missing.rc, 1);
  EXPECT_NE(missing.err.find("cannot read"), std::string::npos);
}

TEST(Cli, CoverageRejectsBadInput) {
  EXPECT_EQ(cli({"coverage", "March C-"}).rc, 1);  // no geometry
  EXPECT_EQ(cli({"coverage", "March C-", "--width", "4", "--words", "2", "--backend",
                 "quantum"}).rc,
            1);
  EXPECT_EQ(cli({"coverage", "March C-", "--width", "4", "--words", "2", "--scheme", "zz"}).rc,
            1);
  EXPECT_EQ(cli({"coverage", "March C-", "--width", "4", "--words", "2", "--classes", "bogus"}).rc,
            1);
  EXPECT_EQ(cli({"coverage", "March C-", "--width", "4", "--words", "2", "--seeds", "x"}).rc, 1);
}

}  // namespace
}  // namespace twm
