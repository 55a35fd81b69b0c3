// Tests for the declarative campaign spec: field-by-field validation with
// structured errors, canonical enum spellings (parse(to_string(x)) == x for
// every enum the spec serializes), and exact JSON round-trips including the
// batch form.
#include <gtest/gtest.h>

#include <algorithm>
#include <regex>
#include <sstream>

#include "api/json.h"
#include "api/runner.h"
#include "api/sink.h"
#include "api/spec.h"
#include "march/generator.h"

namespace twm::api {
namespace {

CampaignSpec valid_spec() {
  CampaignSpec s;
  s.name = "unit-test";
  s.words = 4;
  s.width = 4;
  s.march = "March C-";
  s.schemes = {SchemeKind::ProposedExact};
  s.classes = {{ClassKind::Saf, CfScope::Both}};
  s.seeds = {0, 1};
  s.backend = CoverageBackend::Packed;
  s.threads = 2;
  s.simd = simd::Request::Auto;
  return s;
}

bool has_error_at(const std::vector<SpecError>& errors, const std::string& path) {
  return std::any_of(errors.begin(), errors.end(),
                     [&](const SpecError& e) { return e.path == path; });
}

// ---- validation: one test per invalid field ----------------------------

TEST(SpecValidate, ValidSpecHasNoErrors) { EXPECT_TRUE(validate(valid_spec()).empty()); }

TEST(SpecValidate, ZeroWordsNamesMemoryWords) {
  auto s = valid_spec();
  s.words = 0;
  const auto errors = validate(s);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].path, "memory.words");
  EXPECT_NE(errors[0].message.find("at least 1"), std::string::npos);
}

TEST(SpecValidate, ZeroWidthNamesMemoryWidth) {
  auto s = valid_spec();
  s.width = 0;
  EXPECT_TRUE(has_error_at(validate(s), "memory.width"));
}

// A word index is 32 bits (CellAddr): 2^32 words is the largest memory.
TEST(SpecValidate, WordsBeyondTwoToThe32AreRejected) {
  auto s = valid_spec();
  s.classes = {{ClassKind::Saf, CfScope::Both, 1024}};
  s.words = std::size_t{1} << 32;
  EXPECT_TRUE(validate(s).empty());
  s.words += 1;
  const auto errors = validate(s);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].path, "memory.words");
  EXPECT_NE(errors[0].message.find("4294967296"), std::string::npos) << errors[0].message;
}

// A fault's index in its class's list is 32 bits too: a class that
// denotes more faults is rejected, with a sampled spelling to use instead.
TEST(SpecValidate, AClassOfMoreThan32BitFaultsSuggestsSampling) {
  auto s = valid_spec();
  s.words = 8192;
  s.width = 8;
  s.classes = {{ClassKind::Saf, CfScope::Both}, {ClassKind::CFid, CfScope::InterWord}};
  auto errors = validate(s);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].path, "classes[1]");
  EXPECT_NE(errors[0].message.find("17177772032 faults"), std::string::npos) << errors[0].message;
  EXPECT_NE(errors[0].message.find("'cfid:inter@100000'"), std::string::npos)
      << errors[0].message;
  s.classes[1].sample = 100000;
  EXPECT_TRUE(validate(s).empty());

  // AF lists hold words^2 faults: 65535^2 fits 32 bits, 65536^2 does not.
  s.width = 1;
  s.classes = {{ClassKind::Af, CfScope::Both}};
  s.words = 65535;
  EXPECT_TRUE(validate(s).empty());
  s.words = 65536;
  EXPECT_TRUE(has_error_at(validate(s), "classes[0]"));

  // Past 64 bits the count saturates rather than wrapping to a small one.
  s.words = std::size_t{1} << 32;
  s.classes = {{ClassKind::Af, CfScope::Both}, {ClassKind::CFin, CfScope::Both}};
  errors = validate(s);
  EXPECT_TRUE(has_error_at(errors, "classes[0]"));
  EXPECT_TRUE(has_error_at(errors, "classes[1]"));
  EXPECT_EQ(errors.size(), 2u);
}

TEST(SpecValidate, UnknownMarchNamesMarchField) {
  auto s = valid_spec();
  s.march = "March Z";
  const auto errors = validate(s);
  ASSERT_TRUE(has_error_at(errors, "march"));
  EXPECT_NE(errors[0].message.find("March Z"), std::string::npos);
}

TEST(SpecValidate, EmptyMarchNamesMarchField) {
  auto s = valid_spec();
  s.march.clear();
  EXPECT_TRUE(has_error_at(validate(s), "march"));
}

TEST(SpecValidate, EmptySchemesNamesSchemes) {
  auto s = valid_spec();
  s.schemes.clear();
  EXPECT_TRUE(has_error_at(validate(s), "schemes"));
}

TEST(SpecValidate, EmptyClassesNamesClasses) {
  auto s = valid_spec();
  s.classes.clear();
  EXPECT_TRUE(has_error_at(validate(s), "classes"));
}

TEST(SpecValidate, EmptySeedsNamesSeeds) {
  auto s = valid_spec();
  s.seeds.clear();
  EXPECT_TRUE(has_error_at(validate(s), "seeds"));
}

TEST(SpecValidate, ZeroThreadsNamesRunThreads) {
  auto s = valid_spec();
  s.threads = 0;
  EXPECT_TRUE(has_error_at(validate(s), "run.threads"));
}

// Every lane width older specs could name still validates, on every host
// and either backend, and runs at 64 lanes: campaign_begin echoes the
// request and reports "resolved_simd":64.
TEST(SpecValidate, EveryOldSimdValueValidatesAndRunsAt64Lanes) {
  for (const char* name : {"auto", "64", "256", "512", "tiled", "tiled:4096"}) {
    const auto req = simd::parse_request(name);
    ASSERT_TRUE(req.has_value()) << name;
    EXPECT_EQ(simd::resolve(*req), simd::Width::W64) << name;
    for (CoverageBackend backend : {CoverageBackend::Packed, CoverageBackend::Scalar}) {
      auto s = valid_spec();
      s.backend = backend;
      s.simd = *req;
      EXPECT_TRUE(validate(s).empty()) << name;
      std::ostringstream out;
      JsonLinesSink sink(out);
      run_campaign(s, &sink);
      const std::string begin = out.str().substr(0, out.str().find('\n'));
      EXPECT_NE(begin.find("\"simd\":\"" + simd::to_string(*req) + "\""), std::string::npos)
          << begin;
      EXPECT_NE(begin.find("\"resolved_simd\":64,"), std::string::npos) << begin;
    }
  }
}

TEST(SpecValidate, MultipleProblemsAllReported) {
  CampaignSpec s;  // words/width zero, march empty, everything else empty
  const auto errors = validate(s);
  EXPECT_TRUE(has_error_at(errors, "memory.words"));
  EXPECT_TRUE(has_error_at(errors, "memory.width"));
  EXPECT_TRUE(has_error_at(errors, "march"));
  EXPECT_TRUE(has_error_at(errors, "schemes"));
  EXPECT_TRUE(has_error_at(errors, "classes"));
  EXPECT_TRUE(has_error_at(errors, "seeds"));
}

TEST(SpecValidate, RequireValidThrowsWithStructuredErrors) {
  auto s = valid_spec();
  s.words = 0;
  s.threads = 0;
  try {
    require_valid(s);
    FAIL() << "expected SpecValidationError";
  } catch (const SpecValidationError& e) {
    EXPECT_TRUE(has_error_at(e.errors(), "memory.words"));
    EXPECT_TRUE(has_error_at(e.errors(), "run.threads"));
    EXPECT_NE(std::string(e.what()).find("memory.words"), std::string::npos);
  }
}

// ---- canonical enum spellings round-trip -------------------------------

TEST(SpecEnums, BackendRoundTrips) {
  for (CoverageBackend b : {CoverageBackend::Scalar, CoverageBackend::Packed}) {
    const auto parsed = parse_backend(to_string(b));
    ASSERT_TRUE(parsed.has_value()) << to_string(b);
    EXPECT_EQ(*parsed, b);
  }
  EXPECT_FALSE(parse_backend("quantum").has_value());
  EXPECT_FALSE(parse_backend("").has_value());
  EXPECT_FALSE(parse_backend("Packed").has_value());  // no case folding
}

TEST(SpecEnums, SimdRequestRoundTrips) {
  for (simd::Request r : {simd::Request::Auto, simd::Request::W64, simd::Request::W256,
                          simd::Request::W512, simd::Request::Tiled4096}) {
    const auto parsed = simd::parse_request(simd::to_string(r));
    ASSERT_TRUE(parsed.has_value()) << simd::to_string(r);
    EXPECT_EQ(*parsed, r);
  }
  EXPECT_EQ(simd::parse_request("tiled"), simd::Request::Tiled4096);
  for (const char* bad : {"128", "AUTO", "tiled:32768", "avx2", "", "65", "tiled:64", "tiled:"})
    EXPECT_FALSE(simd::parse_request(bad).has_value()) << bad;
}

TEST(SpecEnums, SchemeIdRoundTrips) {
  for (SchemeKind k : kAllSchemes) {
    const auto parsed = parse_scheme(scheme_id(k));
    ASSERT_TRUE(parsed.has_value()) << scheme_id(k);
    EXPECT_EQ(*parsed, k);
  }
  EXPECT_FALSE(parse_scheme("zz").has_value());
  EXPECT_FALSE(parse_scheme("all").has_value());  // "all" is a list spelling
  // The display name is NOT the id.
  EXPECT_FALSE(parse_scheme(twm::to_string(SchemeKind::ProposedExact)).has_value());
}

TEST(SpecEnums, ClassSelRoundTripsEveryKindAndScope) {
  for (ClassKind kind : kAllClassKinds) {
    for (CfScope scope : {CfScope::Both, CfScope::InterWord, CfScope::IntraWord}) {
      ClassSel c{kind, scope};
      if (!c.is_coupling() && scope != CfScope::Both) continue;  // not expressible
      const auto parsed = parse_class(to_string(c));
      ASSERT_TRUE(parsed.has_value()) << to_string(c);
      EXPECT_EQ(*parsed, c);
    }
  }
}

TEST(SpecEnums, ClassSelRejections) {
  EXPECT_FALSE(parse_class("bogus").has_value());
  EXPECT_FALSE(parse_class("saf:inter").has_value());   // scope on a non-CF class
  EXPECT_FALSE(parse_class("af:intra").has_value());
  EXPECT_FALSE(parse_class("cfid:bogus").has_value());  // unknown scope
  EXPECT_FALSE(parse_class("cfid:").has_value());
  EXPECT_FALSE(parse_class("").has_value());
}

TEST(SpecEnums, CsvListSpellings) {
  // Every accepted spelling.
  const auto all = parse_schemes("all");
  ASSERT_TRUE(all.has_value());
  EXPECT_EQ(all->size(), std::size(kAllSchemes));
  EXPECT_TRUE(std::equal(all->begin(), all->end(), std::begin(kAllSchemes)));
  const auto pair = parse_schemes("twm,tomt");
  ASSERT_TRUE(pair.has_value());
  EXPECT_EQ(*pair, (std::vector<SchemeKind>{SchemeKind::ProposedExact, SchemeKind::TomtModel}));
  const auto classes = parse_classes("saf,cfid:inter,af");
  ASSERT_TRUE(classes.has_value());
  EXPECT_EQ(classes->size(), 3u);
  EXPECT_EQ((*classes)[1], (ClassSel{ClassKind::CFid, CfScope::InterWord}));
  // Empty pieces are dropped, fully-empty lists rejected.
  EXPECT_TRUE(parse_classes("saf,,tf").has_value());
  EXPECT_FALSE(parse_classes("").has_value());
  EXPECT_FALSE(parse_classes(",").has_value());
  EXPECT_FALSE(parse_schemes("").has_value());
  // One bad element poisons the list.
  EXPECT_FALSE(parse_schemes("twm,zz").has_value());
  EXPECT_FALSE(parse_classes("saf,bogus").has_value());
}

// ---- JSON round-trip ----------------------------------------------------

TEST(SpecJson, RoundTripIsExact) {
  auto s = valid_spec();
  EXPECT_EQ(spec_from_json(to_json(s)), s);
  EXPECT_EQ(spec_from_json(to_json(s, /*pretty=*/false)), s);
}

TEST(SpecJson, RoundTripEverySchemeClassBackendAndBigSeeds) {
  CampaignSpec s = valid_spec();
  s.name = "exhaustive \"quoted\"\n\ttabs";
  s.schemes.assign(std::begin(kAllSchemes), std::end(kAllSchemes));
  s.classes.clear();
  for (ClassKind kind : kAllClassKinds) {
    s.classes.push_back({kind, CfScope::Both});
    if (ClassSel{kind, CfScope::Both}.is_coupling()) {
      s.classes.push_back({kind, CfScope::InterWord});
      s.classes.push_back({kind, CfScope::IntraWord});
    }
  }
  // Seeds above 2^53 would be mangled by a double-based JSON number model.
  s.seeds = {0, 1, (1ull << 53) + 1, UINT64_MAX};
  s.backend = CoverageBackend::Scalar;
  s.threads = 16;
  s.simd = simd::Request::W256;
  EXPECT_EQ(spec_from_json(to_json(s)), s);
}

TEST(SpecJson, BatchRoundTripsAndAcceptsSingleObject) {
  std::vector<CampaignSpec> batch{valid_spec(), valid_spec()};
  batch[1].name = "second";
  batch[1].backend = CoverageBackend::Scalar;
  EXPECT_EQ(specs_from_json(to_json(batch)), batch);
  // A single object parses as a one-element batch.
  const auto single = specs_from_json(to_json(batch[0]));
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single[0], batch[0]);
}

TEST(SpecJson, GoldenSerialization) {
  auto s = valid_spec();
  const std::string expected =
      "{\"name\":\"unit-test\","
      "\"memory\":{\"words\":4,\"width\":4},"
      "\"march\":\"March C-\","
      "\"schemes\":[\"twm\"],"
      "\"classes\":[\"saf\"],"
      "\"seeds\":[0,1],"
      "\"run\":{\"backend\":\"packed\",\"threads\":2,\"simd\":\"auto\"}}";
  EXPECT_EQ(to_json(s, /*pretty=*/false), expected);
}

// "run":{"collapse":...} from older specs is read and dropped: true, false
// and absent denote the same spec, the same cell identities and the same
// JSON-lines stream (timing aside), on a zero-content SAF+TF list where
// structural collapsing used to bite.
TEST(SpecJson, CollapseIsAcceptedAndDropped) {
  const std::string head =
      R"({"name":"x","memory":{"words":4,"width":4},"march":"March C-",
          "schemes":["twm","tsmarch"],"classes":["saf","tf"],"seeds":[0])";
  const CampaignSpec absent = spec_from_json(head + "}");
  const std::regex seconds("\"seconds\":[0-9.]+");
  const auto stream = [&](const CampaignSpec& spec) {
    std::ostringstream out;
    JsonLinesSink sink(out);
    run_campaign(spec, &sink);
    return std::regex_replace(out.str(), seconds, "\"seconds\":_");
  };
  const std::string want = stream(absent);
  for (const char* value : {"true", "false"}) {
    const CampaignSpec s =
        spec_from_json(head + R"(,"run":{"collapse":)" + value + "}}");
    EXPECT_EQ(s, absent) << value;
    EXPECT_EQ(to_json(s), to_json(absent)) << value;
    for (SchemeKind k : s.schemes)
      for (const ClassSel& c : s.classes)
        EXPECT_EQ(cell_identity_json(s, k, c), cell_identity_json(absent, k, c)) << value;
    EXPECT_EQ(stream(s), want) << value;
  }
  EXPECT_EQ(want.find("collapse"), std::string::npos) << want;
  EXPECT_EQ(to_json(absent).find("collapse"), std::string::npos);
  // A non-boolean value still names its path.
  try {
    spec_from_json(head + R"(,"run":{"collapse":"yes"}})");
    FAIL() << "expected SpecValidationError";
  } catch (const SpecValidationError& e) {
    EXPECT_TRUE(has_error_at(e.errors(), "run.collapse"));
  }
}

// Spec files written when a second scheduler existed carry
// "schedule":"repack": it is read and dropped, never stored or re-emitted.
TEST(SpecJson, ScheduleRepackIsAcceptedAndNotReemitted) {
  const std::string head =
      R"({"name":"x","memory":{"words":2,"width":2},"march":"March C-",
          "schemes":["twm"],"classes":["saf"],"seeds":[0],"run":)";
  const CampaignSpec with = spec_from_json(head + R"({"schedule":"repack"}})");
  const CampaignSpec without = spec_from_json(head + "{}}");
  EXPECT_EQ(with, without);
  EXPECT_EQ(to_json(with).find("schedule"), std::string::npos);
}

// The removed modes, and lane widths no release accepted, are SpecErrors at
// their paths, not silently mapped.
TEST(SpecJson, RemovedDenseSchedulerAndLargeTileAreRejected) {
  const std::string head =
      R"({"name":"x","memory":{"words":2,"width":2},"march":"March C-",
          "schemes":["twm"],"classes":["saf"],"seeds":[0],"run":)";
  for (const auto& [run, path] :
       {std::pair<std::string, std::string>{R"({"schedule":"dense"})", "run.schedule"},
        {R"({"schedule":7})", "run.schedule"},
        {R"({"simd":"tiled:32768"})", "run.simd"},
        {R"({"simd":"128"})", "run.simd"},
        {R"({"simd":"AUTO"})", "run.simd"}}) {
    try {
      spec_from_json(head + run + "}");
      FAIL() << "expected SpecValidationError for " << run;
    } catch (const SpecValidationError& e) {
      EXPECT_TRUE(has_error_at(e.errors(), path)) << run;
    }
  }
}

TEST(SpecJson, StructuralErrorsNameTheirPaths) {
  // Unknown scheme inside the array names the element.
  try {
    spec_from_json(R"({"name":"x","memory":{"words":2,"width":2},"march":"March C-",
                       "schemes":["twm","zz"],"classes":["saf"],"seeds":[0]})");
    FAIL() << "expected SpecValidationError";
  } catch (const SpecValidationError& e) {
    ASSERT_EQ(e.errors().size(), 1u);
    EXPECT_EQ(e.errors()[0].path, "schemes[1]");
    EXPECT_NE(e.errors()[0].message.find("zz"), std::string::npos);
  }
  // Missing required members, wrong types, unknown fields — all collected.
  try {
    spec_from_json(R"({"memory":"tiny","schemes":"twm","classes":["saf"],
                       "seeds":[-1],"surprise":1})");
    FAIL() << "expected SpecValidationError";
  } catch (const SpecValidationError& e) {
    const auto& errors = e.errors();
    EXPECT_TRUE(has_error_at(errors, "memory"));
    EXPECT_TRUE(has_error_at(errors, "march"));
    EXPECT_TRUE(has_error_at(errors, "schemes"));
    EXPECT_TRUE(has_error_at(errors, "seeds[0]"));
    EXPECT_TRUE(has_error_at(errors, "surprise"));
  }
  // Batch errors carry the spec index.
  try {
    specs_from_json(R"([{"name":"ok","memory":{"words":2,"width":2},"march":"March C-",
                         "schemes":["twm"],"classes":["saf"],"seeds":[0]},
                        {"name":"bad","memory":{"words":2,"width":2},"march":"March C-",
                         "schemes":["twm"],"classes":["nope"],"seeds":[0]}])");
    FAIL() << "expected SpecValidationError";
  } catch (const SpecValidationError& e) {
    ASSERT_EQ(e.errors().size(), 1u);
    EXPECT_EQ(e.errors()[0].path, "spec[1].classes[0]");
  }
  // Structural errors across SEVERAL batch entries are all collected in
  // one round, not reported fix-one-rerun style.
  try {
    specs_from_json(R"([{"name":"bad0","memory":{"words":2,"width":2},"march":"March C-",
                         "schemes":["zz"],"classes":["saf"],"seeds":[0]},
                        {"name":"ok","memory":{"words":2,"width":2},"march":"March C-",
                         "schemes":["twm"],"classes":["saf"],"seeds":[0]},
                        {"name":"bad2","memory":"nope","march":"March C-",
                         "schemes":["twm"],"classes":["saf"],"seeds":[0]}])");
    FAIL() << "expected SpecValidationError";
  } catch (const SpecValidationError& e) {
    EXPECT_TRUE(has_error_at(e.errors(), "spec[0].schemes[0]"));
    EXPECT_TRUE(has_error_at(e.errors(), "spec[2].memory"));
  }
}

TEST(SpecEnums, ParseSeedsSpellings) {
  const auto ok = parse_seeds("0,1,18446744073709551615");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(*ok, (std::vector<std::uint64_t>{0, 1, UINT64_MAX}));
  // Empty pieces dropped; all-empty parses to an empty vector.
  EXPECT_EQ(parse_seeds("1,,2"), (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(parse_seeds(""), std::vector<std::uint64_t>{});
  EXPECT_EQ(parse_seeds(","), std::vector<std::uint64_t>{});
  // Rejections name the offending token.
  for (const char* bad : {"x", "1,x", "-1", " 1", "2x", "1.5",
                          "18446744073709551616" /* UINT64_MAX + 1 */}) {
    std::string token;
    EXPECT_FALSE(parse_seeds(bad, &token).has_value()) << bad;
    EXPECT_FALSE(token.empty()) << bad;
  }
}

TEST(SpecJson, WidthOverflowIsRejectedNotTruncated) {
  // 2^32 + 4 must not silently run as width 4.
  try {
    spec_from_json(R"({"memory":{"words":2,"width":4294967300},"march":"March C-",
                       "schemes":["twm"],"classes":["saf"],"seeds":[0]})");
    FAIL() << "expected SpecValidationError";
  } catch (const SpecValidationError& e) {
    ASSERT_EQ(e.errors().size(), 1u);
    EXPECT_EQ(e.errors()[0].path, "memory.width");
    EXPECT_NE(e.errors()[0].message.find("32-bit"), std::string::npos);
  }
}

TEST(SpecJson, RunDefaultsApplyWhenOmitted) {
  const auto s = spec_from_json(
      R"({"name":"d","memory":{"words":2,"width":2},"march":"March C-",
          "schemes":["twm"],"classes":["saf"],"seeds":[0]})");
  EXPECT_EQ(s.backend, CoverageBackend::Packed);
  EXPECT_EQ(s.threads, 1u);
  EXPECT_EQ(s.simd, simd::Request::Auto);
  EXPECT_EQ(s.name, "d");
}

TEST(SpecJson, MalformedJsonThrowsParseErrorWithPosition) {
  try {
    spec_from_json("{\"name\": }");
    FAIL() << "expected JsonParseError";
  } catch (const JsonParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos);
  }
  EXPECT_THROW(spec_from_json(""), JsonParseError);
  EXPECT_THROW(spec_from_json("{} trailing"), JsonParseError);
}

// ---- fault-list denotation ---------------------------------------------

TEST(SpecClasses, BuildFaultListMatchesGenerators) {
  EXPECT_EQ(build_fault_list({ClassKind::Saf, CfScope::Both}, 4, 4).size(),
            all_safs(4, 4).size());
  EXPECT_EQ(build_fault_list({ClassKind::Af, CfScope::Both}, 4, 4).size(), all_afs(4).size());
  const auto inter = build_fault_list({ClassKind::CFid, CfScope::InterWord}, 4, 4);
  const auto intra = build_fault_list({ClassKind::CFid, CfScope::IntraWord}, 4, 4);
  const auto both = build_fault_list({ClassKind::CFid, CfScope::Both}, 4, 4);
  EXPECT_EQ(inter.size() + intra.size(), both.size());
  EXPECT_FALSE(inter.empty());
  EXPECT_FALSE(intra.empty());
}

// ---- parser hardening -----------------------------------------------------

TEST(SpecJson, NestingBombThrowsInsteadOfRecursingOffTheStack) {
  // A hostile "[[[[..." document once recursed once per bracket — deep
  // enough input crashed the process before any validation ran.  The
  // parser now caps container nesting and reports it as a parse error.
  std::string bomb;
  for (int i = 0; i < 100000; ++i) bomb += "[";
  EXPECT_THROW(json_parse(bomb), JsonParseError);
  EXPECT_THROW(json_parse(std::string(300, '[')), JsonParseError);  // just past the cap

  // Mixed object/array nesting counts against the same cap.
  std::string mixed;
  for (int i = 0; i < 200; ++i) mixed += "{\"k\":[";
  EXPECT_THROW(json_parse(mixed), JsonParseError);
}

TEST(SpecJson, NestingUnderTheCapStillParses) {
  std::string deep;
  for (int i = 0; i < 250; ++i) deep += "[";
  for (int i = 0; i < 250; ++i) deep += "]";
  const JsonValue v = json_parse(deep);
  EXPECT_TRUE(v.is_array());
}

// ---- content addressing ---------------------------------------------------

TEST(SpecContent, CellKeyIsDeterministicAndWellFormed) {
  const CampaignSpec s = valid_spec();
  const std::string k1 = cell_key(s, s.schemes[0], s.classes[0]);
  const std::string k2 = cell_key(s, s.schemes[0], s.classes[0]);
  EXPECT_EQ(k1, k2);
  ASSERT_EQ(k1.size(), 32u);
  for (char c : k1) EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << k1;
}

TEST(SpecContent, IdentityCoversEveryVerdictRelevantFieldAndNothingElse) {
  const CampaignSpec base = valid_spec();
  const std::string key = cell_key(base, base.schemes[0], base.classes[0]);

  // Verdict-relevant changes move the key...
  CampaignSpec changed = base;
  changed.words = 8;
  EXPECT_NE(cell_key(changed, base.schemes[0], base.classes[0]), key);
  changed = base;
  changed.width = 8;
  EXPECT_NE(cell_key(changed, base.schemes[0], base.classes[0]), key);
  changed = base;
  changed.march = "MATS+";
  EXPECT_NE(cell_key(changed, base.schemes[0], base.classes[0]), key);
  changed = base;
  changed.seeds = {0, 1, 2};
  EXPECT_NE(cell_key(changed, base.schemes[0], base.classes[0]), key);
  EXPECT_NE(cell_key(base, SchemeKind::TomtModel, base.classes[0]), key);
  EXPECT_NE(cell_key(base, base.schemes[0], {ClassKind::Tf, CfScope::Both}), key);

  // ...while execution-mode changes (verdict-identical by construction)
  // and the label don't: cached cells are shared across all of them.
  changed = base;
  changed.name = "renamed";
  changed.backend = CoverageBackend::Scalar;
  changed.threads = 7;
  changed.simd = simd::Request::W64;
  EXPECT_EQ(cell_key(changed, base.schemes[0], base.classes[0]), key);
}

// ---- region sharding ------------------------------------------------------

TEST(SpecValidate, RegionsMustBeAPowerOfTwoWithinWords) {
  auto s = valid_spec();
  s.regions = 0;
  {
    const auto errors = validate(s);
    ASSERT_TRUE(has_error_at(errors, "run.regions"));
    EXPECT_NE(errors[0].message.find("at least 1"), std::string::npos);
  }
  s.regions = 3;
  {
    const auto errors = validate(s);
    ASSERT_TRUE(has_error_at(errors, "run.regions"));
    EXPECT_NE(errors[0].message.find("power of two"), std::string::npos);
  }
  s.regions = 8;  // words = 4: more shards than address slices
  {
    const auto errors = validate(s);
    ASSERT_TRUE(has_error_at(errors, "run.regions"));
    EXPECT_NE(errors[0].message.find("memory.words"), std::string::npos);
  }
  s.regions = 4;
  EXPECT_TRUE(validate(s).empty());
}

TEST(SpecJson, RegionsRoundTripAndDefaultOmission) {
  // regions = 1 is the implicit default: it must NOT appear in the JSON
  // (pre-region spec files and golden serializations stay byte-stable).
  auto s = valid_spec();
  EXPECT_EQ(to_json(s, /*pretty=*/false).find("regions"), std::string::npos);
  s.regions = 4;
  const std::string json = to_json(s, /*pretty=*/false);
  EXPECT_NE(json.find("\"regions\":4"), std::string::npos);
  EXPECT_EQ(spec_from_json(json), s);
  // Omitted -> default 1.
  const auto parsed = spec_from_json(
      R"({"name":"x","memory":{"words":2,"width":2},"march":"March C-",
          "schemes":["twm"],"classes":["saf"],"seeds":[0]})");
  EXPECT_EQ(parsed.regions, 1u);
  // Wrong type names its path.
  try {
    spec_from_json(
        R"({"name":"x","memory":{"words":2,"width":2},"march":"March C-",
            "schemes":["twm"],"classes":["saf"],"seeds":[0],
            "run":{"regions":"four"}})");
    FAIL() << "expected SpecValidationError";
  } catch (const SpecValidationError& e) {
    EXPECT_TRUE(has_error_at(e.errors(), "run.regions"));
  }
}

TEST(SpecJson, U64WordCountsRoundTripExactly) {
  // Huge-memory campaigns routinely exceed 32-bit word counts; a
  // double-based JSON number model would mangle these.
  auto s = valid_spec();
  for (const std::uint64_t words :
       {std::uint64_t{16777216}, std::uint64_t{1} << 36, (std::uint64_t{1} << 53) + 1}) {
    s.words = static_cast<std::size_t>(words);
    const std::string json = to_json(s, /*pretty=*/false);
    EXPECT_NE(json.find("\"words\":" + std::to_string(words)), std::string::npos) << json;
    EXPECT_EQ(spec_from_json(json).words, s.words);
  }
}

TEST(SpecContent, IdentityIgnoresRegionsAndCheckpointing) {
  // Region sharding is execution-transparent (verdicts only depend on
  // (fault, seed)), so cached cells are shared across region counts.
  const CampaignSpec base = valid_spec();
  CampaignSpec sharded = base;
  sharded.regions = 4;
  EXPECT_EQ(cell_key(sharded, base.schemes[0], base.classes[0]),
            cell_key(base, base.schemes[0], base.classes[0]));
}

// ---- deterministic class sampling ("saf@2048") ----------------------------

TEST(SpecEnums, SampledClassSpellingRoundTrips) {
  const auto sampled = parse_class("saf@2048");
  ASSERT_TRUE(sampled.has_value());
  EXPECT_EQ(sampled->kind, ClassKind::Saf);
  EXPECT_EQ(sampled->sample, 2048u);
  EXPECT_EQ(to_string(*sampled), "saf@2048");
  const auto scoped = parse_class("cfid:inter@1024");
  ASSERT_TRUE(scoped.has_value());
  EXPECT_EQ(scoped->scope, CfScope::InterWord);
  EXPECT_EQ(scoped->sample, 1024u);
  EXPECT_EQ(to_string(*scoped), "cfid:inter@1024");
  // A pre-sampling selector keeps its exact spelling (identity stability).
  EXPECT_EQ(to_string(ClassSel{ClassKind::Saf, CfScope::Both}), "saf");

  EXPECT_FALSE(parse_class("saf@0").has_value());
  EXPECT_FALSE(parse_class("saf@").has_value());
  EXPECT_FALSE(parse_class("saf@x").has_value());
  EXPECT_FALSE(parse_class("saf@12x").has_value());
  EXPECT_FALSE(parse_class("saf@4294967296").has_value());  // > UINT32_MAX
}

TEST(SpecClasses, SampledFaultListIsDeterministicAndBounded) {
  const ClassSel sel{ClassKind::Saf, CfScope::Both, 10};
  const auto a = build_fault_list(sel, 64, 4);
  const auto b = build_fault_list(sel, 64, 4);
  ASSERT_EQ(a.size(), 10u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cls, FaultClass::SAF);
    EXPECT_LT(a[i].victim.word, 64u);
    EXPECT_EQ(a[i].describe(), b[i].describe()) << "sampling must be deterministic";
  }
  // Requesting at least the exhaustive size degrades to the full list.
  const auto full = build_fault_list({ClassKind::Saf, CfScope::Both}, 4, 4);
  const auto capped = build_fault_list({ClassKind::Saf, CfScope::Both, 100000}, 4, 4);
  ASSERT_EQ(capped.size(), full.size());
  for (std::size_t i = 0; i < full.size(); ++i)
    EXPECT_EQ(capped[i].describe(), full[i].describe());
  // Sampled couplings respect the scope filter.
  const auto cfs = build_fault_list({ClassKind::CFid, CfScope::InterWord, 50}, 64, 4);
  ASSERT_EQ(cfs.size(), 50u);
  for (const Fault& f : cfs) {
    EXPECT_EQ(f.cls, FaultClass::CFid);
    EXPECT_NE(f.aggressor.word, f.victim.word);
  }
  // The sample changes the identity (different denotation -> different key).
  CampaignSpec s = valid_spec();
  EXPECT_NE(cell_key(s, s.schemes[0], {ClassKind::Saf, CfScope::Both, 10}),
            cell_key(s, s.schemes[0], {ClassKind::Saf, CfScope::Both}));
}

TEST(SpecClasses, FaultListSizeMatchesTheBuiltList) {
  const ClassKind kinds[] = {ClassKind::Saf,  ClassKind::Tf,   ClassKind::Ret,
                             ClassKind::CFst, ClassKind::CFid, ClassKind::CFin,
                             ClassKind::Af};
  for (const ClassKind kind : kinds)
    for (const CfScope scope : {CfScope::Both, CfScope::IntraWord, CfScope::InterWord})
      for (const std::uint32_t sample : {0u, 7u, 100000u})
        for (const auto& [words, width] : {std::pair<std::size_t, unsigned>{6, 4}, {5, 2}}) {
          const ClassSel sel{kind, scope, sample};
          EXPECT_EQ(fault_list_size(sel, words, width),
                    build_fault_list(sel, words, width).size())
              << to_string(sel) << " " << words << "x" << width;
        }
}

// A sampled AF list on 2^32 words strides over an enumeration of 2^64
// faults without overflowing: distinct faults, the last near the top.
TEST(SpecClasses, SampledAfListAtTwoToThe32WordsIsSpread) {
  const ClassSel sel{ClassKind::Af, CfScope::Both, 4};
  const std::size_t words = std::size_t{1} << 32;
  EXPECT_EQ(fault_list_size(sel, words, 8), 4u);
  const std::vector<Fault> faults = build_fault_list(sel, words, 8);
  ASSERT_EQ(faults.size(), 4u);
  EXPECT_EQ(faults[0].describe(), "AFna @w0");
  for (std::size_t i = 1; i < faults.size(); ++i) {
    EXPECT_EQ(faults[i].cls, FaultClass::AFaw);
    EXPECT_GT(faults[i].victim.word, faults[i - 1].victim.word);
  }
  EXPECT_GE(faults[3].victim.word, (3u << 30) - 1);  // at 3/4 of the enumeration
}

// FNV-1a over each fault's describe() line: a fault list's identity.
std::uint64_t list_digest(const std::vector<Fault>& faults) {
  std::uint64_t h = 1469598103934665603ull;
  for (const Fault& f : faults)
    for (const char c : f.describe() + "\n") {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
  return h;
}

// Sampled coupling lists are part of every cell identity (and of the
// cache and twmbench digests), so the draws must never move.  The digests
// were computed from the sampler that built a vector per draw; the
// sampler that picks among the variants in place must reproduce them.
TEST(SpecClasses, SampledCouplingListsArePinned) {
  struct Case {
    FaultClass cls;
    CfScope scope;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {FaultClass::CFid, CfScope::InterWord, 0x1baec7df0cfdb327ull},
      {FaultClass::CFid, CfScope::IntraWord, 0x051f99acde9b8dc8ull},
      {FaultClass::CFst, CfScope::InterWord, 0x89b124d3cbb0f12eull},
      {FaultClass::CFst, CfScope::IntraWord, 0x545834e0a3df1e46ull},
      {FaultClass::CFin, CfScope::InterWord, 0xf17bffca15bf99e5ull},
      {FaultClass::CFin, CfScope::IntraWord, 0x7779ba26e06159acull},
  };
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const Case& c = cases[i];
    Rng rng(7 + 10 * (i / 2) + i % 2);
    const std::vector<Fault> list = sampled_cfs(64, 8, c.cls, c.scope, 1500, rng);
    ASSERT_EQ(list.size(), 1500u);
    EXPECT_EQ(list_digest(list), c.digest) << to_string(c.cls) << " case " << i;
  }
  // Through the spec surface, at mid-list's geometry and sample size.
  const std::pair<const char*, std::uint64_t> selectors[] = {
      {"cfid:inter@20000", 0x896e80381da39335ull},
      {"cfst:intra@300", 0x87347797595a0048ull},
      {"cfin@700", 0xcf42688fb0dffe7aull},
  };
  for (const auto& [text, digest] : selectors)
    EXPECT_EQ(list_digest(build_fault_list(*parse_class(text), 4096, 8)), digest) << text;
}

TEST(SpecJson, SampledClassRoundTripsThroughSpecJson) {
  auto s = valid_spec();
  s.classes = {{ClassKind::Saf, CfScope::Both, 2048},
               {ClassKind::CFid, CfScope::InterWord, 1024}};
  EXPECT_EQ(spec_from_json(to_json(s)), s);
  EXPECT_NE(to_json(s, /*pretty=*/false).find("saf@2048"), std::string::npos);
}

TEST(SpecContent, IdentityFoldsInTheEngineRevision) {
  const CampaignSpec s = valid_spec();
  const std::string identity = cell_identity_json(s, s.schemes[0], s.classes[0]);
  EXPECT_NE(identity.find(std::string(engine_revision())), std::string::npos);
  // The identity is itself canonical compact JSON — reparse + rewrite is a
  // fixed point (the cache's verification step depends on this).
  EXPECT_EQ(json_write(json_parse(identity), /*pretty=*/false), identity);
}

// ---- inline marches (march_ops) ----------------------------------------

CampaignSpec inline_spec() {
  auto s = valid_spec();
  s.march.clear();
  s.march_ops = {"any(w0)", "up(r0,w1)", "down(r1,w0)", "any(r0)"};
  return s;
}

TEST(SpecValidate, InlineMarchIsValidAndResolves) {
  const CampaignSpec s = inline_spec();
  EXPECT_TRUE(validate(s).empty());
  const MarchTest t = resolve_march(s);
  EXPECT_EQ(t.elements.size(), 4u);
  EXPECT_TRUE(is_consistent_bit_march(t));
}

TEST(SpecValidate, MarchAndInlineOpsAreMutuallyExclusive) {
  auto s = inline_spec();
  s.march = "March C-";
  const auto errors = validate(s);
  ASSERT_TRUE(has_error_at(errors, "march_ops"));
  EXPECT_NE(errors[0].message.find("pick one"), std::string::npos);
}

TEST(SpecValidate, NeitherMarchNorInlineOpsRejected) {
  auto s = inline_spec();
  s.march_ops.clear();
  const auto errors = validate(s);
  ASSERT_TRUE(has_error_at(errors, "march"));
  EXPECT_NE(errors[0].message.find("inline march_ops"), std::string::npos);
}

TEST(SpecValidate, BadInlineElementNamesItsIndex) {
  auto s = inline_spec();
  s.march_ops[1] = "up(bogus)";
  EXPECT_TRUE(has_error_at(validate(s), "march_ops[1]"));
}

TEST(SpecValidate, InconsistentInlineMarchNamesMarchOps) {
  auto s = inline_spec();
  s.march_ops = {"any(w0)", "up(r1)"};  // stale read — parses, but inconsistent
  const auto errors = validate(s);
  ASSERT_TRUE(has_error_at(errors, "march_ops"));
  EXPECT_NE(errors[0].message.find("consistent"), std::string::npos);
}

TEST(SpecJson, InlineMarchRoundTripsExactly) {
  const CampaignSpec s = inline_spec();
  EXPECT_EQ(spec_from_json(to_json(s)), s);
  // The library form is omitted when an inline march is present.
  const std::string compact = to_json(s, /*pretty=*/false);
  EXPECT_NE(compact.find("\"march_ops\":[\"any(w0)\""), std::string::npos);
  EXPECT_EQ(compact.find("\"march\":\""), std::string::npos);
}

TEST(SpecContent, InlineIdentityIsTheCanonicalBody) {
  const CampaignSpec s = inline_spec();
  const std::string identity = cell_identity_json(s, s.schemes[0], s.classes[0]);
  // The identity carries the canonical printed body, not the user spelling
  // — so every spelling of the same march shares a cache cell.
  EXPECT_NE(identity.find("{ any(w(0)); up(r(0),w(1)); down(r(1),w(0)); any(r(0)) }"),
            std::string::npos);
  auto variant = s;
  variant.march_ops = {"any(w(0))", "up( r0 , w1 )", "down(r1,w0)", "any(r0)"};
  EXPECT_EQ(cell_identity_json(variant, s.schemes[0], s.classes[0]), identity);
  // A body can never collide with a library name (bodies start with '{').
  EXPECT_NE(identity, cell_identity_json(valid_spec(), s.schemes[0], s.classes[0]));
}

}  // namespace
}  // namespace twm::api
