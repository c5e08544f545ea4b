// Sweep-report / regression-check tests (experiment/report, the library
// behind the prdrb_report CLI):
//   - manifest parsing round-trips what experiment/manifest writes
//   - directory collection is deterministic, reads each file into exactly
//     one list and skips foreign JSON
//   - read_document: whole JSON, NDJSON and torn streams
//   - markdown / JSON report rendering
//   - check_documents verdicts: event drift always fails, perf moves obey
//     thresholds and --perf-warn-only, every accepted schema works
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "experiment/manifest.hpp"
#include "experiment/report.hpp"
#include "obs/json.hpp"

namespace prdrb {
namespace {

using obs::JsonValue;

/// A manifest document with controllable headline numbers.
std::string manifest_json(std::uint64_t events, double wall_s,
                          double drb_latency_us, double delivery = 1.0) {
  RunManifest m("report_test");
  m.set_seed(11);
  m.set_wall_seconds(wall_s);
  m.add_config("topology", "mesh-8x8");
  ScenarioResult r;
  r.policy = "drb";
  r.global_latency = drb_latency_us * 1e-6;
  r.mean_latency = drb_latency_us * 1e-6;
  r.delivery_ratio = delivery;
  r.packets = 100;
  r.events = events;
  m.add_result(r);
  ScenarioResult p = r;
  p.policy = "pr-drb";
  p.mean_latency = drb_latency_us * 0.8e-6;
  m.add_result(p);
  return m.to_json();
}

JsonValue parsed(const std::string& text) {
  auto doc = obs::json_parse(text);
  EXPECT_TRUE(doc.has_value());
  return doc ? *doc : JsonValue();
}

TEST(Report, ParseManifestRoundTripsTheWriterFields) {
  ManifestInfo info;
  ASSERT_TRUE(parse_manifest(manifest_json(5000, 2.0, 10.0), info));
  EXPECT_EQ(info.tool, "report_test");
  EXPECT_EQ(info.seed, 11u);
  EXPECT_DOUBLE_EQ(info.wall_s, 2.0);
  EXPECT_DOUBLE_EQ(info.events, 10000);  // two results x 5000
  ASSERT_EQ(info.policies.size(), 2u);
  EXPECT_EQ(info.policies[0].name, "drb");
  EXPECT_DOUBLE_EQ(info.policies[0].mean_latency_us, 10.0);
  EXPECT_DOUBLE_EQ(info.policies[0].delivery_ratio, 1.0);
  EXPECT_EQ(info.policies[1].name, "pr-drb");

  EXPECT_FALSE(parse_manifest("not json", info));
  EXPECT_FALSE(parse_manifest("{\"schema\":\"something-else\"}", info));
}

TEST(Report, ManifestCountsOutOfRangeAreMalformed) {
  const auto manifest = [](const std::string& top, const std::string& pol) {
    return "{\"schema\":\"prdrb-manifest-v1\",\"tool\":\"t\"" + top +
           ",\"policies\":[{\"policy\":\"drb\"" + pol + "}]}";
  };
  ManifestInfo info;
  // The largest values each field holds exactly.
  ASSERT_TRUE(parse_manifest(
      manifest(",\"seed\":18446744073709549568,\"jobs\":2147483647,"
               "\"events\":18446744073709549568",
               ",\"runs\":2147483647,\"events\":0"),
      info));
  EXPECT_EQ(info.seed, 18446744073709549568u);
  EXPECT_EQ(info.jobs, 2147483647);
  EXPECT_EQ(info.policies.at(0).runs, 2147483647);
  for (const char* top :
       {",\"seed\":-1", ",\"seed\":1.5", ",\"seed\":18446744073709551616",
        ",\"jobs\":-1", ",\"jobs\":2147483648", ",\"jobs\":1e300",
        ",\"events\":-5", ",\"events\":1e300"}) {
    EXPECT_FALSE(parse_manifest(manifest(top, ""), info)) << top;
  }
  for (const char* pol : {",\"runs\":-1", ",\"runs\":2147483648",
                          ",\"events\":0.5", ",\"events\":-5"}) {
    EXPECT_FALSE(parse_manifest(manifest("", pol), info)) << pol;
  }
}

TEST(Report, CollectReportsIsSortedAndSkipsForeignFiles) {
  const std::string dir =
      ::testing::TempDir() + "prdrb_report_collect";
  std::filesystem::create_directories(dir);
  const auto write = [&](const std::string& name, const std::string& body) {
    std::ofstream(dir + "/" + name) << body;
  };
  write("b_run.json", manifest_json(2000, 1.0, 12.0));
  write("a_run.json", manifest_json(1000, 1.0, 10.0));
  write("notes.json", "{\"schema\":\"other\"}");
  write("readme.txt", "not json at all");

  const ResultsDir docs = collect_documents(dir);
  const std::vector<ManifestInfo>& manifests = docs.manifests;
  const std::vector<std::string>& skipped = docs.skipped;
  ASSERT_EQ(manifests.size(), 2u);
  // Lexicographic path order, not directory order.
  EXPECT_NE(manifests[0].path.find("a_run.json"), std::string::npos);
  EXPECT_NE(manifests[1].path.find("b_run.json"), std::string::npos);
  ASSERT_EQ(skipped.size(), 1u);
  EXPECT_NE(skipped[0].find("notes.json"), std::string::npos);

  std::ostringstream md;
  write_markdown_report(md, manifests);
  EXPECT_NE(md.str().find("# PR-DRB sweep report"), std::string::npos);
  EXPECT_NE(md.str().find("a_run.json"), std::string::npos);
  EXPECT_NE(md.str().find("| drb |"), std::string::npos);
  EXPECT_NE(md.str().find("Mean latency by policy"), std::string::npos);

  std::ostringstream js;
  write_json_report(js, manifests);
  EXPECT_TRUE(obs::json_valid(js.str())) << js.str().substr(0, 400);
  EXPECT_NE(js.str().find("prdrb-sweep-report-v1"), std::string::npos);

  std::filesystem::remove_all(dir);
}

TEST(Report, CheckPassesOnIdenticalDocuments) {
  const JsonValue doc = parsed(manifest_json(5000, 2.0, 10.0));
  const CheckResult r = check_documents(doc, doc, CheckThresholds{});
  EXPECT_FALSE(r.has_regression());
  ASSERT_FALSE(r.findings.empty());
  EXPECT_NE(r.findings[0].message.find("event count unchanged"),
            std::string::npos);
}

TEST(Report, EventCountDriftAlwaysFailsEvenWarnOnly) {
  const JsonValue a = parsed(manifest_json(5000, 2.0, 10.0));
  const JsonValue b = parsed(manifest_json(5001, 2.0, 10.0));
  CheckThresholds t;
  t.perf_warn_only = true;  // must NOT downgrade determinism drift
  const CheckResult r = check_documents(a, b, t);
  EXPECT_TRUE(r.has_regression());
  bool drift = false;
  for (const Finding& f : r.findings) {
    drift |= f.message.find("event count drift") != std::string::npos &&
             f.level == Finding::Level::kRegression;
  }
  EXPECT_TRUE(drift);
}

TEST(Report, ThroughputDropObeysThresholdAndWarnOnly) {
  // Same events, halved rate (doubled wall time): 50% drop.
  const JsonValue fast = parsed(manifest_json(5000, 1.0, 10.0));
  const JsonValue slow = parsed(manifest_json(5000, 2.0, 10.0));
  CheckThresholds t;  // default max_rate_drop = 0.30
  EXPECT_TRUE(check_documents(fast, slow, t).has_regression());
  // Within threshold the other way (rate rose): fine.
  EXPECT_FALSE(check_documents(slow, fast, t).has_regression());
  // Warn-only downgrades the perf finding.
  t.perf_warn_only = true;
  const CheckResult r = check_documents(fast, slow, t);
  EXPECT_FALSE(r.has_regression());
  bool warned = false;
  for (const Finding& f : r.findings) {
    warned |= f.level == Finding::Level::kWarning &&
              f.message.find("throughput drop") != std::string::npos;
  }
  EXPECT_TRUE(warned);
}

TEST(Report, LatencyRiseAndDeliveryDropAreCaught) {
  const JsonValue base = parsed(manifest_json(5000, 2.0, 10.0));
  const JsonValue slower = parsed(manifest_json(5000, 2.0, 12.0));  // +20%
  CheckThresholds t;  // default max_latency_rise = 0.10
  EXPECT_TRUE(check_documents(base, slower, t).has_regression());
  EXPECT_FALSE(check_documents(slower, base, t).has_regression());

  const JsonValue lossy = parsed(manifest_json(5000, 2.0, 10.0, 0.9));
  EXPECT_TRUE(check_documents(base, lossy, t).has_regression());
}

TEST(Report, BenchBaselineSchemaIsAccepted) {
  const char* kBaseline = R"({
    "schema": "prdrb-bench-baseline-v1",
    "end_to_end": {
      "events": 7056382,
      "before": {"wall_s": 2.0, "events_per_sec": 3500000},
      "after": {"wall_s": 1.0, "events_per_sec": 7000000}
    }
  })";
  const JsonValue doc = parsed(kBaseline);
  const CheckResult self = check_documents(doc, doc, CheckThresholds{});
  EXPECT_FALSE(self.has_regression());

  const char* kDrifted = R"({
    "schema": "prdrb-bench-baseline-v1",
    "end_to_end": {
      "events": 7056000,
      "after": {"wall_s": 1.0, "events_per_sec": 7000000}
    }
  })";
  EXPECT_TRUE(
      check_documents(doc, parsed(kDrifted), CheckThresholds{})
          .has_regression());

  // Unknown schema is a hard failure (never silently "ok").
  EXPECT_TRUE(check_documents(doc, parsed("{\"schema\":\"nope\"}"),
                              CheckThresholds{})
                  .has_regression());
}

std::string scorecard_json(double hits, double misses,
                           double deliveries = 500) {
  std::ostringstream os;
  os << R"({"schema": "prdrb-scorecard-v1", "deliveries": )" << deliveries
     << R"(, "attribution": [], "ledger": {"flows": 2, "opens": 4,)"
     << R"( "closes": 3, "multipath_s": 0.002, "top_flows": []},)"
     << R"( "sdb": {"hits": )" << hits << R"(, "misses": )" << misses
     << R"(, "saves": 1, "empty_probes": 0},)"
     << R"( "episodes": {"cold": {"count": 2, "time_s": 0.004,)"
     << R"( "mean_duration_us": 2000, "p95_duration_us": 2400,)"
     << R"( "mean_latency_us": 40},)"
     << R"( "warm": {"count": 3, "time_s": 0.003,)"
     << R"( "mean_duration_us": 1000, "p95_duration_us": 1200,)"
     << R"( "mean_latency_us": 25},)"
     << R"( "false_opens": 1, "false_open_rate": 0.3333,)"
     << R"( "hit_efficacy_pct": 37.5, "convergence_ratio": 0.5}})";
  return os.str();
}

TEST(Report, ScorecardLosingAllSdbHitsAlwaysFails) {
  const JsonValue base = parsed(scorecard_json(12, 30));
  const JsonValue dead = parsed(scorecard_json(0, 42));
  CheckThresholds t;
  t.perf_warn_only = true;  // must NOT downgrade a silenced predictive layer
  const CheckResult r = check_documents(base, dead, t);
  EXPECT_TRUE(r.has_regression());
  bool found = false;
  for (const Finding& f : r.findings) {
    found |= f.level == Finding::Level::kRegression &&
             f.message.find("SDB hits dropped to zero") != std::string::npos;
  }
  EXPECT_TRUE(found);

  // Both with hits (even fewer): not a regression, the transition is info.
  EXPECT_FALSE(check_documents(base, parsed(scorecard_json(3, 40)),
                               CheckThresholds{})
                   .has_regression());
  // Baseline itself had no hits: a hitless run cannot regress against it.
  EXPECT_FALSE(check_documents(parsed(scorecard_json(0, 30)), dead,
                               CheckThresholds{})
                   .has_regression());
}

TEST(Report, ParseScorecardExtractsHeadlineNumbers) {
  ScorecardInfo info;
  ASSERT_TRUE(parse_scorecard(scorecard_json(12, 30), info));
  EXPECT_DOUBLE_EQ(info.deliveries, 500);
  EXPECT_DOUBLE_EQ(info.sdb_hits, 12);
  EXPECT_DOUBLE_EQ(info.sdb_misses, 30);
  EXPECT_DOUBLE_EQ(info.opens, 4);
  EXPECT_DOUBLE_EQ(info.multipath_s, 0.002);
  EXPECT_DOUBLE_EQ(info.cold.count, 2);
  EXPECT_DOUBLE_EQ(info.warm.mean_latency_us, 25);
  EXPECT_DOUBLE_EQ(info.hit_efficacy_pct, 37.5);
  EXPECT_DOUBLE_EQ(info.convergence_ratio, 0.5);
  EXPECT_FALSE(parse_scorecard("not json", info));
  EXPECT_FALSE(parse_scorecard("{\"schema\":\"prdrb-manifest-v1\"}", info));
}

TEST(Report, ScorecardsRenderTheirOwnSections) {
  const std::string dir = ::testing::TempDir() + "prdrb_report_scorecards";
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/manifest.json") << manifest_json(1000, 1.0, 10.0);
  std::ofstream(dir + "/scorecard.json") << scorecard_json(12, 30);

  const ResultsDir docs = collect_documents(dir);
  const std::vector<ManifestInfo>& manifests = docs.manifests;
  const std::vector<ScorecardInfo>& scorecards = docs.scorecards;
  ASSERT_EQ(manifests.size(), 1u);
  ASSERT_EQ(scorecards.size(), 1u);

  std::ostringstream md;
  write_markdown_report(md, manifests, scorecards);
  EXPECT_NE(md.str().find("Predictive scorecards"), std::string::npos);
  EXPECT_NE(md.str().find("Warm vs cold SDB efficacy"), std::string::npos);
  EXPECT_NE(md.str().find("scorecard.json"), std::string::npos);

  // A scorecard-only directory still produces a report.
  std::filesystem::remove(dir + "/manifest.json");
  std::ostringstream md2;
  write_markdown_report(md2, {}, collect_documents(dir).scorecards);
  EXPECT_NE(md2.str().find("Warm vs cold SDB efficacy"), std::string::npos);

  std::ostringstream js;
  write_json_report(js, manifests, scorecards);
  EXPECT_TRUE(obs::json_valid(js.str())) << js.str().substr(0, 400);
  EXPECT_NE(js.str().find("scorecard_runs"), std::string::npos);

  std::filesystem::remove_all(dir);
}

/// One "prdrb-stream-v1" NDJSON line with controllable lead-time numbers.
std::string stream_line(double data_median_s, int pos, int neg,
                        const char* kind = "summary") {
  std::ostringstream os;
  os << "{\"schema\":\"prdrb-stream-v1\",\"kind\":\"" << kind
     << "\",\"seq\":3,\"t\":0.012,\"window_s\":0.001,\"windows\":12,"
        "\"links\":288,\"busy_s\":1.5,\"stalls\":42,\"packets\":9000,"
        "\"util\":{\"p50\":0.2,\"p95\":0.8,\"p99\":0.95,\"max\":1},"
        "\"onsets\":1,\"onsets_total\":3,"
        "\"opens\":{\"predictive\":5,\"reactive\":2},"
        "\"lead\":{\"data\":{\"pos\":"
     << pos << ",\"neg\":" << neg << ",\"median_s\":" << data_median_s
     << ",\"pos_p95_s\":0.0002,\"predictive\":4},"
        "\"ack\":{\"pos\":0,\"neg\":0,\"median_s\":0,\"pos_p95_s\":0,"
        "\"predictive\":0},"
        "\"predictive-ack\":{\"pos\":0,\"neg\":0,\"median_s\":0,"
        "\"pos_p95_s\":0,\"predictive\":0}},"
        "\"ancient_windows\":0,\"state_bytes\":51200}";
  return os.str();
}

TEST(Report, ParseStreamToleratesTornTrailingLine) {
  // An interrupted writer leaves at most one torn trailing line in an
  // append-only NDJSON stream; the intact prefix must still parse.
  const std::string text = stream_line(50e-6, 4, 1, "snapshot") + "\n" +
                           stream_line(120e-6, 10, 2) + "\n" +
                           "{\"schema\":\"prdrb-str";  // torn mid-write
  StreamInfo info;
  ASSERT_TRUE(parse_stream(text, info));
  EXPECT_EQ(info.lines, 2u);
  EXPECT_EQ(info.bad_lines, 1u);
  // The summary comes from the LAST intact line.
  EXPECT_DOUBLE_EQ(info.onsets, 3);
  EXPECT_DOUBLE_EQ(info.opens_predictive, 5);
  EXPECT_DOUBLE_EQ(info.state_bytes, 51200);
  ASSERT_EQ(info.leads.size(), 3u);
  EXPECT_EQ(info.leads[0].cls, "data");
  EXPECT_DOUBLE_EQ(info.leads[0].pos, 10);
  EXPECT_DOUBLE_EQ(info.leads[0].median_s, 120e-6);

  // No intact line at all: refuse, never crash.
  EXPECT_FALSE(parse_stream("", info));
  EXPECT_FALSE(parse_stream("{\"torn", info));
  EXPECT_FALSE(parse_stream("{\"schema\":\"prdrb-manifest-v1\"}", info));
}

TEST(Report, StreamLosingPositiveLeadAlwaysFails) {
  const JsonValue base = parsed(stream_line(120e-6, 10, 2));
  const JsonValue late = parsed(stream_line(-50e-6, 1, 9));
  CheckThresholds t;
  t.perf_warn_only = true;  // must NOT downgrade a lost prediction lead
  const CheckResult r = check_documents(base, late, t);
  EXPECT_TRUE(r.has_regression());
  bool found = false;
  for (const Finding& f : r.findings) {
    found |= f.level == Finding::Level::kRegression &&
             f.message.find("positive prediction lead time lost") !=
                 std::string::npos;
  }
  EXPECT_TRUE(found);

  // Still positive (even if smaller): informational, not a regression.
  EXPECT_FALSE(check_documents(base, parsed(stream_line(30e-6, 4, 3)),
                               CheckThresholds{})
                   .has_regression());
  // Baseline never had a positive median: nothing to lose.
  EXPECT_FALSE(check_documents(late, parsed(stream_line(-80e-6, 0, 9)),
                               CheckThresholds{})
                   .has_regression());

  // The gate reads the data class by name, wherever it sits in "lead": a
  // leading ack class with a positive median does not hide the lost lead.
  std::string reordered = stream_line(-50e-6, 1, 9);
  reordered.insert(reordered.find("\"lead\":{") + 8,
                   "\"ack\":{\"pos\":5,\"neg\":0,\"median_s\":0.0001},");
  reordered.erase(reordered.rfind(",\"ack\":{"),
                  reordered.find("},\"predictive-ack\"") + 1 -
                      reordered.rfind(",\"ack\":{"));
  const JsonValue reordered_doc = parsed(reordered);
  ASSERT_EQ(reordered_doc.find("lead")->members().front().first, "ack");
  EXPECT_TRUE(check_documents(base, reordered_doc, CheckThresholds{})
                  .has_regression());
}

TEST(Report, StreamsRenderLeadTimeSection) {
  const std::string dir = ::testing::TempDir() + "prdrb_report_streams";
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/run.ndjson")
      << stream_line(50e-6, 4, 1, "snapshot") << "\n"
      << stream_line(120e-6, 10, 2) << "\n";

  const auto streams = collect_documents(dir).streams;
  ASSERT_EQ(streams.size(), 1u);
  std::ostringstream md;
  write_markdown_report(md, {}, {}, streams);
  EXPECT_NE(md.str().find("Streaming telemetry"), std::string::npos);
  EXPECT_NE(md.str().find("Prediction lead time"), std::string::npos);
  EXPECT_NE(md.str().find("run.ndjson"), std::string::npos);

  std::ostringstream js;
  write_json_report(js, {}, {}, streams);
  EXPECT_TRUE(obs::json_valid(js.str())) << js.str().substr(0, 400);
  EXPECT_NE(js.str().find("stream_runs"), std::string::npos);

  std::filesystem::remove_all(dir);
}

TEST(Report, ReadDocumentTakesWholeJsonOrTheLastIntactStreamLine) {
  // A whole document reads as itself.
  const auto manifest = read_document(manifest_json(5000, 2.0, 10.0));
  ASSERT_TRUE(manifest.has_value());
  EXPECT_EQ(manifest->string_at("schema"), "prdrb-manifest-v1");

  // NDJSON: the last intact stream line, the summary.
  const std::string ndjson = stream_line(50e-6, 4, 1, "snapshot") + "\n" +
                             stream_line(120e-6, 10, 2) + "\n";
  for (const std::string& text :
       {ndjson, ndjson + "{\"schema\":\"prdrb-str",  // torn mid-write
        ndjson + "{\"schema\":\"other\"}\n"}) {     // not a stream line
    const auto doc = read_document(text);
    ASSERT_TRUE(doc.has_value()) << text;
    EXPECT_EQ(doc->string_at("kind"), "summary");
    EXPECT_DOUBLE_EQ(doc->number_at("lead.data.median_s"), 120e-6);
  }

  // No stream line: nothing to check.
  EXPECT_FALSE(read_document("").has_value());
  EXPECT_FALSE(read_document("{\"torn").has_value());
  EXPECT_FALSE(read_document("{\"a\":1}\n{\"b\":2}\n").has_value());
}

template <typename Info>
std::vector<std::string> file_names(const std::vector<Info>& infos) {
  std::vector<std::string> out;
  for (const Info& i : infos) {
    out.push_back(std::filesystem::path(i.path).filename().string());
  }
  return out;
}

TEST(Report, CollectDocumentsPutsEachFileInExactlyOneList) {
  const std::string dir = ::testing::TempDir() + "prdrb_report_one_pass";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto write = [&](const std::string& name, const std::string& body) {
    std::ofstream(dir + "/" + name) << body;
  };
  write("a_manifest.json", manifest_json(1000, 1.0, 10.0));
  write("b_scorecard.json", scorecard_json(12, 30));
  write("c_stream.ndjson", stream_line(50e-6, 4, 1, "snapshot") + "\n" +
                               stream_line(120e-6, 10, 2) + "\n" +
                               "{\"schema\":\"prdrb-str");
  write("d_one_line_stream.json", stream_line(120e-6, 10, 2) + "\n");
  write("e_foreign.json", "{\"schema\":\"other\"}");
  write("f_empty.json", "");
  write("g_junk.ndjson", "not a stream\n");
  write("h_notes.txt", "not json at all");
  write("i_bad_counts.json",
        "{\"schema\":\"prdrb-manifest-v1\",\"tool\":\"t\",\"seed\":-1,"
        "\"jobs\":1e300,\"events\":-5}");

  const ResultsDir docs = collect_documents(dir);
  using Names = std::vector<std::string>;
  EXPECT_EQ(file_names(docs.manifests), Names{"a_manifest.json"});
  EXPECT_EQ(file_names(docs.scorecards), Names{"b_scorecard.json"});
  // A one-line stream saved as .json is a stream, not a foreign document.
  EXPECT_EQ(file_names(docs.streams),
            (Names{"c_stream.ndjson", "d_one_line_stream.json"}));
  ASSERT_EQ(docs.streams.size(), 2u);
  EXPECT_EQ(docs.streams[0].lines, 2u);
  EXPECT_EQ(docs.streams[0].bad_lines, 1u);
  EXPECT_EQ(docs.streams[1].lines, 1u);
  EXPECT_EQ(docs.streams[1].bad_lines, 0u);
  // A .json or .ndjson file that holds none of the schemas, a manifest
  // with out-of-range counts among them, is skipped; other extensions are
  // ignored.
  Names skipped;
  for (const std::string& p : docs.skipped) {
    skipped.push_back(std::filesystem::path(p).filename().string());
  }
  EXPECT_EQ(skipped, (Names{"e_foreign.json", "f_empty.json",
                            "g_junk.ndjson", "i_bad_counts.json"}));

  const ResultsDir missing = collect_documents(dir + "/no-such-dir");
  EXPECT_TRUE(missing.manifests.empty() && missing.scorecards.empty() &&
              missing.streams.empty() && missing.skipped.empty());
  std::filesystem::remove_all(dir);
}

TEST(Report, CheckReadsATornStreamLikeTheIntactFile) {
  const auto base = read_document(stream_line(120e-6, 10, 2) + "\n");
  // The snapshot still leads; the summary, which is what --check reads,
  // has lost the lead.
  const std::string intact = stream_line(50e-6, 4, 1, "snapshot") + "\n" +
                             stream_line(-50e-6, 1, 9) + "\n";
  const auto whole = read_document(intact);
  const auto torn = read_document(intact + "{\"schema\":\"prdrb-str");
  ASSERT_TRUE(base && whole && torn);

  const CheckResult r_whole = check_documents(*base, *whole, {});
  const CheckResult r_torn = check_documents(*base, *torn, {});
  std::ostringstream f_whole, f_torn;
  write_findings(f_whole, r_whole);
  write_findings(f_torn, r_torn);
  EXPECT_EQ(f_torn.str(), f_whole.str());
  EXPECT_TRUE(r_torn.has_regression());
  EXPECT_NE(f_torn.str().find("positive prediction lead time lost"),
            std::string::npos)
      << f_torn.str();
}

TEST(Report, FindingsRenderOnePerLineWithVerdictPrefixes) {
  CheckResult r;
  r.findings.push_back({Finding::Level::kRegression, "bad"});
  r.findings.push_back({Finding::Level::kWarning, "meh"});
  r.findings.push_back({Finding::Level::kInfo, "fine"});
  std::ostringstream os;
  write_findings(os, r);
  EXPECT_EQ(os.str(), "REGRESSION: bad\nwarning: meh\nok: fine\n");
}

}  // namespace
}  // namespace prdrb
