// Sweep reports and regression checks over run documents.
//
// A results directory holds "prdrb-manifest-v1" run manifests (every
// bench/simulator run writes one), "prdrb-scorecard-v1" predictive
// scorecards and "prdrb-stream-v1" streaming-telemetry NDJSON files. Each
// schema has one reader in this module, and both artefacts go through it:
//
//   * collect_documents(dir) + write_markdown_report/write_json_report —
//     one sweep report ("prdrb-sweep-report-v1") over every document in a
//     directory, read once each and sorted by schema; deterministic
//     (lexicographic file order) so reports diff cleanly. Scorecards get
//     their own section, including the warm-vs-cold SDB efficacy table, and
//     streams feed the "Prediction lead time" section.
//   * read_document(text) + check_documents(old, new) — threshold-based
//     regression verdicts between two runs, consumed by `prdrb_report
//     --check OLD NEW`. Event-count drift (the determinism contract) always
//     fails; throughput/latency/delivery moves beyond their thresholds fail
//     unless downgraded to warnings. Accepts manifests, the committed
//     "prdrb-bench-baseline-v1" shape, scorecards (where losing all SDB hits
//     against a baseline that had them is always a hard regression) and
//     stream summaries (where losing a positive median prediction lead time
//     is likewise a hard regression).
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"

namespace prdrb {

/// One manifest, parsed and summarized for reporting.
struct ManifestInfo {
  std::string path;  // file it came from
  std::string tool;
  std::uint64_t seed = 0;
  int jobs = 1;
  double wall_s = 0;
  double events = 0;
  double events_per_sec = 0;
  struct Policy {
    std::string name;
    int runs = 0;
    double global_latency_us = 0;
    double mean_latency_us = 0;
    double delivery_ratio = 0;
    double packets = 0;
    double events = 0;
  };
  std::vector<Policy> policies;
};

/// Parse one manifest document ("prdrb-manifest-v1"); false when the JSON
/// is invalid or the schema does not match.
bool parse_manifest(const std::string& text, ManifestInfo& out);

/// One predictive-efficacy scorecard ("prdrb-scorecard-v1", written by
/// obs::Scorecard), parsed and summarized for reporting.
struct ScorecardInfo {
  std::string path;  // file it came from
  double deliveries = 0;
  double sdb_hits = 0;
  double sdb_misses = 0;
  double sdb_saves = 0;
  double sdb_empty_probes = 0;
  double opens = 0;
  double closes = 0;
  double multipath_s = 0;
  double flows = 0;
  struct Episodes {
    double count = 0;
    double mean_duration_us = 0;
    double mean_latency_us = 0;
  };
  Episodes cold;
  Episodes warm;
  double false_opens = 0;
  double false_open_rate = 0;
  double hit_efficacy_pct = 0;
  double convergence_ratio = 0;
};

/// Parse one scorecard document; false when the JSON is invalid or the
/// schema does not match.
bool parse_scorecard(const std::string& text, ScorecardInfo& out);

/// One streaming-telemetry file ("prdrb-stream-v1" NDJSON, written by
/// obs::StreamTelemetry), summarized from its final summary/snapshot line.
struct StreamInfo {
  std::string path;        // file it came from
  std::uint64_t lines = 0;      // valid snapshot/summary lines
  std::uint64_t bad_lines = 0;  // truncated or invalid lines skipped
  double t = 0;
  double window_s = 0;
  double windows = 0;
  double links = 0;
  double busy_s = 0;
  double stalls = 0;
  double packets = 0;
  double util_p50 = 0, util_p95 = 0, util_p99 = 0, util_max = 0;
  /// Per-link-class traffic split ("link_class" snapshot section; zeros on
  /// streams written before the split existed).
  struct ClassTotals {
    double links = 0;
    double busy_s = 0;
    double stalls = 0;
    double packets = 0;
  };
  ClassTotals cls_local, cls_global, cls_terminal;
  double onsets = 0;
  double opens_predictive = 0;
  double opens_reactive = 0;
  double state_bytes = 0;
  struct Lead {
    std::string cls;     // "data" | "ack" | "predictive-ack"
    double pos = 0;      // opens that preceded their onset
    double neg = 0;      // onsets the open trailed
    double median_s = 0; // signed median lead (positive = predicted early)
    double pos_p95_s = 0;
    double predictive = 0;  // positive matches from SDB installs
  };
  std::vector<Lead> leads;
};

/// Parse a streaming-telemetry NDJSON document. Tolerant of truncation: a
/// partially-written trailing line (the crash-consistency mode of an
/// append-only stream) is counted in `bad_lines` and skipped; the summary
/// comes from the last intact "prdrb-stream-v1" line. False only when no
/// such line exists at all.
bool parse_stream(const std::string& text, StreamInfo& out);

/// Every document in one results directory, in lexicographic path order.
struct ResultsDir {
  std::vector<ManifestInfo> manifests;
  std::vector<ScorecardInfo> scorecards;
  std::vector<StreamInfo> streams;
  /// Files that hold none of the three schemas (other exports, malformed
  /// manifests, empty or partially-written files).
  std::vector<std::string> skipped;
};

/// Read every *.json and *.ndjson file under `dir` once (non-recursive) and
/// sort it into exactly one list. A .json file holds a manifest or a
/// scorecard when it parses whole, else a stream when a line does; either
/// extension may hold a stream, and a file of either with none of these is
/// skipped. A missing directory reads as empty.
ResultsDir collect_documents(const std::string& dir);

/// Markdown sweep report over collected manifests (and, when present,
/// scorecards: attribution totals plus the warm-vs-cold efficacy table;
/// streams: the "Prediction lead time" section).
void write_markdown_report(std::ostream& os,
                           const std::vector<ManifestInfo>& manifests,
                           const std::vector<ScorecardInfo>& scorecards = {},
                           const std::vector<StreamInfo>& streams = {});

/// JSON sweep report ("prdrb-sweep-report-v1").
void write_json_report(std::ostream& os,
                       const std::vector<ManifestInfo>& manifests,
                       const std::vector<ScorecardInfo>& scorecards = {},
                       const std::vector<StreamInfo>& streams = {});

// --- regression checking ---

struct CheckThresholds {
  double max_rate_drop = 0.30;     // events/sec drop fraction that fails
  double max_latency_rise = 0.10;  // per-policy latency rise fraction
  double max_delivery_drop = 0.01; // per-policy delivery-ratio drop (abs)
  bool perf_warn_only = false;     // downgrade perf findings to warnings
  /// Cross-policy throughput mode (> 0 enables): the two documents are
  /// DIFFERENT routing policies over the same workload (e.g. minimal vs
  /// UGAL-L on the adversarial dragonfly permutation), and the NEW
  /// document must deliver at least this many times the OLD document's
  /// packets. Same-run invariants (event drift, per-policy latency) are
  /// meaningless across policies and are skipped in this mode.
  double min_packet_ratio = 0;
};

struct Finding {
  enum class Level { kInfo, kWarning, kRegression };
  Level level = Level::kInfo;
  std::string message;
};

struct CheckResult {
  std::vector<Finding> findings;
  bool has_regression() const {
    for (const Finding& f : findings) {
      if (f.level == Finding::Level::kRegression) return true;
    }
    return false;
  }
};

/// The document `--check` compares from one file's text: the whole text
/// when it parses as one JSON value, else the last intact "prdrb-stream-v1"
/// line of an NDJSON stream (a torn trailing line is skipped). nullopt when
/// neither exists.
std::optional<obs::JsonValue> read_document(std::string_view text);

/// Compare two parsed documents of the accepted schemas, each read through
/// its schema's reader; an unknown schema or a malformed manifest on either
/// side is a regression.
/// Event-count drift is always a regression — seeded runs are bit-exact, so
/// a drift means behaviour changed; performance moves beyond thresholds are
/// regressions unless `perf_warn_only` downgrades them.
CheckResult check_documents(const obs::JsonValue& older,
                            const obs::JsonValue& newer,
                            const CheckThresholds& t);

/// Render findings one per line ("REGRESSION: ...", "warning: ...").
void write_findings(std::ostream& os, const CheckResult& result);

}  // namespace prdrb
