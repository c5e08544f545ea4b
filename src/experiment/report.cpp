#include "experiment/report.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iomanip>
#include <limits>
#include <ostream>
#include <sstream>

namespace prdrb {

namespace {

using obs::JsonValue;

constexpr std::string_view kManifestSchema = "prdrb-manifest-v1";
constexpr std::string_view kBaselineSchema = "prdrb-bench-baseline-v1";
constexpr std::string_view kScorecardSchema = "prdrb-scorecard-v1";
constexpr std::string_view kStreamSchema = "prdrb-stream-v1";

// Fraction change of `now` relative to `base`; 0 for degenerate baselines.
double rel(double base, double now) {
  if (!(base > 0) || !std::isfinite(base) || !std::isfinite(now)) return 0;
  return (now - base) / base;
}

// The largest double below 2^64, and so the largest count a std::uint64_t
// holds exactly.
constexpr double kMaxU64 = 18446744073709549568.0;

// A count as its integer digits; a value outside [0, 2^64), whose cast is
// undefined, as its JSON number.
std::string count(double v) {
  if (!(v >= 0 && v <= kMaxU64)) return obs::json_number(v);
  return std::to_string(static_cast<std::uint64_t>(v));
}

// The whole number at `key` (`fallback` when absent) when it lies in
// [0, max], else nullopt.
std::optional<double> whole(const JsonValue& doc, std::string_view key,
                            double max, double fallback = 0) {
  const double v = doc.number_at(key, fallback);
  if (!(v >= 0 && v <= max) || v != std::floor(v)) return std::nullopt;
  return v;
}

std::string pct(double fraction) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(1) << fraction * 100.0 << "%";
  return os.str();
}

// --- one reader per schema; each returns nullopt on another schema ---

// A manifest whose seed, jobs, runs or events is not a whole number in its
// field's range is malformed: nullopt, like another schema.
std::optional<ManifestInfo> read_manifest(const JsonValue& doc) {
  if (doc.string_at("schema") != kManifestSchema) return std::nullopt;
  constexpr double kMaxInt = std::numeric_limits<int>::max();
  const auto seed = whole(doc, "seed", kMaxU64);
  const auto jobs = whole(doc, "jobs", kMaxInt, 1);
  const auto events = whole(doc, "events", kMaxU64);
  if (!seed || !jobs || !events) return std::nullopt;
  ManifestInfo out;
  out.tool = doc.string_at("tool");
  out.seed = static_cast<std::uint64_t>(*seed);
  out.jobs = static_cast<int>(*jobs);
  out.wall_s = doc.number_at("wall_s");
  out.events = *events;
  out.events_per_sec = doc.number_at("events_per_sec");
  if (const JsonValue* pols = doc.find("policies"); pols && pols->is_array()) {
    for (const JsonValue& p : pols->items()) {
      const auto runs = whole(p, "runs", kMaxInt);
      const auto pol_events = whole(p, "events", kMaxU64);
      if (!runs || !pol_events) return std::nullopt;
      ManifestInfo::Policy pol;
      pol.name = p.string_at("policy");
      pol.runs = static_cast<int>(*runs);
      pol.global_latency_us = p.number_at("global_latency_us");
      pol.mean_latency_us = p.number_at("mean_latency_us");
      pol.delivery_ratio = p.number_at("delivery_ratio");
      pol.packets = p.number_at("packets");
      pol.events = *pol_events;
      out.policies.push_back(std::move(pol));
    }
  }
  return out;
}

// The committed bench baseline, which only --check reads: its end-to-end
// totals and an optional solution-database lookup microbench section
// (linear-scan vs prefix-index per-lookup latency over one large bucket,
// plus the minimum speedup the index must keep delivering).
struct BaselineInfo {
  double events = 0;
  double events_per_sec = 0;
  struct SdbLookup {
    double linear_ns = 0;
    double indexed_ns = 0;
    double min_speedup = 0;  // gate: linear_ns / indexed_ns must stay >= this
  };
  std::optional<SdbLookup> sdb_lookup;
};

std::optional<BaselineInfo> read_baseline(const JsonValue& doc) {
  if (doc.string_at("schema") != kBaselineSchema) return std::nullopt;
  BaselineInfo out;
  out.events = doc.number_at("end_to_end.events");
  out.events_per_sec = doc.number_at("end_to_end.after.events_per_sec");
  if (const JsonValue* sdb = doc.find("sdb_lookup")) {
    out.sdb_lookup = BaselineInfo::SdbLookup{sdb->number_at("linear_ns"),
                                             sdb->number_at("indexed_ns"),
                                             sdb->number_at("min_speedup")};
  }
  return out;
}

std::optional<ScorecardInfo> read_scorecard(const JsonValue& doc) {
  if (doc.string_at("schema") != kScorecardSchema) return std::nullopt;
  ScorecardInfo out;
  out.deliveries = doc.number_at("deliveries");
  out.sdb_hits = doc.number_at("sdb.hits");
  out.sdb_misses = doc.number_at("sdb.misses");
  out.sdb_saves = doc.number_at("sdb.saves");
  out.sdb_empty_probes = doc.number_at("sdb.empty_probes");
  out.opens = doc.number_at("ledger.opens");
  out.closes = doc.number_at("ledger.closes");
  out.multipath_s = doc.number_at("ledger.multipath_s");
  out.flows = doc.number_at("ledger.flows");
  out.cold.count = doc.number_at("episodes.cold.count");
  out.cold.mean_duration_us = doc.number_at("episodes.cold.mean_duration_us");
  out.cold.mean_latency_us = doc.number_at("episodes.cold.mean_latency_us");
  out.warm.count = doc.number_at("episodes.warm.count");
  out.warm.mean_duration_us = doc.number_at("episodes.warm.mean_duration_us");
  out.warm.mean_latency_us = doc.number_at("episodes.warm.mean_latency_us");
  out.false_opens = doc.number_at("episodes.false_opens");
  out.false_open_rate = doc.number_at("episodes.false_open_rate");
  out.hit_efficacy_pct = doc.number_at("episodes.hit_efficacy_pct");
  out.convergence_ratio = doc.number_at("episodes.convergence_ratio");
  return out;
}

// One stream line (a snapshot or the summary); `lines` and `bad_lines` are
// the framing's to fill.
std::optional<StreamInfo> read_stream(const JsonValue& doc) {
  if (doc.string_at("schema") != kStreamSchema) return std::nullopt;
  StreamInfo out;
  out.t = doc.number_at("t");
  out.window_s = doc.number_at("window_s");
  out.windows = doc.number_at("windows");
  out.links = doc.number_at("links");
  out.busy_s = doc.number_at("busy_s");
  out.stalls = doc.number_at("stalls");
  out.packets = doc.number_at("packets");
  out.util_p50 = doc.number_at("util.p50");
  out.util_p95 = doc.number_at("util.p95");
  out.util_p99 = doc.number_at("util.p99");
  out.util_max = doc.number_at("util.max");
  const auto read_class = [&](const char* name, StreamInfo::ClassTotals& c) {
    const std::string base = std::string("link_class.") + name + ".";
    c.links = doc.number_at(base + "links");
    c.busy_s = doc.number_at(base + "busy_s");
    c.stalls = doc.number_at(base + "stalls");
    c.packets = doc.number_at(base + "packets");
  };
  read_class("local", out.cls_local);
  read_class("global", out.cls_global);
  read_class("terminal", out.cls_terminal);
  out.onsets = doc.number_at("onsets_total");
  out.opens_predictive = doc.number_at("opens.predictive");
  out.opens_reactive = doc.number_at("opens.reactive");
  out.state_bytes = doc.number_at("state_bytes");
  if (const JsonValue* lead = doc.find("lead"); lead && lead->is_object()) {
    for (const auto& [cls, v] : lead->members()) {
      StreamInfo::Lead l;
      l.cls = cls;
      l.pos = v.number_at("pos");
      l.neg = v.number_at("neg");
      l.median_s = v.number_at("median_s");
      l.pos_p95_s = v.number_at("pos_p95_s");
      l.predictive = v.number_at("predictive");
      out.leads.push_back(std::move(l));
    }
  }
  return out;
}

// NDJSON framing of a stream file: its last intact stream line, and how many
// lines were intact and how many torn or foreign. Per-line tolerance: an
// interrupted writer leaves at most one torn trailing line in an append-only
// stream, and a reader must not lose the intact prefix over it.
struct StreamFrame {
  std::optional<JsonValue> last;
  std::uint64_t lines = 0;
  std::uint64_t bad_lines = 0;
};

StreamFrame frame_stream(std::string_view text) {
  StreamFrame f;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) nl = text.size();
    const std::string_view line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.find_first_not_of(" \t\r") == std::string_view::npos) continue;
    std::optional<JsonValue> doc = obs::json_parse(line);
    if (!doc || doc->string_at("schema") != kStreamSchema) {
      ++f.bad_lines;
      continue;
    }
    ++f.lines;
    f.last = std::move(doc);
  }
  return f;
}

// One --check document, read by its schema's reader: at most one member is
// set, none when the schema is unknown.
struct CheckDoc {
  explicit CheckDoc(const JsonValue& doc)
      : manifest(read_manifest(doc)),
        baseline(read_baseline(doc)),
        scorecard(read_scorecard(doc)),
        stream(read_stream(doc)) {}

  bool known() const { return manifest || baseline || scorecard || stream; }
  // Run totals: a manifest and a bench baseline both carry them.
  double events() const {
    return manifest ? manifest->events : baseline ? baseline->events : 0;
  }
  double events_per_sec() const {
    return manifest   ? manifest->events_per_sec
           : baseline ? baseline->events_per_sec
                      : 0;
  }
  const BaselineInfo::SdbLookup* sdb_lookup() const {
    return baseline && baseline->sdb_lookup ? &*baseline->sdb_lookup : nullptr;
  }
  const std::vector<ManifestInfo::Policy>& policies() const {
    static const std::vector<ManifestInfo::Policy> kNone;
    return manifest ? manifest->policies : kNone;
  }
  // The data-class lead, which the positive-lead gate reads; zeros when the
  // stream has none.
  StreamInfo::Lead data_lead() const {
    for (const StreamInfo::Lead& l : stream->leads) {
      if (l.cls == "data") return l;
    }
    return {};
  }

  std::optional<ManifestInfo> manifest;
  std::optional<BaselineInfo> baseline;
  std::optional<ScorecardInfo> scorecard;
  std::optional<StreamInfo> stream;
};

// Parse `text` as one document and read it with `read`.
template <typename Info>
bool parse_whole(const std::string& text,
                 std::optional<Info> (*read)(const JsonValue&), Info& out) {
  const std::optional<JsonValue> doc = obs::json_parse(text);
  std::optional<Info> info = doc ? read(*doc) : std::nullopt;
  if (info) out = std::move(*info);
  return info.has_value();
}

}  // namespace

bool parse_manifest(const std::string& text, ManifestInfo& out) {
  return parse_whole(text, read_manifest, out);
}

bool parse_scorecard(const std::string& text, ScorecardInfo& out) {
  return parse_whole(text, read_scorecard, out);
}

bool parse_stream(const std::string& text, StreamInfo& out) {
  const StreamFrame f = frame_stream(text);
  if (!f.last) return false;
  out = *read_stream(*f.last);  // the framing keeps stream lines only
  out.lines = f.lines;
  out.bad_lines = f.bad_lines;
  return true;
}

ResultsDir collect_documents(const std::string& dir) {
  std::vector<std::string> paths;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::filesystem::path ext = entry.path().extension();
    if (entry.is_regular_file() && (ext == ".json" || ext == ".ndjson")) {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());  // directory order is unspecified
  ResultsDir out;
  for (std::string& path : paths) {
    const std::string text = obs::read_text_file(path).value_or("");
    // Only a .json file may hold one whole document; either extension may
    // hold a stream.
    const bool whole = path.ends_with(".json");
    const std::optional<JsonValue> doc =
        whole ? obs::json_parse(text) : std::nullopt;
    StreamInfo stream;
    if (auto manifest = doc ? read_manifest(*doc) : std::nullopt) {
      manifest->path = path;
      out.manifests.push_back(std::move(*manifest));
    } else if (auto scorecard = doc ? read_scorecard(*doc) : std::nullopt) {
      scorecard->path = path;
      out.scorecards.push_back(std::move(*scorecard));
    } else if (parse_stream(text, stream)) {
      stream.path = path;
      out.streams.push_back(std::move(stream));
    } else {
      out.skipped.push_back(std::move(path));
    }
  }
  return out;
}

std::optional<JsonValue> read_document(std::string_view text) {
  if (std::optional<JsonValue> doc = obs::json_parse(text)) return doc;
  return frame_stream(text).last;
}

void write_markdown_report(std::ostream& os,
                           const std::vector<ManifestInfo>& manifests,
                           const std::vector<ScorecardInfo>& scorecards,
                           const std::vector<StreamInfo>& streams) {
  os << "# PR-DRB sweep report\n\n";
  os << "Manifests: " << manifests.size() << "\n";
  os << "Scorecards: " << scorecards.size() << "\n";
  os << "Streams: " << streams.size() << "\n\n";
  if (manifests.empty() && scorecards.empty() && streams.empty()) return;

  if (!manifests.empty()) {
  os << "## Runs\n\n";
  os << "| manifest | tool | seed | jobs | wall s | events | events/s |\n";
  os << "|---|---|---:|---:|---:|---:|---:|\n";
  for (const ManifestInfo& m : manifests) {
    os << "| " << std::filesystem::path(m.path).filename().string() << " | "
       << m.tool << " | " << m.seed << " | " << m.jobs << " | "
       << obs::json_number(m.wall_s) << " | "
       << count(m.events) << " | "
       << count(m.events_per_sec) << " |\n";
  }

  os << "\n## Policies\n\n";
  os << "| manifest | policy | runs | global lat (us) | mean lat (us) | "
        "delivery | packets |\n";
  os << "|---|---|---:|---:|---:|---:|---:|\n";
  for (const ManifestInfo& m : manifests) {
    const std::string file =
        std::filesystem::path(m.path).filename().string();
    for (const ManifestInfo::Policy& p : m.policies) {
      os << "| " << file << " | " << p.name << " | " << p.runs << " | "
         << obs::json_number(p.global_latency_us) << " | "
         << obs::json_number(p.mean_latency_us) << " | "
         << obs::json_number(p.delivery_ratio) << " | "
         << count(p.packets) << " |\n";
    }
  }

  // Cross-manifest best/worst latency per policy name: the headline a sweep
  // is usually after.
  struct Agg {
    std::string name;
    double best = 0, worst = 0, sum = 0;
    int n = 0;
  };
  std::vector<Agg> aggs;
  for (const ManifestInfo& m : manifests) {
    for (const ManifestInfo::Policy& p : m.policies) {
      Agg* a = nullptr;
      for (Agg& cand : aggs) {
        if (cand.name == p.name) {
          a = &cand;
          break;
        }
      }
      if (!a) {
        aggs.push_back(Agg{p.name, p.mean_latency_us, p.mean_latency_us, 0, 0});
        a = &aggs.back();
      }
      a->best = std::min(a->best, p.mean_latency_us);
      a->worst = std::max(a->worst, p.mean_latency_us);
      a->sum += p.mean_latency_us;
      ++a->n;
    }
  }
  if (!aggs.empty()) {
    os << "\n## Mean latency by policy (us, across manifests)\n\n";
    os << "| policy | entries | best | mean | worst |\n";
    os << "|---|---:|---:|---:|---:|\n";
    for (const Agg& a : aggs) {
      os << "| " << a.name << " | " << a.n << " | "
         << obs::json_number(a.best) << " | "
         << obs::json_number(a.n ? a.sum / a.n : 0) << " | "
         << obs::json_number(a.worst) << " |\n";
    }
  }
  }  // !manifests.empty()

  if (!scorecards.empty()) {
    os << "\n## Predictive scorecards\n\n";
    os << "| scorecard | deliveries | sdb hits | misses | saves | "
          "empty probes | mp opens | closes | multipath s | flows |\n";
    os << "|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n";
    for (const ScorecardInfo& s : scorecards) {
      os << "| " << std::filesystem::path(s.path).filename().string() << " | "
         << count(s.deliveries) << " | "
         << count(s.sdb_hits) << " | "
         << count(s.sdb_misses) << " | "
         << count(s.sdb_saves) << " | "
         << count(s.sdb_empty_probes) << " | "
         << count(s.opens) << " | "
         << count(s.closes) << " | "
         << obs::json_number(s.multipath_s) << " | "
         << count(s.flows) << " |\n";
    }

    os << "\n## Warm vs cold SDB efficacy\n\n";
    os << "Warm = congestion episodes opened by an SDB hit (saved paths "
          "installed wholesale); cold = gradual DRB opening after a miss. "
          "Positive efficacy means warm episodes delivered lower latency; "
          "convergence < 1 means they calmed faster.\n\n";
    os << "| scorecard | cold eps | cold lat (us) | cold dur (us) | "
          "warm eps | warm lat (us) | warm dur (us) | efficacy % | "
          "convergence | false opens | false-open rate |\n";
    os << "|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n";
    for (const ScorecardInfo& s : scorecards) {
      os << "| " << std::filesystem::path(s.path).filename().string() << " | "
         << count(s.cold.count) << " | "
         << obs::json_number(s.cold.mean_latency_us) << " | "
         << obs::json_number(s.cold.mean_duration_us) << " | "
         << count(s.warm.count) << " | "
         << obs::json_number(s.warm.mean_latency_us) << " | "
         << obs::json_number(s.warm.mean_duration_us) << " | "
         << obs::json_number(s.hit_efficacy_pct) << " | "
         << obs::json_number(s.convergence_ratio) << " | "
         << count(s.false_opens) << " | "
         << obs::json_number(s.false_open_rate) << " |\n";
    }
  }

  if (!streams.empty()) {
    os << "\n## Streaming telemetry\n\n";
    os << "| stream | sim t (s) | windows | links | util p50 | util p95 | "
          "util p99 | onsets | opens (pred/react) | state KiB |\n";
    os << "|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n";
    for (const StreamInfo& s : streams) {
      os << "| " << std::filesystem::path(s.path).filename().string() << " | "
         << obs::json_number(s.t) << " | "
         << count(s.windows) << " | "
         << count(s.links) << " | "
         << obs::json_number(s.util_p50) << " | "
         << obs::json_number(s.util_p95) << " | "
         << obs::json_number(s.util_p99) << " | "
         << count(s.onsets) << " | "
         << count(s.opens_predictive) << "/"
         << count(s.opens_reactive) << " | "
         << obs::json_number(s.state_bytes / 1024.0) << " |\n";
    }

    // Per-link-class traffic split: on a dragonfly the interesting story is
    // how much load the (scarce) global channels carried versus the local
    // in-group links. Only rendered when some stream actually classified its
    // links beyond a single class.
    bool any_split = false;
    for (const StreamInfo& s : streams) {
      if (s.cls_global.links > 0 || s.cls_terminal.links > 0) {
        any_split = true;
        break;
      }
    }
    if (any_split) {
      os << "\n## Link-class traffic split\n\n";
      os << "Local = in-group links, global = inter-group channels (the "
            "dragonfly's scarce resource). Busy seconds and stalls "
            "concentrating on the global class are the adversarial-pattern "
            "signature that UGAL-style deroutes relieve.\n\n";
      os << "| stream | class | links | busy s | stalls | packets |\n";
      os << "|---|---|---:|---:|---:|---:|\n";
      for (const StreamInfo& s : streams) {
        const std::string file =
            std::filesystem::path(s.path).filename().string();
        const struct {
          const char* name;
          const StreamInfo::ClassTotals* c;
        } rows[] = {{"local", &s.cls_local},
                    {"global", &s.cls_global},
                    {"terminal", &s.cls_terminal}};
        for (const auto& row : rows) {
          if (!(row.c->links > 0)) continue;
          os << "| " << file << " | " << row.name << " | "
             << count(row.c->links) << " | "
             << obs::json_number(row.c->busy_s) << " | "
             << count(row.c->stalls) << " | "
             << count(row.c->packets) << " |\n";
        }
      }
    }

    os << "\n## Prediction lead time\n\n";
    os << "Positive lead = the metapath opened BEFORE the matched link's "
          "congestion onset (the predictive layer fired early); negative = "
          "the onset came first and the open trailed it. Medians are signed "
          "over both sides.\n\n";
    os << "| stream | class | pos | neg | median (us) | pos p95 (us) | "
          "predictive matches |\n";
    os << "|---|---|---:|---:|---:|---:|---:|\n";
    for (const StreamInfo& s : streams) {
      const std::string file =
          std::filesystem::path(s.path).filename().string();
      for (const StreamInfo::Lead& l : s.leads) {
        if (l.pos + l.neg == 0) continue;  // class never matched an onset
        os << "| " << file << " | " << l.cls << " | "
           << count(l.pos) << " | "
           << count(l.neg) << " | "
           << obs::json_number(l.median_s * 1e6) << " | "
           << obs::json_number(l.pos_p95_s * 1e6) << " | "
           << count(l.predictive) << " |\n";
      }
    }
  }
}

void write_json_report(std::ostream& os,
                       const std::vector<ManifestInfo>& manifests,
                       const std::vector<ScorecardInfo>& scorecards,
                       const std::vector<StreamInfo>& streams) {
  obs::JsonWriter w;
  w.begin_object();
  w.field("schema", "prdrb-sweep-report-v1");
  w.field("manifests", static_cast<std::uint64_t>(manifests.size()));
  w.field("scorecards", static_cast<std::uint64_t>(scorecards.size()));
  w.field("streams", static_cast<std::uint64_t>(streams.size()));
  w.key("runs").begin_array();
  for (const ManifestInfo& m : manifests) {
    w.begin_object();
    w.field("file", std::filesystem::path(m.path).filename().string());
    w.field("tool", m.tool);
    w.field("seed", m.seed);
    w.field("jobs", m.jobs);
    w.field("wall_s", m.wall_s);
    w.field("events", m.events);
    w.field("events_per_sec", m.events_per_sec);
    w.key("policies").begin_array();
    for (const ManifestInfo::Policy& p : m.policies) {
      w.begin_object();
      w.field("policy", p.name);
      w.field("runs", p.runs);
      w.field("global_latency_us", p.global_latency_us);
      w.field("mean_latency_us", p.mean_latency_us);
      w.field("delivery_ratio", p.delivery_ratio);
      w.field("packets", p.packets);
      w.field("events", p.events);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("scorecard_runs").begin_array();
  for (const ScorecardInfo& s : scorecards) {
    w.begin_object();
    w.field("file", std::filesystem::path(s.path).filename().string());
    w.field("deliveries", s.deliveries);
    w.field("sdb_hits", s.sdb_hits);
    w.field("sdb_misses", s.sdb_misses);
    w.field("sdb_saves", s.sdb_saves);
    w.field("sdb_empty_probes", s.sdb_empty_probes);
    w.field("opens", s.opens);
    w.field("closes", s.closes);
    w.field("multipath_s", s.multipath_s);
    w.field("flows", s.flows);
    w.field("cold_episodes", s.cold.count);
    w.field("cold_mean_latency_us", s.cold.mean_latency_us);
    w.field("cold_mean_duration_us", s.cold.mean_duration_us);
    w.field("warm_episodes", s.warm.count);
    w.field("warm_mean_latency_us", s.warm.mean_latency_us);
    w.field("warm_mean_duration_us", s.warm.mean_duration_us);
    w.field("false_opens", s.false_opens);
    w.field("false_open_rate", s.false_open_rate);
    w.field("hit_efficacy_pct", s.hit_efficacy_pct);
    w.field("convergence_ratio", s.convergence_ratio);
    w.end_object();
  }
  w.end_array();
  w.key("stream_runs").begin_array();
  for (const StreamInfo& s : streams) {
    w.begin_object();
    w.field("file", std::filesystem::path(s.path).filename().string());
    w.field("lines", s.lines);
    w.field("bad_lines", s.bad_lines);
    w.field("t", s.t);
    w.field("window_s", s.window_s);
    w.field("windows", s.windows);
    w.field("links", s.links);
    w.field("busy_s", s.busy_s);
    w.field("stalls", s.stalls);
    w.field("packets", s.packets);
    w.field("util_p50", s.util_p50);
    w.field("util_p95", s.util_p95);
    w.field("util_p99", s.util_p99);
    w.field("util_max", s.util_max);
    w.key("link_class").begin_object();
    const struct {
      const char* name;
      const StreamInfo::ClassTotals* c;
    } cls_rows[] = {{"local", &s.cls_local},
                    {"global", &s.cls_global},
                    {"terminal", &s.cls_terminal}};
    for (const auto& row : cls_rows) {
      w.key(row.name).begin_object();
      w.field("links", row.c->links);
      w.field("busy_s", row.c->busy_s);
      w.field("stalls", row.c->stalls);
      w.field("packets", row.c->packets);
      w.end_object();
    }
    w.end_object();
    w.field("onsets", s.onsets);
    w.field("opens_predictive", s.opens_predictive);
    w.field("opens_reactive", s.opens_reactive);
    w.field("state_bytes", s.state_bytes);
    w.key("lead").begin_array();
    for (const StreamInfo::Lead& l : s.leads) {
      w.begin_object();
      w.field("class", l.cls);
      w.field("pos", l.pos);
      w.field("neg", l.neg);
      w.field("median_s", l.median_s);
      w.field("pos_p95_s", l.pos_p95_s);
      w.field("predictive", l.predictive);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << w.str() << '\n';
}

CheckResult check_documents(const JsonValue& older, const JsonValue& newer,
                            const CheckThresholds& t) {
  CheckResult result;
  auto add = [&](Finding::Level level, std::string msg) {
    result.findings.push_back(Finding{level, std::move(msg)});
  };
  const auto perf_level =
      t.perf_warn_only ? Finding::Level::kWarning : Finding::Level::kRegression;

  const CheckDoc a(older), b(newer);
  if (!a.known()) {
    add(Finding::Level::kRegression,
        "old document is malformed or has unknown schema \"" +
            older.string_at("schema") + "\"");
    return result;
  }
  if (!b.known()) {
    add(Finding::Level::kRegression,
        "new document is malformed or has unknown schema \"" +
            newer.string_at("schema") + "\"");
    return result;
  }

  // Cross-policy throughput mode: the documents hold DIFFERENT policies on
  // the same workload (adversarial baselines), so same-run invariants like
  // event-count drift do not apply — the only question is whether the new
  // document's policy delivers enough more traffic than the old one's.
  if (t.min_packet_ratio > 0) {
    double pkts_a = 0, pkts_b = 0;
    std::string names_a, names_b;
    for (const ManifestInfo::Policy& p : a.policies()) {
      pkts_a += p.packets;
      names_a += (names_a.empty() ? "" : "+") + p.name;
    }
    for (const ManifestInfo::Policy& p : b.policies()) {
      pkts_b += p.packets;
      names_b += (names_b.empty() ? "" : "+") + p.name;
    }
    if (a.policies().empty() || b.policies().empty()) {
      add(Finding::Level::kRegression,
          "--min-packet-ratio needs two manifest documents with policy "
          "sections");
      return result;
    }
    if (!(pkts_a > 0)) {
      add(Finding::Level::kRegression,
          "baseline policy \"" + names_a + "\" delivered no packets; the "
          "ratio gate is meaningless");
      return result;
    }
    const double ratio = pkts_b / pkts_a;
    std::ostringstream msg;
    msg << "packet ratio \"" << names_b << "\" / \"" << names_a << "\" = "
        << obs::json_number(ratio) << " (" << count(pkts_b) << " / "
        << count(pkts_a) << " packets)";
    if (ratio < t.min_packet_ratio) {
      add(Finding::Level::kRegression,
          "packet ratio below " + obs::json_number(t.min_packet_ratio) +
              "x gate: " + msg.str());
    } else {
      add(Finding::Level::kInfo,
          msg.str() + " meets " + obs::json_number(t.min_packet_ratio) +
              "x gate");
    }
    return result;
  }

  // Determinism contract: seeded runs execute a bit-exact event count, so
  // any drift is a behaviour change — never downgraded to a warning.
  const double events_a = a.events(), events_b = b.events();
  if (events_a > 0 && events_b > 0) {
    if (events_a != events_b) {
      add(Finding::Level::kRegression,
          "event count drift: " + count(events_a) + " -> " + count(events_b) +
              " (determinism contract: seeded runs are bit-exact)");
    } else {
      add(Finding::Level::kInfo,
          "event count unchanged (" + count(events_a) + ")");
    }
  }

  const double rate_a = a.events_per_sec(), rate_b = b.events_per_sec();
  if (rate_a > 0 && rate_b > 0) {
    const double drop = -rel(rate_a, rate_b);
    const std::string msg = "events/sec " + count(rate_a) + " -> " +
                            count(rate_b) + " (" + pct(-drop) + ")";
    if (drop > t.max_rate_drop) {
      add(perf_level, "throughput drop beyond " + pct(t.max_rate_drop) + ": " +
                          msg);
    } else {
      add(Finding::Level::kInfo, msg);
    }
  }

  // Solution-database index gate (bench-baseline documents): the prefix
  // index must keep its speedup over the linear scan on the single-bucket
  // lookup model — a silent fallback to the linear path would pass every
  // correctness test (the two are byte-identical by contract) and only
  // show up here.
  const BaselineInfo::SdbLookup *la = a.sdb_lookup(), *lb = b.sdb_lookup();
  if (lb && lb->indexed_ns > 0) {
    const double gate = la && la->min_speedup > 0 ? la->min_speedup : 0;
    const double speedup = lb->linear_ns / lb->indexed_ns;
    std::ostringstream msg;
    msg << "sdb-lookup index speedup " << obs::json_number(speedup)
        << "x (linear " << obs::json_number(lb->linear_ns) << " ns, indexed "
        << obs::json_number(lb->indexed_ns) << " ns)";
    if (gate <= 0) {
      add(Finding::Level::kInfo, msg.str() + "; no baseline gate");
    } else if (speedup < gate) {
      add(perf_level, "sdb-lookup speedup below " + obs::json_number(gate) +
                          "x gate: " + msg.str());
    } else {
      add(Finding::Level::kInfo,
          msg.str() + " above " + obs::json_number(gate) + "x gate");
    }
  } else if (la && !lb && b.baseline) {
    add(Finding::Level::kWarning,
        "sdb_lookup section missing from new document");
  }

  // Predictive-layer guard (scorecard documents): a run whose baseline had
  // SDB hits but that now reports zero means the predictive layer silently
  // stopped firing — always a hard regression, like event drift, regardless
  // of perf_warn_only.
  if (a.scorecard && b.scorecard) {
    const ScorecardInfo &sa = *a.scorecard, &sb = *b.scorecard;
    if (sa.sdb_hits > 0 && sb.sdb_hits == 0) {
      add(Finding::Level::kRegression,
          "SDB hits dropped to zero (baseline had " + count(sa.sdb_hits) +
              "): the predictive layer stopped firing");
    } else {
      add(Finding::Level::kInfo,
          "SDB hits " + count(sa.sdb_hits) + " -> " + count(sb.sdb_hits) +
              " (misses " + count(sa.sdb_misses) + " -> " +
              count(sb.sdb_misses) + ")");
    }
  } else if (a.scorecard.has_value() != b.scorecard.has_value()) {
    add(Finding::Level::kWarning,
        std::string("only the ") + (a.scorecard ? "old" : "new") +
            " document is a scorecard; SDB comparison skipped");
  }

  // Prediction lead-time guard (stream summaries): the paper's claim is
  // that PR-DRB opens metapaths BEFORE congestion onsets. A baseline whose
  // data-class median lead was positive going non-positive means the
  // predictive layer now trails congestion — a behaviour regression, never
  // downgraded by perf_warn_only.
  if (a.stream && b.stream) {
    const StreamInfo::Lead la = a.data_lead(), lb = b.data_lead();
    const bool matched = la.pos + la.neg > 0 || lb.pos + lb.neg > 0;
    std::ostringstream leads;
    leads << "prediction lead median " << obs::json_number(la.median_s * 1e6)
          << " -> " << obs::json_number(lb.median_s * 1e6) << " us (pos/neg "
          << count(la.pos) << "/" << count(la.neg) << " -> " << count(lb.pos)
          << "/" << count(lb.neg) << ")";
    if (la.median_s > 0 && !(lb.median_s > 0)) {
      add(Finding::Level::kRegression,
          "positive prediction lead time lost: " + leads.str() +
              " — metapaths now open after congestion onsets");
    } else if (matched) {
      add(Finding::Level::kInfo, leads.str());
    }
    if (a.stream->onsets > 0 || b.stream->onsets > 0) {
      add(Finding::Level::kInfo,
          "congestion onsets " + count(a.stream->onsets) + " -> " +
              count(b.stream->onsets) + " (predictive opens " +
              count(a.stream->opens_predictive) + " -> " +
              count(b.stream->opens_predictive) + ")");
    }
  } else if (a.stream.has_value() != b.stream.has_value()) {
    add(Finding::Level::kWarning,
        std::string("only the ") + (a.stream ? "old" : "new") +
            " document is a stream summary; lead-time comparison skipped");
  }

  // Per-policy metrics only exist for manifest-shaped documents.
  for (const ManifestInfo::Policy& pa : a.policies()) {
    const ManifestInfo::Policy* pb = nullptr;
    for (const ManifestInfo::Policy& cand : b.policies()) {
      if (cand.name == pa.name) {
        pb = &cand;
        break;
      }
    }
    if (!pb) {
      add(Finding::Level::kWarning,
          "policy \"" + pa.name + "\" missing from new document");
      continue;
    }
    const double rise = rel(pa.mean_latency_us, pb->mean_latency_us);
    if (rise > t.max_latency_rise) {
      add(perf_level, "policy \"" + pa.name + "\" mean latency rose " +
                          pct(rise) + " (" +
                          obs::json_number(pa.mean_latency_us) + " -> " +
                          obs::json_number(pb->mean_latency_us) + " us)");
    }
    const double ddrop = pa.delivery_ratio - pb->delivery_ratio;
    if (ddrop > t.max_delivery_drop) {
      add(perf_level, "policy \"" + pa.name + "\" delivery ratio dropped " +
                          obs::json_number(pa.delivery_ratio) + " -> " +
                          obs::json_number(pb->delivery_ratio));
    }
  }
  for (const ManifestInfo::Policy& pb : b.policies()) {
    bool known = false;
    for (const ManifestInfo::Policy& pa : a.policies()) {
      if (pa.name == pb.name) {
        known = true;
        break;
      }
    }
    if (!known) {
      add(Finding::Level::kInfo, "policy \"" + pb.name + "\" is new");
    }
  }
  return result;
}

void write_findings(std::ostream& os, const CheckResult& result) {
  for (const Finding& f : result.findings) {
    switch (f.level) {
      case Finding::Level::kRegression:
        os << "REGRESSION: ";
        break;
      case Finding::Level::kWarning:
        os << "warning: ";
        break;
      case Finding::Level::kInfo:
        os << "ok: ";
        break;
    }
    os << f.message << '\n';
  }
}

}  // namespace prdrb
