// prdrb_report: sweep reports and regression checks over run documents.
// Both modes read every document through the schema readers of
// experiment/report.
//
//   prdrb_report RESULTS_DIR [--json] [-o FILE]
//       Aggregate the documents in RESULTS_DIR, each file read once, into a
//       markdown (default) or JSON ("prdrb-sweep-report-v1") sweep report:
//       prdrb-manifest-v1 manifests, prdrb-scorecard-v1 scorecards (their
//       own section: attribution totals + warm-vs-cold SDB efficacy table)
//       and prdrb-stream-v1 NDJSON streams (the "Prediction lead time"
//       section). Unreadable, empty or partially-written .json files are
//       skipped with a warning, never aborted on.
//
//   prdrb_report --check OLD NEW [options]
//       Compare two runs (manifest, prdrb-bench-baseline-v1,
//       prdrb-scorecard-v1 or prdrb-stream-v1 documents; stream NDJSON is
//       checked via its last intact stream line) and exit nonzero on
//       regression. Event-count drift always fails (deterministic kernel),
//       as does a scorecard whose SDB hits dropped to zero against a
//       baseline that had hits, or a stream whose positive median
//       prediction lead time went non-positive; performance moves beyond
//       thresholds fail unless --perf-warn-only downgrades them.
//       Options: --max-rate-drop=F (default 0.30), --max-latency-rise=F
//       (default 0.10), --max-delivery-drop=F (default 0.01),
//       --perf-warn-only.
//       --min-packet-ratio=F switches to cross-policy throughput mode: the
//       two manifests hold DIFFERENT routing policies on the same workload
//       (e.g. minimal vs ugal-l on the adversarial dragonfly permutation),
//       and NEW must deliver at least F times OLD's packets; the same-run
//       invariants (event drift, per-policy deltas) are skipped.
//       Each F is read whole and must be a finite number >= 0, and > 0 for
//       --min-packet-ratio; anything else exits 2 naming the flag before
//       any file is read.
//
// Exit codes: 0 clean/warnings-only, 1 regression, 2 usage or parse error.
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "experiment/report.hpp"
#include "obs/json.hpp"
#include "util/parsed.hpp"

namespace {

int usage(std::ostream& os, int code) {
  os << "usage: prdrb_report RESULTS_DIR [--json] [-o FILE]\n"
        "       prdrb_report --check OLD.json NEW.json\n"
        "           [--max-rate-drop=F] [--max-latency-rise=F]\n"
        "           [--max-delivery-drop=F] [--perf-warn-only]\n"
        "           [--min-packet-ratio=F]\n";
  return code;
}

struct ThresholdFlag {
  std::string_view name;
  double prdrb::CheckThresholds::*field;
  bool positive;  // 0 is rejected too
};

constexpr ThresholdFlag kThresholdFlags[] = {
    {"--max-rate-drop", &prdrb::CheckThresholds::max_rate_drop, false},
    {"--max-latency-rise", &prdrb::CheckThresholds::max_latency_rise, false},
    {"--max-delivery-drop", &prdrb::CheckThresholds::max_delivery_drop,
     false},
    {"--min-packet-ratio", &prdrb::CheckThresholds::min_packet_ratio, true},
};

const ThresholdFlag* threshold_flag(std::string_view arg) {
  for (const ThresholdFlag& f : kThresholdFlags) {
    if (arg.starts_with(f.name) && arg.substr(f.name.size(), 1) == "=") {
      return &f;
    }
  }
  return nullptr;
}

// The whole of `value` as a finite number in `f`'s range; the error names
// the flag.
prdrb::Parsed<double> parse_threshold(const ThresholdFlag& f,
                                      std::string_view value) {
  prdrb::Parsed<double> v = prdrb::parse_number<double>(f.name, value);
  if (v.ok() && (v.value() < 0 || (f.positive && v.value() == 0))) {
    const char* want = f.positive ? " needs a number > 0, got"
                                  : " needs a number >= 0, got";
    return prdrb::ParseError{std::string(value), "flag",
                             std::string(f.name) + want, ""};
  }
  return v;
}

int run_check(const std::vector<std::string>& files,
              const prdrb::CheckThresholds& thresholds) {
  if (files.size() != 2) return usage(std::cerr, 2);
  prdrb::obs::JsonValue docs[2];
  for (int i = 0; i < 2; ++i) {
    const std::optional<std::string> text =
        prdrb::obs::read_text_file(files[i]);
    if (!text) {
      std::cerr << "prdrb_report: cannot read " << files[i] << "\n";
      return 2;
    }
    std::optional<prdrb::obs::JsonValue> doc = prdrb::read_document(*text);
    if (!doc) {
      std::cerr << "prdrb_report: " << files[i] << " is not valid JSON\n";
      return 2;
    }
    docs[i] = std::move(*doc);
  }
  const prdrb::CheckResult result =
      prdrb::check_documents(docs[0], docs[1], thresholds);
  prdrb::write_findings(std::cout, result);
  if (result.has_regression()) {
    std::cout << "verdict: REGRESSION\n";
    return 1;
  }
  std::cout << "verdict: ok\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  bool json = false;
  std::string out_path;
  prdrb::CheckThresholds thresholds;
  std::vector<std::string> positional;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return usage(std::cout, 0);
    if (arg == "--check") {
      check = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--perf-warn-only") {
      thresholds.perf_warn_only = true;
    } else if (arg == "-o" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (const ThresholdFlag* f = threshold_flag(arg)) {
      const prdrb::Parsed<double> v = parse_threshold(
          *f, std::string_view(arg).substr(f->name.size() + 1));
      if (!v.ok()) {
        std::cerr << "prdrb_report: " << v.error().what() << "\n";
        return 2;
      }
      thresholds.*(f->field) = v.value();
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "prdrb_report: unknown option " << arg << "\n";
      return usage(std::cerr, 2);
    } else {
      positional.push_back(arg);
    }
  }

  if (check) return run_check(positional, thresholds);

  if (positional.size() != 1) return usage(std::cerr, 2);
  const prdrb::ResultsDir docs = prdrb::collect_documents(positional[0]);
  // Other observability exports and empty or partially-written files are
  // skipped with a warning, never a hard failure: a results directory from
  // an interrupted sweep must still aggregate.
  for (const std::string& s : docs.skipped) {
    std::cerr << "prdrb_report: skipping unrecognized or partial " << s
              << "\n";
  }
  for (const prdrb::StreamInfo& st : docs.streams) {
    if (st.bad_lines > 0) {
      std::cerr << "prdrb_report: " << st.path << ": skipped "
                << st.bad_lines
                << " truncated/invalid stream line(s), kept " << st.lines
                << "\n";
    }
  }

  std::ostringstream body;
  if (json) {
    prdrb::write_json_report(body, docs.manifests, docs.scorecards,
                             docs.streams);
  } else {
    prdrb::write_markdown_report(body, docs.manifests, docs.scorecards,
                                 docs.streams);
  }
  if (out_path.empty()) {
    std::cout << body.str();
  } else if (!prdrb::obs::write_text_file(out_path, body.str())) {
    return 2;
  }
  return 0;
}
