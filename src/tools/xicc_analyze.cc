// xicc_analyze — the repo's semantic analyzer (see src/analysis/analyze.h).
//
// One pass over <root>/src feeds the migrated lint rules AND the semantic
// engines: lock-order (graph + LOCK_ORDER.md), stop-poll coverage,
// status-drop dataflow, arena-escape, and the include graph. Findings gate
// against a checked-in baseline so adoption is incremental: exit 0 when no
// finding is new vs. the baseline, 1 when new findings exist, 2 on
// usage/I/O errors.

#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyze.h"
#include "analysis/lint_rules.h"
#include "tools/flags.h"

namespace {

using xicc::tools::StringFlag;
using xicc::tools::SwitchFlag;

const xicc::tools::Command kAnalyze = {
    "xicc_analyze",
    {},
    {StringFlag("--root", "DIR",
                "repository root to analyze (default: .); scans DIR/src"),
     StringFlag("--format", "FMT",
                "text (default) or json (machine-readable full report)"),
     StringFlag("--baseline", "FILE",
                "accepted findings (default: DIR/ANALYZE_BASELINE.txt)"),
     SwitchFlag("--write-baseline",
                "rewrite the baseline to accept every current finding"),
     SwitchFlag("--fix", "apply mechanical fixes, rewrite LOCK_ORDER.md"),
     SwitchFlag("--list-rules", "print every rule (semantic + lint) and exit")},
    "Suppress a finding with a trailing comment on (or directly above) the "
    "line:\n  // xicc-lint: allow(rule-name)"};

}  // namespace

int main(int argc, char** argv) {
  auto flags = xicc::tools::ParseFlags(
      kAnalyze, std::vector<std::string>(argv + 1, argv + argc));
  if (!flags.ok()) {
    std::cerr << "xicc_analyze: " << flags.status().message() << "\n";
    return 2;
  }
  if (flags->help) {
    std::cout << xicc::tools::RenderUsage(kAnalyze);
    return 0;
  }
  if (flags->Has("--list-rules")) {
    for (const auto* rules : {&xicc::AnalyzeRules(), &xicc::LintRules()}) {
      for (const xicc::LintRuleInfo& rule : *rules) {
        std::cout << rule.name << (rule.fixable ? "  [fixable]" : "")
                  << "\n    " << rule.summary << "\n";
      }
    }
    return 0;
  }
  const std::string root = flags->Str("--root", ".");
  const std::string format = flags->Str("--format", "text");
  if (format != "text" && format != "json") {
    std::cerr << "xicc_analyze: unknown --format '" << format
              << "' (run `xicc_analyze --help` for usage)\n";
    return 2;
  }
  std::string baseline_path = flags->Str("--baseline");
  if (baseline_path.empty()) baseline_path = root + "/ANALYZE_BASELINE.txt";

  xicc::Result<xicc::AnalyzeRunReport> run =
      xicc::AnalyzeRepo(root, flags->Has("--fix"));
  if (!run.ok()) {
    std::cerr << "xicc_analyze: " << run.status() << "\n";
    return 2;
  }

  if (flags->Has("--write-baseline")) {
    std::ofstream out(baseline_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::cerr << "xicc_analyze: cannot write '" << baseline_path << "'\n";
      return 2;
    }
    out << xicc::RenderBaseline(run->analysis.findings);
    std::cerr << "xicc_analyze: baseline written to " << baseline_path
              << " (" << run->analysis.findings.size() << " findings)\n";
    return 0;
  }

  std::set<std::string> baseline;
  {
    std::ifstream in(baseline_path, std::ios::binary);
    if (in) {
      std::ostringstream buffer;
      buffer << in.rdbuf();
      baseline = xicc::ParseBaseline(buffer.str());
    }
  }
  const std::vector<xicc::Finding> fresh =
      xicc::NewFindings(run->analysis.findings, baseline);

  if (format == "json") {
    std::cout << xicc::RenderFindingsJson(run->analysis, baseline);
  } else {
    for (const xicc::Finding& f : fresh) {
      std::cout << f.ToString() << "\n";
    }
  }
  std::cerr << "xicc_analyze: " << run->analysis.files_scanned
            << " files scanned, " << run->analysis.findings.size()
            << " finding" << (run->analysis.findings.size() == 1 ? "" : "s")
            << " (" << fresh.size() << " new vs. baseline)\n";
  return fresh.empty() ? 0 : 1;
}
