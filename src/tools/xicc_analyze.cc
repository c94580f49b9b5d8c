// xicc_analyze — the repo's semantic analyzer (see src/analysis/analyze.h).
//
// One pass over <root>/src feeds the migrated lint rules AND the semantic
// engines: lock-order (graph + LOCK_ORDER.md), stop-poll coverage,
// status-drop dataflow, arena-escape, and the include graph. Findings gate
// against a checked-in baseline so adoption is incremental: exit 0 when no
// finding is new vs. the baseline, 1 when new findings exist, 2 on
// usage/I/O errors.

#include <cstring>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyze.h"
#include "analysis/lint_rules.h"

namespace {

constexpr const char* kUsage = R"(usage: xicc_analyze [options]
  --root DIR        repository root to analyze (default: .); scans DIR/src
  --format FMT      text (default) or json (machine-readable full report)
  --baseline FILE   accepted-findings file (default: DIR/ANALYZE_BASELINE.txt)
  --write-baseline  rewrite the baseline to accept every current finding
  --fix             apply mechanical fixes (pragma-once guards) and rewrite
                    LOCK_ORDER.md from the inferred lock graph
  --list-rules      print every rule (semantic + lint) and exit

Suppress a finding with a trailing comment on (or directly above) the line:
  // xicc-lint: allow(rule-name)
)";

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string format = "text";
  std::string baseline_path;
  bool fix = false;
  bool write_baseline = false;
  for (int i = 1; i < argc; ++i) {
    std::string* value = std::strcmp(argv[i], "--root") == 0 ? &root
                         : std::strcmp(argv[i], "--format") == 0 ? &format
                         : std::strcmp(argv[i], "--baseline") == 0
                             ? &baseline_path
                             : nullptr;
    if (value != nullptr) {
      if (i + 1 == argc) {
        std::cerr << argv[i] << " needs a value\n" << kUsage;
        return 2;
      }
      *value = argv[++i];
    } else if (std::strncmp(argv[i], "--format=", 9) == 0) {
      format = argv[i] + 9;
    } else if (std::strcmp(argv[i], "--write-baseline") == 0) {
      write_baseline = true;
    } else if (std::strcmp(argv[i], "--fix") == 0) {
      fix = true;
    } else if (std::strcmp(argv[i], "--list-rules") == 0) {
      for (const xicc::LintRuleInfo& rule : xicc::AnalyzeRules()) {
        std::cout << rule.name << (rule.fixable ? "  [fixable]" : "")
                  << "\n    " << rule.summary << "\n";
      }
      for (const xicc::LintRuleInfo& rule : xicc::LintRules()) {
        std::cout << rule.name << (rule.fixable ? "  [fixable]" : "")
                  << "\n    " << rule.summary << "\n";
      }
      return 0;
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      std::cout << kUsage;
      return 0;
    } else {
      std::cerr << "unknown argument '" << argv[i] << "'\n" << kUsage;
      return 2;
    }
  }
  if (format != "text" && format != "json") {
    std::cerr << "unknown --format '" << format << "'\n" << kUsage;
    return 2;
  }
  if (baseline_path.empty()) {
    baseline_path = root + "/ANALYZE_BASELINE.txt";
  }

  xicc::Result<xicc::AnalyzeRunReport> run = xicc::AnalyzeRepo(root, fix);
  if (!run.ok()) {
    std::cerr << "xicc_analyze: " << run.status() << "\n";
    return 2;
  }

  if (write_baseline) {
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
