// Drives the xicc command-line tool through its library entry point.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "constraints/constraint_parser.h"
#include "core/batch.h"
#include "core/spec_session.h"
#include "dtd/dtd_parser.h"
#include "tools/cli.h"

namespace xicc {
namespace tools {
namespace {

// The paper's teachers DTD D1, the fixture every CLI test starts from.
constexpr char kTeachersDtd[] = R"(
  <!ELEMENT teachers (teacher+)>
  <!ELEMENT teacher (teach, research)>
  <!ELEMENT teach (subject, subject)>
  <!ELEMENT subject (#PCDATA)>
  <!ELEMENT research (#PCDATA)>
  <!ATTLIST teacher name CDATA #REQUIRED>
  <!ATTLIST subject taught_by CDATA #REQUIRED>
)";

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "xicc_cli_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    // TempDir exists; fan out per-test files by prefix instead of mkdir.
    dtd_path_ = dir_ + ".dtd";
    sigma_path_ = dir_ + ".sigma";
    doc_path_ = dir_ + ".xml";
    WriteFile(dtd_path_, kTeachersDtd);
  }

  void WriteFile(const std::string& path, const std::string& content) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good());
    out << content;
  }

  int Run(const std::vector<std::string>& args) {
    out_.str("");
    err_.str("");
    return RunCli(args, out_, err_);
  }

  std::string dir_, dtd_path_, sigma_path_, doc_path_;
  std::ostringstream out_, err_;
};

TEST_F(CliTest, NoArgsPrintsUsage) {
  EXPECT_EQ(Run({}), 2);
  EXPECT_NE(err_.str().find("usage:"), std::string::npos);
}

TEST_F(CliTest, HelpSucceeds) {
  EXPECT_EQ(Run({"help"}), 0);
  EXPECT_NE(out_.str().find("check"), std::string::npos);
}

TEST_F(CliTest, UnknownCommandFails) {
  EXPECT_EQ(Run({"frobnicate"}), 2);
}

TEST_F(CliTest, CheckInconsistentSpec) {
  WriteFile(sigma_path_,
            "key teacher(name)\nkey subject(taught_by)\n"
            "fk subject(taught_by) => teacher(name)\n");
  EXPECT_EQ(Run({"check", dtd_path_, sigma_path_}), 1);
  EXPECT_NE(out_.str().find("consistent: no"), std::string::npos);
  EXPECT_NE(out_.str().find("ilp-case-split"), std::string::npos);
}

TEST_F(CliTest, CheckConsistentWithWitnessFile) {
  WriteFile(sigma_path_,
            "key teacher(name)\n"
            "inclusion subject(taught_by) <= teacher(name)\n");
  std::string witness_path = dir_ + ".witness.xml";
  EXPECT_EQ(Run({"check", dtd_path_, sigma_path_, "--witness",
                 witness_path}),
            0);
  EXPECT_NE(out_.str().find("consistent: yes"), std::string::npos);
  std::ifstream written(witness_path);
  ASSERT_TRUE(written.good());
  std::string first_line;
  std::getline(written, first_line);
  EXPECT_NE(first_line.find("<?xml"), std::string::npos);
}

TEST_F(CliTest, CheckRejectsMissingFiles) {
  EXPECT_EQ(Run({"check", "/nonexistent/a", "/nonexistent/b"}), 2);
  EXPECT_EQ(Run({"check", dtd_path_}), 2);
  EXPECT_EQ(Run({"check", dtd_path_, dtd_path_, "--bogus"}), 2);
}

TEST_F(CliTest, ImpliesVerdictsAndExitCodes) {
  WriteFile(sigma_path_,
            "fk subject(taught_by) => teacher(name)\n");
  EXPECT_EQ(Run({"implies", dtd_path_, sigma_path_, "key teacher(name)"}),
            0);
  EXPECT_NE(out_.str().find("implied: yes"), std::string::npos);

  EXPECT_EQ(
      Run({"implies", dtd_path_, sigma_path_, "key subject(taught_by)"}),
      1);
  EXPECT_NE(out_.str().find("implied: no"), std::string::npos);

  EXPECT_EQ(Run({"implies", dtd_path_, sigma_path_, "garbage"}), 2);
}

TEST_F(CliTest, ValidateDocument) {
  WriteFile(sigma_path_, "key teacher(name)\n");
  WriteFile(doc_path_, R"(
    <teachers>
      <teacher name="Joe">
        <teach>
          <subject taught_by="Joe">XML</subject>
          <subject taught_by="Joe">DB</subject>
        </teach>
        <research>R</research>
      </teacher>
    </teachers>)");
  EXPECT_EQ(Run({"validate", dtd_path_, sigma_path_, doc_path_}), 0);

  WriteFile(doc_path_, "<teachers><teacher name='X'/></teachers>");
  EXPECT_EQ(Run({"validate", dtd_path_, sigma_path_, doc_path_}), 1);
  EXPECT_NE(out_.str().find("DTD violations"), std::string::npos);
}

TEST_F(CliTest, ValidateDocumentWithAndWithoutStream) {
  WriteFile(sigma_path_, "key teacher(name)\nkey subject(taught_by)\n");
  const std::string conforming =
      "<teachers><teacher name='a'><teach>"
      "<subject taught_by='x'>s</subject><subject taught_by='y'>s</subject>"
      "</teach><research>r</research></teacher></teachers>";
  const std::string violating =  // Clashing subject keys.
      "<teachers><teacher name='a'><teach>"
      "<subject taught_by='x'>s</subject><subject taught_by='x'>s</subject>"
      "</teach><research>r</research></teacher></teachers>";
  for (bool stream : {false, true}) {
    std::vector<std::string> args = {"validate", dtd_path_, sigma_path_,
                                     doc_path_};
    if (stream) args.push_back("--stream");
    WriteFile(doc_path_, conforming);
    EXPECT_EQ(Run(args), 0) << "stream=" << stream << "\n" << out_.str();
    WriteFile(doc_path_, violating);
    EXPECT_EQ(Run(args), 1) << "stream=" << stream;
    EXPECT_NE(out_.str().find("share key value"), std::string::npos)
        << out_.str();
  }
}

TEST_F(CliTest, WitnessWithMinimumSize) {
  WriteFile(sigma_path_, "key teacher(name)\n");
  EXPECT_EQ(Run({"witness", dtd_path_, sigma_path_, "--min-nodes", "15"}),
            0);
  // 15 element nodes require ≥ 3 teachers (1 + 5k ≥ 15 ⇒ k ≥ 3).
  std::string xml = out_.str();
  size_t teachers = 0;
  for (size_t pos = xml.find("<teacher "); pos != std::string::npos;
       pos = xml.find("<teacher ", pos + 1)) {
    ++teachers;
  }
  EXPECT_GE(teachers, 3u);

  EXPECT_EQ(Run({"witness", dtd_path_, sigma_path_, "--min-nodes", "bad"}),
            2);
}

TEST_F(CliTest, WitnessInconsistentSpecExitsOne) {
  WriteFile(sigma_path_,
            "key teacher(name)\nkey subject(taught_by)\n"
            "fk subject(taught_by) => teacher(name)\n");
  EXPECT_EQ(Run({"witness", dtd_path_, sigma_path_}), 1);
}

TEST_F(CliTest, ClassifyReportsClassAndBound) {
  WriteFile(sigma_path_, "key teacher(name)\n");
  EXPECT_EQ(Run({"classify", dtd_path_, sigma_path_}), 0);
  EXPECT_NE(out_.str().find("keys-only"), std::string::npos);
  EXPECT_NE(out_.str().find("linear time"), std::string::npos);
}

TEST_F(CliTest, SimplifyPrintsSimpleDtd) {
  EXPECT_EQ(Run({"simplify", dtd_path_}), 0);
  EXPECT_NE(out_.str().find("synthetic element types"), std::string::npos);
  // The star expansion appears as synthetic names.
  EXPECT_NE(out_.str().find("_teachers"), std::string::npos);
}

TEST_F(CliTest, EncodePrintsSystem) {
  WriteFile(sigma_path_, "key teacher(name)\n");
  EXPECT_EQ(Run({"encode", dtd_path_, sigma_path_}), 0);
  EXPECT_NE(out_.str().find("ext(teachers)"), std::string::npos);
  EXPECT_NE(out_.str().find("conditional"), std::string::npos);
}

TEST_F(CliTest, ClosureListsImplications) {
  WriteFile(sigma_path_,
            "fk subject(taught_by) => teacher(name)\n");
  EXPECT_EQ(Run({"closure", dtd_path_, sigma_path_}), 0);
  // The FK's key component is implied... it is *stated* via the FK, so it
  // is filtered; the interesting rows are the redundancy section.
  EXPECT_NE(out_.str().find("implied keys"), std::string::npos);
  EXPECT_NE(out_.str().find("redundant constraints"), std::string::npos);
}

TEST_F(CliTest, EquivCommand) {
  WriteFile(sigma_path_, "fk subject(taught_by) => teacher(name)\n");
  std::string sigma2 = dir_ + ".sigma2";
  WriteFile(sigma2,
            "inclusion subject(taught_by) <= teacher(name)\n"
            "key teacher(name)\n");
  EXPECT_EQ(Run({"equiv", dtd_path_, sigma_path_, sigma2}), 0);
  EXPECT_NE(out_.str().find("equivalent: yes"), std::string::npos);

  WriteFile(sigma2, "key teacher(name)\n");
  EXPECT_EQ(Run({"equiv", dtd_path_, sigma_path_, sigma2}), 1);
  EXPECT_NE(out_.str().find("separated by"), std::string::npos);

  EXPECT_EQ(Run({"equiv", dtd_path_, sigma_path_}), 2);
}

TEST_F(CliTest, IdrefsTranslation) {
  std::string id_dtd = dir_ + ".ids.dtd";
  WriteFile(id_dtd, R"(
    <!ELEMENT library (book*, loan*)>
    <!ELEMENT book EMPTY>
    <!ELEMENT loan EMPTY>
    <!ATTLIST book isbn ID #REQUIRED>
    <!ATTLIST loan of IDREF #REQUIRED>
  )");
  EXPECT_EQ(Run({"idrefs", id_dtd}), 0);
  EXPECT_NE(out_.str().find("book.isbn -> book"), std::string::npos);
  EXPECT_NE(out_.str().find("loan.of <= book.isbn"), std::string::npos);
}

// Every command parses its flags from one table: an unknown flag is a
// usage error naming the flag (never a file name or an arity complaint),
// and `<cmd> --help` prints that command's synopsis.
TEST_F(CliTest, EveryCommandRejectsUnknownFlagsAndHasHelp) {
  for (const char* command :
       {"check", "batch", "compile", "implies", "validate", "witness",
        "classify", "simplify", "encode", "closure", "equiv", "idrefs"}) {
    EXPECT_EQ(Run({command, dtd_path_, "--bogus"}), 2) << command;
    EXPECT_NE(err_.str().find("--bogus"), std::string::npos)
        << command << ": " << err_.str();
    EXPECT_NE(err_.str().find("usage"), std::string::npos)
        << command << ": " << err_.str();

    EXPECT_EQ(Run({command, "--help"}), 0) << command << ": " << err_.str();
    EXPECT_NE(out_.str().find(std::string("usage: xicc ") + command + " <"),
              std::string::npos)
        << command << ": " << out_.str();
  }
}

// ------------------------------------------------------- --stats output.

// The line of `text` that starts with `prefix`, or "" when there is none.
std::string LineStartingWith(const std::string& text,
                             const std::string& prefix) {
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(prefix, 0) == 0) return line;
  }
  return "";
}

TEST_F(CliTest, CheckStatsPrintsEveryCounterBlock) {
  WriteFile(sigma_path_,
            "key teacher(name)\nkey subject(taught_by)\n"
            "fk subject(taught_by) => teacher(name)\n");
  EXPECT_EQ(Run({"check", dtd_path_, sigma_path_, "--stats"}), 1);
  for (const char* prefix : {"stats:      ", "arithmetic: ", "lp kernel:  ",
                             "session:    compile ", "stages:     setup "}) {
    EXPECT_NE(LineStartingWith(out_.str(), prefix), "")
        << prefix << " missing from:\n" << out_.str();
  }
  // The case split ran: the counters behind the verdict are not all zero.
  EXPECT_EQ(LineStartingWith(out_.str(), "stats:      ").find(" 0 lp pivots"),
            std::string::npos)
      << out_.str();
}

// The batch `totals:` line is the sum of the per-item statistics — pinned
// against a direct CheckBatch over the same queries (one worker, so the
// counters are deterministic). Only the trailing ilp wall time differs.
TEST_F(CliTest, BatchStatsTotalsSumTheItemStats) {
  const std::vector<std::string> blocks = {
      "key teacher(name)\nfk subject(taught_by) => teacher(name)\n",
      "key teacher(name)\nkey subject(taught_by)\n"
      "fk subject(taught_by) => teacher(name)\n",
      "key teacher(name)\nfk subject(taught_by) => teacher(name)\n",
      "key subject(taught_by)\n",
  };
  std::string queries_text;
  for (size_t i = 0; i < blocks.size(); ++i) {
    queries_text += (i == 0 ? "" : "---\n") + blocks[i];
  }
  const std::string queries_path = dir_ + ".queries";
  WriteFile(queries_path, queries_text);
  EXPECT_EQ(Run({"batch", dtd_path_, queries_path, "--stats", "--threads",
                 "1"}),
            1);
  const std::string totals = LineStartingWith(out_.str(), "totals:     ");
  ASSERT_NE(totals, "") << out_.str();

  auto dtd = ParseDtd(kTeachersDtd);
  ASSERT_TRUE(dtd.ok());
  auto compiled = CompileDtd(*dtd);
  ASSERT_TRUE(compiled.ok());
  std::vector<ConstraintSet> queries;
  for (const std::string& block : blocks) {
    auto sigma = ParseConstraints(block);
    ASSERT_TRUE(sigma.ok());
    queries.push_back(std::move(*sigma));
  }
  BatchOptions options;
  options.num_threads = 1;
  std::vector<BatchItemResult> results =
      CheckBatch(*compiled, queries, options);
  size_t sigma_delta = 0, memo_hits = 0, memo_misses = 0, nodes = 0,
         pivots = 0, warm = 0, cold = 0;
  for (const BatchItemResult& item : results) {
    ASSERT_TRUE(item.status.ok()) << item.status;
    sigma_delta += item.result.stats.sigma_delta_checks;
    memo_hits += item.result.stats.memo_hits;
    memo_misses += item.result.stats.memo_misses;
    nodes += item.result.stats.ilp_nodes;
    pivots += item.result.stats.lp_pivots;
    warm += item.result.stats.warm_starts;
    cold += item.result.stats.cold_restarts;
  }
  EXPECT_GT(memo_hits, 0u);
  EXPECT_GT(pivots, 0u);
  std::ostringstream expected;
  expected << "totals:     " << sigma_delta << " sigma-delta, " << memo_hits
           << " memo hits, " << memo_misses << " memo misses, " << nodes
           << " ilp nodes, " << pivots << " lp pivots (" << warm
           << " warm / " << cold << " cold), ilp ";
  EXPECT_EQ(totals.substr(0, expected.str().size()), expected.str())
      << totals;
}

// ----------------------------------------------- Numeric flag validation.
// Every numeric flag must reject garbage with exit 2 and a usage hint —
// never crash, never silently clamp, never run with a nonsense value.

class CliFlagTest : public CliTest {
 protected:
  void SetUp() override {
    CliTest::SetUp();
    WriteFile(sigma_path_, "key teacher(name)\n");
    queries_path_ = dir_ + ".queries";
    WriteFile(queries_path_,
              "key teacher(name)\n---\n"
              "key teacher(name)\n!key teacher(name)\n");
  }

  // Runs `check` with one flag set to `value` and expects rejection that
  // names the flag and points at the usage text.
  void ExpectCheckRejects(const std::string& flag, const std::string& value) {
    EXPECT_EQ(Run({"check", dtd_path_, sigma_path_, flag, value}), 2)
        << flag << "=" << value;
    EXPECT_NE(err_.str().find(flag), std::string::npos) << err_.str();
    EXPECT_NE(err_.str().find("usage"), std::string::npos) << err_.str();
  }

  void ExpectBatchRejects(const std::string& flag, const std::string& value) {
    EXPECT_EQ(Run({"batch", dtd_path_, queries_path_, flag, value}), 2)
        << flag << "=" << value;
    EXPECT_NE(err_.str().find(flag), std::string::npos) << err_.str();
    EXPECT_NE(err_.str().find("usage"), std::string::npos) << err_.str();
  }

  std::string queries_path_;
};

TEST_F(CliFlagTest, TimeoutMsRejectsGarbage) {
  ExpectCheckRejects("--timeout-ms", "-5");
  ExpectCheckRejects("--timeout-ms", "0");
  ExpectCheckRejects("--timeout-ms", "soon");
  ExpectCheckRejects("--timeout-ms", "10x");
  ExpectCheckRejects("--timeout-ms", "");
  // Overflows long long: must be ERANGE-rejected, not wrapped or clamped.
  ExpectCheckRejects("--timeout-ms", "99999999999999999999");
  ExpectCheckRejects("--timeout-ms", "-99999999999999999999");
}

TEST_F(CliFlagTest, CancelAfterRejectsGarbage) {
  ExpectCheckRejects("--cancel-after", "-1");
  ExpectCheckRejects("--cancel-after", "1.5");
  ExpectCheckRejects("--cancel-after", "99999999999999999999");
}

TEST_F(CliFlagTest, MinNodesRejectsGarbageButAcceptsZero) {
  ExpectCheckRejects("--min-nodes", "-1");
  ExpectCheckRejects("--min-nodes", "many");
  ExpectCheckRejects("--min-nodes", "99999999999999999999");
  // Zero is a legitimate "no minimum".
  EXPECT_EQ(Run({"check", dtd_path_, sigma_path_, "--min-nodes", "0"}), 0);
}

TEST_F(CliFlagTest, BatchThreadsAndChunkRejectGarbage) {
  ExpectBatchRejects("--threads", "0");
  ExpectBatchRejects("--threads", "-2");
  ExpectBatchRejects("--threads", "2.0");
  ExpectBatchRejects("--threads", "99999999999999999999");
  ExpectBatchRejects("--chunk", "0");
  ExpectBatchRejects("--chunk", "nope");
  ExpectBatchRejects("--chunk", "99999999999999999999");
  // Batch item timeouts ride the same flag; garbage is caught there too.
  ExpectBatchRejects("--timeout-ms", "1e9");
}

TEST_F(CliFlagTest, ValidFlagsStillWork) {
  EXPECT_EQ(Run({"check", dtd_path_, sigma_path_, "--timeout-ms", "30000"}),
            0);
  // Exit 1: the second query block is inconsistent (negative verdict, not
  // an error).
  EXPECT_EQ(Run({"batch", dtd_path_, queries_path_, "--threads", "2",
                 "--chunk", "1", "--timeout-ms", "30000"}),
            1);
  EXPECT_NE(out_.str().find(": consistent"), std::string::npos) << out_.str();
  EXPECT_NE(out_.str().find(": inconsistent"), std::string::npos)
      << out_.str();
}

// `--name=value` is the same flag as `--name value`.
TEST_F(CliFlagTest, EqualsFormMatchesSpaceForm) {
  const std::string witness_path = dir_ + ".eq.witness.xml";
  auto read_witness = [&] {
    std::ifstream in(witness_path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
  };
  EXPECT_EQ(Run({"check", dtd_path_, sigma_path_, "--timeout-ms", "30000",
                 "--witness", witness_path}),
            0);
  const std::string spaced_out = out_.str();
  const std::string spaced_witness = read_witness();
  ASSERT_NE(spaced_witness, "");
  std::remove(witness_path.c_str());

  EXPECT_EQ(Run({"check", dtd_path_, sigma_path_, "--timeout-ms=30000",
                 "--witness=" + witness_path}),
            0)
      << err_.str();
  EXPECT_EQ(out_.str(), spaced_out);
  EXPECT_EQ(read_witness(), spaced_witness);
}

}  // namespace
}  // namespace tools
}  // namespace xicc
