// The streaming validator must agree with the tree-based pipeline
// (ParseXml + ValidateXml + Evaluate) on every document — on the verdict and
// on every reported problem — and both with a test-local oracle: hand-picked
// cases covering each problem type, witnesses from the checker, and random
// mutations.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <set>

#include "constraints/evaluator.h"
#include "core/consistency.h"
#include "core/streaming_validator.h"
#include "dtd/glushkov.h"
#include "dtd/validator.h"
#include "workloads/generators.h"
#include "workloads/paper_examples.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xicc {
namespace {

/// Verdict-only transcription of Definition 2.2 (T ⊨ D) and the Section 2.2
/// satisfaction definitions (T ⊨ Σ), written against the tree API alone —
/// whole child words through ContentModelMatcher::Matches, tuple sets from
/// ExtOfType and AttributeValue — so the one checker that ValidateXml,
/// Evaluate and ValidateStream share is still compared with an independent
/// implementation.
bool OracleConforms(const XmlTree& tree, const Dtd& dtd,
                    const ConstraintSet& sigma) {
  if (tree.label(tree.root()) != dtd.root()) return false;
  for (NodeId node = 0; node < tree.size(); ++node) {
    if (!tree.IsElement(node)) continue;
    const std::string& type = tree.label(node);
    if (!dtd.HasElement(type)) return false;
    ContentModelMatcher matcher(dtd.ContentOf(type));
    std::vector<std::string> word = tree.ChildLabelWord(node);
    // A childless element may stand for one empty text child.
    if (!matcher.Matches(word) && !(word.empty() && matcher.Matches({"S"}))) {
      return false;
    }
    const std::vector<std::string>& declared = dtd.AttributesOf(type);
    if (tree.attributes(node).size() != declared.size()) return false;
    for (const std::string& attr : declared) {
      if (!tree.AttributeValue(node, attr).has_value()) return false;
    }
  }

  using Tuple = std::vector<std::string>;
  // x[X] for each x in ext(τ); nullopt where x lacks an attribute of X.
  auto tuples = [&](const std::string& type,
                    const std::vector<std::string>& attrs) {
    std::vector<std::optional<Tuple>> out;
    for (NodeId node : tree.ExtOfType(type)) {
      Tuple tuple;
      for (const std::string& attr : attrs) {
        auto value = tree.AttributeValue(node, attr);
        if (!value.has_value()) break;
        tuple.emplace_back(*value);
      }
      if (tuple.size() == attrs.size()) {
        out.emplace_back(std::move(tuple));
      } else {
        out.emplace_back(std::nullopt);
      }
    }
    return out;
  };
  const ConstraintSet normalized = sigma.Normalize();
  for (const Constraint& c : normalized.constraints()) {
    std::vector<std::optional<Tuple>> left = tuples(c.type1, c.attrs1);
    std::set<Tuple> left_set;
    size_t complete = 0;
    for (const auto& tuple : left) {
      if (!tuple.has_value()) continue;
      ++complete;
      left_set.insert(*tuple);
    }
    std::set<Tuple> right;
    for (const auto& tuple : tuples(c.type2, c.attrs2)) {
      if (tuple.has_value()) right.insert(*tuple);
    }
    bool dangling = false;
    for (const Tuple& tuple : left_set) dangling |= right.count(tuple) == 0;
    bool holds = false;
    switch (c.kind) {
      case ConstraintKind::kKey:
        holds = complete == left.size() && left_set.size() == complete;
        break;
      case ConstraintKind::kNegKey:
        holds = left_set.size() < complete;
        break;
      case ConstraintKind::kInclusion:
        holds = complete == left.size() && !dangling;
        break;
      case ConstraintKind::kNegInclusion:
        holds = dangling;
        break;
      case ConstraintKind::kForeignKey:
        ADD_FAILURE() << "Normalize() left a foreign key";
        break;
    }
    if (!holds) return false;
  }
  return true;
}

/// The tree pipeline (ParseXml + ValidateXml + Evaluate), the streaming
/// pass and the oracle must agree on the verdict, and the two checker paths
/// on every reported problem.
void ExpectAgreement(const std::string& xml, const Dtd& dtd,
                     const ConstraintSet& sigma, const char* label) {
  auto tree = ParseXml(xml);
  auto stream = ValidateStream(xml, dtd, sigma);
  if (!tree.ok()) {
    EXPECT_FALSE(stream.ok()) << label;
    return;
  }
  ASSERT_TRUE(stream.ok()) << label << ": " << stream.status();
  ValidationReport validation = ValidateXml(*tree, dtd);
  EvaluationReport evaluation = Evaluate(*tree, sigma);
  bool tree_verdict = validation.valid && evaluation.satisfied;
  EXPECT_EQ(stream->conforms, tree_verdict)
      << label << "\nstreaming said:\n"
      << stream->ToString() << "\ndocument:\n"
      << xml;
  EXPECT_EQ(OracleConforms(*tree, dtd, sigma), tree_verdict)
      << label << "\ntree pipeline said:\n"
      << validation.ToString() << "\n"
      << evaluation.ToString() << "\ndocument:\n"
      << xml;

  std::vector<std::string> tree_problems;
  for (const DtdViolation& v : validation.violations) {
    tree_problems.push_back(v.message);
  }
  for (const ConstraintViolation& v : evaluation.violations) {
    tree_problems.push_back(v.message);
  }
  std::vector<std::string> stream_problems = stream->problems;
  std::sort(tree_problems.begin(), tree_problems.end());
  std::sort(stream_problems.begin(), stream_problems.end());
  EXPECT_EQ(stream_problems, tree_problems) << label;
}

TEST(StreamingTest, Figure1Document) {
  const char* xml = R"(
    <teachers>
      <teacher name="Joe">
        <teach>
          <subject taught_by="Joe">XML</subject>
          <subject taught_by="Joe">DB</subject>
        </teach>
        <research>Web DB</research>
      </teacher>
    </teachers>)";
  Dtd d1 = workloads::TeacherDtd();
  // DTD-valid…
  ConstraintSet empty;
  auto stream = ValidateStream(xml, d1, empty);
  ASSERT_TRUE(stream.ok());
  EXPECT_TRUE(stream->conforms) << stream->ToString();
  EXPECT_EQ(stream->elements_seen, 6u);
  // …but Σ1-violating (the subject key), and the streaming pass says why.
  auto with_sigma = ValidateStream(xml, d1, workloads::TeacherSigma());
  ASSERT_TRUE(with_sigma.ok());
  EXPECT_FALSE(with_sigma->conforms);
  EXPECT_NE(with_sigma->ToString().find("share key value"),
            std::string::npos);
}

TEST(StreamingTest, ProblemTaxonomy) {
  Dtd d1 = workloads::TeacherDtd();
  ConstraintSet sigma = workloads::TeacherSigma();
  struct Case {
    const char* label;
    const char* xml;
  };
  Case cases[] = {
      {"wrong root", "<nope/>"},
      {"undeclared element", "<teachers><intruder/></teachers>"},
      {"content model dead end",
       "<teachers><teacher name='x'><research>r</research>"
       "<teach><subject taught_by='x'>s</subject>"
       "<subject taught_by='y'>s</subject></teach></teacher></teachers>"},
      {"content model stops short",
       "<teachers><teacher name='x'><teach>"
       "<subject taught_by='x'>s</subject></teach>"
       "<research>r</research></teacher></teachers>"},
      {"missing attribute",
       "<teachers><teacher><teach><subject taught_by='x'>s</subject>"
       "<subject taught_by='y'>s</subject></teach>"
       "<research>r</research></teacher></teachers>"},
      {"undeclared attribute",
       "<teachers><teacher name='x' age='9'><teach>"
       "<subject taught_by='x'>s</subject>"
       "<subject taught_by='y'>s</subject></teach>"
       "<research>r</research></teacher></teachers>"},
      {"dangling foreign key",
       "<teachers><teacher name='x'><teach>"
       "<subject taught_by='ghost'>s</subject>"
       "<subject taught_by='x'>s</subject></teach>"
       "<research>r</research></teacher></teachers>"},
  };
  for (const Case& c : cases) {
    ExpectAgreement(c.xml, d1, sigma, c.label);
    auto stream = ValidateStream(c.xml, d1, sigma);
    ASSERT_TRUE(stream.ok()) << c.label;
    EXPECT_FALSE(stream->conforms) << c.label;
  }
}

TEST(StreamingTest, SingleFaultDocuments) {
  // Each document breaks one rule and nothing else, so a rule the shared
  // checker dropped would leave it conforming and only the oracle would
  // disagree.
  Dtd d1 = workloads::TeacherDtd();
  ConstraintSet none;
  ConstraintSet sigma;
  sigma.Add(Constraint::Key("teacher", {"name"}));
  sigma.Add(Constraint::ForeignKey("subject", {"taught_by"}, "teacher",
                                   {"name"}));
  auto doc = [](const std::string& teacher_attrs, const std::string& teach,
                const std::string& research) {
    return "<teachers><teacher " + teacher_attrs + "><teach>" + teach +
           "</teach>" + research + "</teacher></teachers>";
  };
  const std::string two_subjects =
      "<subject taught_by='a'>s</subject><subject taught_by='a'>t</subject>";
  const std::string research = "<research>r</research>";
  ExpectAgreement(doc("name='a'", two_subjects, research), d1, sigma,
                  "conforming");
  ExpectAgreement(doc("name='a'", two_subjects, "<research/>"), d1, sigma,
                  "implicit empty text");

  struct Case {
    const char* label;
    std::string xml;
    const ConstraintSet* sigma;
  };
  const Case cases[] = {
      {"wrong root",
       "<teacher name='a'><teach>" + two_subjects + "</teach>" + research +
           "</teacher>",
       &none},
      {"content model dead end",
       "<teachers><teacher name='a'>" + research + "<teach>" + two_subjects +
           "</teach></teacher></teachers>",
       &none},
      {"content model stops short",
       doc("name='a'", "<subject taught_by='a'>s</subject>", research),
       &none},
      {"text where elements belong", doc("name='a'", "text", research),
       &none},
      {"missing attribute",
       doc("name='a'",
           "<subject>s</subject><subject taught_by='a'>t</subject>",
           research),
       &none},
      {"undeclared attribute", doc("name='a' age='9'", two_subjects, research),
       &none},
      {"key clash",
       "<teachers><teacher name='a'><teach>" + two_subjects + "</teach>" +
           research + "</teacher><teacher name='a'><teach>" + two_subjects +
           "</teach>" + research + "</teacher></teachers>",
       &sigma},
      {"dangling foreign key",
       doc("name='a'",
           "<subject taught_by='a'>s</subject><subject taught_by='b'>t</subject>",
           research),
       &sigma},
  };
  for (const Case& c : cases) {
    ExpectAgreement(c.xml, d1, *c.sigma, c.label);
    auto stream = ValidateStream(c.xml, d1, *c.sigma);
    ASSERT_TRUE(stream.ok()) << c.label;
    EXPECT_FALSE(stream->conforms) << c.label;
  }
}

TEST(StreamingTest, NegationsNeedWholeDocument) {
  Dtd dtd = workloads::CatalogDtd(2);
  ConstraintSet sigma;
  sigma.Add(Constraint::NegKey("item1", {"id"}));
  sigma.Add(Constraint::NegInclusion("item1", {"id"}, "item2", {"id"}));

  // Duplicates present + a dangling value: both negations satisfied.
  ExpectAgreement(
      "<catalog><section1><item1 id='a' ref='r'/><item1 id='a' ref='r'/>"
      "</section1><section2><item2 id='b' ref='r'/></section2></catalog>",
      dtd, sigma, "negations satisfied");
  // All unique and covered: both negations violated.
  ExpectAgreement(
      "<catalog><section1><item1 id='a' ref='r'/></section1>"
      "<section2><item2 id='a' ref='r'/></section2></catalog>",
      dtd, sigma, "negations violated");
}

TEST(StreamingTest, MultiAttributeConstraints) {
  Dtd school = workloads::SchoolDtd();
  ConstraintSet sigma = workloads::SchoolSigma();
  ExpectAgreement(R"(
    <school>
      <course dept="CS" course_no="1"><subject>DB</subject></course>
      <student student_id="s1"><name>Kim</name></student>
      <enroll student_id="s1" dept="CS" course_no="1"/>
    </school>)", school, sigma, "clean school");
  ExpectAgreement(R"(
    <school>
      <course dept="CS" course_no="1"><subject>DB</subject></course>
      <student student_id="s1"><name>Kim</name></student>
      <enroll student_id="s1" dept="EE" course_no="9"/>
    </school>)", school, sigma, "dangling enrollment");
  ExpectAgreement(R"(
    <school>
      <student student_id="s1"><name>A</name></student>
      <student student_id="s1"><name>B</name></student>
    </school>)", school, sigma, "duplicate student");
}

TEST(StreamingTest, CheckerWitnessesAlwaysConform) {
  for (size_t n : {1, 2, 4}) {
    Dtd dtd = workloads::AuctionDtd(n);
    ConstraintSet sigma = workloads::AuctionSigma(n);
    ConsistencyOptions options;
    options.min_witness_nodes = 12 * n;
    auto result = CheckConsistency(dtd, sigma, options);
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_TRUE(result->witness.has_value());
    std::string xml = SerializeXml(*result->witness);
    auto stream = ValidateStream(xml, dtd, sigma);
    ASSERT_TRUE(stream.ok()) << stream.status();
    EXPECT_TRUE(stream->conforms) << stream->ToString();
  }
}

class StreamingDifferentialTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(StreamingDifferentialTest, AgreesWithTreePipelineUnderMutation) {
  std::mt19937_64 rng(GetParam());
  Dtd d1 = workloads::TeacherDtd();
  ConstraintSet sigma = workloads::TeacherSigma();
  const std::string seed_doc =
      "<teachers><teacher name=\"a\"><teach>"
      "<subject taught_by=\"a\">x</subject>"
      "<subject taught_by=\"b\">y</subject></teach>"
      "<research>r</research></teacher>"
      "<teacher name=\"b\"><teach>"
      "<subject taught_by=\"c\">x</subject>"
      "<subject taught_by=\"d\">y</subject></teach>"
      "<research>r</research></teacher></teachers>";
  // Structured mutations that usually keep the document well-formed:
  // attribute value swaps, element duplication, subtree deletion.
  for (int trial = 0; trial < 40; ++trial) {
    std::string doc = seed_doc;
    // Swap two quoted values.
    std::vector<size_t> quotes;
    for (size_t i = 0; i < doc.size(); ++i) {
      if (doc[i] == '"') quotes.push_back(i);
    }
    if (quotes.size() >= 4) {
      size_t a = (rng() % (quotes.size() / 2)) * 2;
      size_t b = (rng() % (quotes.size() / 2)) * 2;
      std::string va = doc.substr(quotes[a] + 1, quotes[a + 1] - quotes[a] - 1);
      std::string vb = doc.substr(quotes[b] + 1, quotes[b + 1] - quotes[b] - 1);
      if (va.size() == vb.size()) {
        for (size_t i = 0; i < va.size(); ++i) {
          std::swap(doc[quotes[a] + 1 + i], doc[quotes[b] + 1 + i]);
        }
      }
    }
    ExpectAgreement(doc, d1, sigma, "mutated");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingDifferentialTest,
                         ::testing::Values(1u, 7u, 23u, 99u));

}  // namespace
}  // namespace xicc
