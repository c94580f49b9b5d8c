// End-to-end tests of the XmlSpec facade: text in, verdicts out.

#include <gtest/gtest.h>

#include "constraints/evaluator.h"
#include "core/spec.h"
#include "dtd/validator.h"
#include "xml/parser.h"

namespace xicc {
namespace {

constexpr const char* kTeacherDtd = R"(
  <!ELEMENT teachers (teacher+)>
  <!ELEMENT teacher (teach, research)>
  <!ELEMENT teach (subject, subject)>
  <!ELEMENT subject (#PCDATA)>
  <!ELEMENT research (#PCDATA)>
  <!ATTLIST teacher name CDATA #REQUIRED>
  <!ATTLIST subject taught_by CDATA #REQUIRED>
)";

constexpr const char* kTeacherSigma = R"(
  key teacher(name)
  key subject(taught_by)
  fk subject(taught_by) => teacher(name)
)";

TEST(SpecTest, ParseAndCrossCheck) {
  auto spec = XmlSpec::Parse(kTeacherDtd, kTeacherSigma);
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ(spec->dtd.root(), "teachers");
  EXPECT_EQ(spec->constraints.size(), 3u);
}

TEST(SpecTest, ParseRejectsMismatchedConstraint) {
  auto spec = XmlSpec::Parse(kTeacherDtd, "key teacher(salary)\n");
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument);
}

TEST(SpecTest, FlagshipInconsistency) {
  auto spec = XmlSpec::Parse(kTeacherDtd, kTeacherSigma);
  ASSERT_TRUE(spec.ok());
  auto result = spec->CheckConsistent();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->consistent);
}

TEST(SpecTest, ConsistentVariantProducesWitness) {
  auto spec = XmlSpec::Parse(kTeacherDtd,
                             "key teacher(name)\n"
                             "inclusion subject(taught_by) <= teacher(name)\n");
  ASSERT_TRUE(spec.ok());
  auto result = spec->CheckConsistent();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->consistent);
  ASSERT_TRUE(result->witness.has_value());
  // The witness itself passes dynamic validation.
  auto report = spec->CheckDocument(*result->witness);
  EXPECT_TRUE(report.conforms) << report.details;
}

TEST(SpecTest, ImpliesFromText) {
  auto spec = XmlSpec::Parse(kTeacherDtd,
                             "key teacher(name)\n"
                             "inclusion subject(taught_by) <= teacher(name)\n");
  ASSERT_TRUE(spec.ok());
  // Self-implication.
  auto self = spec->Implies("key teacher(name)");
  ASSERT_TRUE(self.ok()) << self.status();
  EXPECT_TRUE(self->implied);
  // Not implied: taught_by is free to repeat.
  auto other = spec->Implies("key subject(taught_by)");
  ASSERT_TRUE(other.ok()) << other.status();
  EXPECT_FALSE(other->implied);
  // Parse errors surface.
  EXPECT_FALSE(spec->Implies("nonsense").ok());
}

TEST(SpecTest, CheckDocumentAgainstBothLayers) {
  auto spec = XmlSpec::Parse(kTeacherDtd, kTeacherSigma);
  ASSERT_TRUE(spec.ok());

  // The Figure 1 tree: valid for the DTD, violates the subject key.
  auto tree = ParseXml(R"(
    <teachers>
      <teacher name="Joe">
        <teach>
          <subject taught_by="Joe">XML</subject>
          <subject taught_by="Joe">DB</subject>
        </teach>
        <research>Web DB</research>
      </teacher>
    </teachers>)");
  ASSERT_TRUE(tree.ok());
  auto report = spec->CheckDocument(*tree);
  EXPECT_FALSE(report.conforms);
  EXPECT_NE(report.details.find("constraint violations"), std::string::npos);
  EXPECT_EQ(report.details.find("DTD violations"), std::string::npos);

  // A structurally broken document reports DTD violations.
  auto broken = ParseXml("<teachers><teacher name=\"X\"/></teachers>");
  ASSERT_TRUE(broken.ok());
  auto report2 = spec->CheckDocument(*broken);
  EXPECT_FALSE(report2.conforms);
  EXPECT_NE(report2.details.find("DTD violations"), std::string::npos);
}

TEST(SpecTest, MultiAttributeSpecsCanStillValidateDocuments) {
  // The undecidable class is still fine for *dynamic* checking.
  auto spec = XmlSpec::Parse(R"(
    <!ELEMENT school (course*, student*, enroll*)>
    <!ELEMENT course (subject)>
    <!ELEMENT student (name)>
    <!ELEMENT enroll EMPTY>
    <!ELEMENT name (#PCDATA)>
    <!ELEMENT subject (#PCDATA)>
    <!ATTLIST course dept CDATA #REQUIRED course_no CDATA #REQUIRED>
    <!ATTLIST student student_id CDATA #REQUIRED>
    <!ATTLIST enroll student_id CDATA #REQUIRED
                     dept CDATA #REQUIRED course_no CDATA #REQUIRED>
  )", R"(
    key student(student_id)
    key course(dept, course_no)
    fk enroll(student_id) => student(student_id)
    fk enroll(dept, course_no) => course(dept, course_no)
  )");
  ASSERT_TRUE(spec.ok()) << spec.status();

  // Static analysis refuses (Theorem 3.1)…
  auto consistency = spec->CheckConsistent();
  ASSERT_FALSE(consistency.ok());
  EXPECT_EQ(consistency.status().code(), StatusCode::kUndecidableClass);

  // …dynamic validation works.
  auto good = ParseXml(R"(
    <school>
      <course dept="CS" course_no="1"><subject>DB</subject></course>
      <student student_id="s1"><name>Kim</name></student>
      <enroll student_id="s1" dept="CS" course_no="1"/>
    </school>)");
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(spec->CheckDocument(*good).conforms);

  auto dangling = ParseXml(R"(
    <school>
      <course dept="CS" course_no="1"><subject>DB</subject></course>
      <student student_id="s1"><name>Kim</name></student>
      <enroll student_id="s2" dept="CS" course_no="1"/>
    </school>)");
  ASSERT_TRUE(dangling.ok());
  EXPECT_FALSE(spec->CheckDocument(*dangling).conforms);
}

TEST(SpecTest, DeepChainChecksWithoutRecursion) {
  // Witness trees are not bounded by the parser's depth limit: a 100 000
  // deep chain must check without exhausting the C++ stack.
  auto spec = XmlSpec::Parse(R"(
    <!ELEMENT r (a)>
    <!ELEMENT a (a?)>
    <!ATTLIST a id CDATA #REQUIRED>
  )", "key a(id)\n");
  ASSERT_TRUE(spec.ok()) << spec.status();
  XmlTree tree("r");
  NodeId deepest = tree.root();
  for (int i = 0; i < 100000; ++i) {
    deepest = tree.AddElement(deepest, "a");
    tree.SetAttribute(deepest, "id", std::to_string(i));
  }
  EXPECT_TRUE(ValidateXml(tree, spec->dtd).valid);
  EXPECT_TRUE(Evaluate(tree, spec->constraints).satisfied);
  EXPECT_TRUE(spec->CheckDocument(tree).conforms);

  tree.SetAttribute(deepest, "id", "0");  // Clashes with the top a.
  EXPECT_TRUE(ValidateXml(tree, spec->dtd).valid);
  EXPECT_FALSE(Evaluate(tree, spec->constraints).satisfied);
  EXPECT_FALSE(spec->CheckDocument(tree).conforms);

  tree.AddElement(deepest, "b");  // Undeclared, at the bottom.
  EXPECT_FALSE(ValidateXml(tree, spec->dtd).valid);
  EXPECT_FALSE(spec->CheckDocument(tree).conforms);
}

}  // namespace
}  // namespace xicc
