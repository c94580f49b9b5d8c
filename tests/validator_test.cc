#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "dtd/compiled.h"
#include "dtd/validator.h"
#include "xml/parser.h"
#include "workloads/paper_examples.h"

namespace xicc {
namespace {

XmlTree MustParse(const std::string& text) {
  auto tree = ParseXml(text);
  EXPECT_TRUE(tree.ok()) << tree.status();
  return std::move(tree).value();
}

TEST(ValidatorTest, Figure1TreeConformsToD1) {
  // The tree of Figure 1.
  XmlTree tree = MustParse(R"(
    <teachers>
      <teacher name="Joe">
        <teach>
          <subject taught_by="Joe">XML</subject>
          <subject taught_by="Joe">DB</subject>
        </teach>
        <research>Web DB</research>
      </teacher>
      <teacher name="Ann">
        <teach>
          <subject taught_by="Ann">Logic</subject>
          <subject taught_by="Ann">Automata</subject>
        </teach>
        <research>Theory</research>
      </teacher>
    </teachers>)");
  ValidationReport report = ValidateXml(tree, workloads::TeacherDtd());
  EXPECT_TRUE(report.valid) << report.ToString();
}

TEST(ValidatorTest, WrongRootRejected) {
  XmlTree tree = MustParse("<teacher name=\"X\"><teach/><research/></teacher>");
  ValidationReport report = ValidateXml(tree, workloads::TeacherDtd());
  EXPECT_FALSE(report.valid);
  EXPECT_NE(report.ToString().find("root"), std::string::npos);
}

TEST(ValidatorTest, ContentModelViolation) {
  // One subject instead of two.
  XmlTree tree = MustParse(R"(
    <teachers>
      <teacher name="Joe">
        <teach><subject taught_by="Joe">XML</subject></teach>
        <research>DB</research>
      </teacher>
    </teachers>)");
  ValidationReport report = ValidateXml(tree, workloads::TeacherDtd());
  EXPECT_FALSE(report.valid);
  EXPECT_NE(report.ToString().find("teach"), std::string::npos);
}

TEST(ValidatorTest, MissingAttributeReported) {
  XmlTree tree = MustParse(R"(
    <teachers>
      <teacher>
        <teach>
          <subject taught_by="Joe">X</subject>
          <subject taught_by="Joe">Y</subject>
        </teach>
        <research>R</research>
      </teacher>
    </teachers>)");
  ValidationReport report = ValidateXml(tree, workloads::TeacherDtd());
  EXPECT_FALSE(report.valid);
  EXPECT_NE(report.ToString().find("missing required attribute 'name'"),
            std::string::npos);
}

TEST(ValidatorTest, UndeclaredAttributeReported) {
  XmlTree tree = MustParse(R"(
    <teachers>
      <teacher name="Joe" age="44">
        <teach>
          <subject taught_by="Joe">X</subject>
          <subject taught_by="Joe">Y</subject>
        </teach>
        <research>R</research>
      </teacher>
    </teachers>)");
  ValidationReport report = ValidateXml(tree, workloads::TeacherDtd());
  EXPECT_FALSE(report.valid);
  EXPECT_NE(report.ToString().find("undeclared attribute 'age'"),
            std::string::npos);
}

TEST(ValidatorTest, UndeclaredElementReported) {
  XmlTree tree = MustParse("<teachers><intruder/></teachers>");
  ValidationReport report = ValidateXml(tree, workloads::TeacherDtd());
  EXPECT_FALSE(report.valid);
  EXPECT_NE(report.ToString().find("intruder"), std::string::npos);
}

TEST(ValidatorTest, ImplicitEmptyTextOption) {
  // <research/> has no text child but P(research) = S.
  XmlTree tree = MustParse(R"(
    <teachers>
      <teacher name="Joe">
        <teach>
          <subject taught_by="Joe">X</subject>
          <subject taught_by="Joe">Y</subject>
        </teach>
        <research/>
      </teacher>
    </teachers>)");
  EXPECT_TRUE(ValidateXml(tree, workloads::TeacherDtd()).valid);
}

TEST(ValidatorTest, SchoolDocumentWithStars) {
  XmlTree tree = MustParse(R"(
    <school>
      <course dept="CS" course_no="101"><subject>DB</subject></course>
      <course dept="CS" course_no="102"><subject>XML</subject></course>
      <student student_id="s1"><name>Kim</name></student>
      <enroll student_id="s1" dept="CS" course_no="101"/>
    </school>)");
  ValidationReport report = ValidateXml(tree, workloads::SchoolDtd());
  EXPECT_TRUE(report.valid) << report.ToString();
}

TEST(ValidatorTest, SchoolStarOrderMatters) {
  // enroll before student violates course*,student*,enroll*.
  XmlTree tree = MustParse(R"(
    <school>
      <enroll student_id="s1" dept="CS" course_no="101"/>
      <student student_id="s1"><name>Kim</name></student>
    </school>)");
  EXPECT_FALSE(ValidateXml(tree, workloads::SchoolDtd()).valid);
}

TEST(ValidatorTest, EmptySchoolIsValid) {
  XmlTree tree = MustParse("<school/>");
  EXPECT_TRUE(ValidateXml(tree, workloads::SchoolDtd()).valid);
}

TEST(ValidatorTest, CollectsMultipleViolations) {
  XmlTree tree = MustParse(R"(
    <teachers>
      <teacher><teach/><research/></teacher>
    </teachers>)");
  ValidationReport report = ValidateXml(tree, workloads::TeacherDtd());
  EXPECT_FALSE(report.valid);
  // Missing name + teach content model.
  EXPECT_GE(report.violations.size(), 2u);
}

TEST(ValidatorTest, SharedCompiledModelsAcrossThreads) {
  // One set of frozen DFAs, read by eight concurrent checkers: every report
  // must equal the plain (private lazy matcher) path's.
  Dtd dtd = workloads::TeacherDtd();
  const CompiledContentModels models = CompiledContentModels::Build(dtd);
  const std::vector<XmlTree> trees = {
      MustParse("<teachers><teacher name='a'><teach>"
                "<subject taught_by='a'>x</subject>"
                "<subject taught_by='a'>y</subject></teach>"
                "<research/></teacher></teachers>"),
      MustParse("<teachers><teacher name='a'><teach>"
                "<subject taught_by='a'>x</subject></teach>"
                "<research>r</research></teacher></teachers>"),
      MustParse("<teachers><teacher><research>r</research><teach/>"
                "</teacher></teachers>"),
      MustParse("<teachers><intruder/></teachers>"),
      MustParse("<teacher name='a'/>"),
  };
  std::vector<std::string> expected;
  for (const XmlTree& tree : trees) {
    expected.push_back(ValidateXml(tree, dtd).ToString());
  }
  EXPECT_EQ(expected[0], "valid");
  EXPECT_NE(expected[1], "valid");

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 25; ++round) {
        for (size_t i = 0; i < trees.size(); ++i) {
          if (ValidateXml(trees[i], dtd, &models).ToString() != expected[i]) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace xicc
