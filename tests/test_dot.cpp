#include "report/dot.hpp"

#include <gtest/gtest.h>

namespace mpct::report {
namespace {

TEST(HierarchyDot, WellFormedDigraph) {
  const std::string dot = hierarchy_dot(machine_hierarchy());
  EXPECT_EQ(dot.rfind("digraph hierarchy {", 0), 0u);
  EXPECT_EQ(dot.back(), '\n');
  EXPECT_NE(dot.find("}"), std::string::npos);
  EXPECT_NE(dot.find("Computing Machines"), std::string::npos);
  EXPECT_NE(dot.find("Instruction Flow"), std::string::npos);
  EXPECT_NE(dot.find("IMP-I .. IMP-XVI"), std::string::npos);
}

TEST(HierarchyDot, EdgeCountMatchesTree) {
  // Tree with 1 root + 3 machine types + 7 processing branches: 10
  // edges (every non-root node has exactly one parent edge).
  const std::string dot = hierarchy_dot(machine_hierarchy());
  std::size_t edges = 0;
  std::size_t pos = 0;
  while ((pos = dot.find(" -> ", pos)) != std::string::npos) {
    ++edges;
    ++pos;
  }
  EXPECT_EQ(edges, 10u);
}

TEST(MorphDot, ContainsAllNamedClasses) {
  const std::string dot = morph_dot();
  EXPECT_EQ(dot.rfind("digraph morph {", 0), 0u);
  for (const char* name : {"DUP", "DMP-IV", "IUP", "IAP-II", "IMP-XVI",
                           "ISP-IV", "USP"}) {
    std::string quoted = "\"";
    quoted += name;
    quoted += '"';
    EXPECT_NE(dot.find(quoted), std::string::npos) << name;
  }
  EXPECT_NE(dot.find("flex 8"), std::string::npos);  // USP label
}

TEST(MorphDot, HasseEdgesOnly) {
  // USP can morph into everything, but after transitive reduction it
  // must NOT point directly at IUP (the path goes through intermediate
  // classes).
  const std::string dot = morph_dot();
  EXPECT_EQ(dot.find("\"USP\" -> \"IUP\""), std::string::npos);
  // Covering edges survive: IAP-I -> IUP is immediate.
  EXPECT_NE(dot.find("\"IAP-I\" -> \"IUP\""), std::string::npos);
  // No self loops.
  EXPECT_EQ(dot.find("\"IUP\" -> \"IUP\""), std::string::npos);
}

TEST(MorphDot, NoCrossParadigmEdges) {
  const std::string dot = morph_dot();
  EXPECT_EQ(dot.find("\"IMP-XVI\" -> \"DMP-I\""), std::string::npos);
  EXPECT_EQ(dot.find("\"DMP-IV\" -> \"IUP\""), std::string::npos);
}

}  // namespace
}  // namespace mpct::report
