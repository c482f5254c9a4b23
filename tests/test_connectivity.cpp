#include "core/connectivity.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <ostream>

namespace mpct {
namespace {

TEST(SwitchKind, FlexibleOnlyForCrossbar) {
  EXPECT_FALSE(is_flexible_switch(SwitchKind::None));
  EXPECT_FALSE(is_flexible_switch(SwitchKind::Direct));
  EXPECT_TRUE(is_flexible_switch(SwitchKind::Crossbar));
}

TEST(SwitchKind, Symbols) {
  EXPECT_EQ(to_symbol(SwitchKind::None), "none");
  EXPECT_EQ(to_symbol(SwitchKind::Direct), "-");
  EXPECT_EQ(to_symbol(SwitchKind::Crossbar), "x");
}

TEST(ConnectivityRole, ColumnHeadersMatchPaper) {
  EXPECT_EQ(to_string(ConnectivityRole::IpIp), "IP-IP");
  EXPECT_EQ(to_string(ConnectivityRole::IpDp), "IP-DP");
  EXPECT_EQ(to_string(ConnectivityRole::IpIm), "IP-IM");
  EXPECT_EQ(to_string(ConnectivityRole::DpDm), "DP-DM");
  EXPECT_EQ(to_string(ConnectivityRole::DpDp), "DP-DP");
}

TEST(ConnectivityRole, ParseIsCaseInsensitive) {
  EXPECT_EQ(connectivity_role_from_string("ip-dp"), ConnectivityRole::IpDp);
  EXPECT_EQ(connectivity_role_from_string("DP-DM"), ConnectivityRole::DpDm);
  EXPECT_EQ(connectivity_role_from_string("Ip-Ip"), ConnectivityRole::IpIp);
  EXPECT_EQ(connectivity_role_from_string("dp-dp"), ConnectivityRole::DpDp);
  EXPECT_EQ(connectivity_role_from_string("ip-im"), ConnectivityRole::IpIm);
}

TEST(ConnectivityRole, ParseRejectsUnknown) {
  EXPECT_EQ(connectivity_role_from_string("im-dm"), std::nullopt);
  EXPECT_EQ(connectivity_role_from_string(""), std::nullopt);
  EXPECT_EQ(connectivity_role_from_string("ipdp"), std::nullopt);
}

TEST(ConnectivityRole, AllRolesArrayCoversTable) {
  ASSERT_EQ(kAllConnectivityRoles.size(), kConnectivityRoleCount);
  // Enumerator values must be dense 0..4 since they index arrays.
  for (std::size_t i = 0; i < kAllConnectivityRoles.size(); ++i) {
    EXPECT_EQ(static_cast<std::size_t>(kAllConnectivityRoles[i]), i);
  }
}

TEST(FormatConnectivity, UsesPaperNotation) {
  EXPECT_EQ(format_connectivity(SwitchKind::None, Multiplicity::Many,
                                Multiplicity::Many),
            "none");
  EXPECT_EQ(format_connectivity(SwitchKind::Direct, Multiplicity::One,
                                Multiplicity::One),
            "1-1");
  EXPECT_EQ(format_connectivity(SwitchKind::Direct, Multiplicity::One,
                                Multiplicity::Many),
            "1-n");
  EXPECT_EQ(format_connectivity(SwitchKind::Crossbar, Multiplicity::Many,
                                Multiplicity::Many),
            "nxn");
  EXPECT_EQ(format_connectivity(SwitchKind::Crossbar, Multiplicity::Variable,
                                Multiplicity::Variable),
            "vxv");
}

struct CellCase {
  const char* cell;
  std::optional<SwitchKind> expected;
};

// Print the cell text, not the raw bytes of the struct: gtest would
// otherwise dump the `cell` pointer, and ctest names the discovered
// cases after that dump, so every run would get new test names.
void PrintTo(const CellCase& c, std::ostream* os) {
  *os << '"' << c.cell << "\" -> "
      << (c.expected ? to_string(*c.expected) : "nullopt");
}

class SwitchKindFromCell : public ::testing::TestWithParam<CellCase> {};

TEST_P(SwitchKindFromCell, ParsesTableCells) {
  EXPECT_EQ(switch_kind_from_cell(GetParam().cell), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    PaperCells, SwitchKindFromCell,
    ::testing::Values(
        // Every distinct cell syntax that appears in Table I / Table III.
        CellCase{"none", SwitchKind::None},
        CellCase{"1-1", SwitchKind::Direct},
        CellCase{"1-n", SwitchKind::Direct},
        CellCase{"n-n", SwitchKind::Direct},
        CellCase{"n-1", SwitchKind::Direct},
        CellCase{"64-1", SwitchKind::Direct},
        CellCase{"48-48", SwitchKind::Direct},
        CellCase{"1-24n", SwitchKind::Direct},
        CellCase{"nxn", SwitchKind::Crossbar},
        CellCase{"vxv", SwitchKind::Crossbar},
        CellCase{"64x64", SwitchKind::Crossbar},
        CellCase{"5x10", SwitchKind::Crossbar},
        CellCase{"22x1", SwitchKind::Crossbar},
        CellCase{"16x6", SwitchKind::Crossbar},
        CellCase{"nx14", SwitchKind::Crossbar},
        CellCase{"nxm", SwitchKind::Crossbar},
        CellCase{"24nx24n", SwitchKind::Crossbar},
        CellCase{"24nx1", SwitchKind::Crossbar}));

INSTANTIATE_TEST_SUITE_P(
    Malformed, SwitchKindFromCell,
    ::testing::Values(CellCase{"", std::nullopt},
                      CellCase{"x", std::nullopt},
                      CellCase{"-", std::nullopt},
                      CellCase{"x64", std::nullopt},
                      CellCase{"64x", std::nullopt},
                      CellCase{"a!b", std::nullopt}));

}  // namespace
}  // namespace mpct
