#include "flow/celllib.h"

#include <gtest/gtest.h>

namespace serdes::flow {
namespace {

TEST(CellLibrary, LookupByName) {
  const auto& lib = CellLibrary::sky130();
  const CellType& inv = lib.get("inv_x1");
  EXPECT_EQ(inv.function, CellFunction::kInv);
  EXPECT_EQ(inv.drive, 1);
  EXPECT_GT(inv.area.value(), 0.0);
  EXPECT_THROW((void)lib.get("nonexistent_x9"), std::out_of_range);
}

TEST(CellLibrary, DriveStrengthsScaleResistanceDown) {
  const auto& lib = CellLibrary::sky130();
  EXPECT_GT(lib.get("inv_x1").drive_resistance.value(),
            lib.get("inv_x4").drive_resistance.value());
  EXPECT_GT(lib.get("inv_x4").drive_resistance.value(),
            lib.get("inv_x8").drive_resistance.value());
}

TEST(CellLibrary, AreaGrowsWithDrive) {
  const auto& lib = CellLibrary::sky130();
  EXPECT_LT(lib.get("inv_x1").area.value(), lib.get("inv_x8").area.value());
}

TEST(CellLibrary, DelayModelLinearInLoad) {
  const auto& lib = CellLibrary::sky130();
  const CellType& buf = lib.get("buf_x2");
  const double d1 = buf.delay(util::femtofarads(10.0)).value();
  const double d2 = buf.delay(util::femtofarads(20.0)).value();
  const double d3 = buf.delay(util::femtofarads(30.0)).value();
  EXPECT_NEAR(d3 - d2, d2 - d1, 1e-15);
  EXPECT_GT(d1, buf.intrinsic_delay.value());
}

TEST(CellLibrary, SelectPicksSmallestSufficientDrive) {
  const auto& lib = CellLibrary::sky130();
  // Light load: x1 suffices.
  const CellType& light = lib.select(CellFunction::kInv,
                                     util::femtofarads(2.0),
                                     util::picoseconds(100.0));
  EXPECT_EQ(light.drive, 1);
  // Heavy load with a tight target needs more drive.
  const CellType& heavy = lib.select(CellFunction::kInv,
                                     util::femtofarads(200.0),
                                     util::picoseconds(100.0));
  EXPECT_GT(heavy.drive, 1);
}

TEST(CellLibrary, SelectFallsBackToStrongest) {
  const auto& lib = CellLibrary::sky130();
  const CellType& c = lib.select(CellFunction::kInv, util::picofarads(100.0),
                                 util::picoseconds(1.0));
  EXPECT_EQ(c.drive, lib.strongest(CellFunction::kInv).drive);
}

TEST(CellLibrary, WeakestAndStrongest) {
  const auto& lib = CellLibrary::sky130();
  EXPECT_EQ(lib.weakest(CellFunction::kNand2).drive, 1);
  EXPECT_EQ(lib.strongest(CellFunction::kNand2).drive, 8);
  // Flops only come in x1/x2 in this library.
  EXPECT_LE(lib.strongest(CellFunction::kDff).drive, 2);
}

TEST(CellLibrary, InputCounts) {
  EXPECT_EQ(input_count(CellFunction::kInv), 1);
  EXPECT_EQ(input_count(CellFunction::kNand2), 2);
  EXPECT_EQ(input_count(CellFunction::kMux2), 3);
  EXPECT_EQ(input_count(CellFunction::kDff), 2);
  EXPECT_EQ(input_count(CellFunction::kTieLo), 0);
}

TEST(CellLibrary, DffTimingSane) {
  const auto& lib = CellLibrary::sky130();
  EXPECT_GT(lib.dff_timing().setup.value(), 0.0);
  EXPECT_GT(lib.dff_timing().hold.value(), 0.0);
  EXPECT_LT(lib.dff_timing().setup.value(), 1e-9);
}

TEST(CellLibrary, RowHeightAndVdd) {
  const auto& lib = CellLibrary::sky130();
  EXPECT_NEAR(lib.row_height_um(), 2.72, 1e-9);
  EXPECT_NEAR(lib.vdd().value(), 1.8, 1e-9);
}

TEST(CellLibrary, FunctionNames) {
  EXPECT_EQ(to_string(CellFunction::kDff), "dff");
  EXPECT_EQ(to_string(CellFunction::kClkBuf), "clkbuf");
}

}  // namespace
}  // namespace serdes::flow
