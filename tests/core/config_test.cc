#include "core/config.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace odh::core {
namespace {

OdhOptions SmallGroups() {
  OdhOptions options;
  options.mg_group_size = 4;
  return options;
}

TEST(ConfigTest, DefineAndFindSchemaTypes) {
  ConfigComponent config{OdhOptions{}};
  int a = config.DefineSchemaType({"environ", {"temp", "wind"}, {}}).value();
  int b = config.DefineSchemaType({"trade", {"price"}, {}}).value();
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(config.FindSchemaType("trade").value(), 1);
  EXPECT_TRUE(config.FindSchemaType("nope").status().IsNotFound());
  EXPECT_EQ(config.GetSchemaType(a).value()->tag_names.size(), 2u);
  EXPECT_TRUE(config.GetSchemaType(9).status().IsNotFound());
  EXPECT_TRUE(config.DefineSchemaType({"trade", {"x"}, {}})
                  .status()
                  .code() == StatusCode::kAlreadyExists);
  EXPECT_TRUE(config.DefineSchemaType({"", {}, {}})
                  .status()
                  .IsInvalidArgument());
}

TEST(ConfigTest, SourceClassification) {
  ConfigComponent config{OdhOptions{}};
  int type = config.DefineSchemaType({"t", {"v"}, {}}).value();
  // 50 Hz regular -> regular high frequency.
  ASSERT_TRUE(
      config.RegisterSource(1, type, kMicrosPerSecond / 50, true).ok());
  EXPECT_EQ(config.GetSource(1).value()->source_class,
            SourceClass::kRegularHighFrequency);
  // 10 Hz irregular -> irregular high frequency.
  ASSERT_TRUE(
      config.RegisterSource(2, type, kMicrosPerSecond / 10, false).ok());
  EXPECT_EQ(config.GetSource(2).value()->source_class,
            SourceClass::kIrregularHighFrequency);
  // 15-minute meter -> regular low frequency.
  ASSERT_TRUE(config.RegisterSource(3, type, 15 * kMicrosPerMinute, true)
                  .ok());
  EXPECT_EQ(config.GetSource(3).value()->source_class,
            SourceClass::kRegularLowFrequency);
  // 23-minute weather station, irregular -> irregular low frequency.
  ASSERT_TRUE(config.RegisterSource(4, type, 23 * kMicrosPerMinute, false)
                  .ok());
  EXPECT_EQ(config.GetSource(4).value()->source_class,
            SourceClass::kIrregularLowFrequency);
}

TEST(ConfigTest, ExactlyOneHzIsHighFrequency) {
  ConfigComponent config{OdhOptions{}};
  int type = config.DefineSchemaType({"t", {"v"}, {}}).value();
  ASSERT_TRUE(config.RegisterSource(1, type, kMicrosPerSecond, true).ok());
  EXPECT_TRUE(IsHighFrequency(config.GetSource(1).value()->source_class));
}

TEST(ConfigTest, RegistrationValidation) {
  ConfigComponent config{OdhOptions{}};
  int type = config.DefineSchemaType({"t", {"v"}, {}}).value();
  EXPECT_TRUE(config.RegisterSource(1, 99, 100, true).IsInvalidArgument());
  EXPECT_TRUE(config.RegisterSource(1, type, 0, true).IsInvalidArgument());
  ASSERT_TRUE(config.RegisterSource(1, type, 100, true).ok());
  EXPECT_EQ(config.RegisterSource(1, type, 100, true).code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(config.GetSource(77).status().IsNotFound());
}

TEST(ConfigTest, MgGroupAssignment) {
  ConfigComponent config{SmallGroups()};
  int type = config.DefineSchemaType({"meters", {"kwh"}, {}}).value();
  // 10 low-frequency sources with group size 4 -> groups 0,0,0,0,1,...,2.
  for (SourceId id = 0; id < 10; ++id) {
    ASSERT_TRUE(
        config.RegisterSource(id, type, 15 * kMicrosPerMinute, true).ok());
  }
  EXPECT_EQ(config.GetSource(0).value()->group, 0);
  EXPECT_EQ(config.GetSource(3).value()->group, 0);
  EXPECT_EQ(config.GetSource(4).value()->group, 1);
  EXPECT_EQ(config.GetSource(9).value()->group, 2);
  std::vector<int64_t> groups = config.GroupsOf(type);
  EXPECT_EQ(groups, (std::vector<int64_t>{0, 1, 2}));
}

TEST(ConfigTest, HighFrequencySourcesGetNoGroup) {
  ConfigComponent config{SmallGroups()};
  int type = config.DefineSchemaType({"pmu", {"v"}, {}}).value();
  ASSERT_TRUE(config.RegisterSource(1, type, 20000, true).ok());
  EXPECT_TRUE(config.GroupsOf(type).empty());
}

TEST(ConfigTest, SourcesOfFiltersByType) {
  ConfigComponent config{OdhOptions{}};
  int a = config.DefineSchemaType({"a", {"v"}, {}}).value();
  int b = config.DefineSchemaType({"b", {"v"}, {}}).value();
  ASSERT_TRUE(config.RegisterSource(1, a, 100, true).ok());
  ASSERT_TRUE(config.RegisterSource(2, b, 100, true).ok());
  ASSERT_TRUE(config.RegisterSource(3, a, 100, true).ok());
  EXPECT_EQ(config.SourcesOf(a), (std::vector<SourceId>{1, 3}));
  EXPECT_EQ(config.SourcesOf(b), (std::vector<SourceId>{2}));
}

TEST(ConfigTest, SourcesOfIsAscendingWhateverTheRegistrationOrder) {
  ConfigComponent config{SmallGroups()};
  int a = config.DefineSchemaType({"a", {"v"}, {}}).value();
  int b = config.DefineSchemaType({"b", {"v"}, {}}).value();
  std::vector<SourceId> want_a, want_b;
  // Descending, striped across the types, high and low frequency mixed.
  for (SourceId id = 5000; id > 0; id -= 7) {
    const int type = id % 2 == 0 ? a : b;
    const Timestamp interval = id % 3 == 0 ? kMicrosPerMinute : 1000;
    ASSERT_TRUE(config.RegisterSource(id, type, interval, true).ok());
    (type == a ? want_a : want_b).push_back(id);
  }
  std::sort(want_a.begin(), want_a.end());
  std::sort(want_b.begin(), want_b.end());
  EXPECT_EQ(config.SourcesOf(a), want_a);
  EXPECT_EQ(config.SourcesOf(b), want_b);
}

}  // namespace
}  // namespace odh::core
