#include "common/datum.h"

#include <gtest/gtest.h>

namespace odh {
namespace {

TEST(DatumTest, TypePredicates) {
  EXPECT_TRUE(Datum().is_null());
  EXPECT_TRUE(Datum::Bool(true).is_bool());
  EXPECT_TRUE(Datum::Int64(1).is_int64());
  EXPECT_TRUE(Datum::Double(1.5).is_double());
  EXPECT_TRUE(Datum::String("x").is_string());
  EXPECT_TRUE(Datum::Time(123).is_timestamp());
  // Timestamp is not a plain int64 and vice versa.
  EXPECT_FALSE(Datum::Time(123).is_int64());
  EXPECT_FALSE(Datum::Int64(123).is_timestamp());
  // Both integral accessors read either integral type.
  EXPECT_EQ(Datum::Time(123).int64_value(), 123);
  EXPECT_EQ(Datum::Int64(123).timestamp_value(), 123);
}

TEST(DatumTest, TypeEnum) {
  EXPECT_EQ(Datum().type(), DataType::kNull);
  EXPECT_EQ(Datum::Int64(1).type(), DataType::kInt64);
  EXPECT_EQ(Datum::Time(1).type(), DataType::kTimestamp);
  EXPECT_EQ(Datum::Double(1).type(), DataType::kDouble);
  EXPECT_EQ(Datum::String("").type(), DataType::kString);
  EXPECT_EQ(Datum::Bool(false).type(), DataType::kBool);
}

TEST(DatumTest, AsDouble) {
  EXPECT_DOUBLE_EQ(Datum::Int64(4).AsDouble(), 4.0);
  EXPECT_DOUBLE_EQ(Datum::Double(2.5).AsDouble(), 2.5);
  EXPECT_DOUBLE_EQ(Datum::Bool(true).AsDouble(), 1.0);
  EXPECT_DOUBLE_EQ(Datum::Time(77).AsDouble(), 77.0);
}

TEST(DatumTest, CompareNumeric) {
  int c;
  bool is_null;
  ASSERT_TRUE(Datum::Int64(1).Compare(Datum::Int64(2), &c, &is_null));
  EXPECT_FALSE(is_null);
  EXPECT_LT(c, 0);
  ASSERT_TRUE(Datum::Double(2.5).Compare(Datum::Int64(2), &c, &is_null));
  EXPECT_GT(c, 0);
  ASSERT_TRUE(Datum::Int64(5).Compare(Datum::Int64(5), &c, &is_null));
  EXPECT_EQ(c, 0);
}

TEST(DatumTest, CompareTimestampWithInt64) {
  int c;
  bool is_null;
  ASSERT_TRUE(Datum::Time(100).Compare(Datum::Int64(200), &c, &is_null));
  EXPECT_LT(c, 0);
}

TEST(DatumTest, CompareStrings) {
  int c;
  bool is_null;
  ASSERT_TRUE(
      Datum::String("abc").Compare(Datum::String("abd"), &c, &is_null));
  EXPECT_LT(c, 0);
}

TEST(DatumTest, CompareNullIsNull) {
  int c;
  bool is_null;
  ASSERT_TRUE(Datum::Null().Compare(Datum::Int64(1), &c, &is_null));
  EXPECT_TRUE(is_null);
  ASSERT_TRUE(Datum::Int64(1).Compare(Datum::Null(), &c, &is_null));
  EXPECT_TRUE(is_null);
}

TEST(DatumTest, CompareStringVsNumberFails) {
  int c;
  bool is_null;
  EXPECT_FALSE(Datum::String("1").Compare(Datum::Int64(1), &c, &is_null));
}

TEST(DatumTest, EqualityTreatsNullAsEqual) {
  EXPECT_EQ(Datum::Null(), Datum::Null());
  EXPECT_FALSE(Datum::Null() == Datum::Int64(0));
  EXPECT_EQ(Datum::Int64(3), Datum::Int64(3));
  EXPECT_EQ(Datum::String("x"), Datum::String("x"));
}

TEST(DatumTest, ToString) {
  EXPECT_EQ(Datum::Null().ToString(), "NULL");
  EXPECT_EQ(Datum::Int64(-7).ToString(), "-7");
  EXPECT_EQ(Datum::Bool(true).ToString(), "true");
  EXPECT_EQ(Datum::String("hey").ToString(), "hey");
}

TEST(TimestampTest, FormatAndParseRoundTrip) {
  Timestamp ts;
  ASSERT_TRUE(ParseTimestamp("2013-11-18 00:00:00", &ts));
  EXPECT_EQ(FormatTimestamp(ts), "2013-11-18 00:00:00");
  Timestamp ts2;
  ASSERT_TRUE(ParseTimestamp("2013-11-22 23:59:59", &ts2));
  EXPECT_GT(ts2, ts);
  EXPECT_EQ((ts2 - ts) / kMicrosPerSecond, 4 * 86400 + 86399);
}

TEST(TimestampTest, ParseRejectsGarbage) {
  Timestamp ts;
  EXPECT_FALSE(ParseTimestamp("not a time", &ts));
  EXPECT_FALSE(ParseTimestamp("2013-11-18", &ts));
}

TEST(TimestampTest, FormatWithMicros) {
  Timestamp ts;
  ASSERT_TRUE(ParseTimestamp("2020-01-01 00:00:00", &ts));
  EXPECT_EQ(FormatTimestamp(ts + 250000), "2020-01-01 00:00:00.250000");
}

}  // namespace
}  // namespace odh
