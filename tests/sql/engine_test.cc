#include "sql/engine.h"

#include <gtest/gtest.h>

#include "common/logging.h"

namespace odh::sql {
namespace {

/// Fixture with the paper's TD-style schema loaded through SQL DDL/DML.
class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : db_(relational::EngineProfile::Rdb()), engine_(&db_) {
    Exec("CREATE TABLE customer (c_id BIGINT, c_l_name VARCHAR, "
         "c_f_name VARCHAR, c_tier BIGINT, c_dob TIMESTAMP)");
    Exec("CREATE TABLE account (ca_id BIGINT, ca_c_id BIGINT, "
         "ca_name VARCHAR, ca_bal DOUBLE)");
    Exec("CREATE TABLE trade (t_dts TIMESTAMP, t_ca_id BIGINT, "
         "t_trade_price DOUBLE, t_chrg DOUBLE)");
    Exec("CREATE INDEX trade_by_dts ON trade (t_dts)");
    Exec("CREATE INDEX trade_by_ca ON trade (t_ca_id)");
    Exec("CREATE INDEX account_by_id ON account (ca_id)");

    Exec("INSERT INTO customer VALUES "
         "(1, 'Smith', 'Al', 1, '1970-06-01 00:00:00'), "
         "(2, 'Jones', 'Bo', 2, '1985-03-04 00:00:00')");
    Exec("INSERT INTO account VALUES "
         "(10, 1, 'AcctA', 100.0), (11, 1, 'AcctB', 250.0), "
         "(20, 2, 'AcctC', 75.0)");
    Exec("INSERT INTO trade VALUES "
         "('2013-11-18 10:00:00', 10, 5.0, 0.10), "
         "('2013-11-18 10:00:01', 10, 5.5, 0.11), "
         "('2013-11-18 10:00:02', 11, 6.0, 0.12), "
         "('2013-11-18 10:00:03', 20, 7.0, 0.13), "
         "('2013-11-19 10:00:00', 20, 8.0, 0.14)");
  }

  QueryResult Exec(const std::string& sql) {
    auto result = engine_.Execute(sql);
    if (!result.ok()) {
      ADD_FAILURE() << sql << " -> " << result.status().ToString();
      return QueryResult{};
    }
    return std::move(result).value();
  }

  relational::Database db_;
  SqlEngine engine_;
};

TEST_F(EngineTest, SelectStarFullTable) {
  QueryResult r = Exec("SELECT * FROM trade");
  EXPECT_EQ(r.rows.size(), 5u);
  EXPECT_EQ(r.columns.size(), 4u);
  EXPECT_EQ(r.columns[0], "t_dts");
}

TEST_F(EngineTest, HistoricalQueryTQ1) {
  QueryResult r = Exec("SELECT * FROM trade WHERE t_ca_id = 10");
  EXPECT_EQ(r.rows.size(), 2u);
  for (const Row& row : r.rows) EXPECT_EQ(row[1], Datum::Int64(10));
}

TEST_F(EngineTest, SliceQueryTQ2) {
  QueryResult r = Exec(
      "SELECT * FROM trade WHERE t_dts BETWEEN '2013-11-18 00:00:00' AND "
      "'2013-11-18 23:59:59'");
  EXPECT_EQ(r.rows.size(), 4u);
}

TEST_F(EngineTest, ProjectionAndArithmetic) {
  QueryResult r = Exec(
      "SELECT t_trade_price * 2 AS double_price FROM trade "
      "WHERE t_ca_id = 20 ORDER BY double_price");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.columns[0], "double_price");
  EXPECT_DOUBLE_EQ(r.rows[0][0].double_value(), 14.0);
  EXPECT_DOUBLE_EQ(r.rows[1][0].double_value(), 16.0);
}

TEST_F(EngineTest, JoinTQ3SingleDataSource) {
  QueryResult r = Exec(
      "SELECT t_dts, t_chrg FROM trade t, account a "
      "WHERE a.ca_id = t.t_ca_id AND a.ca_name = 'AcctA'");
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST_F(EngineTest, ThreeWayJoinTQ4) {
  QueryResult r = Exec(
      "SELECT ca_name, t_dts, t_chrg FROM trade t, account a, customer c "
      "WHERE a.ca_id = t.t_ca_id AND a.ca_c_id = c.c_id AND "
      "c_dob BETWEEN '1960-01-01 00:00:00' AND '1980-01-01 00:00:00'");
  // Customer 1 (dob 1970) owns accounts 10 and 11 -> 3 trades.
  EXPECT_EQ(r.rows.size(), 3u);
  for (const Row& row : r.rows) {
    EXPECT_TRUE(row[0].string_value() == "AcctA" ||
                row[0].string_value() == "AcctB");
  }
}

TEST_F(EngineTest, CountAndAggregates) {
  QueryResult r = Exec(
      "SELECT COUNT(*), SUM(t_trade_price), MIN(t_trade_price), "
      "MAX(t_trade_price), AVG(t_trade_price) FROM trade");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0], Datum::Int64(5));
  EXPECT_DOUBLE_EQ(r.rows[0][1].double_value(), 31.5);
  EXPECT_DOUBLE_EQ(r.rows[0][2].double_value(), 5.0);
  EXPECT_DOUBLE_EQ(r.rows[0][3].double_value(), 8.0);
  EXPECT_DOUBLE_EQ(r.rows[0][4].double_value(), 6.3);
}

TEST_F(EngineTest, GroupBy) {
  QueryResult r = Exec(
      "SELECT t_ca_id, COUNT(*), AVG(t_trade_price) FROM trade "
      "GROUP BY t_ca_id ORDER BY t_ca_id");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0], Datum::Int64(10));
  EXPECT_EQ(r.rows[0][1], Datum::Int64(2));
  EXPECT_EQ(r.rows[2][0], Datum::Int64(20));
  EXPECT_DOUBLE_EQ(r.rows[2][2].double_value(), 7.5);
}

TEST_F(EngineTest, AggregateOverEmptyInput) {
  QueryResult r =
      Exec("SELECT COUNT(*), SUM(t_chrg) FROM trade WHERE t_ca_id = 999");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0], Datum::Int64(0));
  EXPECT_TRUE(r.rows[0][1].is_null());
}

TEST_F(EngineTest, OrderByDescAndLimit) {
  QueryResult r = Exec(
      "SELECT t_trade_price FROM trade ORDER BY t_trade_price DESC LIMIT 2");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_DOUBLE_EQ(r.rows[0][0].double_value(), 8.0);
  EXPECT_DOUBLE_EQ(r.rows[1][0].double_value(), 7.0);
}

TEST_F(EngineTest, OrMakesResidualFilter) {
  QueryResult r = Exec(
      "SELECT * FROM trade WHERE t_ca_id = 10 OR t_ca_id = 20");
  EXPECT_EQ(r.rows.size(), 4u);
}

TEST_F(EngineTest, IsNullPredicate) {
  Exec("INSERT INTO trade (t_dts, t_ca_id) VALUES ('2013-11-20 00:00:00', 99)");
  QueryResult r =
      Exec("SELECT * FROM trade WHERE t_trade_price IS NULL");
  EXPECT_EQ(r.rows.size(), 1u);
  QueryResult r2 =
      Exec("SELECT COUNT(*) FROM trade WHERE t_trade_price IS NOT NULL");
  EXPECT_EQ(r2.rows[0][0], Datum::Int64(5));
}

TEST_F(EngineTest, ComparisonsAgainstNullNeverMatch) {
  Exec("INSERT INTO trade (t_dts, t_ca_id) VALUES ('2013-11-21 00:00:00', 7)");
  QueryResult r = Exec("SELECT * FROM trade WHERE t_trade_price < 100");
  EXPECT_EQ(r.rows.size(), 5u);  // NULL price rows excluded.
}

TEST_F(EngineTest, DataPointCountCountsNonNullCells) {
  QueryResult r = Exec("SELECT t_dts, t_trade_price FROM trade");
  EXPECT_EQ(r.DataPointCount(), 10);
}

TEST_F(EngineTest, UnknownTableAndColumnErrors) {
  EXPECT_TRUE(engine_.Execute("SELECT * FROM nope").status().IsNotFound());
  EXPECT_TRUE(engine_.Execute("SELECT nope FROM trade")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(engine_.Execute("SELECT t_dts FROM trade, trade")
                  .status()
                  .IsInvalidArgument());  // Duplicate alias.
}

TEST_F(EngineTest, AmbiguousColumnRejected) {
  // ca_id exists only in account, but c_id vs ca_c_id are distinct; create
  // ambiguity via two aliases of the same table.
  auto status =
      engine_.Execute("SELECT ca_id FROM account a, account b").status();
  EXPECT_TRUE(status.IsInvalidArgument());
}

TEST_F(EngineTest, InsertTypeMismatchRejected) {
  EXPECT_FALSE(engine_.Execute("INSERT INTO trade VALUES (1,2,3,4,5)").ok());
  EXPECT_FALSE(
      engine_.Execute("INSERT INTO account VALUES ('x', 1, 'n', 1.0)").ok());
}

TEST_F(EngineTest, ExplainShowsIndexScan) {
  std::string plan =
      engine_.Explain("SELECT * FROM trade WHERE t_ca_id = 10").value();
  EXPECT_NE(plan.find("Scan(trade"), std::string::npos);
  EXPECT_NE(plan.find("="), std::string::npos);
}

TEST_F(EngineTest, CrossJoinWithoutPredicate) {
  QueryResult r = Exec("SELECT c_id, ca_id FROM customer, account");
  EXPECT_EQ(r.rows.size(), 6u);  // 2 customers x 3 accounts.
}

TEST_F(EngineTest, GroupByValidation) {
  EXPECT_TRUE(engine_.Execute("SELECT t_ca_id, t_chrg FROM trade "
                              "GROUP BY t_ca_id")
                  .status()
                  .IsInvalidArgument());
}

TEST_F(EngineTest, TimestampCoercionInComparison) {
  QueryResult r =
      Exec("SELECT * FROM trade WHERE t_dts > '2013-11-19 00:00:00'");
  EXPECT_EQ(r.rows.size(), 1u);
}

TEST_F(EngineTest, DivisionByZeroYieldsNull) {
  QueryResult r = Exec("SELECT t_trade_price / 0 FROM trade LIMIT 1");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_TRUE(r.rows[0][0].is_null());
}

/// Two conjuncts on one column merge only by range intersection; an `=` on
/// either side stays a residual conjunct, so both must hold.
class ConjunctMergeTest : public EngineTest {
 protected:
  int64_t Count(const std::string& where) {
    QueryResult r = Exec("SELECT COUNT(*) FROM trade WHERE " + where);
    return r.rows.empty() ? -1 : r.rows[0][0].int64_value();
  }
};

TEST_F(ConjunctMergeTest, ContradictoryConjunctsReturnNoRows) {
  for (const char* where : {
           "t_ca_id = 10 AND t_ca_id = 20",
           "t_ca_id = 20 AND t_ca_id = 10",
           "t_ca_id = 10 AND t_ca_id >= 11",
           "t_ca_id >= 11 AND t_ca_id = 10",
           "t_chrg = 0.12 AND t_chrg > 0.5",
           "t_chrg > 0.5 AND t_chrg = 0.12",
           "t_dts = '2013-11-18 10:00:00' AND t_dts > '2013-11-19 00:00:00'",
           "t_ca_id > 11 AND t_ca_id < 11",
           "t_chrg >= 0.13 AND t_chrg <= 0.12",
       }) {
    EXPECT_EQ(Count(where), 0) << where;
    EXPECT_TRUE(Exec(std::string("SELECT * FROM trade WHERE ") + where)
                    .rows.empty())
        << where;
  }
}

TEST_F(ConjunctMergeTest, CompatibleConjunctsKeepTheirRows) {
  EXPECT_EQ(Count("t_ca_id = 10 AND t_ca_id = 10"), 2);
  EXPECT_EQ(Count("t_ca_id = 10 AND t_ca_id >= 10"), 2);
  EXPECT_EQ(Count("t_ca_id <= 11 AND t_ca_id = 11"), 1);
  EXPECT_EQ(Count("t_ca_id >= 10 AND t_ca_id < 20"), 3);
  EXPECT_EQ(Count("t_ca_id > 10 AND t_ca_id <= 11 AND t_ca_id >= 11"), 1);
  EXPECT_EQ(Count("t_chrg >= 0.12 AND t_chrg > 0.12"), 2);
}

}  // namespace
}  // namespace odh::sql
