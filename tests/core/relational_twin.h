#ifndef ODH_TESTS_CORE_RELATIONAL_TWIN_H_
#define ODH_TESTS_CORE_RELATIONAL_TWIN_H_

// A relational twin of a virtual table: a plain table holding the same
// rows. The relational provider has no pushdown, no batches and no blob
// summaries, so the engine's row-at-a-time answer over the twin is the
// reference that scans and aggregates over the virtual table must match.

#include <string>

#include "common/logging.h"
#include "core/odh.h"
#include "sql/session.h"

namespace odh::core {

/// Creates table `twin` with the columns of `vti` and copies into it every
/// row a full scan of `vti` returns.
inline void MakeRelationalTwin(OdhSystem* odh, const std::string& vti,
                               const std::string& twin) {
  auto provider = odh->engine()->catalog()->Resolve(vti);
  ODH_CHECK_OK(provider.status());
  std::string ddl = "CREATE TABLE " + twin + " (";
  std::string marks;
  const auto& columns = (*provider)->schema().columns();
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) {
      ddl += ", ";
      marks += ", ";
    }
    ddl += columns[i].name;
    switch (columns[i].type) {
      case DataType::kInt64:
        ddl += " BIGINT";
        break;
      case DataType::kTimestamp:
        ddl += " TIMESTAMP";
        break;
      default:
        ddl += " DOUBLE";
        break;
    }
    marks += "?";
  }
  sql::Session session(odh->engine());
  ODH_CHECK_OK(session.Execute(ddl + ")").status());
  auto insert =
      session.Prepare("INSERT INTO " + twin + " VALUES (" + marks + ")");
  ODH_CHECK_OK(insert.status());
  auto rows = session.Execute("SELECT * FROM " + vti);
  ODH_CHECK_OK(rows.status());
  for (const Row& row : rows->rows) {
    ODH_CHECK_OK(session.ExecutePrepared(*insert, row).status());
  }
}

/// `s` with every occurrence of `from` replaced by `to`: turns a query
/// over the virtual table into the same query over its twin
/// ("FROM m_v" -> "FROM m_r"), or an id equality into a range the
/// pushdown does not absorb ("id = 1" -> "id BETWEEN 1 AND 1").
inline std::string ReplaceAll(std::string s, const std::string& from,
                              const std::string& to) {
  for (size_t at = s.find(from); at != std::string::npos;
       at = s.find(from, at + to.size())) {
    s.replace(at, from.size(), to);
  }
  return s;
}

}  // namespace odh::core

#endif  // ODH_TESTS_CORE_RELATIONAL_TWIN_H_
