#include "common/datum.h"

#include <cstdio>

namespace odh {

std::string DataTypeName(DataType type) {
  switch (type) {
    case DataType::kNull:
      return "NULL";
    case DataType::kBool:
      return "BOOL";
    case DataType::kInt64:
      return "BIGINT";
    case DataType::kDouble:
      return "DOUBLE";
    case DataType::kString:
      return "VARCHAR";
    case DataType::kTimestamp:
      return "TIMESTAMP";
  }
  return "?";
}

double Datum::AsDouble() const {
  if (is_bool()) return bool_value() ? 1.0 : 0.0;
  if (is_integral()) return static_cast<double>(IntegralValue());
  return double_value();
}

bool Datum::Compare(const Datum& other, int* out, bool* null_result) const {
  *null_result = false;
  if (is_null() || other.is_null()) {
    *null_result = true;
    return true;
  }
  if (is_string() != other.is_string()) return false;
  if (is_string()) {
    int c = string_value().compare(other.string_value());
    *out = c < 0 ? -1 : (c > 0 ? 1 : 0);
    return true;
  }
  // Fast path: both integral (int64 or timestamp).
  if (is_integral() && other.is_integral()) {
    int64_t a = IntegralValue(), b = other.IntegralValue();
    *out = a < b ? -1 : (a > b ? 1 : 0);
    return true;
  }
  double a = AsDouble(), b = other.AsDouble();
  *out = a < b ? -1 : (a > b ? 1 : 0);
  return true;
}

bool Datum::operator==(const Datum& other) const {
  if (is_null() && other.is_null()) return true;
  if (is_null() || other.is_null()) return false;
  int c;
  bool null_result;
  if (!Compare(other, &c, &null_result)) return false;
  return !null_result && c == 0;
}

std::string Datum::ToString() const {
  switch (type()) {
    case DataType::kNull:
      return "NULL";
    case DataType::kBool:
      return bool_value() ? "true" : "false";
    case DataType::kInt64:
      return std::to_string(int64_value());
    case DataType::kDouble: {
      char buf[32];
      snprintf(buf, sizeof(buf), "%.6g", double_value());
      return buf;
    }
    case DataType::kString:
      return string_value();
    case DataType::kTimestamp:
      return FormatTimestamp(timestamp_value());
  }
  return "?";
}

}  // namespace odh
