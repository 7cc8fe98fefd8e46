#ifndef ODH_COMMON_DATUM_H_
#define ODH_COMMON_DATUM_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/types.h"

namespace odh {

/// Column data types understood by the relational and SQL layers.
/// kTimestamp is stored as microseconds since epoch (see types.h).
enum class DataType : uint8_t {
  kNull = 0,
  kBool,
  kInt64,
  kDouble,
  kString,
  kTimestamp,
};

std::string DataTypeName(DataType type);

/// A dynamically typed SQL value. NULL is represented by monostate.
class Datum {
 public:
  Datum() = default;  // NULL
  static Datum Null() { return Datum(); }
  static Datum Bool(bool v) { return Datum(Value(v)); }
  static Datum Int64(int64_t v) { return Datum(Value(v)); }
  static Datum Double(double v) { return Datum(Value(v)); }
  static Datum String(std::string v) { return Datum(Value(std::move(v))); }
  static Datum Time(Timestamp ts) { return Datum(Value(Micros{ts})); }

  bool is_null() const { return std::holds_alternative<std::monostate>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_int64() const { return std::holds_alternative<int64_t>(v_); }
  bool is_double() const { return std::holds_alternative<double>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_timestamp() const { return std::holds_alternative<Micros>(v_); }

  DataType type() const {
    if (is_null()) return DataType::kNull;
    if (is_bool()) return DataType::kBool;
    if (is_timestamp()) return DataType::kTimestamp;
    if (is_int64()) return DataType::kInt64;
    if (is_double()) return DataType::kDouble;
    return DataType::kString;
  }

  bool bool_value() const { return std::get<bool>(v_); }
  /// int64_value and timestamp_value read either integral type.
  int64_t int64_value() const { return IntegralValue(); }
  double double_value() const { return std::get<double>(v_); }
  const std::string& string_value() const { return std::get<std::string>(v_); }
  Timestamp timestamp_value() const { return IntegralValue(); }

  /// Numeric view: int64/double/timestamp/bool as double. Precondition:
  /// is_numeric().
  bool is_numeric() const {
    return is_bool() || is_integral() || is_double();
  }
  double AsDouble() const;

  /// SQL three-valued comparison. Returns false via *null_result when either
  /// side is NULL; otherwise sets *out to <0/0/>0. Type-mismatched numeric
  /// comparisons are widened to double; string vs non-string compares are
  /// an error signalled by returning false with *null_result=false.
  bool Compare(const Datum& other, int* out, bool* null_result) const;

  /// Equality used by containers/tests: NULL == NULL here (unlike SQL).
  bool operator==(const Datum& other) const;

  std::string ToString() const;

 private:
  /// A timestamp: its own alternative rather than an int64 plus a flag,
  /// which keeps a Datum at the size of its variant (40 bytes, not 48).
  struct Micros {
    int64_t value;
  };
  using Value = std::variant<std::monostate, bool, int64_t, double,
                             std::string, Micros>;
  explicit Datum(Value v) : v_(std::move(v)) {}

  bool is_integral() const { return is_int64() || is_timestamp(); }
  int64_t IntegralValue() const {
    const Micros* ts = std::get_if<Micros>(&v_);
    return ts != nullptr ? ts->value : std::get<int64_t>(v_);
  }

  Value v_;
};

using Row = std::vector<Datum>;

}  // namespace odh

#endif  // ODH_COMMON_DATUM_H_
