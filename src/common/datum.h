#ifndef ODH_COMMON_DATUM_H_
#define ODH_COMMON_DATUM_H_

#include <cstdint>
#include <string>
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

/// A dynamically typed SQL value: 16 bytes, a one-byte type tag beside
/// an 8-byte payload. Bools, integers, doubles and timestamps live in the
/// payload; a string lives out of line in its own heap-allocated
/// std::string that the Datum owns, and copies deep-copy it. A
/// moved-from Datum is NULL.
class Datum {
 public:
  Datum() = default;  // NULL
  Datum(const Datum& other) : payload_(other.payload_), type_(other.type_) {
    if (type_ == DataType::kString) payload_.str = CopyString(other);
  }
  Datum(Datum&& other) noexcept
      : payload_(other.payload_), type_(other.type_) {
    other.type_ = DataType::kNull;
  }
  Datum& operator=(const Datum& other);
  Datum& operator=(Datum&& other) noexcept {
    if (this != &other) {
      FreeString();
      payload_ = other.payload_;
      type_ = other.type_;
      other.type_ = DataType::kNull;
    }
    return *this;
  }
  ~Datum() { FreeString(); }

  static Datum Null() { return Datum(); }
  static Datum Bool(bool v) {
    Payload p;
    p.b = v;
    return Datum(DataType::kBool, p);
  }
  static Datum Int64(int64_t v) { return Datum(DataType::kInt64, Payload{v}); }
  static Datum Double(double v) {
    Payload p;
    p.d = v;
    return Datum(DataType::kDouble, p);
  }
  static Datum String(std::string v) {
    Payload p;
    p.str = new std::string(std::move(v));
    return Datum(DataType::kString, p);
  }
  static Datum Time(Timestamp ts) {
    return Datum(DataType::kTimestamp, Payload{ts});
  }

  bool is_null() const { return type_ == DataType::kNull; }
  bool is_bool() const { return type_ == DataType::kBool; }
  bool is_int64() const { return type_ == DataType::kInt64; }
  bool is_double() const { return type_ == DataType::kDouble; }
  bool is_string() const { return type_ == DataType::kString; }
  bool is_timestamp() const { return type_ == DataType::kTimestamp; }

  DataType type() const { return type_; }

  bool bool_value() const {
    if (!is_bool()) BadAccess(DataType::kBool);
    return payload_.b;
  }
  /// int64_value and timestamp_value read either integral type.
  int64_t int64_value() const { return IntegralValue(); }
  double double_value() const {
    if (!is_double()) BadAccess(DataType::kDouble);
    return payload_.d;
  }
  const std::string& string_value() const {
    if (!is_string()) BadAccess(DataType::kString);
    return *payload_.str;
  }
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
  /// The live member follows type_: i (kInt64, kTimestamp), b (kBool),
  /// d (kDouble), str (kString, owned); none for kNull.
  union Payload {
    int64_t i = 0;
    bool b;
    double d;
    std::string* str;
  };
  Datum(DataType type, Payload payload) : payload_(payload), type_(type) {}

  /// Aborts the program: a typed accessor was called on a Datum holding
  /// another type. That is a bug in the caller, never a data error.
  [[noreturn]] void BadAccess(DataType wanted) const;

  static std::string* CopyString(const Datum& other) {
    return new std::string(*other.payload_.str);
  }
  void FreeString() {
    if (type_ == DataType::kString) delete payload_.str;
  }

  bool is_integral() const { return is_int64() || is_timestamp(); }
  int64_t IntegralValue() const {
    if (!is_integral()) BadAccess(DataType::kInt64);
    return payload_.i;
  }

  Payload payload_;
  DataType type_ = DataType::kNull;
};

static_assert(sizeof(Datum) == 16, "a Datum is a tag beside an 8-byte payload");

using Row = std::vector<Datum>;

}  // namespace odh

#endif  // ODH_COMMON_DATUM_H_
