#ifndef AVDB_BASE_RATIONAL_H_
#define AVDB_BASE_RATIONAL_H_

#include <cstdint>
#include <ostream>
#include <string>

namespace avdb {

/// Exact rational number over int64. Media timing is full of non-binary
/// rates (NTSC's 30000/1001 fps, 44.1 kHz audio against 25 fps video), so
/// the temporal substrate computes in rationals and converts to ticks only
/// at device boundaries. Always stored in lowest terms with positive
/// denominator.
class Rational {
 public:
  /// Zero.
  Rational() : num_(0), den_(1) {}
  /// Integer value.
  Rational(int64_t value) : num_(value), den_(1) {}  // NOLINT(runtime/explicit): ints are exact rationals
  /// num/den; den must be nonzero (checked).
  Rational(int64_t num, int64_t den);

  int64_t num() const { return num_; }
  int64_t den() const { return den_; }

  bool IsZero() const { return num_ == 0; }
  bool IsNegative() const { return num_ < 0; }

  double ToDouble() const { return static_cast<double>(num_) / den_; }

  /// Truncation toward zero.
  int64_t Truncated() const { return num_ / den_; }
  /// Largest integer <= value.
  int64_t Floor() const;
  /// Smallest integer >= value.
  int64_t Ceil() const;
  /// Nearest integer, halves away from zero.
  int64_t Rounded() const;

  Rational operator-() const { return Rational(-num_, den_); }
  Rational operator+(const Rational& o) const;
  Rational operator-(const Rational& o) const;
  Rational operator*(const Rational& o) const;
  /// Division; `o` must be nonzero (checked).
  Rational operator/(const Rational& o) const;

  Rational& operator+=(const Rational& o) { return *this = *this + o; }
  Rational& operator-=(const Rational& o) { return *this = *this - o; }
  Rational& operator*=(const Rational& o) { return *this = *this * o; }
  Rational& operator/=(const Rational& o) { return *this = *this / o; }

  Rational Reciprocal() const;
  Rational Abs() const { return num_ < 0 ? -*this : *this; }

  friend bool operator==(const Rational& a, const Rational& b) {
    return a.num_ == b.num_ && a.den_ == b.den_;
  }
  friend bool operator!=(const Rational& a, const Rational& b) {
    return !(a == b);
  }
  friend bool operator<(const Rational& a, const Rational& b);
  friend bool operator<=(const Rational& a, const Rational& b) {
    return a == b || a < b;
  }
  friend bool operator>(const Rational& a, const Rational& b) { return b < a; }
  friend bool operator>=(const Rational& a, const Rational& b) {
    return b <= a;
  }

  /// "num/den", or just "num" when integral.
  std::string ToString() const;

 private:
  void Normalize();

  int64_t num_;
  int64_t den_;
};

std::ostream& operator<<(std::ostream& os, const Rational& r);

}  // namespace avdb

#endif  // AVDB_BASE_RATIONAL_H_
