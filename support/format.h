// Small string-formatting helpers shared by the tables and benches.
#pragma once

#include <sstream>
#include <string>

namespace pops {

/// Fixed-point rendering with the given number of decimals ("3.14").
std::string format_double(double value, int decimals);

/// Concatenates all arguments with operator<<.
template <typename... Args>
std::string str_cat(const Args&... args) {
  std::ostringstream out;
  ((out << args), ...);
  return out.str();
}

}  // namespace pops
