#include "common/parse.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <limits>

#include "common/error.h"

namespace mecsched {

namespace {

std::size_t parse_digits(const std::string& name, const std::string& text,
                         const std::string& wants) {
  const bool digits =
      !text.empty() && std::all_of(text.begin(), text.end(), [](char c) {
        return std::isdigit(static_cast<unsigned char>(c)) != 0;
      });
  MECSCHED_REQUIRE(digits, name + " wants a " + wants + ", got '" + text +
                               "'");
  errno = 0;
  const unsigned long long n = std::strtoull(text.c_str(), nullptr, 10);
  MECSCHED_REQUIRE(errno != ERANGE &&
                       n <= std::numeric_limits<std::size_t>::max(),
                   name + " is out of range: " + text);
  return static_cast<std::size_t>(n);
}

}  // namespace

std::size_t parse_count(const std::string& name, const std::string& text) {
  return parse_digits(name, text, "non-negative integer");
}

std::size_t parse_positive_count(const std::string& name,
                                 const std::string& text) {
  const std::size_t n = parse_digits(name, text, "positive integer");
  MECSCHED_REQUIRE(n > 0, name + " wants a positive integer, got '" + text +
                              "'");
  return n;
}

}  // namespace mecsched
