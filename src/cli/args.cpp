#include "cli/args.h"

#include <cmath>
#include <stdexcept>

#include "common/error.h"
#include "common/parse.h"

namespace mecsched::cli {

ArgParser::ArgParser(std::set<std::string> allowed_flags,
                     std::set<std::string> allowed_switches)
    : allowed_flags_(std::move(allowed_flags)),
      allowed_switches_(std::move(allowed_switches)) {}

void ArgParser::parse(const std::vector<std::string>& tokens) {
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& tok = tokens[i];
    MECSCHED_REQUIRE(tok.rfind("--", 0) == 0, "expected --flag, got: " + tok);
    const std::string name = tok.substr(2);
    if (allowed_switches_.count(name) > 0) {
      switches_.insert(name);
      continue;
    }
    MECSCHED_REQUIRE(allowed_flags_.count(name) > 0, "unknown flag: " + tok);
    MECSCHED_REQUIRE(i + 1 < tokens.size(), "flag needs a value: " + tok);
    values_[name] = tokens[++i];
  }
}

bool ArgParser::has(const std::string& flag) const {
  return values_.count(flag) > 0;
}

std::string ArgParser::get(const std::string& flag,
                           const std::string& fallback) const {
  const auto it = values_.find(flag);
  return it == values_.end() ? fallback : it->second;
}

double ArgParser::get_num(const std::string& flag, double fallback) const {
  const auto it = values_.find(flag);
  if (it == values_.end()) return fallback;
  try {
    std::size_t used = 0;
    const double v = std::stod(it->second, &used);
    MECSCHED_REQUIRE(used == it->second.size(),
                     "not a number: --" + flag + " " + it->second);
    // std::stod happily parses "nan", "inf" and overflows to ±inf; none of
    // those is a meaningful value for any mecsched flag.
    MECSCHED_REQUIRE(std::isfinite(v),
                     "--" + flag + " wants a finite number, got '" +
                         it->second + "'");
    return v;
  } catch (const std::logic_error&) {
    throw ModelError("not a number: --" + flag + " " + it->second);
  }
}

std::size_t ArgParser::get_count(const std::string& flag,
                                 std::size_t fallback) const {
  const auto it = values_.find(flag);
  return it == values_.end() ? fallback : parse_count("--" + flag, it->second);
}

double ArgParser::get_positive_num(const std::string& flag,
                                   double fallback) const {
  const double v = get_num(flag, fallback);
  MECSCHED_REQUIRE(v > 0.0, "--" + flag + " wants a positive number, got '" +
                                get(flag, "") + "'");
  return v;
}

double ArgParser::get_probability(const std::string& flag,
                                  double fallback) const {
  const double v = get_num(flag, fallback);
  MECSCHED_REQUIRE(v >= 0.0 && v <= 1.0,
                   "--" + flag + " wants a probability in [0, 1], got '" +
                       get(flag, "") + "'");
  return v;
}

bool ArgParser::get_switch(const std::string& name) const {
  return switches_.count(name) > 0;
}

}  // namespace mecsched::cli
