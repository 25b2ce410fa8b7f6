// Strict integer parsing for outside input — flag values and environment
// variables. Digits only: no sign, no blanks, no trailing garbage, and the
// value must fit a size_t. A malformed value is a ModelError that names
// its source (`name`, e.g. "--jobs" or "MECSCHED_JOBS"), never a silent
// fallback: strtoul alone accepts "-1" (wrapping to 2^64-1) and "4abc".
#pragma once

#include <cstddef>
#include <string>

namespace mecsched {

// A non-negative integer.
std::size_t parse_count(const std::string& name, const std::string& text);
// A positive integer.
std::size_t parse_positive_count(const std::string& name,
                                 const std::string& text);

}  // namespace mecsched
