#include "serve/epoch_schedule.h"

#include <climits>
#include <cstdlib>

#include "core/check.h"

namespace ldpr::serve {

const char* WindowKindName(WindowKind kind) {
  switch (kind) {
    case WindowKind::kFixed:
      return "fixed";
    case WindowKind::kSliding:
      return "sliding";
    case WindowKind::kOverlapping:
      return "overlapping";
  }
  return "?";
}

EpochSchedule::EpochSchedule(int length, int stride)
    : length_(length), stride_(stride) {
  LDPR_REQUIRE(length >= 1, "window length must be >= 1, got " << length);
  LDPR_REQUIRE(stride >= 1 && stride <= length,
               "window stride must be in [1, length], got stride="
                   << stride << " length=" << length);
}

EpochSchedule EpochSchedule::Fixed(int length) {
  return EpochSchedule(length, length);
}

EpochSchedule EpochSchedule::Sliding(int length) {
  return EpochSchedule(length, 1);
}

EpochSchedule EpochSchedule::Overlapping(int length, int stride) {
  return EpochSchedule(length, stride);
}

WindowKind EpochSchedule::kind() const {
  if (stride_ == length_) return WindowKind::kFixed;
  if (stride_ == 1) return WindowKind::kSliding;
  return WindowKind::kOverlapping;
}

long long EpochSchedule::CompletedWindow(long long epoch) const {
  const long long since_first_full = epoch - (length_ - 1);
  if (since_first_full < 0) return -1;
  if (since_first_full % stride_ != 0) return -1;
  return since_first_full / stride_;
}

namespace {

int ParsePositiveInt(const std::string& spec, const std::string& token) {
  char* end = nullptr;
  const long value = std::strtol(token.c_str(), &end, 10);
  LDPR_REQUIRE(end != token.c_str() && *end == '\0' && value >= 1 &&
                   value <= INT_MAX,
               "bad window spec '" << spec << "': '" << token
                                  << "' is not a positive integer");
  return static_cast<int>(value);
}

}  // namespace

EpochSchedule ParseEpochSchedule(const std::string& spec) {
  std::string name = spec;
  std::string rest;
  if (const auto colon = spec.find(':'); colon != std::string::npos) {
    name = spec.substr(0, colon);
    rest = spec.substr(colon + 1);
  }
  if (name == "fixed") {
    return EpochSchedule::Fixed(rest.empty() ? 1
                                             : ParsePositiveInt(spec, rest));
  }
  if (name == "sliding") {
    LDPR_REQUIRE(!rest.empty(),
                 "bad window spec '" << spec << "': sliding needs a length"
                                     << " (sliding:L)");
    return EpochSchedule::Sliding(ParsePositiveInt(spec, rest));
  }
  if (name == "overlap" || name == "overlapping") {
    const auto colon = rest.find(':');
    LDPR_REQUIRE(colon != std::string::npos,
                 "bad window spec '" << spec
                                     << "': overlap needs length and stride"
                                     << " (overlap:L:S)");
    const int length = ParsePositiveInt(spec, rest.substr(0, colon));
    const int stride = ParsePositiveInt(spec, rest.substr(colon + 1));
    return EpochSchedule::Overlapping(length, stride);
  }
  LDPR_REQUIRE(false, "bad window spec '"
                          << spec
                          << "': expected fixed[:L] | sliding:L | "
                             "overlap:L:S");
  return EpochSchedule::Fixed(1);  // unreachable
}

}  // namespace ldpr::serve
