#include "util/number_codec.hpp"

#include <charconv>
#include <system_error>

namespace ps::util {
namespace {

/// Longer than the longest %.17g rendering, "-2.2250738585072014e-308"
/// (24 characters).
constexpr std::size_t kMaxRendering = 32;

}  // namespace

void append_param(std::string& out, double value) {
  char buffer[kMaxRendering];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value,
                                    std::chars_format::general, 17);
  out.append(buffer, result.ptr);
}

std::string format_param(double value) {
  std::string out;
  append_param(out, value);
  return out;
}

bool parse_double(std::string_view token, double& out) {
  const char* const last = token.data() + token.size();
  // from_chars reports a decimal that rounds to zero or to infinity as
  // result_out_of_range; a subnormal result that keeps its value is exact
  // and loads.
  const auto result = std::from_chars(token.data(), last, out,
                                      std::chars_format::general);
  return !token.empty() && result.ec == std::errc() && result.ptr == last;
}

bool parse_count(std::string_view token, std::uint64_t& out) {
  const char* const last = token.data() + token.size();
  const auto result = std::from_chars(token.data(), last, out, 10);
  return !token.empty() && result.ec == std::errc() && result.ptr == last;
}

}  // namespace ps::util
