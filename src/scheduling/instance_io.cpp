#include "scheduling/instance_io.hpp"

#include <sstream>

#include "util/number_codec.hpp"

namespace ps::scheduling {
namespace {

bool fail(std::string* error, const std::string& message) {
  if (error) *error = message;
  return false;
}

/// Strips a trailing comment and surrounding whitespace.
std::string clean_line(std::string line) {
  const auto hash = line.find('#');
  if (hash != std::string::npos) line.erase(hash);
  const auto first = line.find_first_not_of(" \t\r\n");
  if (first == std::string::npos) return "";
  const auto last = line.find_last_not_of(" \t\r\n");
  return line.substr(first, last - first + 1);
}

/// Reads the next non-empty cleaned line; false at EOF.
bool next_line(std::istream& is, std::string* out) {
  std::string line;
  while (std::getline(is, line)) {
    line = clean_line(line);
    if (!line.empty()) {
      *out = std::move(line);
      return true;
    }
  }
  return false;
}

}  // namespace

std::string instance_to_text(const SchedulingInstance& instance) {
  std::ostringstream os;
  write_instance(os, instance);
  return os.str();
}

void write_instance(std::ostream& os, const SchedulingInstance& instance) {
  os << "powersched-instance v1\n";
  os << "processors " << instance.num_processors() << "\n";
  os << "horizon " << instance.horizon() << "\n";
  os << "jobs " << instance.num_jobs() << "\n";
  for (const auto& job : instance.jobs()) {
    os << "job " << util::format_param(job.value) << " "
       << job.allowed.size();
    for (const auto& ref : job.allowed) {
      os << " " << ref.processor << ":" << ref.time;
    }
    os << "\n";
  }
}

std::optional<SchedulingInstance> parse_instance(const std::string& text,
                                                 std::string* error) {
  std::istringstream is(text);
  return read_instance(is, error);
}

std::optional<SchedulingInstance> read_instance(std::istream& is,
                                                std::string* error) {
  std::string line;
  if (!next_line(is, &line) || line != "powersched-instance v1") {
    fail(error, "missing or unsupported header (want 'powersched-instance v1')");
    return std::nullopt;
  }

  int processors = -1, horizon = -1, num_jobs = -1;
  auto read_int_field = [&](const char* name, int* out) {
    std::string l;
    if (!next_line(is, &l)) return fail(error, std::string("eof before ") + name);
    std::istringstream ls(l);
    std::string key;
    if (!(ls >> key >> *out) || key != name || *out < 0) {
      return fail(error, std::string("bad '") + name + "' line: " + l);
    }
    return true;
  };
  if (!read_int_field("processors", &processors)) return std::nullopt;
  if (!read_int_field("horizon", &horizon)) return std::nullopt;
  if (!read_int_field("jobs", &num_jobs)) return std::nullopt;
  if (processors < 1 || horizon < 1) {
    fail(error, "processors and horizon must be >= 1");
    return std::nullopt;
  }

  std::vector<Job> jobs;
  jobs.reserve(static_cast<std::size_t>(num_jobs));
  for (int j = 0; j < num_jobs; ++j) {
    if (!next_line(is, &line)) {
      fail(error, "eof before job " + std::to_string(j));
      return std::nullopt;
    }
    std::istringstream ls(line);
    std::string key;
    Job job;
    std::size_t pair_count = 0;
    if (!(ls >> key >> job.value >> pair_count) || key != "job" ||
        job.value <= 0.0) {
      fail(error, "bad job line: " + line);
      return std::nullopt;
    }
    for (std::size_t p = 0; p < pair_count; ++p) {
      std::string pair;
      if (!(ls >> pair)) {
        fail(error, "job " + std::to_string(j) + ": missing pair");
        return std::nullopt;
      }
      const auto colon = pair.find(':');
      if (colon == std::string::npos) {
        fail(error, "job " + std::to_string(j) + ": malformed pair " + pair);
        return std::nullopt;
      }
      SlotRef ref;
      try {
        ref.processor = std::stoi(pair.substr(0, colon));
        ref.time = std::stoi(pair.substr(colon + 1));
      } catch (...) {
        fail(error, "job " + std::to_string(j) + ": malformed pair " + pair);
        return std::nullopt;
      }
      if (ref.processor < 0 || ref.processor >= processors || ref.time < 0 ||
          ref.time >= horizon) {
        fail(error,
             "job " + std::to_string(j) + ": pair out of range " + pair);
        return std::nullopt;
      }
      job.allowed.push_back(ref);
    }
    jobs.push_back(std::move(job));
  }
  return SchedulingInstance(processors, horizon, std::move(jobs));
}

}  // namespace ps::scheduling
