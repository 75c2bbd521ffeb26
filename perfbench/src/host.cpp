#include "host.hpp"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

namespace hcs::perfbench {

double host_now() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch).count();
}

std::size_t current_rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t pages_total = 0, pages_resident = 0;
  if (!(statm >> pages_total >> pages_resident)) return 0;
  return pages_resident * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

std::size_t peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<std::size_t>(std::stoll(line.substr(6))) * 1024;
    }
  }
  return 0;
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream refs("/proc/self/clear_refs");
  refs << "5";
  refs.flush();
  if (!refs) throw std::runtime_error("cannot reset the peak-RSS mark (/proc/self/clear_refs)");
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

Json& Json::field(const std::string& key, const std::string& json) {
  if (!body_.empty()) body_ += ", ";
  body_ += json_string(key) + ": " + json;
  return *this;
}

Json& Json::num(const std::string& key, double value) {
  if (!std::isfinite(value)) return field(key, "null");
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return field(key, buf);
}

Json& Json::integer(const std::string& key, std::int64_t value) {
  return field(key, std::to_string(value));
}

Json& Json::str(const std::string& key, const std::string& value) {
  return field(key, json_string(value));
}

Json& Json::raw(const std::string& key, const std::string& json) { return field(key, json); }

}  // namespace hcs::perfbench
