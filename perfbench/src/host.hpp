// Host-side measurement helpers for hcs_perfbench: the host clock, the
// process's resident-set readings, small order statistics and a minimal JSON
// writer.  Nothing here touches the simulator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace hcs::perfbench {

/// Host seconds since the first call in this process (steady clock).
double host_now();

/// Current resident set of this process in bytes (/proc/self/statm).
std::size_t current_rss_bytes();

/// Peak resident set (VmHWM) since the last reset_peak_rss(), in bytes.
std::size_t peak_rss_bytes();

/// Returns freed heap to the kernel and resets VmHWM to the current RSS
/// (Linux clear_refs value 5), so the next peak_rss_bytes() reading belongs
/// to whatever runs after this call.  Throws std::runtime_error if the kernel
/// refuses the reset: peak RSS would then span the process lifetime.
void reset_peak_rss();

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for an empty input.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Order-preserving JSON object writer: numbers keep every digit.
class Json {
 public:
  Json& num(const std::string& key, double value);
  Json& integer(const std::string& key, std::int64_t value);
  Json& str(const std::string& key, const std::string& value);
  Json& raw(const std::string& key, const std::string& json);
  std::string dump() const { return "{" + body_ + "}"; }

 private:
  Json& field(const std::string& key, const std::string& json);
  std::string body_;
};

std::string json_string(const std::string& s);

}  // namespace hcs::perfbench
