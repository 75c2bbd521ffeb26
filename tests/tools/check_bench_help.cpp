// Asserts a bench binary's --help output lists every flag it parses, and
// that the binary refuses an unknown flag.
//
// All bench binaries parse the shared flag set (bench/common.hpp's
// kBenchFlags, which also drives --help and unknown-flag rejection), so this
// links the same table and greps the child's actual output for each entry:
// adding a flag to parse_common without documenting it — or breaking --help
// itself — fails ctest for every bench binary.  The retired "--queue heap"
// must exit 2 naming the flag, so stale scripts fail loudly.
//
//   usage: check_bench_help <path to bench binary>
#include <sys/wait.h>

#include <cstdio>
#include <iostream>
#include <string>

#include "common.hpp"

namespace {

// Runs `cmd` through the shell, appending its stdout to `output`.  Returns
// the wait status, or -1 when the command cannot be started.
int run(const std::string& cmd, std::string& output) {
  FILE* pipe = popen(cmd.c_str(), "r");
  if (!pipe) return -1;
  char buf[4096];
  std::size_t n = 0;
  while ((n = fread(buf, 1, sizeof buf, pipe)) > 0) output.append(buf, n);
  return pclose(pipe);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: check_bench_help <bench binary>\n";
    return 2;
  }
  const std::string cmd = std::string(argv[1]) + " --help";
  std::string output;
  const int status = run(cmd, output);
  if (status == -1) {
    std::cerr << "check_bench_help: cannot run: " << cmd << "\n";
    return 2;
  }
  if (status != 0) {
    std::cerr << "check_bench_help: `" << cmd << "` exited with status " << status
              << " (expected 0)\n";
    return 1;
  }

  int missing = 0;
  for (std::size_t i = 0; i < hcs::bench::kBenchFlagCount; ++i) {
    const std::string flag = std::string("--") + hcs::bench::kBenchFlags[i].name;
    if (output.find(flag) == std::string::npos) {
      std::cerr << "check_bench_help: --help output of " << argv[1] << " does not mention "
                << flag << "\n";
      ++missing;
    }
  }
  if (missing > 0) {
    std::cerr << "--- actual --help output ---\n" << output;
    return 1;
  }

  const std::string stale = std::string(argv[1]) + " --queue heap 2>&1";
  std::string refusal;
  const int stale_status = run(stale, refusal);
  if (stale_status == -1 || !WIFEXITED(stale_status) || WEXITSTATUS(stale_status) != 2 ||
      refusal.find("unknown option --queue") == std::string::npos) {
    std::cerr << "check_bench_help: `" << stale << "` must exit 2 naming --queue (status "
              << stale_status << ")\n--- actual output ---\n" << refusal;
    return 1;
  }
  std::cout << "ok: " << hcs::bench::kBenchFlagCount << " flags documented by " << argv[1]
            << " --help; --queue refused\n";
  return 0;
}
