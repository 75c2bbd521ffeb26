#!/usr/bin/env bash
# Run hcs-lint over the whole tree (src bench examples tests tools) against
# the committed baseline.  Builds the tool if the build dir doesn't have it
# yet.  Every run is a whole-program run: the interprocedural rules always see
# every file.
#
#   scripts/lint.sh [BUILD_DIR] [extra hcs_lint args...]   (default: build)
#
# Exit codes follow the tool: 0 clean, 1 findings, 2 usage/I-O error.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
shift || true
if [[ "$BUILD_DIR" == -* ]]; then
  echo "usage: scripts/lint.sh [BUILD_DIR] [extra hcs_lint args...]" >&2
  exit 2
fi

if [[ ! -x "$BUILD_DIR/tools/hcs_lint" ]]; then
  cmake -B "$BUILD_DIR" -S . >/dev/null
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target hcs_lint_tool >/dev/null
fi

exec "$BUILD_DIR/tools/hcs_lint" --root . --baseline .lint-baseline "$@" \
  src bench examples tests tools
