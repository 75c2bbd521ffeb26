#!/usr/bin/env bash
# Non-test source size: line counts of src/**/*.{cpp,hpp} per module (the
# first directory level under src/) and in total.  Log-only: CI prints it in
# the build job so a change's line count is visible next to its diff; it
# gates nothing.
#
#   scripts/src_loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
  find "$@" -type f \( -name '*.cpp' -o -name '*.hpp' \) -print0 | xargs -0 -r cat | wc -l
}

for dir in src/*/; do
  printf '%-10s %6d\n' "$(basename "$dir")" "$(count "$dir")"
done
printf '%-10s %6d\n' total "$(count src)"
