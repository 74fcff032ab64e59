#!/usr/bin/env bash
# Fails unless every ':'-separated pattern of a positive gtest filter
# selects at least one test of the binary. gtest runs a filter that
# matches nothing and passes, so a renamed or deleted test would
# otherwise empty a filtered CI step without anyone noticing.
#
# Usage: gtest-filter-selects.sh <test binary> '<filter>'
set -euo pipefail
bin=$1
IFS=':' read -ra patterns <<< "$2"
for p in "${patterns[@]}"; do
  n=$("$bin" --gtest_list_tests --gtest_filter="$p" | grep -c '^  ' || true)
  if [ "$n" -eq 0 ]; then
    echo "error: --gtest_filter='$p' selects no test in $bin" >&2
    exit 1
  fi
  echo "$bin: '$p' selects $n test(s)"
done
