#!/bin/sh
# Runs a gtest binary under a --gtest_filter, failing when any of the
# filter's ':'-separated patterns selects no test. gtest exits 0 with
# "PASSED 0 tests" on an empty selection, so a renamed suite would otherwise
# silently drop out of (or empty) a CI job.
#
# usage: tools/gtest_filtered.sh <gtest-binary> '<Pattern*>[:<Pattern*>...]'
set -eu
if [ "$#" -ne 2 ]; then
    echo "usage: $0 <gtest-binary> <filter>" >&2
    exit 2
fi
binary=$1
filter=$2
set -f # the patterns are gtest globs, not file globs
old_ifs=$IFS
IFS=:
for pattern in $filter; do
    count=$("$binary" --gtest_filter="$pattern" --gtest_list_tests | grep -c '^  ' || true)
    if [ "$count" -eq 0 ]; then
        echo "gtest_filtered: pattern '$pattern' selects no test in $binary" >&2
        exit 1
    fi
done
IFS=$old_ifs
exec "$binary" --gtest_filter="$filter"
