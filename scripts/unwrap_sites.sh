#!/bin/sh
# Non-test `unwrap(` and `expect(` call sites, per crate and in total:
# the panics a bad byte or a broken invariant could reach.
#
# The files, and the lines of each that count, are those
# scripts/nontest_lines.sh counts. A line whose first non-blank
# characters are `//` (a comment or a doc comment, examples included)
# is skipped; every other occurrence on a counted line is one site.
#
# Usage: scripts/unwrap_sites.sh   (from anywhere in the repository)
set -eu
cd "$(dirname "$0")/.."

scripts/nontest_lines.sh --files | while read -r f n; do
    head -n "$n" "$f" | awk -v f="$f" '
        /^[ \t]*\/\// { next }
        { sites += gsub(/(unwrap|expect)\(/, "") }
        END { print f, sites + 0 }
    '
done | awk '
    { split($1, p, "/"); n[p[2]] += $2; total += $2 }
    END { for (c in n) printf "%-8s %6d\n", c, n[c] | "sort"; close("sort"); printf "%-8s %6d\n", "total", total }
'
