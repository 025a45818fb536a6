#!/bin/sh
# Non-test lines of the workspace, per crate and in total.
#
# A file under crates/*/src counts up to its first `#[cfg(test)]` that
# opens a module, inline (`mod tests {`) or declared (`mod schedules;`);
# a `#[cfg(test)]` on any other item (a helper fn, a use) does not end
# the count. A file that a `#[cfg(test)] mod x;` declares is test code
# and counts nothing.
#
# Usage: scripts/nontest_lines.sh   (from anywhere in the repository)
#        scripts/nontest_lines.sh --files   (each counted file and its
#        count instead, one "path lines" a line; scripts/unwrap_sites.sh
#        reads these)
set -eu
cd "$(dirname "$0")/.."
files=0
[ "${1-}" = --files ] && files=1

# For one file: "count <lines>", then "test <module>" per declared test
# module. Attributes, comments and blank lines between `#[cfg(test)]` and
# the item it gates are skipped to find that item.
scan() {
    awk '
        function is_mod(s) { return s ~ /^[ \t]*(pub(\([^)]*\))?[ \t]+)?mod[ \t]+[A-Za-z_0-9]+/ }
        function mod_name(s) { sub(/^[ \t]*(pub(\([^)]*\))?[ \t]+)?mod[ \t]+/, "", s); sub(/[^A-Za-z_0-9].*/, "", s); return s }
        function declared(s) { return s ~ /^[ \t]*(pub(\([^)]*\))?[ \t]+)?mod[ \t]+[A-Za-z_0-9]+[ \t]*;/ }
        {
            line = $0
            if (gated) {
                if (line ~ /^[ \t]*(#\[|\/\/|$)/) next
                if (is_mod(line)) {
                    if (!stop) stop = gated - 1
                    if (declared(line)) print "test " mod_name(line)
                }
                gated = 0
                next
            }
            if (line ~ /^[ \t]*#\[cfg\(test\)\]/) {
                rest = line
                sub(/^[ \t]*#\[cfg\(test\)\][ \t]*/, "", rest)
                if (rest == "") { gated = NR; next }
                if (is_mod(rest)) {
                    if (!stop) stop = NR - 1
                    if (declared(rest)) print "test " mod_name(rest)
                }
            }
        }
        END { print "count " (stop ? stop : NR) }
    ' "$1"
}

tests=$(mktemp)
echo - >"$tests" # never empty: awk reads it as the first file
counts=$(mktemp)
trap 'rm -f "$tests" "$counts"' EXIT
for f in $(find crates/*/src -name '*.rs' | sort); do
    case $f in
    */mod.rs | */lib.rs | */main.rs) dir=$(dirname "$f") ;;
    *) dir=${f%.rs} ;;
    esac
    scan "$f" | while read -r kind value; do
        case $kind in
        count) echo "$f $value" >>"$counts" ;;
        test) printf '%s\n%s\n' "$dir/$value.rs" "$dir/$value/mod.rs" >>"$tests" ;;
        esac
    done
done
awk -v files="$files" '
    FNR == NR { test[$1] = 1; next }
    $1 in test { next }
    files { print; next }
    { split($1, p, "/"); n[p[2]] += $2; total += $2 }
    END { if (files) exit; for (c in n) printf "%-8s %6d\n", c, n[c] | "sort"; close("sort"); printf "%-8s %6d\n", "total", total }
' "$tests" "$counts"
