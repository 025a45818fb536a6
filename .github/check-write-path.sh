#!/bin/sh
# One write path: a node's registrations, leases, location-record shard
# and identity are changed — and mirrored into its durable store, if it
# has one — only by bristle-core::repo (DESIGN §8 "The write path").
# This fails if a table or store write appears in non-test code under
# crates/*/src anywhere else, beyond the sites counted in
# write-path.allow.
#
# Non-test code is a file up to its `#[cfg(test)] mod tests`. Comments
# are dropped and all whitespace removed before matching, so rustfmt's
# line breaks cannot hide a call.
set -eu
cd "$(dirname "$0")/.."
allow=.github/write-path.allow
status=0
for f in $(find crates/*/src -name '*.rs' | sort); do
    case $f in
    crates/core/src/repo.rs | crates/core/src/durable.rs | crates/core/src/registry.rs | crates/core/src/lease.rs) continue ;;
    esac
    code=$(awk '/^#\[cfg\(test\)\]/ { exit } { sub(/\/\/.*/, ""); print }' "$f" | tr -d ' \t\n')
    for pat in 'stores.apply(' 'registry.register(' 'leases.grant(' '.store.insert(' 'lease_unmirrored('; do
        found=$(printf '%s' "$code" | grep -oF "$pat" | wc -l)
        allowed=$(awk -v f="$f" -v p="$pat" '$1 == f && $2 == p { n = $3 } END { print n + 0 }' "$allow")
        if [ "$found" -ne "$allowed" ]; then
            echo "$f: $found x \`$pat\` in non-test code, $allowed allowed by $allow" >&2
            status=1
        fi
    done
done
exit $status
