#!/usr/bin/env bash
# Lists every public item of the workspace's library crates that no shipped
# code reads, and fails unless tools/dead-pub-allowlist.txt names it with a
# reason.
#
# The items come from rustdoc's JSON output (a nightly-only format), so run
# it with a nightly toolchain:
#
#     RUSTUP_TOOLCHAIN=nightly-2026-05-20 tools/dead-pub.sh
#
# An item is every `pub` fn (free or inherent method), struct, enum, trait,
# const (free or associated), static and type alias rustdoc documents,
# hidden ones included. A reader is any occurrence of the item's name, as a
# whole word, in shipped text:
#
#   * crates/*/src, each file cut at its first column-0 `#[cfg(test)]`, with
#     the test-only `differential.rs` modules left out;
#   * src/, the examples (examples/, crates/*/examples), crates/bench and
#     benchmarks/src.
#
# Comment lines, `pub use` re-exports and the line that defines an item of
# that name do not count. The match is by name, so an item that shares its
# name with one that is read passes; the check finds items nothing names,
# not every unread one.
#
# Each allowlist line is `<path> <reason>`: the item's path as this script
# prints it, then why it stays public although only tests read it. A line
# without a reason, or one that names no unread item, fails the check too.
set -euo pipefail
cd "$(dirname "$0")/.."

# The rustdoc JSON layout this script parses (`visibility`, `inner`, `span`,
# `paths`), as nightly-2026-05-20 writes it.
FORMAT_VERSION=57
ALLOWLIST=tools/dead-pub-allowlist.txt

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
target=$(cargo metadata --format-version 1 --no-deps | jq -r .target_directory)

# 1. The public items: `path<TAB>name<TAB>file<TAB>line<TAB>kind` per item.
for lib in crates/*/src/lib.rs; do
    crate=${lib#crates/}
    crate=${crate%%/*}
    cargo rustdoc -q -p "genpip-$crate" --lib -- \
        -Z unstable-options --output-format json --document-hidden-items
    json="$target/doc/genpip_$crate.json"
    version=$(jq .format_version "$json")
    if [ "$version" != "$FORMAT_VERSION" ]; then
        echo "$json: rustdoc JSON format_version $version, this script reads $FORMAT_VERSION" >&2
        echo "run it with RUSTUP_TOOLCHAIN=nightly-2026-05-20" >&2
        exit 2
    fi
    jq -r '
        . as $doc
        # Each inherent method and associated const, keyed to its type.
        | ([.index[] | select(.inner.impl? and .inner.impl.trait == null)
            | .inner.impl as $impl | $impl.items[]
            | {key: tostring,
               value: ($doc.paths[$impl.for.resolved_path.id? | tostring].path? // ["?"])}]
           | from_entries) as $owner
        | .index[]
        | select(.crate_id == 0 and .visibility == "public" and .span != null)
        | (.inner | keys[0]) as $kind
        | select(["function", "struct", "enum", "trait", "constant", "static",
                  "type_alias", "assoc_const"] | index($kind))
        | ((($doc.paths[.id | tostring].path) // ($owner[.id | tostring] + [.name]))
           | join("::")) as $path
        | [$path, .name, .span.filename, (.span.begin[0] | tostring), $kind]
        | @tsv' "$json"
done | sort -u > "$work/items.tsv"

# 2. The shipped text, one `file<TAB>line<TAB>text` per line that can hold a
#    reader.
{
    for f in $(find crates/*/src -name '*.rs' ! -name differential.rs | sort); do
        awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit } { print f "\t" FNR "\t" $0 }' "$f"
    done
    for f in $(find src examples crates/*/examples crates/bench/benches benchmarks/src \
        -name '*.rs' | sort); do
        awk -v f="$f" '{ print f "\t" FNR "\t" $0 }' "$f"
    done
} | awk -F'\t' '
    # A `pub use` runs to its semicolon; a comment line is skipped whole.
    in_use { if ($3 ~ /;/) in_use = 0; next }
    $3 ~ /^[ \t]*pub(\([a-z]+\))? use / { if ($3 !~ /;/) in_use = 1; next }
    $3 ~ /^[ \t]*\/\// { next }
    { print }' > "$work/text.tsv"

# 3. The items no line of that text names, other than a line that defines an
#    item of the same name.
awk -F'\t' '
    NR == FNR {
        want[$2] = 1
        defines[$3 "\t" $4 "\t" $2] = 1
        item[NR] = $0
        next
    }
    {
        line = $3
        gsub(/[^A-Za-z0-9_]+/, " ", line)
        n = split(line, words, " ")
        for (i = 1; i <= n; i++) {
            w = words[i]
            if ((w in want) && !(($1 "\t" $2 "\t" w) in defines)) read[w] = 1
        }
    }
    END {
        for (i = 1; i in item; i++) {
            split(item[i], f, "\t")
            if (!(f[2] in read)) print f[1] "\t" f[3] ":" f[4] "\t" f[5]
        }
    }' "$work/items.tsv" "$work/text.tsv" | sort > "$work/unread.tsv"

# 4. Hold the unread items to the allowlist.
status=0
grep -v '^#' "$ALLOWLIST" > "$work/allow.txt" || true
while read -r path reason; do
    if [ -z "$reason" ]; then
        echo "$ALLOWLIST: '$path' gives no reason"
        status=1
    fi
    if ! cut -f1 "$work/unread.tsv" | grep -qxF "$path"; then
        echo "$ALLOWLIST: '$path' is not an unread public item (read now, renamed or gone): drop the line"
        status=1
    fi
done < "$work/allow.txt"
while IFS=$'\t' read -r path at kind; do
    if ! awk '{ print $1 }' "$work/allow.txt" | grep -qxF "$path"; then
        echo "$at: public $kind $path has no reader outside tests"
        status=1
    fi
done < "$work/unread.tsv"

items=$(wc -l < "$work/items.tsv")
unread=$(wc -l < "$work/unread.tsv")
if [ "$status" -ne 0 ]; then
    echo "delete each unread item (and what only it used), or add '<path> <reason>' to $ALLOWLIST"
    exit 1
fi
echo "dead-pub: $items public items, $unread unread, all allowlisted"
