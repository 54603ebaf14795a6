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
# hidden ones included. The compiler decides what reads it: a copy of the
# tree marks every item `#[deprecated(note = "dead-pub <path>")]`, and
# `cargo check` runs over the shipped targets — the workspace's libraries,
# binaries and examples (no `#[cfg(test)]` code), the kernel bench
# (crates/bench/benches/kernels.rs) and the end-to-end benchmark
# (benchmarks/). An item is read when a deprecation warning names it at a
# use outside a `use` statement, so a re-export is not a reader, and two
# items that share a name are told apart.
#
# It exits 1 on an unread item the allowlist does not name (or on a bad
# allowlist line, below), and 2 when it cannot tell: rustdoc's format changed, a `cargo check` of the marked copy
# failed (its errors are printed), or the checks reported no marked use at
# all.
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

# 2. A copy of the tree with every listed item marked
#    `#[deprecated(note = "dead-pub <path>")]` on the line before the one
#    rustdoc reports, which is the item's `pub` line.
copy="$work/tree"
mkdir "$copy"
tar -c --exclude=target Cargo.toml Cargo.lock src crates examples \
    benchmarks/Cargo.toml benchmarks/Cargo.lock benchmarks/src | tar -x -C "$copy"
cut -f3 "$work/items.tsv" | sort -u | while read -r file; do
    awk -F'\t' -v f="$file" '$3 == f { print $4 "\t" $1 }' "$work/items.tsv" > "$work/marks.tsv"
    awk -F'\t' -v f="$file" '
        NR == FNR { mark[$1] = mark[$1] "#[deprecated(note = \"dead-pub " $2 "\")]\n"; next }
        FNR in mark {
            if ($0 !~ /(^|[^A-Za-z0-9_])pub([ (]|$)/) {
                print f ":" FNR ": rustdoc puts a public item here, but the line is not its `pub` line" > "/dev/stderr"
                exit 2
            }
            printf "%s", mark[FNR]
        }
        { print }' "$work/marks.tsv" "$file" > "$copy/$file.marked"
    mv "$copy/$file.marked" "$copy/$file"
done

# 3. The items the compiler sees read: a deprecation warning that names an
#    item's note at a primary span outside a `use` statement (`use` or
#    `pub use` up to its `;`). The checks cover the shipped targets only;
#    `--benches` would compile each library's `#[cfg(test)]` code, so the
#    one bench is named. A check's file names are relative to its
#    workspace's root (`root|args`).
checks=(
    "|--workspace --lib --bins --examples"
    "|-p genpip-bench --bench kernels"
    "/benchmarks|--manifest-path benchmarks/Cargo.toml --bins"
)
for check in "${checks[@]}"; do
    root=${check%%|*}
    args=${check#*|}
    # shellcheck disable=SC2086 # $args is a list of arguments
    if ! (cd "$copy" && CARGO_TARGET_DIR="$work/target" RUSTFLAGS=--cap-lints=warn \
        cargo check -q --offline --message-format json $args) \
        > "$work/messages.json" 2> "$work/cargo.err"; then
        echo "dead-pub: cargo check $args failed on the marked copy:" >&2
        jq -r 'select(.reason == "compiler-message" and .message.level == "error")
            | .message.rendered' "$work/messages.json" >&2
        cat "$work/cargo.err" >&2
        exit 2
    fi
    jq -r --arg root "$copy$root" '
        select(.reason == "compiler-message")
        | .message
        | (.message | capture(": dead-pub (?<path>[^ ]+)$").path) as $path
        | .spans[] | select(.is_primary)
        | [$path,
           (if (.file_name | startswith("/")) then .file_name
            else $root + "/" + .file_name end),
           (.line_start | tostring)]
        | @tsv' "$work/messages.json" >> "$work/uses.tsv"
done
if [ ! -s "$work/uses.tsv" ]; then
    echo "dead-pub: cargo reported no use of a marked item; has its JSON changed?" >&2
    exit 2
fi
find "$copy" -name '*.rs' -exec awk '
    FNR == 1 { in_use = 0 }
    !in_use && /^[ \t]*(pub(\([^)]*\))? )?use / { in_use = 1 }
    in_use { print FILENAME "\t" FNR; if (/;/) in_use = 0 }' {} + > "$work/use-lines.tsv"
awk -F'\t' '
    NR == FNR { in_use[$1 "\t" $2] = 1; next }
    !(($2 "\t" $3) in in_use) { print $1 }' "$work/use-lines.tsv" "$work/uses.tsv" \
    | sort -u > "$work/read.txt"
awk -F'\t' '
    NR == FNR { read[$1] = 1; next }
    !($1 in read) { print $1 "\t" $3 ":" $4 "\t" $5 }' "$work/read.txt" "$work/items.tsv" \
    | sort > "$work/unread.tsv"

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
