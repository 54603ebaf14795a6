#!/bin/sh
# Mutation sweep over the banded-alignment kernel: applies one-line
# mutations to crates/mapping/src/align.rs and align/avx2.rs, one at a time,
# runs each suite against every mutant, and prints which suites kill it.
# A mutant no suite kills is either equivalent (the code cannot tell) or a
# hole in the oracles; the table says which suite to keep and which adds
# nothing.
#
# It edits the tree it runs in, so run it in a throwaway clone:
#
#   git clone . ../genpip-mutants && cd ../genpip-mutants && tools/mutants.sh
#
# Needs a clean checkout of the two kernel files (each mutant is applied
# with sed and discarded with `git stash`). Prints one line per mutant:
# its name, then `killed by: <suites>` or `SURVIVED`, or `NOT APPLIED` when
# its pattern no longer matches the source (a stale table row). Takes about
# a minute per mutant; it is not run in CI. Exit status 0 unless a mutant
# failed to apply.

set -u
cd "$(git rev-parse --show-toplevel)" || exit 2
ALIGN=crates/mapping/src/align.rs
AVX2=crates/mapping/src/align/avx2.rs
if ! git diff --quiet -- "$ALIGN" "$AVX2"; then
    echo "mutants.sh: $ALIGN or $AVX2 has local changes; commit or stash them first" >&2
    exit 2
fi

# Suites: a name, then the cargo test arguments (release, as CI runs them).
SUITES='
unit|-p genpip-mapping --lib align::tests
naive|-p genpip-mapping --lib -- align::differential::noisy align::differential::unrelated align::differential::tie_heavy align::differential::pipeline_sized
masked|-p genpip-mapping --lib -- align::differential::random_tables align::differential::corridors align::differential::bands_at
row|-p genpip-mapping --lib align::differential::avx2_row_agrees
corridor|-p genpip-mapping --test corridor
golden|--test golden
accuracy|--test accuracy
'

# Mutants: a name, the file, and a sed expression that changes one line.
MUTANTS='
portable Ix tie: ext > open made >=|A|s/((ext > open) as u8)/((ext >= open) as u8)/
portable H tie: gap > diag made >=|A|s/(gap > diag) as u8;/(gap >= diag) as u8;/
portable Iy tie: iy > h made >=|A|s/let from_iy = (iy > h\[k\]) as u8;/let from_iy = (iy >= h[k]) as u8;/
portable Iy extend: u > v made >=|A|s/let iy_extends = (u\[k\] > v\[k\]) as u8;/let iy_extends = (u[k] >= v[k]) as u8;/
scan Iy extend: ext > open made >=|A|s/            if ext > open {/            if ext >= open {/
i16 Ix tie: ext > open made >=|V|s/let ix_extends = _mm256_cmpgt_epi16(ext, open);/let ix_extends = _mm256_cmpeq_epi16(_mm256_max_epi16(ext, open), ext);/
i16 H tie: gap > diag made >=|V|s/let from_ix = _mm256_cmpgt_epi16(gap, diag);/let from_ix = _mm256_cmpeq_epi16(_mm256_max_epi16(gap, diag), gap);/
i16 Iy tie: iy > t made >=|V|s/let from_iy = _mm256_cmpgt_epi16(iy, t);/let from_iy = _mm256_cmpeq_epi16(_mm256_max_epi16(iy, t), iy);/
i16 Iy extend: u > v made >=|V|s/let iy_extends = _mm256_cmpgt_epi16(u, v);/let iy_extends = _mm256_cmpeq_epi16(_mm256_max_epi16(u, v), u);/
i16 saturating adds made wrapping|V|s/_mm256_adds_epi16/_mm256_add_epi16/g
bound check off by one|A|s/b <= MAX_BOUND)/b <= MAX_BOUND + 1)/
cells increment dropped|A|s/        cells += len;//
band edge off by one|A|s/let hi = (base_i + (width - 1) as i64)/let hi = (base_i + (width - 2) as i64)/
offset applied one row late|A|s/let shift = T::shift(rows.h_prev\[first\]);/let shift = T::shift(rows.h_curr[first]);/
'

status=0
while IFS='|' read -r name which expr; do
    [ -n "$name" ] || continue
    case $which in A) file=$ALIGN ;; V) file=$AVX2 ;; esac
    sed -i "$expr" "$file"
    if git diff --quiet -- "$file"; then
        echo "$name: NOT APPLIED"
        status=1
        continue
    fi
    killed=""
    for suite in $(echo "$SUITES" | cut -d'|' -f1); do
        args=$(echo "$SUITES" | grep "^$suite|" | cut -d'|' -f2)
        # shellcheck disable=SC2086
        if ! cargo test -q --release $args >/dev/null 2>&1; then
            killed="$killed $suite"
        fi
    done
    git stash push -q -- "$file" && git stash drop -q
    if [ -n "$killed" ]; then
        echo "$name: killed by:$killed"
    else
        echo "$name: SURVIVED"
    fi
done <<EOF
$MUTANTS
EOF
exit $status
