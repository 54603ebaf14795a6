#!/bin/sh
# Mutation sweep over five kernels: the banded alignment
# (crates/mapping/src/align.rs, align/avx2.rs), the minimizer sketch with
# the index build it feeds (crates/mapping/src/minimizer.rs,
# minimizer/avx2.rs, index.rs), the seed-and-chain step both flows map
# through, with the best-hit merge (crates/mapping/src/refset.rs), and the
# chunk call's two steps with the quality step's deferral past the CP
# pass (crates/basecall/src/basecaller.rs, the traceback's base gather
# in crates/basecall/src/viterbi.rs, crates/core/src/pipeline.rs), and the
# Viterbi decode itself: the traceback's walk and the AVX2 row's
# renormalisation (crates/basecall/src/viterbi.rs, viterbi/avx2.rs). It
# applies one-line mutations, one at a
# time, runs each of the kernel's suites against every mutant, and prints
# which suites kill it. A mutant no suite kills is either equivalent (the
# code cannot tell) or a hole in the oracles; the table says which suite to
# keep and which adds nothing.
#
# It edits the tree it runs in, so run it in a throwaway clone:
#
#   git clone . ../genpip-mutants && cd ../genpip-mutants && tools/mutants.sh [align|sketch|mapstep|quality|decode]
#
# With no argument it sweeps all five. Needs a clean checkout of the
# kernel files (each mutant is applied with sed and discarded with
# `git stash`). Prints one line per mutant: its name, then `killed by:
# <suites>` or `SURVIVED`, or `NOT APPLIED` when its pattern no longer
# matches the source (a stale table row). Takes up to a minute per mutant
# (the lane body's mutants need an AVX2 host); it is not run in CI. Exit
# status 0 unless a mutant failed to apply.

set -u
cd "$(git rev-parse --show-toplevel)" || exit 2
ALIGN=crates/mapping/src/align.rs
AVX2=crates/mapping/src/align/avx2.rs
SKETCH=crates/mapping/src/minimizer.rs
LANES=crates/mapping/src/minimizer/avx2.rs
INDEX=crates/mapping/src/index.rs
REFSET=crates/mapping/src/refset.rs
CALLER=crates/basecall/src/basecaller.rs
DECODE=crates/basecall/src/viterbi.rs
ROWS=crates/basecall/src/viterbi/avx2.rs
PIPELINE=crates/core/src/pipeline.rs
if ! git diff --quiet -- "$ALIGN" "$AVX2" "$SKETCH" "$LANES" "$INDEX" "$REFSET" "$CALLER" \
    "$DECODE" "$ROWS" "$PIPELINE"; then
    echo "mutants.sh: a kernel file has local changes; commit or stash them first" >&2
    exit 2
fi
KERNELS=${1:-align sketch mapstep quality decode}

# Suites: a name, then the cargo test arguments (release, as CI runs them).
ALIGN_SUITES='
unit|-p genpip-mapping --lib align::tests
naive|-p genpip-mapping --lib -- align::differential::noisy align::differential::unrelated align::differential::tie_heavy align::differential::pipeline_sized
masked|-p genpip-mapping --lib -- align::differential::random_tables align::differential::corridors align::differential::bands_at
row|-p genpip-mapping --lib align::differential::avx2_row_agrees
corridor|-p genpip-mapping --test corridor
golden|--test golden
accuracy|--test accuracy
'
SKETCH_SUITES='
unit|-p genpip-mapping --lib minimizer::tests
diff|-p genpip-mapping --lib minimizer::differential
index|-p genpip-mapping --lib index::
alloc|-p genpip-mapping --test alloc_free
'
MAPSTEP_SUITES='
unit|-p genpip-mapping --lib refset::tests
pan_genome|--test pan_genome
session|--test session
chunk_accounting|--test chunk_accounting
'
QUALITY_SUITES='
differential|-p genpip-basecall --lib basecaller::differential
accuracy|--test accuracy
golden|--test golden
session|--test session
chunk_accounting|--test chunk_accounting
'
DECODE_SUITES='
unit|-p genpip-basecall --lib viterbi::tests
differential|-p genpip-basecall --lib viterbi::differential
caller|-p genpip-basecall --lib basecaller::differential
accuracy|--test accuracy
golden|--test golden
'

# Mutants: a name, the file, and a sed expression that changes one line.
ALIGN_MUTANTS='
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
SKETCH_MUTANTS='
lanes prefix tie: a later equal key loses|L|s/let stays = _mm256_cmpgt_epi64(key, pkey);/let stays = _mm256_or_si256(_mm256_cmpgt_epi64(key, pkey), _mm256_cmpeq_epi64(key, pkey));/
lanes window tie: the suffix side wins|L|s/let suffix = _mm256_cmpgt_epi64(pkey, skey);/let suffix = _mm256_or_si256(_mm256_cmpgt_epi64(pkey, skey), _mm256_cmpeq_epi64(pkey, skey));/
lanes suffix tie: an earlier equal key wins|L|s/let takes = _mm256_cmpgt_epi64(nkey, key);/let takes = _mm256_or_si256(_mm256_cmpgt_epi64(nkey, key), _mm256_cmpeq_epi64(nkey, key));/
lanes canonical strand: the larger word|L|s/let reverse = _mm256_cmpgt_epi64(fwd_u, rev_u);/let reverse = _mm256_cmpgt_epi64(rev_u, fwd_u);/
lanes canonical strand: rev <= fwd|L|s/let reverse = _mm256_cmpgt_epi64(fwd_u, rev_u);/let reverse = _mm256_or_si256(_mm256_cmpgt_epi64(fwd_u, rev_u), _mm256_cmpeq_epi64(fwd_u, rev_u));/
lanes strand compare signed|L|s/(_mm256_xor_si256(fwd, sign), _mm256_xor_si256(rev, sign))/(fwd, rev)/
lanes keys compared signed|L|s/let key = _mm256_xor_si256(_mm256_or_si256(hash64x4(canonical), palindrome), sign);/let key = _mm256_or_si256(hash64x4(canonical), palindrome);/
lanes palindrome mask dropped|L|s/_mm256_or_si256(hash64x4(canonical), palindrome)/hash64x4(canonical)/
lanes lane overlap one short|L|s/let steps = lane + w - 1;/let steps = lane + w - 2;/
lanes seam dedup dropped|L|s/if m.hash != u64::MAX \&\& m.pos != picks.last {/if m.hash != u64::MAX {/
lanes first window palindrome emitted|L|s/if m.hash != u64::MAX \&\& m.pos != picks.last {/if m.pos != picks.last {/
lanes repeat of the previous pick not stale|L|s/let repeat = _mm256_or_si256(no_pick, _mm256_cmpeq_epi64(wtag, prev));/let repeat = no_pick;/
lanes last stale word not aligned|L|s/let shift = _mm_cvtsi64_si128((63 - (last \& 63)) as i64);/let shift = _mm_cvtsi64_si128((62 - (last \& 63)) as i64);/
lanes max-hash fallback off|L|s/k == Kmer::MAX_K \&\& _mm256_testz_si256/false \&\& _mm256_testz_si256/
portable takeover tie: a later equal hash loses|M|s/Some((hash, reverse)) if hash <= self.hash => {/Some((hash, reverse)) if hash < self.hash => {/
portable block compaction drops one too many|M|s/hashed.drain(..block + 1 - w);/hashed.drain(..block + 2 - w);/
portable dedup dropped|M|s/if i + 1 >= first + w \&\& pick.some \&\& pos != picks.last {/if i + 1 >= first + w \&\& pick.some {/
index strand dropped from the site|I|s/sites.push(m.pos << 1 | u64::from(m.reverse));/sites.push(m.pos << 1);/
'
MAPSTEP_MUTANTS='
chainer reset skipped|R|s/for (fwd, rev) in \&mut scratch.pairs {/for (fwd, rev) in scratch.pairs.iter_mut().take(0) {/
qpos_offset dropped|R|s/seed_batch_into(mapper.index(), \&seed.mins, qpos_offset, batch);/seed_batch_into(mapper.index(), \&seed.mins, 0, batch);/
chain_evals counted cumulatively|R|s/rev.dp_evaluations() - evals_before;/rev.dp_evaluations();/
only the primary reference seeded|R|s/self.mappers.iter().zip(pairs.iter_mut()) {/self.mappers.iter().zip(pairs.iter_mut()).take(1) {/
merge name tie-break flipped|R|s/candidate.reference < w.reference/candidate.reference > w.reference/
'
QUALITY_MUTANTS='
reset mask inverted|B|s/_mm_cvtsi32_si128(-i32::from(advanced))/_mm_cvtsi32_si128(-i32::from(!advanced))/
segment slot moved on at a stay|B|s/count += usize::from(advanced\[t\]);/count += usize::from(!advanced[t]);/
base gathered at a stay|D|s/slot -= usize::from(\*advanced);/slot -= usize::from(!*advanced);/
base code taken from the middle of the k-mer|D|s/self.codes\[slot\] = (state \& 3) as u8;/self.codes[slot] = (state >> 2 \& 3) as u8;/
head bases in reverse order|D|s/\*code = (first >> (2 \* (head - 1 - j))) as u8 \& 3;/*code = (first >> (2 * j)) as u8 \& 3;/
stitched head taken as a free one|B|s/    if stitched {/    if !stitched {/
sampled chunk quality added one chunk late|P|s/^            match next_sampled.next_if(|(i, _)| \*i == idx) {/            match next_sampled.next_if(|(i, _)| *i + 1 == idx) {/
quality skipped when total <= N_cm|P|/Past every verdict/,$s/for idx in 0..total {/for idx in 0..total * usize::from(total > ctx.config.n_cm) {/
quality deferred for a QSR-sampled chunk|P|s/let bases = match next_sampled.next_if(|(i, _)| \*i == idx) {/let bases = match next_sampled.next_if(|(i, _)| *i == idx \&\& false) {/
kept path not moved on|P|s/                    kept += 1;//
pending buffer not cleared between reads|P|s/        scratch.pending.clear();//
'
DECODE_MUTANTS='
advance test: strict > made >=|D|s/let advance = i32::from(best) - i32::from(record\[s\]) > margin;/let advance = i32::from(best) - i32::from(record[s]) >= margin;/
tie mask picks the highest quarter|D|s/state = group + ties.trailing_zeros() as usize \* n_groups;/state = group + (31 - ties.leading_zeros()) as usize * n_groups;/
renormalisation step applied a row early|X|s/step = _mm256_sub_epi16(back_max, step);/step = _mm256_sub_epi16(_mm256_broadcastw_epi16(_mm256_castsi256_si128(_mm256_max_epi16(_mm256_max_epi16(v[0], v[1]), _mm256_max_epi16(v[2], v[3])))), step);/
group index written as >> 1|D|s/let group = s >> 2;/let group = s >> 1;/
'

status=0
for kernel in $KERNELS; do
    case $kernel in
        align) SUITES=$ALIGN_SUITES MUTANTS=$ALIGN_MUTANTS ;;
        sketch) SUITES=$SKETCH_SUITES MUTANTS=$SKETCH_MUTANTS ;;
        mapstep) SUITES=$MAPSTEP_SUITES MUTANTS=$MAPSTEP_MUTANTS ;;
        quality) SUITES=$QUALITY_SUITES MUTANTS=$QUALITY_MUTANTS ;;
        decode) SUITES=$DECODE_SUITES MUTANTS=$DECODE_MUTANTS ;;
        *) echo "mutants.sh: unknown kernel $kernel (align, sketch, mapstep, quality or decode)" >&2; exit 2 ;;
    esac
    while IFS='|' read -r name which expr; do
        [ -n "$name" ] || continue
        case $which in
            A) file=$ALIGN ;; V) file=$AVX2 ;;
            M) file=$SKETCH ;; L) file=$LANES ;; I) file=$INDEX ;;
            R) file=$REFSET ;;
            B) file=$CALLER ;; D) file=$DECODE ;; X) file=$ROWS ;; P) file=$PIPELINE ;;
        esac
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
done
exit $status
