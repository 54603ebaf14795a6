//! Differential suite: the bounded DP (predecessors that cannot beat the
//! running best are skipped unscored) must leave the chainer in exactly the
//! state the unpruned loop leaves it in — every score bit, every
//! predecessor, the `dp_evaluations` cost-model counter, the best chain and
//! the second-best score — after every batch, for every `max_gap`,
//! lookback and sign of `gap_linear` (NaN included, which disables the
//! bound).

use super::{ChainParams, IncrementalChainer};
use crate::seed::Anchor;
use crate::RefPos;
use genpip_genomics::rng::{seeded, Rng, SeededRng};

/// The first-draft DP, kept test-only as the independent oracle: every
/// predecessor in the lookback window scored with
/// [`ChainParams::step_score`]. The body is the shipped
/// `IncrementalChainer::extend` as of PR 24, verbatim but for `self`.
fn naive_extend(c: &mut IncrementalChainer, batch: &[Anchor]) {
    let mut sorted = std::mem::take(&mut c.sort_buf);
    sorted.clear();
    sorted.extend_from_slice(batch);
    sorted.sort_unstable_by_key(|a| (a.qpos, a.rpos));
    for &anchor in &sorted {
        let i = c.anchors.len();
        c.anchors.push(anchor);
        let mut best = c.params.k as f64; // chain of one anchor
        let mut best_pred = None;
        let lo = i.saturating_sub(c.params.lookback);
        for j in (lo..i).rev() {
            c.dp_evaluations += 1;
            if let Some(step) = c.params.step_score(c.anchors[j], anchor) {
                let cand = c.score[j] + step;
                if cand > best {
                    best = cand;
                    best_pred = Some(j);
                }
            }
        }
        c.score.push(best);
        c.pred.push(best_pred);
    }
    c.sort_buf = sorted;
}

fn bits(scores: &[f64]) -> Vec<u64> {
    scores.iter().map(|s| s.to_bits()).collect()
}

/// Whole-state equality, plus the three read-outs the mapper consumes.
fn assert_same(got: &IncrementalChainer, want: &IncrementalChainer, loci: [RefPos; 2], what: &str) {
    assert_eq!(got.anchors, want.anchors, "{what}: anchors");
    assert_eq!(bits(&got.score), bits(&want.score), "{what}: scores");
    assert_eq!(got.pred, want.pred, "{what}: predecessors");
    assert_eq!(got.dp_evaluations(), want.dp_evaluations(), "{what}: evals");
    assert_eq!(
        got.best_score().to_bits(),
        want.best_score().to_bits(),
        "{what}: best score"
    );
    let (g, w) = (got.best_chain(), want.best_chain());
    assert_eq!(
        g.as_ref().map(|c| (c.score.to_bits(), &c.anchor_indices)),
        w.as_ref().map(|c| (c.score.to_bits(), &c.anchor_indices)),
        "{what}: best chain"
    );
    for lo in loci {
        let excluded = lo..lo + 10_000;
        assert_eq!(
            got.best_score_outside(excluded.clone()).to_bits(),
            want.best_score_outside(excluded).to_bits(),
            "{what}: best score outside {lo}.."
        );
    }
    assert_eq!(
        got.best_score_outside(..).to_bits(),
        want.best_score_outside(..).to_bits(),
        "{what}: best score outside everything"
    );
}

/// One read's anchors, in chunk batches: a true diagonal with indel drift, a
/// decoy diagonal (near enough to interleave within `max_gap` on some draws,
/// far on others), uniform noise, and exact duplicate `(qpos, rpos)` pairs
/// and same-`qpos` pairs. Batches cover increasing query ranges; each is
/// shuffled, since `extend` sorts within a batch.
fn anchor_batches(rng: &mut SeededRng) -> (Vec<Vec<Anchor>>, [RefPos; 2]) {
    let query_len = rng.random_range(500..8_000u64);
    let home = rng.random_range(100_000..1_000_000u64);
    let decoy = if rng.random() {
        home + rng.random_range(0..3_000u64)
    } else {
        home + rng.random_range(50_000..5_000_000u64)
    };
    let mut anchors = Vec::new();
    for (locus, n) in [
        (home, rng.random_range(0..200usize)),
        (decoy, rng.random_range(0..80usize)),
    ] {
        let mut drift: i64 = 0;
        for _ in 0..n {
            drift += rng.random_range(-12..=12i64);
            let qpos = rng.random_range(0..query_len);
            let rpos = (locus as i64 + qpos as i64 + drift).max(0) as RefPos;
            anchors.push(Anchor { qpos, rpos });
        }
    }
    for _ in 0..rng.random_range(0..40usize) {
        anchors.push(Anchor {
            qpos: rng.random_range(0..query_len),
            rpos: rng.random_range(0..home + 10_000),
        });
    }
    for _ in 0..rng.random_range(0..20usize) {
        if anchors.is_empty() {
            break;
        }
        let twin = anchors[rng.random_range(0..anchors.len())];
        anchors.push(twin);
        anchors.push(Anchor {
            qpos: twin.qpos,
            rpos: twin.rpos + rng.random_range(1..50u64),
        });
    }
    anchors.sort_unstable_by_key(|a| a.qpos);
    let mut batches = Vec::new();
    let mut rest = anchors.as_slice();
    while !rest.is_empty() {
        let take = rng.random_range(1..=rest.len());
        let mut batch = rest[..take].to_vec();
        for i in (1..batch.len()).rev() {
            batch.swap(i, rng.random_range(0..=i));
        }
        batches.push(batch);
        rest = &rest[take..];
    }
    (batches, [home, decoy])
}

#[test]
fn bounded_dp_matches_the_unpruned_oracle_after_every_batch() {
    let mut rng = seeded(25);
    for set in 0..150 {
        let (batches, loci) = anchor_batches(&mut rng);
        for k in [15, 4] {
            for max_gap in [100, 5_000, 20_000] {
                for lookback in [0, 1, 64] {
                    for gap_linear in [0.15, 0.0, -1.0, f64::NAN] {
                        let params = ChainParams {
                            k,
                            max_gap,
                            lookback,
                            gap_linear,
                        };
                        let mut got = IncrementalChainer::new(params);
                        let mut want = IncrementalChainer::new(params);
                        for (b, batch) in batches.iter().enumerate() {
                            got.extend(batch);
                            naive_extend(&mut want, batch);
                            let what = format!("set {set} batch {b} {params:?}");
                            assert_same(&got, &want, loci, &what);
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn reset_chainers_match_the_oracle_on_the_next_read() {
    // A worker's chainer is reset between reads, keeping capacity; the
    // bound must not read anything the reset left behind.
    let mut rng = seeded(26);
    let params = ChainParams::for_k(15);
    let mut got = IncrementalChainer::new(params);
    for read in 0..40 {
        let (batches, loci) = anchor_batches(&mut rng);
        got.reset();
        let mut want = IncrementalChainer::new(params);
        for batch in &batches {
            got.extend(batch);
            naive_extend(&mut want, batch);
        }
        assert_same(&got, &want, loci, &format!("read {read}"));
    }
}
