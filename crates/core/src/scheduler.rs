//! Source-interleaving policies for multi-source [`Session`]s.
//!
//! A [`crate::engine::Session`] registers N read sources but owns exactly
//! one worker pool. The [`Schedule`] decides, pull by pull, which source the
//! feeder draws the next read from; the scheduler therefore controls
//! *interleaving and latency*, never *results* — per-read computation is
//! independent and per-source emission order is always source order, so
//! every policy produces bit-identical per-source output (asserted by
//! `tests/session.rs`).
//!
//! All policies are deterministic: the same sources and the same policy
//! yield the same pull sequence on every run.
//!
//! [`Session`]: crate::engine::Session

/// How a [`crate::engine::Session`] interleaves its registered sources over
/// the shared worker pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Schedule {
    /// Drain sources one at a time, in registration order — source 1 pulls
    /// nothing until source 0 is exhausted. What
    /// [`crate::PipelineRun::collect`] uses for its one source.
    Sequential,
    /// Round-robin over the non-exhausted sources: every source gets one
    /// pull per cycle, so N equally long sources finish together.
    FairShare,
    /// Smooth weighted round-robin: over any window of `sum(weights)`
    /// pulls, source `i` receives `weights[i]` of them, spread as evenly as
    /// the weights allow (never bursted). Weights align with source
    /// **registration order** and must all be ≥ 1 — a zero weight would
    /// starve its source forever, so [`crate::engine::Session::run`] rejects
    /// it up front. Exhausted sources drop out and their share is
    /// redistributed.
    Priority(Vec<u32>),
    /// Latency-target scheduling: each source declares a residency target in
    /// chunk-work units (the [`crate::stream::LatencyStats`] currency), and
    /// the scheduler continuously re-weights a smooth weighted round-robin
    /// by each source's *urgency* — the ratio of its observed residency
    /// (an EWMA over retired reads, fed back by the engine) to its target.
    /// A source running at its target holds a neutral share; one whose reads
    /// are resident 4× longer than its target earns 4× the pulls until the
    /// EWMA comes back down. Urgency is clamped to `[1, 16×]` neutral, so no
    /// source is ever starved and a hopeless target cannot monopolize the
    /// pool. Targets align with source **registration order** and must all
    /// be ≥ 1 ([`crate::engine::SessionError::ZeroDeadlineTarget`]).
    ///
    /// Like every other policy the decision procedure is deterministic: the
    /// pick sequence is a pure function of the availability and
    /// residency-feedback sequences (integer arithmetic only, ties to the
    /// lowest index), and — like every other policy — it changes latency
    /// distribution, never results.
    Deadline(Vec<u64>),
}

impl Schedule {
    /// Parses a CLI spelling: `"sequential"`/`"seq"`, `"fair"`/
    /// `"fairshare"`/`"fair-share"`, `"priority"`, or `"deadline"`.
    /// `Priority` and `Deadline` take their weights/targets from per-source
    /// specs, so they parse to empty vectors — callers fill them in. `None`
    /// for anything else.
    pub fn parse(s: &str) -> Option<Schedule> {
        match s.trim().to_ascii_lowercase().as_str() {
            "sequential" | "seq" => Some(Schedule::Sequential),
            "fair" | "fairshare" | "fair-share" => Some(Schedule::FairShare),
            "priority" => Some(Schedule::Priority(Vec::new())),
            "deadline" => Some(Schedule::Deadline(Vec::new())),
            _ => None,
        }
    }
}

/// Neutral urgency of a [`Schedule::Deadline`] lane: the weight a lane earns
/// while its residency EWMA sits exactly at its target (or before any of its
/// reads have retired).
const DEADLINE_NEUTRAL: i64 = 8;

/// Urgency cap: a lane can earn at most 16× the neutral share no matter how
/// far past its target it is, so one hopeless target cannot starve the rest.
const DEADLINE_MAX: i64 = 16 * DEADLINE_NEUTRAL;

/// One smooth-weighted-round-robin pick (the nginx algorithm) among the
/// lanes `up` admits: every such lane earns `weight_of(lane)` in credit, the
/// richest is picked and pays the round's total back. Deterministic,
/// proportional and burst-free; ties break to the lowest index. `None` when
/// no lane is up.
fn swrr_pick(
    credit: &mut [i64],
    up: impl Fn(usize) -> bool,
    weight_of: impl Fn(usize) -> i64,
) -> Option<usize> {
    let mut total = 0i64;
    let mut best: Option<usize> = None;
    for i in (0..credit.len()).filter(|&i| up(i)) {
        let weight = weight_of(i);
        credit[i] += weight;
        total += weight;
        if best.is_none_or(|b| credit[i] > credit[b]) {
            best = Some(i);
        }
    }
    let pick = best?;
    credit[pick] -= total;
    Some(pick)
}

/// The SWRR weight a deadline lane earns this round: `neutral × ewma /
/// target`, clamped to `[1, DEADLINE_MAX]`. Integer arithmetic keeps the
/// whole policy deterministic.
fn deadline_urgency(ewma: u64, target: u64) -> i64 {
    if ewma == 0 {
        return DEADLINE_NEUTRAL;
    }
    let urgency = (ewma.saturating_mul(DEADLINE_NEUTRAL as u64) / target.max(1)) as i64;
    urgency.clamp(1, DEADLINE_MAX)
}

/// The mutable pick-next state behind a [`Schedule`], owned by the engine's
/// dispatcher.
///
/// The scheduler is consulted once per task, and a task is a read:
/// `next_where` proposes the lane (source) to pull the next read from,
/// restricted to lanes that currently have dispatchable work (room to admit
/// a new read, or a faulted read queued for its retry). When a lane is
/// permanently done the engine reports it via `exhausted` and it is never
/// proposed again.
pub(crate) struct SchedulerState {
    kind: Kind,
    active: Vec<bool>,
    remaining: usize,
}

enum Kind {
    Sequential,
    FairShare {
        cursor: usize,
    },
    Priority {
        weights: Vec<u32>,
        credit: Vec<i64>,
    },
    Deadline {
        targets: Vec<u64>,
        ewma: Vec<u64>,
        credit: Vec<i64>,
    },
}

impl SchedulerState {
    /// Builds the state for `n` sources. `Priority` weights and `Deadline`
    /// targets must already be validated (length `n`, all ≥ 1) —
    /// [`crate::engine::Session::run`] does that before construction.
    pub(crate) fn new(schedule: &Schedule, n: usize) -> SchedulerState {
        let kind = match schedule {
            Schedule::Sequential => Kind::Sequential,
            Schedule::FairShare => Kind::FairShare { cursor: 0 },
            Schedule::Priority(weights) => {
                debug_assert_eq!(weights.len(), n, "weights validated by Session::run");
                debug_assert!(weights.iter().all(|&w| w >= 1));
                Kind::Priority {
                    weights: weights.clone(),
                    credit: vec![0; n],
                }
            }
            Schedule::Deadline(targets) => {
                debug_assert_eq!(targets.len(), n, "targets validated by Session::run");
                debug_assert!(targets.iter().all(|&t| t >= 1));
                Kind::Deadline {
                    targets: targets.clone(),
                    ewma: vec![0; n],
                    credit: vec![0; n],
                }
            }
        };
        SchedulerState {
            kind,
            active: vec![true; n],
            remaining: n,
        }
    }

    /// Registers a lane attached to a *running* session: it starts active,
    /// with a fresh SWRR credit of 0 (so it smoothly joins the rotation
    /// rather than bursting). `weight` applies under `Priority`, `target`
    /// under `Deadline`; the other policies ignore both.
    pub(crate) fn add_lane(&mut self, weight: u32, target: u64) {
        match &mut self.kind {
            Kind::Sequential | Kind::FairShare { .. } => {}
            Kind::Priority { weights, credit } => {
                weights.push(weight.max(1));
                credit.push(0);
            }
            Kind::Deadline {
                targets,
                ewma,
                credit,
            } => {
                targets.push(target.max(1));
                ewma.push(0);
                credit.push(0);
            }
        }
        self.active.push(true);
        self.remaining += 1;
    }

    /// Feeds one retired read's residency (chunk-work units from admission
    /// to retirement) back to the policy. Only [`Schedule::Deadline`] uses
    /// it — the EWMA (`new = (3·old + sample) / 4`, integer) tracks each
    /// lane's recent residency against its target. The engine calls this on
    /// the dispatcher for every retirement, so the feedback sequence is as
    /// deterministic as the execution that produced it.
    pub(crate) fn observe(&mut self, lane: usize, resident_units: u64) {
        if let Kind::Deadline { ewma, .. } = &mut self.kind {
            let e = &mut ewma[lane];
            let sample = resident_units.max(1);
            *e = if *e == 0 {
                sample
            } else {
                (3 * *e + sample) / 4
            };
        }
    }

    /// The source to pull from next, or `None` when all are exhausted.
    #[cfg(test)]
    pub(crate) fn next(&mut self) -> Option<usize> {
        self.next_where(|_| true)
    }

    /// The lane to dispatch next, restricted to lanes for which `available`
    /// holds. `None` means no active lane is available right now — either
    /// everything is exhausted ([`SchedulerState::all_exhausted`]) or every
    /// active lane's work is momentarily blocked and the caller must wait.
    ///
    /// Availability never changes long-run proportions: an unavailable lane
    /// keeps its credit frozen (`Priority`) or its turn queued (`FairShare`)
    /// and resumes its share as soon as it is available again.
    pub(crate) fn next_where(&mut self, available: impl Fn(usize) -> bool) -> Option<usize> {
        if self.remaining == 0 {
            return None;
        }
        let active = &self.active;
        let up = |i: usize| active[i] && available(i);
        let pick = match &mut self.kind {
            Kind::Sequential => (0..active.len()).find(|&i| up(i))?,
            Kind::FairShare { cursor } => {
                // First available source at or after the cursor, wrapping.
                let n = active.len();
                let offset = (0..n).find(|o| up((*cursor + o) % n))?;
                let pick = (*cursor + offset) % n;
                *cursor = (pick + 1) % n;
                pick
            }
            Kind::Priority { weights, credit } => swrr_pick(credit, up, |i| i64::from(weights[i]))?,
            // `Priority` with dynamic weights: the weight is recomputed from
            // the residency EWMA every round, so lanes drifting past their
            // target automatically earn a larger share.
            Kind::Deadline {
                targets,
                ewma,
                credit,
            } => swrr_pick(credit, up, |i| deadline_urgency(ewma[i], targets[i]))?,
        };
        Some(pick)
    }

    /// `true` once every lane has been reported [`SchedulerState::exhausted`].
    pub(crate) fn all_exhausted(&self) -> bool {
        self.remaining == 0
    }

    /// Marks a source as drained; it will never be proposed again.
    pub(crate) fn exhausted(&mut self, index: usize) {
        if std::mem::replace(&mut self.active[index], false) {
            self.remaining -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn picks(schedule: &Schedule, n: usize, count: usize) -> Vec<usize> {
        let mut state = SchedulerState::new(schedule, n);
        (0..count).map(|_| state.next().expect("active")).collect()
    }

    #[test]
    fn sequential_sticks_to_the_first_active_source() {
        let mut s = SchedulerState::new(&Schedule::Sequential, 3);
        assert_eq!(s.next(), Some(0));
        assert_eq!(s.next(), Some(0));
        s.exhausted(0);
        assert_eq!(s.next(), Some(1));
        s.exhausted(1);
        assert_eq!(s.next(), Some(2));
        s.exhausted(2);
        assert_eq!(s.next(), None);
    }

    #[test]
    fn fair_share_round_robins_and_reflows_on_exhaustion() {
        assert_eq!(picks(&Schedule::FairShare, 3, 7), vec![0, 1, 2, 0, 1, 2, 0]);
        let mut s = SchedulerState::new(&Schedule::FairShare, 3);
        assert_eq!(s.next(), Some(0));
        s.exhausted(1);
        assert_eq!(s.next(), Some(2));
        assert_eq!(s.next(), Some(0));
        assert_eq!(s.next(), Some(2));
        s.exhausted(0);
        s.exhausted(2);
        assert_eq!(s.next(), None);
    }

    #[test]
    fn priority_is_proportional_and_smooth() {
        // The classic SWRR check: weights [2, 1] give the period A B A, not
        // the bursty A A B.
        assert_eq!(
            picks(&Schedule::Priority(vec![2, 1]), 2, 6),
            vec![0, 1, 0, 0, 1, 0]
        );
        // Proportions hold over any whole number of periods.
        let seq = picks(&Schedule::Priority(vec![5, 1]), 2, 60);
        assert_eq!(seq.iter().filter(|&&p| p == 0).count(), 50);
        assert_eq!(seq.iter().filter(|&&p| p == 1).count(), 10);
    }

    #[test]
    fn priority_never_starves_a_low_weight_source() {
        // A weight-1 source among heavy peers is picked at least once per
        // sum-of-weights pulls.
        let weights = vec![7, 1, 9];
        let period: usize = weights.iter().map(|&w| w as usize).sum();
        let seq = picks(&Schedule::Priority(weights), 3, 3 * period);
        for window in seq.chunks(period) {
            assert!(
                window.contains(&1),
                "weight-1 source starved in window {window:?}"
            );
        }
    }

    #[test]
    fn priority_redistributes_shares_of_exhausted_sources() {
        let mut s = SchedulerState::new(&Schedule::Priority(vec![3, 1]), 2);
        s.exhausted(0);
        // Only source 1 remains; it gets every pull.
        assert_eq!(s.next(), Some(1));
        assert_eq!(s.next(), Some(1));
        s.exhausted(1);
        assert_eq!(s.next(), None);
    }

    #[test]
    fn availability_filters_without_burning_credit() {
        // Lane 1 is unavailable for a while; its SWRR credit freezes and it
        // resumes its full share once available again — the weight-1 lane is
        // never permanently disadvantaged by a blocked stretch.
        let mut s = SchedulerState::new(&Schedule::Priority(vec![2, 1]), 2);
        assert_eq!(s.next_where(|i| i == 0), Some(0));
        assert_eq!(s.next_where(|i| i == 0), Some(0));
        // Unblocked: the normal A B A period resumes from lane 1's frozen
        // credit (0), so the smooth pattern continues.
        assert_eq!(s.next_where(|_| true), Some(0));
        assert_eq!(s.next_where(|_| true), Some(1));
        assert_eq!(s.next_where(|_| true), Some(0));
        // Nothing available: the caller is told to wait, state untouched.
        assert_eq!(s.next_where(|_| false), None);
        assert!(!s.all_exhausted());
        // FairShare skips unavailable lanes but keeps the cursor moving.
        let mut f = SchedulerState::new(&Schedule::FairShare, 3);
        assert_eq!(f.next_where(|i| i != 0), Some(1));
        assert_eq!(f.next_where(|_| true), Some(2));
        assert_eq!(f.next_where(|_| true), Some(0));
    }

    #[test]
    fn schedule_parses_the_cli_spellings() {
        assert_eq!(Schedule::parse("sequential"), Some(Schedule::Sequential));
        assert_eq!(Schedule::parse("seq"), Some(Schedule::Sequential));
        assert_eq!(Schedule::parse(" FAIR "), Some(Schedule::FairShare));
        assert_eq!(Schedule::parse("fair-share"), Some(Schedule::FairShare));
        assert_eq!(
            Schedule::parse("priority"),
            Some(Schedule::Priority(Vec::new()))
        );
        assert_eq!(
            Schedule::parse("deadline"),
            Some(Schedule::Deadline(Vec::new()))
        );
        assert_eq!(Schedule::parse("bogus"), None);
    }

    #[test]
    fn deadline_without_feedback_is_fair() {
        // Before any read retires every lane's urgency is the neutral
        // weight, so the policy degenerates to plain round-robin — pinned.
        assert_eq!(
            picks(&Schedule::Deadline(vec![100, 100, 100]), 3, 6),
            vec![0, 1, 2, 0, 1, 2]
        );
        // Unequal *targets* alone change nothing: urgency is residency
        // relative to target, and nobody has residency yet.
        assert_eq!(
            picks(&Schedule::Deadline(vec![10, 1_000]), 2, 4),
            vec![0, 1, 0, 1]
        );
    }

    #[test]
    fn deadline_boosts_a_lane_past_its_target() {
        // Lane 1's reads are observed resident at 4× its target while lane 0
        // sits exactly at its target: lane 1's urgency becomes 32 against
        // lane 0's 8, so SWRR gives lane 1 four pulls to every one of lane
        // 0's — the exact sequence is pinned, as determinism demands.
        let mut s = SchedulerState::new(&Schedule::Deadline(vec![100, 100]), 2);
        s.observe(0, 100);
        s.observe(1, 400);
        let seq: Vec<usize> = (0..10).map(|_| s.next().expect("active")).collect();
        assert_eq!(seq, vec![1, 1, 0, 1, 1, 1, 1, 0, 1, 1]);
        assert_eq!(seq.iter().filter(|&&p| p == 1).count(), 8);
    }

    #[test]
    fn deadline_feedback_sequence_is_deterministic() {
        // Same construction, same observe() calls, same availability — the
        // pick sequence must be bit-for-bit reproducible.
        let run = || {
            let mut s = SchedulerState::new(&Schedule::Deadline(vec![50, 200, 100]), 3);
            let mut seq = Vec::new();
            for round in 0..30u64 {
                if round == 5 {
                    s.observe(0, 500);
                }
                if round == 10 {
                    s.observe(1, 100);
                    s.observe(2, 900);
                }
                if round == 20 {
                    s.observe(0, 40);
                }
                seq.push(s.next_where(|l| l != 1 || round % 2 == 0).expect("active"));
            }
            seq
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn deadline_ewma_recovers_and_urgency_follows() {
        // A burst of slow reads raises the EWMA; a stretch of fast reads
        // brings it (and the lane's share) back down — no permanent penalty.
        let mut s = SchedulerState::new(&Schedule::Deadline(vec![100, 100]), 2);
        s.observe(0, 1_600);
        // 16× target, clamped pressure: lane 0 dominates.
        let burst: Vec<usize> = (0..9).map(|_| s.next().expect("active")).collect();
        assert!(burst.iter().filter(|&&p| p == 0).count() >= 7, "{burst:?}");
        // Fast reads decay the EWMA geometrically (3/4 per sample); lane 0's
        // urgency falls from the cap (128) to 4 against lane 1's neutral 8.
        for _ in 0..12 {
            s.observe(0, 10);
        }
        // Lane 0 first drains the credit it banked during the burst (eight
        // picks), then the steady state settles into the 4:8 pattern.
        let calm: Vec<usize> = (0..20).map(|_| s.next().expect("active")).collect();
        assert_eq!(&calm[..8], &[0; 8]);
        assert_eq!(&calm[8..], &[1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1]);
    }

    #[test]
    fn deadline_never_starves_within_the_cap() {
        // Lane 0 pinned at the urgency cap (128) against a neutral lane (8):
        // the neutral lane must still be picked at least once per
        // sum-of-weights window.
        let mut s = SchedulerState::new(&Schedule::Deadline(vec![1, 100]), 2);
        s.observe(0, u64::MAX / 2); // astronomically past target → clamped
        let window = (128 + 8) as usize;
        let seq: Vec<usize> = (0..2 * window).map(|_| s.next().expect("active")).collect();
        for chunk in seq.chunks(window) {
            assert!(chunk.contains(&1), "neutral lane starved in {chunk:?}");
        }
    }

    #[test]
    fn lanes_can_be_added_to_a_running_scheduler() {
        // FairShare: a lane added mid-rotation joins the wheel.
        let mut f = SchedulerState::new(&Schedule::FairShare, 2);
        assert_eq!(f.next(), Some(0));
        f.add_lane(1, 1);
        assert_eq!(f.next(), Some(1));
        assert_eq!(f.next(), Some(2));
        assert_eq!(f.next(), Some(0));
        // Priority: the new lane starts at credit 0 and earns its weighted
        // share smoothly — pinned sequence.
        let mut p = SchedulerState::new(&Schedule::Priority(vec![1]), 1);
        assert_eq!(p.next(), Some(0));
        p.add_lane(2, 1);
        let seq: Vec<usize> = (0..6).map(|_| p.next().expect("active")).collect();
        assert_eq!(seq, vec![1, 0, 1, 1, 0, 1]);
        // Deadline: the new lane starts neutral (credit ties break to the
        // lowest index, so the incumbent goes first) and picks up feedback.
        let mut d = SchedulerState::new(&Schedule::Deadline(vec![100]), 1);
        assert_eq!(d.next(), Some(0));
        d.add_lane(1, 100);
        assert_eq!(d.next(), Some(0));
        assert_eq!(d.next(), Some(1));
        d.observe(1, 400);
        let seq: Vec<usize> = (0..5).map(|_| d.next().expect("active")).collect();
        assert_eq!(seq.iter().filter(|&&p| p == 1).count(), 4, "{seq:?}");
        // Exhausting an added lane retires it like any other.
        d.exhausted(1);
        assert_eq!(d.next(), Some(0));
        d.exhausted(0);
        assert_eq!(d.next(), None);
        assert!(d.all_exhausted());
    }
}
