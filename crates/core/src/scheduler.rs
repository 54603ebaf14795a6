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
//! A schedule is a pick sequence: every policy is a pure function of which
//! lanes are live — nothing about execution is fed back to it. The same
//! sources and the same policy therefore yield the same pull sequence on
//! every run and under both engine drivers, the calling thread and the
//! worker pool; and because reads are emitted in pull order, the same
//! global interleaving at the sinks (`tests/session.rs::
//! emission_interleaving_is_identical_for_every_parallelism`, and its
//! faulted twin: a contained fault retires in its slot like any result).
//! Only what the pool's timing decides — when a live attach or detach
//! lands — can move it. Favouring a source is giving it a weight under
//! [`Schedule::Priority`].
//!
//! [`Session`]: crate::engine::Session

/// How a [`crate::engine::Session`] interleaves its registered sources over
/// the shared worker pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Drain sources one at a time, in registration order — source 1 pulls
    /// nothing until source 0 is exhausted. What
    /// [`crate::PipelineRun::collect`] uses for its one source.
    Sequential,
    /// Round-robin over the non-exhausted sources: every source gets one
    /// pull per cycle, so N equally long sources finish together.
    FairShare,
    /// Smooth weighted round-robin: over any window of `sum(weights)`
    /// pulls, a source of weight `w` receives `w` of them, spread as evenly
    /// as the weights allow (never bursted). Each source brings its own
    /// weight in its [`crate::engine::AttachSpec`] (default 1), through
    /// [`crate::engine::Session::source_with`] or
    /// [`crate::engine::SessionControl::attach_with`]; a zero weight would
    /// starve its source forever, so the session's one admission rejects it.
    /// Exhausted sources drop out and their share is redistributed.
    Priority,
}

impl Schedule {
    /// Parses a CLI spelling: `"sequential"`, `"fair"` or `"priority"`.
    /// `None` for anything else.
    pub fn parse(s: &str) -> Option<Schedule> {
        match s.trim().to_ascii_lowercase().as_str() {
            "sequential" => Some(Schedule::Sequential),
            "fair" => Some(Schedule::FairShare),
            "priority" => Some(Schedule::Priority),
            _ => None,
        }
    }
}

/// One smooth-weighted-round-robin pick (the nginx algorithm) among the
/// lanes `up` admits: every such lane earns its weight in credit, the
/// richest is picked and pays the round's total back. Deterministic,
/// proportional and burst-free; ties break to the lowest index. `None` when
/// no lane is up.
fn swrr_pick(credit: &mut [i64], weights: &[u32], up: impl Fn(usize) -> bool) -> Option<usize> {
    let mut total = 0i64;
    let mut best: Option<usize> = None;
    for i in (0..credit.len()).filter(|&i| up(i)) {
        let weight = i64::from(weights[i]);
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

/// The mutable pick-next state behind a [`Schedule`], owned by the engine's
/// dispatcher.
///
/// The scheduler is consulted once per task, and a task is a read:
/// `next_where` proposes the lane (source) to pull the next read from,
/// restricted to lanes that currently have dispatchable work (room to admit
/// a new read). When a lane is permanently done the engine reports it via
/// `exhausted` and it is never proposed again. Those two calls (and
/// `add_lane` for every lane that joins, at startup or live) are all the
/// engine tells it: nothing is reported back when a read retires.
pub(crate) struct SchedulerState {
    kind: Kind,
    active: Vec<bool>,
    remaining: usize,
}

enum Kind {
    Sequential,
    FairShare { cursor: usize },
    Priority { weights: Vec<u32>, credit: Vec<i64> },
}

impl SchedulerState {
    /// The state for `schedule` with no lanes yet: every lane, the builder's
    /// included, joins through [`SchedulerState::add_lane`] carrying its own
    /// weight.
    pub(crate) fn new(schedule: Schedule) -> SchedulerState {
        let kind = match schedule {
            Schedule::Sequential => Kind::Sequential,
            Schedule::FairShare => Kind::FairShare { cursor: 0 },
            Schedule::Priority => Kind::Priority {
                weights: Vec::new(),
                credit: Vec::new(),
            },
        };
        SchedulerState {
            kind,
            active: Vec::new(),
            remaining: 0,
        }
    }

    /// Registers a lane: it starts active, with a fresh SWRR credit of 0 (so
    /// one attached to a running session smoothly joins the rotation rather
    /// than bursting). `weight` applies under `Priority` and must already be
    /// validated (≥ 1) — the session's admission does that; the other
    /// policies ignore it.
    pub(crate) fn add_lane(&mut self, weight: u32) {
        match &mut self.kind {
            Kind::Sequential | Kind::FairShare { .. } => {}
            Kind::Priority { weights, credit } => {
                debug_assert!(weight >= 1, "weights are validated at admission");
                weights.push(weight);
                credit.push(0);
            }
        }
        self.active.push(true);
        self.remaining += 1;
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
            Kind::Priority { weights, credit } => swrr_pick(credit, weights, up)?,
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

    /// `schedule` over one lane per weight, joined the one way lanes join.
    fn state(schedule: Schedule, weights: &[u32]) -> SchedulerState {
        let mut state = SchedulerState::new(schedule);
        for &weight in weights {
            state.add_lane(weight);
        }
        state
    }

    fn picks(schedule: Schedule, weights: &[u32], count: usize) -> Vec<usize> {
        let mut state = state(schedule, weights);
        (0..count).map(|_| state.next().expect("active")).collect()
    }

    #[test]
    fn sequential_sticks_to_the_first_active_source() {
        let mut s = state(Schedule::Sequential, &[1; 3]);
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
        assert_eq!(
            picks(Schedule::FairShare, &[1; 3], 7),
            vec![0, 1, 2, 0, 1, 2, 0]
        );
        let mut s = state(Schedule::FairShare, &[1; 3]);
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
            picks(Schedule::Priority, &[2, 1], 6),
            vec![0, 1, 0, 0, 1, 0]
        );
        // Proportions hold over any whole number of periods.
        let seq = picks(Schedule::Priority, &[5, 1], 60);
        assert_eq!(seq.iter().filter(|&&p| p == 0).count(), 50);
        assert_eq!(seq.iter().filter(|&&p| p == 1).count(), 10);
    }

    #[test]
    fn priority_never_starves_a_low_weight_source() {
        // A weight-1 source among heavy peers is picked at least once per
        // sum-of-weights pulls.
        let weights = [7, 1, 9];
        let period: usize = weights.iter().map(|&w| w as usize).sum();
        let seq = picks(Schedule::Priority, &weights, 3 * period);
        for window in seq.chunks(period) {
            assert!(
                window.contains(&1),
                "weight-1 source starved in window {window:?}"
            );
        }
    }

    #[test]
    fn priority_redistributes_shares_of_exhausted_sources() {
        let mut s = state(Schedule::Priority, &[3, 1]);
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
        let mut s = state(Schedule::Priority, &[2, 1]);
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
        let mut f = state(Schedule::FairShare, &[1; 3]);
        assert_eq!(f.next_where(|i| i != 0), Some(1));
        assert_eq!(f.next_where(|_| true), Some(2));
        assert_eq!(f.next_where(|_| true), Some(0));
    }

    #[test]
    fn schedule_parses_the_cli_spellings() {
        assert_eq!(Schedule::parse("sequential"), Some(Schedule::Sequential));
        assert_eq!(Schedule::parse(" FAIR "), Some(Schedule::FairShare));
        assert_eq!(Schedule::parse("priority"), Some(Schedule::Priority));
        // One spelling per schedule: the undocumented aliases are refused.
        for refused in ["seq", "fairshare", "fair-share", "deadline", "bogus"] {
            assert_eq!(Schedule::parse(refused), None, "{refused}");
        }
    }

    #[test]
    fn lanes_can_be_added_to_a_running_scheduler() {
        // FairShare: a lane added mid-rotation joins the wheel.
        let mut f = state(Schedule::FairShare, &[1; 2]);
        assert_eq!(f.next(), Some(0));
        f.add_lane(1);
        assert_eq!(f.next(), Some(1));
        assert_eq!(f.next(), Some(2));
        assert_eq!(f.next(), Some(0));
        // Priority: the new lane starts at credit 0 and earns its weighted
        // share smoothly — pinned sequence.
        let mut p = state(Schedule::Priority, &[1]);
        assert_eq!(p.next(), Some(0));
        p.add_lane(2);
        let seq: Vec<usize> = (0..6).map(|_| p.next().expect("active")).collect();
        assert_eq!(seq, vec![1, 0, 1, 1, 0, 1]);
        // Exhausting an added lane retires it like any other.
        p.exhausted(1);
        assert_eq!(p.next(), Some(0));
        p.exhausted(0);
        assert_eq!(p.next(), None);
        assert!(p.all_exhausted());
    }
}
