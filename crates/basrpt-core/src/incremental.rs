//! Incremental scheduling: keep per-VOQ ranking keys hot across events.
//!
//! The one-pass schedulers ([`Srpt`](crate::Srpt), [`FastBasrpt`],
//! [`MaxWeight`](crate::MaxWeight), …) rebuild the full candidate list on
//! every decision — `O(Q)` in the number of non-empty VOQs, plus a sort
//! warm-started from the previous decision's order (`O(Q log Q)` at
//! worst) — even though a single flow arrival or completion perturbs
//! exactly one VOQ's key. [`IncrementalScheduler`] removes that redundancy:
//!
//! * [`FlowTable`] records every mutated VOQ in a change log
//!   ([`FlowTable::changes_since`]);
//! * the scheduler keeps one `(key, head flow)` entry per non-empty VOQ in
//!   a [`BTreeSet`] ordered exactly like the one-pass sort;
//! * on each decision it re-keys only the VOQs in the log (`O(Δ log Q)`)
//!   and then walks the already-ordered set running the same greedy
//!   maximal-matching admission as [`greedy_by_key`](crate::greedy_by_key).
//!
//! Disciplines plug in through [`VoqDiscipline`], which maps a
//! [`VoqView`] to an ordered key. The produced [`Schedule`]s are
//! **bit-identical** to the corresponding one-pass scheduler's (same key
//! values, same `(key, flow id)` tie-breaks, same admission order) — a
//! property enforced by [`check_equivalence`], the differential tests in
//! `tests/incremental_equiv.rs`, and the property tests in
//! `tests/props.rs`.
//!
//! # Example
//!
//! ```
//! use basrpt_core::{FastBasrpt, FlowState, FlowTable, IncrementalScheduler, Scheduler};
//! use dcn_types::{FlowId, HostId, Voq};
//!
//! let mut table = FlowTable::new();
//! let voq = Voq::new(HostId::new(0), HostId::new(1));
//! table.insert(FlowState::new(FlowId::new(1), voq, 5))?;
//!
//! let mut fast = IncrementalScheduler::new(FastBasrpt::new(2500.0, 144));
//! let s = fast.schedule(&table); // full build on first contact
//! assert!(s.contains(FlowId::new(1)));
//!
//! table.drain(FlowId::new(1), 2)?;
//! let s = fast.schedule(&table); // re-keys only the drained VOQ
//! assert!(s.contains(FlowId::new(1)));
//! # Ok::<(), basrpt_core::FlowTableError>(())
//! ```

use crate::table::{CursorId, VoqView};
use crate::{FastBasrpt, FlowTable, Schedule, Scheduler};
use dcn_types::{FlowId, Voq};
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// A total-ordered wrapper for `f64` scheduling keys.
///
/// Orders by [`f64::total_cmp`], matching the comparator
/// [`greedy_by_key`](crate::greedy_by_key) uses on raw candidate keys, so
/// incremental and one-pass paths rank identically — including for values
/// that compare equal only under IEEE semantics. Keys are expected to be
/// finite (the one-pass path debug-asserts this).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct F64Key(f64);

impl F64Key {
    /// Wraps a key value.
    pub fn new(key: f64) -> Self {
        F64Key(key)
    }

    /// The wrapped value.
    pub fn get(self) -> f64 {
        self.0
    }
}

impl Eq for F64Key {}

impl PartialOrd for F64Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for F64Key {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// A scheduling discipline expressed as a pure ranking of VOQ summaries.
///
/// `rank` maps the current state of one non-empty VOQ to `(key, head
/// flow)`: the key orders VOQs (smaller = higher priority, ties broken by
/// the head flow's id) and the head flow is the one transmitted if the VOQ
/// wins its ports. The ranking must depend only on the given view — that
/// locality is what lets [`IncrementalScheduler`] re-rank just the VOQs a
/// table event touched.
///
/// Implemented by the stateless one-pass disciplines; stateful ones
/// (e.g. [`RoundRobin`](crate::RoundRobin), whose priority depends on
/// service history, or [`ExactBasrpt`](crate::ExactBasrpt), whose
/// objective couples VOQs) cannot be expressed this way.
pub trait VoqDiscipline {
    /// The ordered ranking key. For disciplines whose one-pass twin ranks
    /// `f64` candidate keys this should be [`F64Key`] (built from the
    /// *same* arithmetic) so both paths order identically.
    type Key: Ord + Clone + fmt::Debug;

    /// Short human-readable name, used in experiment output.
    fn name(&self) -> &str;

    /// Ranks one non-empty VOQ: the admission key and the flow that
    /// transmits if this VOQ is selected.
    fn rank(&self, view: &VoqView) -> (Self::Key, FlowId);

    /// Slot-validity bound for a schedule just computed from `table` —
    /// the contract of [`Scheduler::schedule_validity`], forwarded
    /// verbatim by [`IncrementalScheduler`] so wrapping a discipline does
    /// not change how long its schedules may be replayed. The default of
    /// `1` is always sound; overrides mirror the one-pass twins (see
    /// [`crate::validity`]).
    fn schedule_validity(&self, table: &FlowTable, schedule: &Schedule) -> u64 {
        let _ = (table, schedule);
        1
    }
}

impl VoqDiscipline for crate::Srpt {
    type Key = F64Key;

    fn name(&self) -> &str {
        "SRPT"
    }

    fn rank(&self, view: &VoqView) -> (F64Key, FlowId) {
        (
            F64Key::new(view.shortest_remaining as f64),
            view.shortest_flow,
        )
    }

    fn schedule_validity(&self, table: &FlowTable, schedule: &Schedule) -> u64 {
        Scheduler::schedule_validity(self, table, schedule)
    }
}

impl VoqDiscipline for FastBasrpt {
    type Key = F64Key;

    fn name(&self) -> &str {
        "fast BASRPT"
    }

    fn rank(&self, view: &VoqView) -> (F64Key, FlowId) {
        let key = self.weight() * view.shortest_remaining as f64 - view.backlog as f64;
        (F64Key::new(key), view.shortest_flow)
    }

    fn schedule_validity(&self, table: &FlowTable, schedule: &Schedule) -> u64 {
        Scheduler::schedule_validity(self, table, schedule)
    }
}

impl VoqDiscipline for crate::MaxWeight {
    type Key = F64Key;

    fn name(&self) -> &str {
        "MaxWeight"
    }

    fn rank(&self, view: &VoqView) -> (F64Key, FlowId) {
        (F64Key::new(-(view.backlog as f64)), view.shortest_flow)
    }

    fn schedule_validity(&self, table: &FlowTable, schedule: &Schedule) -> u64 {
        Scheduler::schedule_validity(self, table, schedule)
    }
}

impl VoqDiscipline for crate::Fifo {
    type Key = F64Key;

    fn name(&self) -> &str {
        "FIFO"
    }

    fn rank(&self, view: &VoqView) -> (F64Key, FlowId) {
        (F64Key::new(view.oldest_flow.raw() as f64), view.oldest_flow)
    }

    fn schedule_validity(&self, table: &FlowTable, schedule: &Schedule) -> u64 {
        Scheduler::schedule_validity(self, table, schedule)
    }
}

impl VoqDiscipline for crate::ThresholdBacklogSrpt {
    /// `(backlog ≤ threshold, shortest remaining)` — the exact prefix of
    /// the tuple the one-pass implementation sorts, kept as integers so no
    /// precision is lost for large backlogs.
    type Key = (bool, u64);

    fn name(&self) -> &str {
        "threshold backlog-aware SRPT"
    }

    fn rank(&self, view: &VoqView) -> ((bool, u64), FlowId) {
        (
            (view.backlog <= self.threshold(), view.shortest_remaining),
            view.shortest_flow,
        )
    }

    fn schedule_validity(&self, table: &FlowTable, schedule: &Schedule) -> u64 {
        Scheduler::schedule_validity(self, table, schedule)
    }
}

/// A scheduler that maintains its candidate ordering across decisions.
///
/// Holds one entry per non-empty VOQ in a [`BTreeSet`] ordered by
/// `(key, head flow, voq)`. Each [`Scheduler::schedule`] call first syncs
/// with the table — a full rebuild on first contact, after a
/// [`FlowTable::clone`], or when the change log was compacted past this
/// scheduler's cursor; otherwise an `O(Δ log Q)` patch replaying only the
/// changed VOQs — and then greedily admits heads in key order, exactly
/// like the one-pass path.
///
/// Produces bit-identical schedules to the one-pass discipline `D` wraps:
/// `(key, flow id)` pairs are unique across candidates (a flow lives in
/// exactly one VOQ), so the extra `voq` component of the set ordering
/// never influences relative order.
///
/// # Example
///
/// ```
/// use basrpt_core::{FlowState, FlowTable, IncrementalScheduler, Scheduler, Srpt};
/// use dcn_types::{FlowId, HostId, Voq};
///
/// let mut table = FlowTable::new();
/// for (id, src, dst, size) in [(1, 0, 1, 500), (2, 0, 2, 100), (3, 2, 3, 900)] {
///     let voq = Voq::new(HostId::new(src), HostId::new(dst));
///     table.insert(FlowState::new(FlowId::new(id), voq, size))?;
/// }
///
/// let mut incremental = IncrementalScheduler::new(Srpt::new());
/// let mut one_pass = Srpt::new();
/// // Identical matchings, decision after decision: flow 2 preempts flow 1
/// // at source 0 (shorter remaining), flow 3 is unconstrained.
/// let schedule = incremental.schedule(&table);
/// assert_eq!(schedule, one_pass.schedule(&table));
/// assert_eq!(schedule.len(), 2);
/// assert!(schedule.contains(FlowId::new(2)));
///
/// // After an event, the next call patches only the changed VOQ
/// // (O(log Q)) instead of re-sorting every candidate.
/// table.drain(FlowId::new(2), 100)?; // flow 2 completes
/// assert_eq!(incremental.schedule(&table), one_pass.schedule(&table));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalScheduler<D: VoqDiscipline> {
    discipline: D,
    /// Identity of the table `order`/`entries` mirror, if any.
    synced_table: Option<u64>,
    /// Absolute change-log position up to which changes are applied.
    log_pos: u64,
    /// Current `(key, head)` per non-empty VOQ — the reverse index needed
    /// to delete a VOQ's old `order` entry without knowing its old key.
    entries: HashMap<Voq, (D::Key, FlowId)>,
    /// All candidates, pre-sorted by `(key, head flow, voq)`.
    order: BTreeSet<(D::Key, FlowId, Voq)>,
    /// Change-log registration per table identity, so compaction keeps the
    /// suffix this scheduler has not consumed yet (instead of forcing a
    /// full rebuild whenever many drains pile up between decisions, as long
    /// fast-forward windows do). Purely an optimization: a lost
    /// registration — e.g. in a clone of this scheduler, which shares the
    /// originals' slots — only means compaction may trigger a rebuild.
    registrations: HashMap<u64, CursorId>,
}

impl<D: VoqDiscipline> IncrementalScheduler<D> {
    /// Wraps a discipline in the incremental engine.
    pub fn new(discipline: D) -> Self {
        IncrementalScheduler {
            discipline,
            synced_table: None,
            log_pos: 0,
            entries: HashMap::new(),
            order: BTreeSet::new(),
            registrations: HashMap::new(),
        }
    }

    /// The wrapped discipline.
    pub fn discipline(&self) -> &D {
        &self.discipline
    }

    /// Number of VOQ candidates currently tracked.
    pub fn tracked_voqs(&self) -> usize {
        self.entries.len()
    }

    fn rebuild(&mut self, table: &FlowTable) {
        self.entries.clear();
        self.order.clear();
        for view in table.voqs() {
            let (key, flow) = self.discipline.rank(&view);
            self.entries.insert(view.voq, (key.clone(), flow));
            self.order.insert((key, flow, view.voq));
        }
    }

    fn apply(&mut self, table: &FlowTable, changed: Voq) {
        if let Some((key, flow)) = self.entries.remove(&changed) {
            self.order.remove(&(key, flow, changed));
        }
        if let Some(view) = table.voq_view(changed) {
            let (key, flow) = self.discipline.rank(&view);
            self.entries.insert(changed, (key.clone(), flow));
            self.order.insert((key, flow, changed));
        }
    }

    /// Brings the candidate set up to date with `table`.
    fn sync(&mut self, table: &FlowTable) {
        let same_table = self.synced_table == Some(table.table_id());
        if same_table {
            if let Some(changes) = table.changes_since(self.log_pos) {
                // The slice borrows the table while `apply` needs it too;
                // the changed VOQ list is tiny, so copy it out.
                let changed: Vec<Voq> = changes.to_vec();
                for voq in changed {
                    self.apply(table, voq);
                }
                self.log_pos = table.change_log_end();
                self.ack(table);
                return;
            }
        }
        // First contact, a different/cloned table, or a compacted log.
        self.rebuild(table);
        self.synced_table = Some(table.table_id());
        self.log_pos = table.change_log_end();
        self.ack(table);
    }

    /// Registers with `table`'s change log on first contact and
    /// acknowledges everything consumed so far, releasing that prefix for
    /// compaction.
    fn ack(&mut self, table: &FlowTable) {
        let reg = *self
            .registrations
            .entry(table.table_id())
            .or_insert_with(|| table.register_cursor());
        table.ack_changes(reg, self.log_pos);
    }

    /// Consistency check: every tracked entry matches a fresh ranking of
    /// the table's VOQs and vice versa. Linear in the number of VOQs;
    /// intended for tests.
    pub fn check_synced(&self, table: &FlowTable) -> Result<(), String> {
        if self.synced_table != Some(table.table_id()) {
            return Err(format!(
                "scheduler synced to table {:?}, asked about table {}",
                self.synced_table,
                table.table_id()
            ));
        }
        let mut fresh = 0usize;
        for view in table.voqs() {
            fresh += 1;
            let (key, flow) = self.discipline.rank(&view);
            match self.entries.get(&view.voq) {
                None => return Err(format!("VOQ {} missing from candidate set", view.voq)),
                Some((k, f)) if *k != key || *f != flow => {
                    return Err(format!(
                        "VOQ {} stale: tracked ({k:?}, {f}), expected ({key:?}, {flow})",
                        view.voq
                    ));
                }
                Some(_) => {}
            }
        }
        if fresh != self.entries.len() {
            return Err(format!(
                "{} tracked candidates but {fresh} non-empty VOQs",
                self.entries.len()
            ));
        }
        if self.entries.len() != self.order.len() {
            return Err("entries/order size mismatch".to_string());
        }
        Ok(())
    }
}

impl<D: VoqDiscipline> Scheduler for IncrementalScheduler<D> {
    fn name(&self) -> &str {
        self.discipline.name()
    }

    fn schedule(&mut self, table: &FlowTable) -> Schedule {
        self.sync(table);
        // Every candidate VOQ has backlog, so its ingress port is active;
        // once the matching occupies every active ingress port no further
        // candidate can be admitted and the walk can stop early without
        // changing the result.
        let max_selections = table.num_active_ingress_ports();
        // The schedule's own busy-port bitsets make the per-candidate
        // admission test two word reads; no separate scratch state needed.
        let mut schedule = Schedule::new();
        for (_, flow, voq) in self.order.iter() {
            if !schedule.admits(*voq) {
                continue;
            }
            schedule
                .add(*flow, *voq)
                .expect("admits() checked both ports");
            if schedule.len() == max_selections {
                break;
            }
        }
        schedule
    }

    fn schedule_validity(&self, table: &FlowTable, schedule: &Schedule) -> u64 {
        self.discipline.schedule_validity(table, schedule)
    }
}

/// Differential harness: runs `incremental` and `one_pass` on the same
/// table and fails unless the two [`Schedule`]s are **bit-identical**
/// (same flows, same VOQs, same admission order) and maximal
/// ([`check_maximal`](crate::check_maximal)). Intended for tests; see
/// `tests/incremental_equiv.rs` for trace-driven use.
pub fn check_equivalence<D, S>(
    incremental: &mut IncrementalScheduler<D>,
    one_pass: &mut S,
    table: &FlowTable,
) -> Result<(), String>
where
    D: VoqDiscipline,
    S: Scheduler + ?Sized,
{
    let fast = incremental.schedule(table);
    let slow = one_pass.schedule(table);
    if fast != slow {
        return Err(format!(
            "{}: incremental schedule {:?} != one-pass schedule {:?}",
            one_pass.name(),
            fast.iter().collect::<Vec<_>>(),
            slow.iter().collect::<Vec<_>>(),
        ));
    }
    crate::check_maximal(table, &fast)
        .map_err(|e| format!("{}: incremental schedule not maximal: {e}", one_pass.name()))?;
    incremental
        .check_synced(table)
        .map_err(|e| format!("{}: candidate set out of sync: {e}", one_pass.name()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fifo, FlowState, MaxWeight, Srpt, ThresholdBacklogSrpt};
    use dcn_types::HostId;

    fn insert(t: &mut FlowTable, id: u64, src: u32, dst: u32, size: u64) {
        t.insert(FlowState::new(
            FlowId::new(id),
            Voq::new(HostId::new(src), HostId::new(dst)),
            size,
        ))
        .unwrap();
    }

    #[test]
    fn f64_key_orders_by_total_cmp() {
        assert!(F64Key::new(-1.0) < F64Key::new(0.0));
        assert!(F64Key::new(-0.0) < F64Key::new(0.0)); // total_cmp semantics
        assert_eq!(F64Key::new(2.5).get(), 2.5);
    }

    #[test]
    fn first_schedule_matches_one_pass() {
        let mut t = FlowTable::new();
        insert(&mut t, 1, 0, 2, 1);
        insert(&mut t, 2, 1, 2, 100);
        insert(&mut t, 3, 1, 2, 100);
        let mut inc = IncrementalScheduler::new(Srpt::new());
        check_equivalence(&mut inc, &mut Srpt::new(), &t).unwrap();
    }

    #[test]
    fn incremental_tracks_drains_and_completions() {
        let mut t = FlowTable::new();
        insert(&mut t, 1, 0, 1, 5);
        insert(&mut t, 2, 0, 1, 3);
        insert(&mut t, 3, 2, 1, 4);
        let mut inc = IncrementalScheduler::new(FastBasrpt::new(10.0, 4));
        let mut one = FastBasrpt::new(10.0, 4);
        check_equivalence(&mut inc, &mut one, &t).unwrap();

        t.drain(FlowId::new(2), 3).unwrap(); // completes flow 2
        check_equivalence(&mut inc, &mut one, &t).unwrap();

        t.drain(FlowId::new(1), 2).unwrap();
        insert(&mut t, 4, 3, 1, 1);
        check_equivalence(&mut inc, &mut one, &t).unwrap();
        assert_eq!(inc.tracked_voqs(), 3);
    }

    #[test]
    fn cloned_table_forces_rebuild() {
        let mut t = FlowTable::new();
        insert(&mut t, 1, 0, 1, 5);
        let mut inc = IncrementalScheduler::new(MaxWeight::new());
        inc.schedule(&t);

        let mut copy = t.clone();
        insert(&mut copy, 2, 1, 0, 7);
        check_equivalence(&mut inc, &mut MaxWeight::new(), &copy).unwrap();
        // And switching back to the original still works.
        check_equivalence(&mut inc, &mut MaxWeight::new(), &t).unwrap();
    }

    #[test]
    fn survives_log_compaction() {
        let mut t = FlowTable::new();
        insert(&mut t, 1, 0, 1, 1_000_000);
        let mut inc = IncrementalScheduler::new(Srpt::new());
        inc.schedule(&t);
        // The scheduler's registration pins the log, so compaction only
        // happens via stalled-cursor eviction: push far past the 32× soft
        // cap so the table force-acks and drops everything.
        insert(&mut t, 2, 1, 0, 100_000);
        for _ in 0..40_000 {
            t.drain(FlowId::new(1), 1).unwrap();
            t.drain(FlowId::new(2), 1).unwrap();
        }
        assert!(
            t.changes_since(0).is_none(),
            "drains should have outrun the stalled-cursor threshold"
        );
        check_equivalence(&mut inc, &mut Srpt::new(), &t).unwrap();
    }

    #[test]
    fn registration_pins_log_across_long_windows() {
        let mut t = FlowTable::new();
        insert(&mut t, 1, 0, 1, 1_000_000);
        let mut inc = IncrementalScheduler::new(Srpt::new());
        inc.schedule(&t);
        let base = t.change_log_end();
        // Well past the soft cap of max(1024, 8·Q) — without a registered
        // cursor the log would have been cleared — but short of the 32×
        // stalled-cursor threshold.
        insert(&mut t, 2, 1, 0, 10_000);
        for _ in 0..2000 {
            t.drain(FlowId::new(1), 1).unwrap();
            t.drain(FlowId::new(2), 1).unwrap();
        }
        assert!(
            t.changes_since(base).is_some(),
            "the scheduler's registration should pin its unconsumed suffix"
        );
        check_equivalence(&mut inc, &mut Srpt::new(), &t).unwrap();
        // Having consumed and acked, the scheduler releases the prefix:
        // the next burst of changes may compact it away again.
        assert!(t.changes_since(base).is_some() || t.change_log_end() > base);
    }

    #[test]
    fn threshold_key_is_exact_for_huge_backlogs() {
        // Backlogs around 2^53 where f64 rounding would merge distinct
        // values; the (bool, u64) key keeps them distinct, as does the
        // one-pass tuple sort.
        let big = 1u64 << 53;
        let mut t = FlowTable::new();
        insert(&mut t, 1, 0, 2, big);
        insert(&mut t, 2, 1, 2, big + 1);
        let mut inc = IncrementalScheduler::new(ThresholdBacklogSrpt::new(10));
        check_equivalence(&mut inc, &mut ThresholdBacklogSrpt::new(10), &t).unwrap();
    }

    #[test]
    fn all_f64_disciplines_expose_their_names() {
        assert_eq!(IncrementalScheduler::new(Srpt::new()).name(), "SRPT");
        assert_eq!(IncrementalScheduler::new(Fifo::new()).name(), "FIFO");
        assert_eq!(
            IncrementalScheduler::new(FastBasrpt::new(1.0, 4)).name(),
            "fast BASRPT"
        );
        assert_eq!(
            IncrementalScheduler::new(MaxWeight::new()).name(),
            "MaxWeight"
        );
    }

    #[test]
    fn empty_table_yields_empty_schedule() {
        let t = FlowTable::new();
        let mut inc = IncrementalScheduler::new(Fifo::new());
        assert!(inc.schedule(&t).is_empty());
        assert_eq!(inc.tracked_voqs(), 0);
    }
}
