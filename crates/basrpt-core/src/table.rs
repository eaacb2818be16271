//! The active-flow store: flows organized in virtual output queues.
//!
//! The table is built around two structures sized for the scheduling hot
//! path:
//!
//! * a **slab arena** of flows — `Vec<Option<FlowEntry>>` slots addressed by
//!   dense indices, with a free list for reuse — so drains and champion
//!   updates touch contiguous memory instead of chasing `HashMap` buckets;
//! * a **champion index** per VOQ — the cached shortest `(remaining, id)`
//!   pair and smallest id, plus two lazily-invalidated runner-up heaps in
//!   the style of `dcn-fabric`'s completion calendar — so schedulers read
//!   each VOQ's winning candidate in `O(1)` and the table restores it in
//!   amortized `O(log n)` when a champion leaves.

use crate::scheduler::RankHint;
use crate::FlowState;
use dcn_types::{FastMap, FlowId, HostId, Voq};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet};
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Source of process-unique table identities (see [`FlowTable::table_id`]).
static NEXT_TABLE_ID: AtomicU64 = AtomicU64::new(0);

fn fresh_table_id() -> u64 {
    NEXT_TABLE_ID.fetch_add(1, Ordering::Relaxed)
}

/// Error returned by [`FlowTable`] operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FlowTableError {
    /// A flow with this identifier is already active.
    DuplicateFlow(FlowId),
    /// No active flow has this identifier.
    UnknownFlow(FlowId),
    /// Inserting this flow would overflow a `u64` backlog sum (its VOQ's,
    /// its ingress port's, or the table total); the table is unchanged.
    BacklogOverflow(FlowId),
}

impl fmt::Display for FlowTableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowTableError::DuplicateFlow(id) => write!(f, "flow {id} is already active"),
            FlowTableError::UnknownFlow(id) => write!(f, "flow {id} is not active"),
            FlowTableError::BacklogOverflow(id) => {
                write!(f, "flow {id} would overflow the 64-bit backlog sums")
            }
        }
    }
}

impl Error for FlowTableError {}

/// Result of draining units from a flow via [`FlowTable::drain`].
///
/// `drained` only falls short of the requested amount when the request
/// exceeds the flow's remaining units. Callers that derive their requests
/// from the remaining size — like the fabric engine's exact epoch
/// accounting, which clamps its integer drain target to the bytes
/// outstanding — always see `drained` equal to the request, and a
/// `completed` outcome exactly when the target reaches the flow size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainOutcome {
    /// Units actually removed from the flow (≤ the requested amount).
    pub drained: u64,
    /// The flow's final state if the drain completed it; the flow has then
    /// already been removed from the table.
    pub completed: Option<FlowState>,
}

/// A read-only summary of one non-empty VOQ, as exposed to schedulers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VoqView {
    /// Which VOQ this summarizes.
    pub voq: Voq,
    /// Total remaining units over all flows in the VOQ (the paper's
    /// `X_ij(t)` backlog).
    pub backlog: u64,
    /// Remaining size of the shortest flow in the VOQ.
    pub shortest_remaining: u64,
    /// Identifier of that shortest flow (ties broken by smaller id).
    pub shortest_flow: FlowId,
    /// Identifier of the earliest-arrived flow in the VOQ (smallest id;
    /// generators assign ids in arrival order).
    pub oldest_flow: FlowId,
    /// Number of flows waiting in the VOQ.
    pub len: usize,
}

/// A consumer-side snapshot of a [`FlowTable`]'s change-log position.
///
/// Wraps the raw `(table identity, log position)` pair of the change-log
/// API so consumers that cache table-derived state — e.g. the
/// fast-forward engine's cached schedule in `dcn-switch` — can ask "has
/// anything mutated since I last looked?" in `O(1)` and re-sync after
/// applying their own predicted mutations.
///
/// An anonymous cursor tolerates compaction by rebuilding; a consumer that
/// wants its unconsumed suffix preserved across compactions should also
/// register via [`FlowTable::register_cursor`].
///
/// # Example
///
/// ```
/// use basrpt_core::{FlowState, FlowTable, TableCursor};
/// use dcn_types::{FlowId, HostId, Voq};
///
/// let mut table = FlowTable::new();
/// let mut cursor = TableCursor::new(&table);
/// assert!(!cursor.has_changed(&table));
///
/// table.insert(FlowState::new(
///     FlowId::new(1),
///     Voq::new(HostId::new(0), HostId::new(1)),
///     5,
/// ))?;
/// assert!(cursor.has_changed(&table));
/// cursor.resync(&table);
/// assert!(!cursor.has_changed(&table));
/// # Ok::<(), basrpt_core::FlowTableError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableCursor {
    table_id: u64,
    pos: u64,
}

impl TableCursor {
    /// A cursor synced to `table`'s current state.
    pub fn new(table: &FlowTable) -> Self {
        TableCursor {
            table_id: table.table_id(),
            pos: table.change_log_end(),
        }
    }

    /// Whether `table` has mutated since this cursor was last synced.
    /// Conservatively `true` when the cursor belongs to a different table
    /// instance or the log was compacted past it.
    pub fn has_changed(&self, table: &FlowTable) -> bool {
        self.table_id != table.table_id() || !matches!(table.changes_since(self.pos), Some([]))
    }

    /// The VOQs mutated since the last sync, oldest first (repeats
    /// possible), or `None` when the history is unavailable — a different
    /// table instance or a compacted log — and the consumer must rebuild
    /// from scratch.
    pub fn changes<'a>(&self, table: &'a FlowTable) -> Option<&'a [Voq]> {
        if self.table_id != table.table_id() {
            return None;
        }
        table.changes_since(self.pos)
    }

    /// Re-syncs the cursor to `table`'s current state.
    pub fn resync(&mut self, table: &FlowTable) {
        *self = TableCursor::new(table);
    }
}

/// The outcome of reading the change log from a position
/// ([`FlowTable::read_changes`]).
///
/// The loss-reporting sibling of [`FlowTable::changes_since`]: where that
/// API collapses every unreachable position into `None`, this one reports
/// **how much** history is gone, so a streaming consumer can distinguish
/// "nothing new" from "I lost `skipped` changes and must rebuild".
///
/// For a *registered* consumer ([`FlowTable::register_cursor`]) reading
/// from its own acknowledged position, `Lagged` has exactly one cause:
/// stalled-cursor eviction — the consumer fell more than
/// `STALLED_CURSOR_FACTOR` soft capacities behind and compaction dropped
/// its pinned suffix (ordinary compaction never passes a registered
/// consumer's acknowledgement). Unregistered consumers can also see
/// `Lagged` after routine compaction; either way `skipped` counts the
/// dropped entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChangeLogRead<'a> {
    /// The log still reaches back to the requested position: the VOQs
    /// mutated at or after it, oldest first (possibly empty — fully
    /// synced).
    Changes(&'a [Voq]),
    /// The log was compacted past the requested position; `skipped`
    /// changes between the position and the surviving log are lost and the
    /// consumer must rebuild from [`FlowTable::voqs`].
    Lagged {
        /// Number of change-log entries dropped between the requested
        /// position and the oldest retained entry.
        skipped: u64,
    },
}

impl<'a> ChangeLogRead<'a> {
    /// The retained suffix, or `None` if the history was lost
    /// (the [`ChangeLogRead::Lagged`] case).
    pub fn changes(self) -> Option<&'a [Voq]> {
        match self {
            ChangeLogRead::Changes(c) => Some(c),
            ChangeLogRead::Lagged { .. } => None,
        }
    }
}

/// Handle identifying one registered change-log consumer of one table
/// instance (see [`FlowTable::register_cursor`]). Using a handle against a
/// different table instance — including a clone of the issuing table — is a
/// no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CursorId {
    table_id: u64,
    slot: u32,
    generation: u32,
}

#[derive(Debug, Clone, Copy)]
struct CursorSlot {
    /// Bumped on every reuse of the slot so a released [`CursorId`] can
    /// never act on a later registration that recycled its slot.
    generation: u32,
    /// Lowest log position this consumer still needs, `None` once released.
    ack: Option<u64>,
}

#[derive(Debug, Default)]
struct CursorRegistry {
    slots: Vec<CursorSlot>,
}

impl CursorRegistry {
    fn register(&mut self, pos: u64) -> (u32, u32) {
        if let Some(i) = self.slots.iter().position(|s| s.ack.is_none()) {
            let slot = &mut self.slots[i];
            slot.generation = slot.generation.wrapping_add(1);
            slot.ack = Some(pos);
            (i as u32, slot.generation)
        } else {
            self.slots.push(CursorSlot {
                generation: 0,
                ack: Some(pos),
            });
            ((self.slots.len() - 1) as u32, 0)
        }
    }

    fn slot_mut(&mut self, slot: u32, generation: u32) -> Option<&mut CursorSlot> {
        self.slots
            .get_mut(slot as usize)
            .filter(|s| s.generation == generation && s.ack.is_some())
    }

    fn min_ack(&self) -> Option<u64> {
        self.slots.iter().filter_map(|s| s.ack).min()
    }

    fn force_ack_all(&mut self, pos: u64) {
        for s in &mut self.slots {
            if let Some(ack) = &mut s.ack {
                *ack = (*ack).max(pos);
            }
        }
    }
}

/// One active flow in the slab arena.
#[derive(Debug, Clone, Copy)]
struct FlowEntry {
    state: FlowState,
    /// Index of the flow's VOQ in `FlowTable::voq_slots`.
    voq_slot: u32,
}

/// Per-VOQ champion index: the current winners plus lazily-invalidated
/// runner-up heaps (see the invariants on [`FlowTable`]).
#[derive(Debug, Clone)]
struct VoqSlot {
    voq: Voq,
    len: u32,
    backlog: u64,
    /// Cached champions; meaningful only while `len > 0`.
    shortest_remaining: u64,
    shortest_flow: FlowId,
    oldest_flow: FlowId,
    /// Min-heap of `(remaining, id)` candidate entries. Entries go stale
    /// when their flow drains, completes or becomes the cached champion;
    /// stale tops are discarded when a new champion is needed.
    runners_short: BinaryHeap<Reverse<(u64, FlowId)>>,
    /// Min-heap of candidate ids for the FIFO (oldest = smallest id) pick,
    /// with the same lazy-invalidation contract.
    runners_old: BinaryHeap<Reverse<FlowId>>,
}

impl VoqSlot {
    fn empty(voq: Voq) -> Self {
        VoqSlot {
            voq,
            len: 0,
            backlog: 0,
            shortest_remaining: 0,
            shortest_flow: FlowId::new(0),
            oldest_flow: FlowId::new(0),
            runners_short: BinaryHeap::new(),
            runners_old: BinaryHeap::new(),
        }
    }
}

/// The set of active flows, indexed by VOQ, with the aggregate backlogs the
/// backlog-aware schedulers need.
///
/// Invariants maintained by every operation:
///
/// * a VOQ appears in the non-empty index iff it holds at least one flow;
/// * `backlog` of a VOQ equals the sum of its flows' remaining units;
/// * per-ingress-port and total backlogs equal the sums over their VOQs;
/// * the cached champions of a non-empty VOQ are exact: `(shortest_remaining,
///   shortest_flow)` is the minimum `(remaining, id)` pair over its flows and
///   `oldest_flow` is its smallest id;
/// * **runner coverage**: every live flow of a VOQ that is *not* the cached
///   champion has at least one heap entry matching its current key, so when
///   a champion completes or is removed, popping heap entries until the
///   first one that matches a live flow's current state yields the exact
///   next champion. Stale entries (drained, completed, or reused ids) are
///   discarded on the way; duplicates are harmless because validity is
///   checked against live state, never assumed.
///
/// Reading the per-VOQ champions ([`FlowTable::voqs`],
/// [`FlowTable::voq_view`]) is `O(1)` per VOQ off the cached fields, so a
/// full scheduling pass costs at most `O(Q log Q)` in the number of
/// non-empty VOQs rather than `O(F log F)` in the number of flows, and
/// champion-preserving drains (the SRPT/BASRPT steady state: the shortest
/// flow only gets shorter) cost `O(1)` with no heap traffic at all.
///
/// # Example
///
/// ```
/// use basrpt_core::{FlowState, FlowTable};
/// use dcn_types::{FlowId, HostId, Voq};
///
/// let mut table = FlowTable::new();
/// let voq = Voq::new(HostId::new(0), HostId::new(1));
/// table.insert(FlowState::new(FlowId::new(1), voq, 5))?;
/// table.insert(FlowState::new(FlowId::new(2), voq, 3))?;
/// assert_eq!(table.voq_backlog(voq), 8);
///
/// let out = table.drain(FlowId::new(2), 3)?;
/// assert!(out.completed.is_some());
/// assert_eq!(table.voq_backlog(voq), 5);
/// # Ok::<(), basrpt_core::FlowTableError>(())
/// ```
#[derive(Debug)]
pub struct FlowTable {
    /// Slab arena of active flows; freed slots are recycled via `free`.
    flows: Vec<Option<FlowEntry>>,
    free: Vec<u32>,
    /// FlowId → slab slot.
    flow_slots: FastMap<FlowId, u32>,
    /// Per-VOQ champion index; slots persist for the table's lifetime so a
    /// VOQ keeps its dense index across empty/non-empty transitions.
    voq_slots: Vec<VoqSlot>,
    /// Voq → slot in `voq_slots`.
    voq_lookup: FastMap<Voq, u32>,
    /// Non-empty VOQs in lexicographic order, mutated only on emptiness
    /// transitions — this pins the deterministic [`FlowTable::voqs`] order.
    nonempty: BTreeMap<Voq, u32>,
    ingress: BTreeMap<HostId, u64>,
    total_backlog: u64,
    /// Process-unique identity; fresh for every constructed or cloned table
    /// so change-log consumers never confuse two tables' logs.
    table_id: u64,
    /// VOQs touched by mutations since position `log_base`, oldest first;
    /// see [`FlowTable::changes_since`].
    change_log: Vec<Voq>,
    /// Absolute change-log position of `change_log[0]`. Advances when the
    /// log is compacted, invalidating older cursors.
    log_base: u64,
    /// Registered change-log consumers ([`FlowTable::register_cursor`]).
    /// Interior mutability: registration and acknowledgement are consumer
    /// bookkeeping, reachable from the `&FlowTable` that schedulers hold.
    cursors: RefCell<CursorRegistry>,
    /// The previous decision's candidate order, which warm-starts the
    /// next decision's sort (see
    /// [`schedule_champions_adjusted`](crate::schedule_champions_adjusted)).
    /// Scratch like `cursors`: a decision holds only `&FlowTable`. It
    /// never affects a result, so clones start without it.
    rank_hint: RefCell<RankHint>,
}

/// A registered cursor that stops acknowledging pins log history; past this
/// multiple of the soft capacity the whole log is dropped anyway and every
/// lagging consumer rebuilds, bounding memory at the price of one rebuild.
const STALLED_CURSOR_FACTOR: usize = 32;

impl Default for FlowTable {
    fn default() -> Self {
        FlowTable {
            flows: Vec::new(),
            free: Vec::new(),
            flow_slots: FastMap::default(),
            voq_slots: Vec::new(),
            voq_lookup: FastMap::default(),
            nonempty: BTreeMap::new(),
            ingress: BTreeMap::new(),
            total_backlog: 0,
            table_id: fresh_table_id(),
            change_log: Vec::new(),
            log_base: 0,
            cursors: RefCell::new(CursorRegistry::default()),
            rank_hint: RefCell::new(RankHint::default()),
        }
    }
}

impl Clone for FlowTable {
    /// Clones the flow contents. The clone gets a **fresh identity**, an
    /// empty change log and no registered cursors: incremental consumers
    /// synced to the original will fully rebuild against the clone instead
    /// of mis-applying its log, and their [`CursorId`]s do not transfer.
    /// Its first decision ranks without a warm-start hint.
    fn clone(&self) -> Self {
        FlowTable {
            flows: self.flows.clone(),
            free: self.free.clone(),
            flow_slots: self.flow_slots.clone(),
            voq_slots: self.voq_slots.clone(),
            voq_lookup: self.voq_lookup.clone(),
            nonempty: self.nonempty.clone(),
            ingress: self.ingress.clone(),
            total_backlog: self.total_backlog,
            table_id: fresh_table_id(),
            change_log: Vec::new(),
            log_base: 0,
            cursors: RefCell::new(CursorRegistry::default()),
            rank_hint: RefCell::new(RankHint::default()),
        }
    }
}

impl FlowTable {
    /// Creates an empty flow table.
    pub fn new() -> Self {
        FlowTable::default()
    }

    /// Number of active flows.
    pub fn len(&self) -> usize {
        self.flow_slots.len()
    }

    /// Whether no flows are active.
    pub fn is_empty(&self) -> bool {
        self.flow_slots.is_empty()
    }

    /// Number of non-empty VOQs.
    pub fn num_nonempty_voqs(&self) -> usize {
        self.nonempty.len()
    }

    /// Total remaining units across all flows.
    pub fn total_backlog(&self) -> u64 {
        self.total_backlog
    }

    /// Backlog (`X_ij`) of one VOQ; zero if the VOQ is empty.
    pub fn voq_backlog(&self, voq: Voq) -> u64 {
        self.voq_lookup
            .get(&voq)
            .map_or(0, |&vs| self.voq_slots[vs as usize].backlog)
    }

    /// Total backlog queued at one ingress port (the per-server queue length
    /// plotted in the paper's Figs. 2 and 5b).
    pub fn ingress_backlog(&self, host: HostId) -> u64 {
        self.ingress.get(&host).copied().unwrap_or(0)
    }

    /// Iterates over the ingress ports with non-zero backlog and their
    /// backlogs, in port order (the per-server queue lengths of the paper's
    /// Figs. 2 and 5b).
    pub fn ingress_backlogs(&self) -> impl Iterator<Item = (HostId, u64)> + '_ {
        self.ingress.iter().map(|(&h, &b)| (h, b))
    }

    /// The largest per-ingress-port backlog, zero for an empty table.
    pub fn max_ingress_backlog(&self) -> u64 {
        self.ingress.values().copied().max().unwrap_or(0)
    }

    /// Number of ingress ports with non-zero backlog. Every non-empty VOQ's
    /// source is one of them, so a crossbar matching that occupies this many
    /// ingress ports cannot be extended — schedulers use that as an early
    /// exit.
    pub fn num_active_ingress_ports(&self) -> usize {
        self.ingress.len()
    }

    /// Looks up an active flow.
    pub fn get(&self, id: FlowId) -> Option<&FlowState> {
        let &slot = self.flow_slots.get(&id)?;
        self.flows[slot as usize].as_ref().map(|e| &e.state)
    }

    /// Iterates over all active flows in unspecified order (for statistics;
    /// schedulers should use [`FlowTable::voqs`]).
    pub fn iter(&self) -> impl Iterator<Item = &FlowState> {
        self.flows.iter().flatten().map(|e| &e.state)
    }

    /// Iterates over all non-empty VOQs in deterministic (lexicographic)
    /// order, yielding the per-VOQ champion summaries schedulers rank. Each
    /// view is read off the cached champion fields in `O(1)`.
    pub fn voqs(&self) -> impl Iterator<Item = VoqView> + '_ {
        self.nonempty
            .iter()
            .map(move |(&voq, &vs)| self.view_of(voq, vs))
    }

    /// The summary of one VOQ, or `None` if the VOQ is currently empty.
    /// `O(1)` — the single-VOQ counterpart of [`FlowTable::voqs`] used by
    /// incremental schedulers to refresh only the queues that changed.
    pub fn voq_view(&self, voq: Voq) -> Option<VoqView> {
        let &vs = self.voq_lookup.get(&voq)?;
        if self.voq_slots[vs as usize].len == 0 {
            return None;
        }
        Some(self.view_of(voq, vs))
    }

    /// [`FlowTable::voqs`] with each VOQ's dense slot id, the key of the
    /// decision's rank hint.
    pub(crate) fn voqs_with_slots(&self) -> impl Iterator<Item = (u32, VoqView)> + '_ {
        self.nonempty
            .iter()
            .map(move |(&voq, &vs)| (vs, self.view_of(voq, vs)))
    }

    /// Number of dense VOQ slots ever allocated (slots are never freed).
    pub(crate) fn voq_slot_count(&self) -> usize {
        self.voq_slots.len()
    }

    /// The decision scratch that remembers the previous candidate order.
    pub(crate) fn rank_hint(&self) -> &RefCell<RankHint> {
        &self.rank_hint
    }

    fn view_of(&self, voq: Voq, vs: u32) -> VoqView {
        let slot = &self.voq_slots[vs as usize];
        debug_assert!(slot.len > 0, "view of empty VOQ");
        VoqView {
            voq,
            backlog: slot.backlog,
            shortest_remaining: slot.shortest_remaining,
            shortest_flow: slot.shortest_flow,
            oldest_flow: slot.oldest_flow,
            len: slot.len as usize,
        }
    }

    /// The process-unique identity of this table instance. Every
    /// construction — including [`Clone::clone`] — yields a new identity, so
    /// a consumer holding a `(table_id, change-log position)` cursor can
    /// detect that it is looking at a different table and resynchronize
    /// from scratch.
    pub fn table_id(&self) -> u64 {
        self.table_id
    }

    /// The absolute change-log position one past the most recent change.
    /// Monotonically non-decreasing over the table's lifetime; a consumer
    /// that has applied every change up to this position is fully synced.
    pub fn change_log_end(&self) -> u64 {
        self.log_base + self.change_log.len() as u64
    }

    /// The VOQs mutated at or after absolute log position `pos`, oldest
    /// first, or `None` if the log no longer reaches back that far (it is
    /// periodically compacted) — the consumer must then rebuild from
    /// [`FlowTable::voqs`]. A VOQ may appear more than once; reprocessing
    /// is idempotent for consumers that re-read the VOQ's current state.
    pub fn changes_since(&self, pos: u64) -> Option<&[Voq]> {
        if pos < self.log_base {
            return None;
        }
        let idx = usize::try_from(pos - self.log_base).ok()?;
        self.change_log.get(idx..)
    }

    /// Reads the change log from absolute position `pos`, reporting loss
    /// explicitly: [`ChangeLogRead::Changes`] with the retained suffix when
    /// the log still reaches back that far, [`ChangeLogRead::Lagged`] with
    /// the number of dropped entries when compaction passed the position.
    ///
    /// This is how a *registered* consumer ([`FlowTable::register_cursor`])
    /// detects stalled-cursor eviction: ordinary compaction never drops an
    /// entry a registered consumer has not acknowledged, so reading from
    /// its own acknowledged position can only come back `Lagged` after the
    /// hard-cap eviction force-advanced it — the suffix is gone and the
    /// consumer must rebuild, knowing exactly how many changes it missed.
    /// ([`FlowTable::changes_since`] collapses both cases into `None`.)
    ///
    /// Positions past the current end (which cannot arise from a position
    /// this table handed out) read as an empty suffix.
    pub fn read_changes(&self, pos: u64) -> ChangeLogRead<'_> {
        if pos < self.log_base {
            return ChangeLogRead::Lagged {
                skipped: self.log_base - pos,
            };
        }
        let idx = usize::try_from(pos - self.log_base).unwrap_or(self.change_log.len());
        debug_assert!(
            idx <= self.change_log.len(),
            "read_changes position {pos} is past the log end {}",
            self.change_log_end()
        );
        ChangeLogRead::Changes(self.change_log.get(idx..).unwrap_or(&[]))
    }

    /// Registers a long-lived change-log consumer, pinning history so
    /// compaction only drops log entries every registered consumer has
    /// acknowledged via [`FlowTable::ack_changes`]. Taken by `&self`
    /// (interior mutability) because consumers typically hold only the
    /// shared reference the scheduling APIs pass around.
    ///
    /// A consumer that registers but stops acknowledging does not pin
    /// memory forever: past a hard cap the whole log is dropped and every
    /// lagging consumer rebuilds, exactly as if it had never registered.
    ///
    /// # Example
    ///
    /// ```
    /// use basrpt_core::{FlowState, FlowTable, TableCursor};
    /// use dcn_types::{FlowId, HostId, Voq};
    ///
    /// let mut table = FlowTable::new();
    /// let mut cursor = TableCursor::new(&table);
    /// let reg = table.register_cursor();
    /// for id in 0..2_000 {
    ///     let voq = Voq::new(HostId::new(0), HostId::new(1));
    ///     table.insert(FlowState::new(FlowId::new(id), voq, 1))?;
    /// }
    /// // Far more mutations than the soft log capacity, yet the registered
    /// // consumer's suffix survived compaction:
    /// assert!(cursor.changes(&table).is_some());
    /// cursor.resync(&table);
    /// table.ack_changes(reg, table.change_log_end());
    /// # Ok::<(), basrpt_core::FlowTableError>(())
    /// ```
    pub fn register_cursor(&self) -> CursorId {
        let pos = self.change_log_end();
        let (slot, generation) = self.cursors.borrow_mut().register(pos);
        CursorId {
            table_id: self.table_id,
            slot,
            generation,
        }
    }

    /// Acknowledges that the registered consumer has consumed the log up to
    /// absolute position `pos`, releasing that prefix for compaction.
    /// Acknowledgements are monotone (an older `pos` is ignored) and
    /// clamped to the current log end; a handle from another table instance
    /// or an already-released registration is a no-op.
    pub fn ack_changes(&self, cursor: CursorId, pos: u64) {
        if cursor.table_id != self.table_id {
            return;
        }
        let pos = pos.min(self.change_log_end());
        if let Some(slot) = self
            .cursors
            .borrow_mut()
            .slot_mut(cursor.slot, cursor.generation)
        {
            let ack = slot.ack.as_mut().expect("slot_mut filters released slots");
            *ack = (*ack).max(pos);
        }
    }

    /// Releases a registration so it no longer pins log history. The handle
    /// is dead afterwards; a handle from another table instance is a no-op.
    pub fn release_cursor(&self, cursor: CursorId) {
        if cursor.table_id != self.table_id {
            return;
        }
        if let Some(slot) = self
            .cursors
            .borrow_mut()
            .slot_mut(cursor.slot, cursor.generation)
        {
            slot.ack = None;
        }
    }

    /// Appends `voq` to the change log, compacting once it outgrows a small
    /// multiple of the live VOQ count. With no registered cursors the whole
    /// log is dropped (anonymous [`TableCursor`]s conservatively rebuild);
    /// with registered cursors only the prefix every consumer has
    /// acknowledged is dropped, up to a hard cap that evicts stalled
    /// consumers. Repeats are *not* collapsed: a consumer may already have
    /// consumed up to the previous entry, so suppressing a duplicate would
    /// lose the change for it.
    fn record_change(&mut self, voq: Voq) {
        self.change_log.push(voq);
        let cap = usize::max(1024, 8 * self.nonempty.len());
        if self.change_log.len() <= cap {
            return;
        }
        let end = self.log_base + self.change_log.len() as u64;
        let registry = self.cursors.get_mut();
        match registry.min_ack() {
            None => {
                self.log_base = end;
                self.change_log.clear();
            }
            Some(min_ack) => {
                let keep_from = usize::try_from(min_ack.saturating_sub(self.log_base))
                    .unwrap_or(self.change_log.len())
                    .min(self.change_log.len());
                if keep_from > 0 {
                    self.change_log.drain(..keep_from);
                    self.log_base += keep_from as u64;
                }
                if self.change_log.len() > STALLED_CURSOR_FACTOR * cap {
                    self.log_base = end;
                    self.change_log.clear();
                    // The lagging consumers' history is gone; bump them so a
                    // dead registration cannot re-pin the next cycle.
                    registry.force_ack_all(end);
                }
            }
        }
    }

    /// Soft bound on a runner heap before stale entries are pruned.
    fn runner_cap(len: u32) -> usize {
        usize::max(16, 2 * len as usize)
    }

    /// Whether a `(remaining, id)` runner entry matches live state.
    fn runner_short_valid(&self, vs: u32, remaining: u64, id: FlowId) -> bool {
        self.flow_slots.get(&id).is_some_and(|&slot| {
            let entry = self.flows[slot as usize]
                .as_ref()
                .expect("indexed slab slot is live");
            entry.voq_slot == vs && entry.state.remaining() == remaining
        })
    }

    /// Whether an id runner entry matches a flow live in this VOQ.
    fn runner_old_valid(&self, vs: u32, id: FlowId) -> bool {
        self.flow_slots.get(&id).is_some_and(|&slot| {
            self.flows[slot as usize]
                .as_ref()
                .expect("indexed slab slot is live")
                .voq_slot
                == vs
        })
    }

    /// Restores the shortest champion after the cached one left the VOQ:
    /// pops runner entries until the first that matches a live flow's
    /// current `(remaining, id)`. Runner coverage guarantees one exists.
    fn refresh_shortest(&mut self, vs: u32) {
        loop {
            let Reverse((remaining, id)) = self.voq_slots[vs as usize]
                .runners_short
                .pop()
                .expect("runner coverage: non-empty VOQ lost its shortest candidates");
            if self.runner_short_valid(vs, remaining, id) {
                let slot = &mut self.voq_slots[vs as usize];
                slot.shortest_remaining = remaining;
                slot.shortest_flow = id;
                return;
            }
        }
    }

    /// Restores the oldest champion after the cached one left the VOQ.
    fn refresh_oldest(&mut self, vs: u32) {
        loop {
            let Reverse(id) = self.voq_slots[vs as usize]
                .runners_old
                .pop()
                .expect("runner coverage: non-empty VOQ lost its oldest candidates");
            if self.runner_old_valid(vs, id) {
                self.voq_slots[vs as usize].oldest_flow = id;
                return;
            }
        }
    }

    /// Rebuilds a runner heap from only its valid entries (one per flow)
    /// when stale entries outnumber live ones. Amortized `O(1)` per push:
    /// triggered only after at least half the heap went stale.
    fn prune_runners(&mut self, vs: u32) {
        let slot = &mut self.voq_slots[vs as usize];
        let cap = Self::runner_cap(slot.len);
        if slot.runners_short.len() > cap {
            let heap = std::mem::take(&mut self.voq_slots[vs as usize].runners_short);
            let mut seen = HashSet::new();
            let mut kept = Vec::new();
            for Reverse((remaining, id)) in heap.into_vec() {
                if self.runner_short_valid(vs, remaining, id) && seen.insert(id) {
                    kept.push(Reverse((remaining, id)));
                }
            }
            self.voq_slots[vs as usize].runners_short = BinaryHeap::from(kept);
        }
        let slot = &self.voq_slots[vs as usize];
        if slot.runners_old.len() > cap {
            let heap = std::mem::take(&mut self.voq_slots[vs as usize].runners_old);
            let mut seen = HashSet::new();
            let mut kept = Vec::new();
            for Reverse(id) in heap.into_vec() {
                if self.runner_old_valid(vs, id) && seen.insert(id) {
                    kept.push(Reverse(id));
                }
            }
            self.voq_slots[vs as usize].runners_old = BinaryHeap::from(kept);
        }
    }

    /// Inserts a newly arrived flow.
    ///
    /// # Errors
    ///
    /// Returns [`FlowTableError::DuplicateFlow`] if the id is already
    /// active, and [`FlowTableError::BacklogOverflow`] if the flow's
    /// remaining size would overflow its VOQ's, its ingress port's or the
    /// total backlog. Either way the table is left unchanged.
    pub fn insert(&mut self, flow: FlowState) -> Result<(), FlowTableError> {
        if self.flow_slots.contains_key(&flow.id()) {
            return Err(FlowTableError::DuplicateFlow(flow.id()));
        }
        let voq = flow.voq();
        let existing = self.voq_lookup.get(&voq).copied();
        let voq_backlog = existing.map_or(0, |vs| self.voq_slots[vs as usize].backlog);
        let ingress_backlog = self.ingress_backlog(voq.src());
        let fits = [voq_backlog, ingress_backlog, self.total_backlog]
            .iter()
            .all(|sum| sum.checked_add(flow.remaining()).is_some());
        if !fits {
            return Err(FlowTableError::BacklogOverflow(flow.id()));
        }
        let vs = match existing {
            Some(vs) => vs,
            None => {
                let vs = u32::try_from(self.voq_slots.len()).expect("VOQ slot count fits u32");
                self.voq_slots.push(VoqSlot::empty(voq));
                self.voq_lookup.insert(voq, vs);
                vs
            }
        };

        // Slab insertion first so runner validity checks (pruning below)
        // can already see the new flow.
        let fidx = match self.free.pop() {
            Some(i) => {
                self.flows[i as usize] = Some(FlowEntry {
                    state: flow,
                    voq_slot: vs,
                });
                i
            }
            None => {
                self.flows.push(Some(FlowEntry {
                    state: flow,
                    voq_slot: vs,
                }));
                u32::try_from(self.flows.len() - 1).expect("flow slot count fits u32")
            }
        };
        self.flow_slots.insert(flow.id(), fidx);

        let slot = &mut self.voq_slots[vs as usize];
        if slot.len == 0 {
            slot.shortest_remaining = flow.remaining();
            slot.shortest_flow = flow.id();
            slot.oldest_flow = flow.id();
        } else {
            // Whoever loses the championship (the newcomer or the displaced
            // incumbent) gets a runner entry at its *current* key, keeping
            // runner coverage exact.
            if (flow.remaining(), flow.id()) < (slot.shortest_remaining, slot.shortest_flow) {
                let displaced = (slot.shortest_remaining, slot.shortest_flow);
                slot.runners_short.push(Reverse(displaced));
                slot.shortest_remaining = flow.remaining();
                slot.shortest_flow = flow.id();
            } else {
                slot.runners_short
                    .push(Reverse((flow.remaining(), flow.id())));
            }
            if flow.id() < slot.oldest_flow {
                let displaced = slot.oldest_flow;
                slot.runners_old.push(Reverse(displaced));
                slot.oldest_flow = flow.id();
            } else {
                slot.runners_old.push(Reverse(flow.id()));
            }
        }
        slot.len += 1;
        slot.backlog += flow.remaining();
        let needs_prune = slot.runners_short.len() > Self::runner_cap(slot.len)
            || slot.runners_old.len() > Self::runner_cap(slot.len);
        if slot.len == 1 {
            self.nonempty.insert(voq, vs);
        }
        if needs_prune {
            self.prune_runners(vs);
        }

        *self.ingress.entry(voq.src()).or_insert(0) += flow.remaining();
        self.total_backlog += flow.remaining();
        self.record_change(voq);
        Ok(())
    }

    /// Removes a flow (e.g. a cancelled transfer), returning its state.
    ///
    /// # Errors
    ///
    /// Returns [`FlowTableError::UnknownFlow`] if the id is not active.
    pub fn remove(&mut self, id: FlowId) -> Result<FlowState, FlowTableError> {
        let &fidx = self
            .flow_slots
            .get(&id)
            .ok_or(FlowTableError::UnknownFlow(id))?;
        let entry = self.flows[fidx as usize]
            .take()
            .expect("indexed slab slot is live");
        self.free.push(fidx);
        self.flow_slots.remove(&id);
        let flow = entry.state;
        self.depart(entry.voq_slot, flow.id(), flow.remaining());
        Ok(flow)
    }

    /// Drains up to `units` from a flow, removing the flow if it completes.
    ///
    /// # Errors
    ///
    /// Returns [`FlowTableError::UnknownFlow`] if the id is not active.
    pub fn drain(&mut self, id: FlowId, units: u64) -> Result<DrainOutcome, FlowTableError> {
        let &fidx = self
            .flow_slots
            .get(&id)
            .ok_or(FlowTableError::UnknownFlow(id))?;
        let entry = self.flows[fidx as usize]
            .as_mut()
            .expect("indexed slab slot is live");
        let drained = entry.state.drain(units);
        let after = entry.state.remaining();
        let flow = entry.state;
        let vs = entry.voq_slot;

        if after == 0 {
            self.flows[fidx as usize] = None;
            self.free.push(fidx);
            self.flow_slots.remove(&id);
            self.depart(vs, id, drained);
            return Ok(DrainOutcome {
                drained,
                completed: Some(flow),
            });
        }

        let voq = flow.voq();
        let slot = &mut self.voq_slots[vs as usize];
        slot.backlog -= drained;
        if slot.shortest_flow == id {
            // The champion only got shorter; its `(remaining, id)` pair is
            // still the minimum, so no heap traffic on the hot path.
            slot.shortest_remaining = after;
        } else if (after, id) < (slot.shortest_remaining, slot.shortest_flow) {
            let displaced = (slot.shortest_remaining, slot.shortest_flow);
            slot.runners_short.push(Reverse(displaced));
            slot.shortest_remaining = after;
            slot.shortest_flow = id;
        } else {
            // Still a runner-up: re-cover it at its new key (the old entry
            // just went stale).
            slot.runners_short.push(Reverse((after, id)));
        }
        if slot.runners_short.len() > Self::runner_cap(slot.len) {
            self.prune_runners(vs);
        }
        *self
            .ingress
            .get_mut(&voq.src())
            .expect("flow present but ingress index missing") -= drained;
        self.total_backlog -= drained;
        self.record_change(voq);
        Ok(DrainOutcome {
            drained,
            completed: None,
        })
    }

    /// Shared bookkeeping for a flow leaving its VOQ (completion or
    /// removal). The flow must already be gone from the slab so runner
    /// validity checks see only survivors. `departing_backlog` is the
    /// backlog released by the departure.
    fn depart(&mut self, vs: u32, id: FlowId, departing_backlog: u64) {
        let slot = &mut self.voq_slots[vs as usize];
        let voq = slot.voq;
        slot.backlog -= departing_backlog;
        slot.len -= 1;
        if slot.len == 0 {
            slot.runners_short.clear();
            slot.runners_old.clear();
            self.nonempty.remove(&voq);
        } else {
            if slot.shortest_flow == id {
                self.refresh_shortest(vs);
            }
            if self.voq_slots[vs as usize].oldest_flow == id {
                self.refresh_oldest(vs);
            }
        }
        let ingress = self
            .ingress
            .get_mut(&voq.src())
            .expect("flow present but ingress index missing");
        *ingress -= departing_backlog;
        if *ingress == 0 {
            self.ingress.remove(&voq.src());
        }
        self.total_backlog -= departing_backlog;
        self.record_change(voq);
    }

    /// Checks every structural invariant, returning a description of the
    /// first violation. Intended for tests and debug assertions; cost is
    /// linear in the number of flows plus retained runner entries.
    pub fn check_invariants(&self) -> Result<(), String> {
        // Slab ↔ lookup consistency.
        let mut live = 0usize;
        for (i, entry) in self.flows.iter().enumerate() {
            let Some(entry) = entry else { continue };
            live += 1;
            let flow = &entry.state;
            if flow.is_complete() {
                return Err(format!("completed flow {} still in table", flow.id()));
            }
            if self.flow_slots.get(&flow.id()).copied() != Some(i as u32) {
                return Err(format!("flow {} slab slot not indexed", flow.id()));
            }
            match self.voq_slots.get(entry.voq_slot as usize) {
                Some(slot) if slot.voq == flow.voq() => {}
                _ => return Err(format!("flow {} points at wrong VOQ slot", flow.id())),
            }
        }
        if live != self.flow_slots.len() {
            return Err(format!(
                "{} live slab entries but {} indexed flows",
                live,
                self.flow_slots.len()
            ));
        }
        let mut seen_free = HashSet::new();
        for &f in &self.free {
            if !seen_free.insert(f) {
                return Err(format!("free slot {f} listed twice"));
            }
            if self.flows.get(f as usize).map(Option::is_some) != Some(false) {
                return Err(format!("free slot {f} is not actually free"));
            }
        }
        if seen_free.len() + live != self.flows.len() {
            return Err("slab slots neither live nor free".to_string());
        }

        // Recompute per-VOQ aggregates and champions from the slab.
        struct Recount {
            backlog: u64,
            len: u32,
            shortest: (u64, FlowId),
            oldest: FlowId,
        }
        let mut recounts: BTreeMap<Voq, Recount> = BTreeMap::new();
        let mut ingress_sums: BTreeMap<HostId, u64> = BTreeMap::new();
        let mut total = 0u64;
        for flow in self.iter() {
            let key = (flow.remaining(), flow.id());
            recounts
                .entry(flow.voq())
                .and_modify(|r| {
                    r.backlog += flow.remaining();
                    r.len += 1;
                    r.shortest = r.shortest.min(key);
                    r.oldest = r.oldest.min(flow.id());
                })
                .or_insert(Recount {
                    backlog: flow.remaining(),
                    len: 1,
                    shortest: key,
                    oldest: flow.id(),
                });
            *ingress_sums.entry(flow.voq().src()).or_insert(0) += flow.remaining();
            total += flow.remaining();
        }
        if total != self.total_backlog {
            return Err(format!(
                "total backlog {} != recomputed {}",
                self.total_backlog, total
            ));
        }
        if ingress_sums != self.ingress {
            return Err("ingress backlog index mismatch".to_string());
        }
        if self.voq_lookup.len() != self.voq_slots.len() {
            return Err("VOQ lookup and slot count diverged".to_string());
        }
        for (voq, &vs) in &self.voq_lookup {
            match self.voq_slots.get(vs as usize) {
                Some(slot) if slot.voq == *voq => {}
                _ => return Err(format!("VOQ {voq} lookup points at wrong slot")),
            }
        }
        let nonempty_recount: Vec<Voq> = recounts.keys().copied().collect();
        let nonempty_index: Vec<Voq> = self.nonempty.keys().copied().collect();
        if nonempty_recount != nonempty_index {
            return Err(format!(
                "non-empty index {nonempty_index:?} != recomputed {nonempty_recount:?}"
            ));
        }
        for (voq, &vs) in &self.nonempty {
            if self.voq_lookup.get(voq) != Some(&vs) {
                return Err(format!("non-empty index for {voq} disagrees with lookup"));
            }
        }
        for slot in &self.voq_slots {
            match recounts.get(&slot.voq) {
                None => {
                    if slot.len != 0 || slot.backlog != 0 {
                        return Err(format!("empty VOQ {} has residual counts", slot.voq));
                    }
                    if !slot.runners_short.is_empty() || !slot.runners_old.is_empty() {
                        return Err(format!("empty VOQ {} kept runner entries", slot.voq));
                    }
                }
                Some(r) => {
                    if slot.len != r.len {
                        return Err(format!("VOQ {} len {} != {}", slot.voq, slot.len, r.len));
                    }
                    if slot.backlog != r.backlog {
                        return Err(format!(
                            "VOQ {} backlog {} != {}",
                            slot.voq, slot.backlog, r.backlog
                        ));
                    }
                    if (slot.shortest_remaining, slot.shortest_flow) != r.shortest {
                        return Err(format!(
                            "VOQ {} shortest champion ({}, {}) != {:?}",
                            slot.voq, slot.shortest_remaining, slot.shortest_flow, r.shortest
                        ));
                    }
                    if slot.oldest_flow != r.oldest {
                        return Err(format!(
                            "VOQ {} oldest champion {} != {}",
                            slot.voq, slot.oldest_flow, r.oldest
                        ));
                    }
                }
            }
        }

        // Runner coverage: every live non-champion flow has a valid entry.
        let mut short_entries: HashMap<u32, HashSet<(u64, FlowId)>> = HashMap::new();
        let mut old_entries: HashMap<u32, HashSet<FlowId>> = HashMap::new();
        for (vs, slot) in self.voq_slots.iter().enumerate() {
            short_entries.insert(
                vs as u32,
                slot.runners_short.iter().map(|Reverse(e)| *e).collect(),
            );
            old_entries.insert(
                vs as u32,
                slot.runners_old.iter().map(|Reverse(id)| *id).collect(),
            );
        }
        for entry in self.flows.iter().flatten() {
            let flow = &entry.state;
            let vs = entry.voq_slot;
            let slot = &self.voq_slots[vs as usize];
            if slot.shortest_flow != flow.id()
                && !short_entries[&vs].contains(&(flow.remaining(), flow.id()))
            {
                return Err(format!(
                    "runner coverage lost: flow {} in VOQ {} has no valid shortest entry",
                    flow.id(),
                    slot.voq
                ));
            }
            if slot.oldest_flow != flow.id() && !old_entries[&vs].contains(&flow.id()) {
                return Err(format!(
                    "runner coverage lost: flow {} in VOQ {} has no valid oldest entry",
                    flow.id(),
                    slot.voq
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn voq(src: u32, dst: u32) -> Voq {
        Voq::new(HostId::new(src), HostId::new(dst))
    }

    fn flow(id: u64, src: u32, dst: u32, size: u64) -> FlowState {
        FlowState::new(FlowId::new(id), voq(src, dst), size)
    }

    #[test]
    fn insert_updates_all_backlogs() {
        let mut t = FlowTable::new();
        t.insert(flow(1, 0, 1, 5)).unwrap();
        t.insert(flow(2, 0, 2, 3)).unwrap();
        t.insert(flow(3, 1, 2, 7)).unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.total_backlog(), 15);
        assert_eq!(t.voq_backlog(voq(0, 1)), 5);
        assert_eq!(t.voq_backlog(voq(0, 2)), 3);
        assert_eq!(t.ingress_backlog(HostId::new(0)), 8);
        assert_eq!(t.ingress_backlog(HostId::new(1)), 7);
        assert_eq!(t.num_nonempty_voqs(), 3);
        t.check_invariants().unwrap();
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut t = FlowTable::new();
        t.insert(flow(1, 0, 1, 5)).unwrap();
        assert_eq!(
            t.insert(flow(1, 2, 3, 4)),
            Err(FlowTableError::DuplicateFlow(FlowId::new(1)))
        );
    }

    #[test]
    fn backlog_overflow_is_rejected_before_any_mutation() {
        let mut t = FlowTable::new();
        t.insert(flow(1, 0, 1, u64::MAX)).unwrap();
        // Disjoint ports: only the table total would overflow.
        assert_eq!(
            t.insert(flow(2, 2, 3, u64::MAX)),
            Err(FlowTableError::BacklogOverflow(FlowId::new(2)))
        );
        // Same VOQ: all three sums would overflow.
        assert_eq!(
            t.insert(flow(3, 0, 1, u64::MAX)),
            Err(FlowTableError::BacklogOverflow(FlowId::new(3)))
        );
        assert_eq!(t.len(), 1);
        assert!(t.get(FlowId::new(2)).is_none());
        assert_eq!(t.total_backlog(), u64::MAX);
        assert_eq!(t.voq_backlog(voq(2, 3)), 0);
        assert_eq!(t.ingress_backlog(HostId::new(2)), 0);
        assert_eq!(t.num_nonempty_voqs(), 1);
        t.check_invariants().unwrap();
    }

    #[test]
    fn drain_partial_keeps_flow_and_reindexes() {
        let mut t = FlowTable::new();
        t.insert(flow(1, 0, 1, 5)).unwrap();
        t.insert(flow(2, 0, 1, 3)).unwrap();
        // Flow 2 is the SRPT candidate.
        let view = t.voqs().next().unwrap();
        assert_eq!(view.shortest_flow, FlowId::new(2));

        // Drain flow 1 below flow 2's remaining; candidate flips.
        let out = t.drain(FlowId::new(1), 3).unwrap();
        assert_eq!(out.drained, 3);
        assert!(out.completed.is_none());
        let view = t.voqs().next().unwrap();
        assert_eq!(view.shortest_flow, FlowId::new(1));
        assert_eq!(view.shortest_remaining, 2);
        assert_eq!(view.backlog, 5);
        t.check_invariants().unwrap();
    }

    #[test]
    fn drain_to_completion_removes_flow_and_empty_voq() {
        let mut t = FlowTable::new();
        t.insert(flow(1, 0, 1, 5)).unwrap();
        let out = t.drain(FlowId::new(1), 99).unwrap();
        assert_eq!(out.drained, 5);
        let done = out.completed.expect("flow should complete");
        assert_eq!(done.id(), FlowId::new(1));
        assert!(t.is_empty());
        assert_eq!(t.num_nonempty_voqs(), 0);
        assert_eq!(t.total_backlog(), 0);
        assert_eq!(t.ingress_backlog(HostId::new(0)), 0);
        t.check_invariants().unwrap();
    }

    #[test]
    fn remove_unindexes() {
        let mut t = FlowTable::new();
        t.insert(flow(1, 0, 1, 5)).unwrap();
        t.insert(flow(2, 0, 1, 3)).unwrap();
        let removed = t.remove(FlowId::new(1)).unwrap();
        assert_eq!(removed.size(), 5);
        assert_eq!(t.voq_backlog(voq(0, 1)), 3);
        assert_eq!(
            t.remove(FlowId::new(1)),
            Err(FlowTableError::UnknownFlow(FlowId::new(1)))
        );
        t.check_invariants().unwrap();
    }

    #[test]
    fn drain_unknown_flow_errors() {
        let mut t = FlowTable::new();
        assert_eq!(
            t.drain(FlowId::new(9), 1),
            Err(FlowTableError::UnknownFlow(FlowId::new(9)))
        );
    }

    #[test]
    fn voq_views_are_deterministically_ordered() {
        let mut t = FlowTable::new();
        t.insert(flow(1, 2, 0, 5)).unwrap();
        t.insert(flow(2, 0, 9, 3)).unwrap();
        t.insert(flow(3, 1, 4, 7)).unwrap();
        let voqs: Vec<Voq> = t.voqs().map(|v| v.voq).collect();
        assert_eq!(voqs, vec![voq(0, 9), voq(1, 4), voq(2, 0)]);
    }

    #[test]
    fn change_log_records_every_mutation() {
        let mut t = FlowTable::new();
        let start = t.change_log_end();
        t.insert(flow(1, 0, 1, 5)).unwrap();
        t.insert(flow(2, 0, 1, 3)).unwrap();
        t.drain(FlowId::new(1), 2).unwrap();
        t.remove(FlowId::new(2)).unwrap();
        let changes = t.changes_since(start).unwrap();
        assert_eq!(changes, [voq(0, 1); 4]);
        assert_eq!(t.change_log_end(), start + 4);
        // A fully caught-up consumer sees an empty suffix.
        assert_eq!(t.changes_since(t.change_log_end()), Some(&[][..]));
        // Positions beyond the end never existed.
        assert_eq!(t.changes_since(t.change_log_end() + 1), None);
    }

    #[test]
    fn change_log_compaction_invalidates_old_cursors() {
        let mut t = FlowTable::new();
        t.insert(flow(1, 0, 1, 5_000)).unwrap();
        let start = t.change_log_end();
        for _ in 0..2_000 {
            t.drain(FlowId::new(1), 1).unwrap();
        }
        assert!(
            t.changes_since(start).is_none(),
            "log should have compacted"
        );
        assert!(t.change_log_end() >= start + 2_000);
        t.check_invariants().unwrap();
    }

    #[test]
    fn read_changes_reports_lag_with_skip_count() {
        let mut t = FlowTable::new();
        t.insert(flow(1, 0, 1, 5_000)).unwrap();
        let start = t.change_log_end();
        // Fresh suffix: same view as changes_since, but typed.
        t.drain(FlowId::new(1), 1).unwrap();
        assert_eq!(
            t.read_changes(start),
            ChangeLogRead::Changes(&[voq(0, 1)][..])
        );
        assert_eq!(t.read_changes(start).changes(), t.changes_since(start));
        // Compact the log past `start`: the read reports exactly how many
        // entries were dropped, where changes_since only says `None`.
        for _ in 0..2_000 {
            t.drain(FlowId::new(1), 1).unwrap();
        }
        assert!(t.changes_since(start).is_none());
        match t.read_changes(start) {
            ChangeLogRead::Lagged { skipped } => {
                assert!(skipped > 0);
                let oldest = oldest_available(&t);
                assert_eq!(skipped, oldest - start, "skip count is exact");
            }
            ChangeLogRead::Changes(_) => panic!("compacted position must read as Lagged"),
        }
        // A caught-up reader sees an empty (non-lagged) suffix.
        assert_eq!(
            t.read_changes(t.change_log_end()),
            ChangeLogRead::Changes(&[][..])
        );
        t.check_invariants().unwrap();
    }

    #[test]
    fn evicted_registered_cursor_reads_as_lagged() {
        // Regression for the stalled-cursor eviction path: `record_change`
        // used to `force_ack_all`, silently bumping a live-but-slow
        // registered consumer past its unconsumed suffix — the consumer
        // could not tell forced loss from ordinary staleness. Reading from
        // the consumer's own acknowledged position must now come back
        // `Lagged { skipped }`: for a registered consumer that is only
        // possible after eviction, and `skipped` counts the lost entries.
        let mut t = FlowTable::new();
        t.insert(flow(1, 0, 1, 200_000)).unwrap();
        let reg = t.register_cursor();
        let acked = t.change_log_end();
        // While compaction honors the registration, the consumer's position
        // always reads as `Changes` — never `Lagged` — no matter how far
        // the log grows past the soft capacity.
        for _ in 0..1_000 {
            t.drain(FlowId::new(1), 1).unwrap();
            assert!(
                matches!(t.read_changes(acked), ChangeLogRead::Changes(_)),
                "a registered, non-stalled consumer must never lag"
            );
        }
        // Stall far past the hard cap: the pinned suffix is dropped.
        for _ in 0..100_000 {
            t.drain(FlowId::new(1), 1).unwrap();
        }
        match t.read_changes(acked) {
            ChangeLogRead::Lagged { skipped } => {
                assert_eq!(
                    skipped,
                    oldest_available(&t) - acked,
                    "every unconsumed entry is accounted as skipped"
                );
                assert!(skipped >= 100_000 - (STALLED_CURSOR_FACTOR as u64 + 1) * 1024 - 1);
            }
            ChangeLogRead::Changes(_) => {
                panic!("evicted registration must read as Lagged, not a silent empty suffix")
            }
        }
        // The registration handle survives eviction; after rebuilding and
        // re-acknowledging, reads are `Changes` again.
        t.ack_changes(reg, t.change_log_end());
        let pos = t.change_log_end();
        t.drain(FlowId::new(1), 1).unwrap();
        assert_eq!(
            t.read_changes(pos),
            ChangeLogRead::Changes(&[voq(0, 1)][..])
        );
        t.check_invariants().unwrap();
    }

    #[test]
    fn registered_cursor_survives_compaction_with_acks() {
        let mut t = FlowTable::new();
        t.insert(flow(1, 0, 1, 100_000)).unwrap();
        let reg = t.register_cursor();
        let mut pos = t.change_log_end();
        for step in 0..10_000u64 {
            t.drain(FlowId::new(1), 1).unwrap();
            if step % 256 == 0 {
                // Consume and acknowledge the suffix: it must still be there.
                let changes = t.changes_since(pos).expect("acked suffix was compacted");
                pos += changes.len() as u64;
                t.ack_changes(reg, pos);
            }
        }
        assert!(t.changes_since(pos).is_some());
        // The retained log is bounded by the unconsumed suffix plus slack,
        // not by the 10k mutations performed.
        let oldest = oldest_available(&t);
        assert!(
            t.change_log_end() - oldest <= t.change_log_end() - pos + 1024 + 1,
            "log retained more than the unconsumed suffix"
        );
        t.check_invariants().unwrap();
    }

    #[test]
    fn stalled_registered_cursor_is_evicted() {
        let mut t = FlowTable::new();
        t.insert(flow(1, 0, 1, 200_000)).unwrap();
        let reg = t.register_cursor();
        let start = t.change_log_end();
        for _ in 0..100_000 {
            t.drain(FlowId::new(1), 1).unwrap();
        }
        assert!(
            t.changes_since(start).is_none(),
            "stalled cursor should have been evicted"
        );
        let retained = t.change_log_end() - oldest_available(&t);
        assert!(
            retained <= (STALLED_CURSOR_FACTOR as u64 + 1) * 1024 + 1,
            "log grew unbounded despite stalled cursor ({retained} entries)"
        );
        // The handle still works for future acknowledgements.
        t.ack_changes(reg, t.change_log_end());
        t.drain(FlowId::new(1), 1).unwrap();
        assert!(t.changes_since(t.change_log_end() - 1).is_some());
        t.check_invariants().unwrap();
    }

    #[test]
    fn released_cursor_stops_pinning_and_handle_dies() {
        let mut t = FlowTable::new();
        t.insert(flow(1, 0, 1, 100_000)).unwrap();
        let reg = t.register_cursor();
        let start = t.change_log_end();
        t.release_cursor(reg);
        for _ in 0..2_000 {
            t.drain(FlowId::new(1), 1).unwrap();
        }
        assert!(
            t.changes_since(start).is_none(),
            "released cursor must not pin the log"
        );
        // A dead handle (and one recycled into a new registration) is inert.
        let reg2 = t.register_cursor();
        t.ack_changes(reg, u64::MAX);
        t.release_cursor(reg);
        let pos = t.change_log_end();
        t.drain(FlowId::new(1), 1).unwrap();
        assert!(t.changes_since(pos).is_some());
        t.release_cursor(reg2);
    }

    #[test]
    fn cursor_handles_do_not_transfer_to_clones() {
        let mut t = FlowTable::new();
        t.insert(flow(1, 0, 1, 10_000)).unwrap();
        let reg = t.register_cursor();
        let mut copy = t.clone();
        // Acks and releases against the clone are no-ops…
        copy.ack_changes(reg, u64::MAX);
        copy.release_cursor(reg);
        let start = copy.change_log_end();
        for _ in 0..2_000 {
            copy.drain(FlowId::new(1), 1).unwrap();
        }
        // …and the clone compacts as if unregistered.
        assert!(copy.changes_since(start).is_none());
        // The original registration still pins the original's log.
        let orig_start = t.change_log_end();
        for _ in 0..2_000 {
            t.drain(FlowId::new(1), 1).unwrap();
        }
        assert!(t.changes_since(orig_start).is_some());
        t.release_cursor(reg);
    }

    /// Smallest absolute position the log still reaches back to.
    fn oldest_available(t: &FlowTable) -> u64 {
        let mut lo = 0u64;
        let mut hi = t.change_log_end();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if t.changes_since(mid).is_some() {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    #[test]
    fn clone_gets_fresh_identity_and_empty_log() {
        let mut t = FlowTable::new();
        t.insert(flow(1, 0, 1, 5)).unwrap();
        let copy = t.clone();
        assert_ne!(t.table_id(), copy.table_id());
        assert_eq!(copy.changes_since(0), Some(&[][..]));
        assert_eq!(copy.total_backlog(), 5);
        copy.check_invariants().unwrap();
    }

    #[test]
    fn voq_view_matches_iterator() {
        let mut t = FlowTable::new();
        t.insert(flow(1, 0, 1, 5)).unwrap();
        t.insert(flow(2, 0, 1, 3)).unwrap();
        let from_iter = t.voqs().next().unwrap();
        assert_eq!(t.voq_view(voq(0, 1)), Some(from_iter));
        assert_eq!(t.voq_view(voq(3, 4)), None);
    }

    #[test]
    fn oldest_flow_is_smallest_id() {
        let mut t = FlowTable::new();
        t.insert(flow(5, 0, 1, 2)).unwrap();
        t.insert(flow(3, 0, 1, 9)).unwrap();
        let view = t.voqs().next().unwrap();
        assert_eq!(view.oldest_flow, FlowId::new(3));
        assert_eq!(view.shortest_flow, FlowId::new(5));
        assert_eq!(view.len, 2);
    }

    #[test]
    fn champions_survive_id_reuse_in_same_voq() {
        // The bench's per-event loop completes a flow and reinserts the same
        // id; stale runner entries for the old incarnation must never leak
        // into the champions of the new one.
        let mut t = FlowTable::new();
        t.insert(flow(1, 0, 1, 10)).unwrap();
        t.insert(flow(2, 0, 1, 20)).unwrap();
        t.insert(flow(3, 0, 1, 30)).unwrap();
        t.drain(FlowId::new(1), 10).unwrap(); // complete, leaving stale entries
        t.insert(flow(1, 0, 1, 25)).unwrap(); // same id, new size
        let view = t.voq_view(voq(0, 1)).unwrap();
        assert_eq!(view.shortest_flow, FlowId::new(2));
        assert_eq!(view.oldest_flow, FlowId::new(1));
        t.check_invariants().unwrap();
        // Remove the shortest champion: the reused id must be re-ranked at
        // its *new* remaining, not the stale 10-unit entry.
        t.remove(FlowId::new(2)).unwrap();
        let view = t.voq_view(voq(0, 1)).unwrap();
        assert_eq!(view.shortest_flow, FlowId::new(1));
        assert_eq!(view.shortest_remaining, 25);
        t.check_invariants().unwrap();
    }

    #[test]
    fn voq_slot_is_reused_across_empty_transitions() {
        let mut t = FlowTable::new();
        t.insert(flow(1, 0, 1, 5)).unwrap();
        t.drain(FlowId::new(1), 5).unwrap();
        assert_eq!(t.num_nonempty_voqs(), 0);
        t.insert(flow(2, 0, 1, 7)).unwrap();
        let view = t.voq_view(voq(0, 1)).unwrap();
        assert_eq!(view.shortest_flow, FlowId::new(2));
        assert_eq!(view.shortest_remaining, 7);
        assert_eq!(view.len, 1);
        t.check_invariants().unwrap();
    }

    #[test]
    fn runner_heaps_stay_bounded_under_churn() {
        // A long-lived elephant keeps draining while mice come and go: the
        // runner heaps must prune stale entries instead of growing with the
        // number of mutations.
        let mut t = FlowTable::new();
        t.insert(flow(0, 0, 1, 1_000_000)).unwrap();
        for round in 0..5_000u64 {
            let id = 1 + (round % 7);
            if t.get(FlowId::new(id)).is_none() {
                t.insert(flow(id, 0, 1, 3 + id)).unwrap();
            }
            t.drain(FlowId::new(id), 1).unwrap();
            t.drain(FlowId::new(0), 1).unwrap();
        }
        let slot = &t.voq_slots[t.voq_lookup[&voq(0, 1)] as usize];
        let cap = FlowTable::runner_cap(slot.len);
        assert!(
            slot.runners_short.len() <= 2 * cap,
            "shortest runner heap kept {} entries",
            slot.runners_short.len()
        );
        t.check_invariants().unwrap();
    }
}
