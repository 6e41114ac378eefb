//! Reusable per-worker state of the simulation core.
//!
//! [`SimScratch`] bundles everything one worker mutates while evaluating
//! iterations: the prefetch-kernel buffers ([`drhw_prefetch::Scratch`]), the
//! chunk-scoped tile states (tile contents, with the per-configuration tile
//! masks and last-use generations the replacement kernel reads, and their
//! stamp clock), one lane per requested policy (inter-task window, iteration
//! outcome, chunk sums, first error), the per-iteration
//! activation/protection buffers and the bound plan's kernel memos, one per
//! prepared scenario. One instance per worker thread; binding it to a plan
//! sizes every buffer for that plan, so a warm evaluation loop performs
//! **zero heap allocations** — an invariant enforced by the `alloc_free`
//! integration test with a counting global allocator.
//!
//! # Ownership and reset rules
//!
//! * The *plan* is immutable and shared; the *scratch* is exclusively owned
//!   by one worker and never crosses threads.
//! * The kernel memos live with the plan's design. Its shared artifacts own
//!   a [`MemoPool`] of memo sets (one memo per prepared scenario) that no
//!   scratch holds. Binding a scratch takes a set from the pool, and builds
//!   a cold one only when the pool is empty; rebinding or dropping the
//!   scratch hands it back. A memo entry is a pure function of the plan's
//!   artifacts, so every job on a cached plan starts with what earlier jobs
//!   computed, and the pool holds at most as many sets as scratches were
//!   bound to the design at once. Plans of one design on several tile
//!   counts ([`with_platform`](crate::IterationPlan::with_platform)) share
//!   one pool: the kernels read the tile state only through the residency
//!   mask they are keyed on.
//! * A scratch is bound to one plan at a time. Every evaluate entry point
//!   binds it first ([`bind_plan`](SimScratch::bind_plan)); binding to a
//!   different design rebinds the whole scratch — tile contents for the new
//!   platform, buffers for the new maxima, the new plan's memo set — and
//!   binding to the same design on another tile count rebuilds the tile
//!   contents and buffers but keeps the memo set, so a scratch made by one
//!   plan's `make_scratch` can serve any other. Every tile state's
//!   per-configuration masks are sized to the bound plan's dictionary:
//!   when the scratch binds, when a pass adds a tile state, and when tile
//!   states are kept for another design on the same tile count.
//! * Chunk-scoped state (tile states, lanes) is reset in place by
//!   [`start_chunk`](SimScratch::start_chunk) at every chunk boundary —
//!   bit-identical to constructing fresh state, without the allocation.
//! * Kernel buffers are cleared and refilled by the kernels themselves; their
//!   contents are meaningless between calls.
//!
//! # Memo layout
//!
//! A scenario of `n` subtasks can only produce residency masks below `2^n`
//! and window-load counts `0..=n`, so its list memo has at most `2^n` keys
//! and each windowed memo at most `2^n·(n+1)`. A table whose key space fits
//! in [`MEMO_SLOTS`] entries has exactly that many, and the key is its own
//! index: no two keys share an entry, so nothing is ever evicted. Larger key
//! spaces get a [`MEMO_SLOTS`]-entry table indexed by a SplitMix64
//! fingerprint of the key.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use drhw_model::{mix64, ScenarioId, Time, GOLDEN_GAMMA};
use drhw_prefetch::{
    ExecSummary, HybridSummary, InterTaskWindow, PolicyKind, Scratch, SlotMask, TileContents,
};

use crate::error::SimError;
use crate::stats::{ChunkStats, IterationOutcome};

/// Entries of a hashed memo table, and the largest key space a key-indexed
/// table covers (a power of two — the fingerprint is masked down to an
/// index). The windowed policies key on (mask, window) pairs whose working
/// set reaches the low hundreds per artifact across a run, so the table is
/// sized to keep conflict evictions rare while a lookup stays one probe.
const MEMO_SLOTS: usize = 256;

/// A key a [`MemoSet`] can index by. Full keys are compared on every probe,
/// so a fingerprint collision only costs a miss, never a wrong hit.
pub(crate) trait MemoKey: Copy + PartialEq {
    /// How many distinct keys a scenario of `subtasks` subtasks can produce
    /// (`None` when that overflows `usize`).
    fn key_space(subtasks: usize) -> Option<usize>;

    /// The key's index in a key-indexed table of a `subtasks`-subtask
    /// scenario: distinct keys get distinct indices below
    /// [`key_space`](MemoKey::key_space).
    fn index(self, subtasks: usize) -> usize;

    /// A 64-bit fingerprint that picks the entry of a hashed table: the key
    /// run through the SplitMix64 finalizer, which mixes every key bit into
    /// the entry index.
    fn fingerprint(self) -> u64;
}

/// The list memo's key: a residency mask, below `2^n`.
impl MemoKey for SlotMask {
    fn key_space(subtasks: usize) -> Option<usize> {
        1usize.checked_shl(u32::try_from(subtasks).ok()?)
    }

    fn index(self, _subtasks: usize) -> usize {
        self.bits() as usize
    }

    fn fingerprint(self) -> u64 {
        mix64(self.bits())
    }
}

/// The windowed memos' key: a residency mask and the window's whole loads,
/// at most `n`.
impl MemoKey for (SlotMask, usize) {
    fn key_space(subtasks: usize) -> Option<usize> {
        SlotMask::key_space(subtasks)?.checked_mul(subtasks + 1)
    }

    fn index(self, subtasks: usize) -> usize {
        (self.1 << subtasks) | self.0.bits() as usize
    }

    fn fingerprint(self) -> u64 {
        mix64(
            self.0
                .bits()
                .wrapping_add((self.1 as u64).wrapping_mul(GOLDEN_GAMMA)),
        )
    }
}

/// A fixed-capacity direct-mapped cache: the key picks one entry (directly
/// in a key-indexed table, by fingerprint in a hashed one), a full-key
/// compare decides hit or miss, and a colliding insert simply overwrites.
/// Both sides are `Copy`, so hits copy the stored value out — bit-identical
/// to recomputing it, which is what makes memoising the evaluation kernels
/// safe for the differential oracle.
#[derive(Debug, Clone)]
pub(crate) struct MemoSet<K: MemoKey, V: Copy> {
    entries: Box<[Option<(K, V)>]>,
    /// The scenario's subtask count when the table is key-indexed, `None`
    /// when it is hashed.
    indexed_by: Option<usize>,
}

impl<K: MemoKey, V: Copy> MemoSet<K, V> {
    /// A table for the keys of a scenario of `subtasks` subtasks: key-indexed
    /// with one entry per key when they fit in [`MEMO_SLOTS`], hashed with
    /// [`MEMO_SLOTS`] entries otherwise.
    pub(crate) fn for_subtasks(subtasks: usize) -> Self {
        let (len, indexed_by) = match K::key_space(subtasks) {
            Some(space) if space <= MEMO_SLOTS => (space, Some(subtasks)),
            _ => (MEMO_SLOTS, None),
        };
        MemoSet {
            entries: vec![None; len].into_boxed_slice(),
            indexed_by,
        }
    }

    #[inline]
    fn entry(&self, key: K) -> usize {
        match self.indexed_by {
            Some(subtasks) => key.index(subtasks),
            None => key.fingerprint() as usize & (MEMO_SLOTS - 1),
        }
    }

    pub(crate) fn get(&self, key: K) -> Option<V> {
        match self.entries[self.entry(key)] {
            Some((k, v)) if k == key => Some(v),
            _ => None,
        }
    }

    pub(crate) fn put(&mut self, key: K, value: V) {
        self.entries[self.entry(key)] = Some((key, value));
    }

    /// Whether the table is key-indexed (else hashed).
    #[cfg(test)]
    pub(crate) fn is_key_indexed(&self) -> bool {
        self.indexed_by.is_some()
    }
}

/// Per-(task, scenario) memo of the run-time evaluation kernels. The kernels
/// are pure functions of the residency mask (plus, for the windowed
/// policies, the number of whole loads the inter-task window holds — see
/// [`PreparedSchedule::window_loads`](drhw_prefetch::PreparedSchedule::window_loads))
/// once the schedule is prepared, so their summaries can be replayed from
/// here instead of re-running the timing loop — the replacement/reuse/
/// contents pipeline still runs every activation, once per tile state,
/// because it feeds the evolving tile contents.
#[derive(Debug, Clone)]
pub(crate) struct KernelMemo {
    /// `evaluate_list` keyed by residency mask.
    pub(crate) list: MemoSet<SlotMask, ExecSummary>,
    /// `evaluate_inter_task` (summary, preloaded) keyed by (mask, window
    /// loads).
    pub(crate) inter: MemoSet<(SlotMask, usize), (ExecSummary, usize)>,
    /// `evaluate_hybrid` keyed by (mask, window loads).
    pub(crate) hybrid: MemoSet<(SlotMask, usize), HybridSummary>,
}

impl KernelMemo {
    /// Empty tables sized to the keys a scenario of `subtasks` subtasks can
    /// produce.
    pub(crate) fn for_subtasks(subtasks: usize) -> Self {
        KernelMemo {
            list: MemoSet::for_subtasks(subtasks),
            inter: MemoSet::for_subtasks(subtasks),
            hybrid: MemoSet::for_subtasks(subtasks),
        }
    }
}

/// The memo sets of one plan that no scratch holds: one [`KernelMemo`] per
/// prepared scenario, in artifact order. The plan's shared artifacts own the
/// pool, and a bound scratch holds it too, so the scratch can hand its set
/// back after the plan is gone; the sets are freed with the last of them.
#[derive(Debug, Default)]
pub(crate) struct MemoPool {
    idle: Mutex<Vec<Vec<KernelMemo>>>,
}

impl MemoPool {
    /// The idle sets. Every update under the lock is one push or pop, which
    /// leaves the list valid, so a poisoned lock is still safe to use — and
    /// a dropping scratch must not panic.
    fn idle(&self) -> MutexGuard<'_, Vec<Vec<KernelMemo>>> {
        self.idle.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// How many sets the pool holds.
    #[cfg(test)]
    pub(crate) fn idle_sets(&self) -> usize {
        self.idle().len()
    }
}

/// The buffer maxima a plan's design needs of a scratch, computed once per
/// design; the platform adds its tile count.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScratchShape {
    /// Subtasks of the plan's largest graph.
    pub(crate) subtasks: usize,
    /// Slots of the plan's widest schedule.
    pub(crate) slots: usize,
    /// Size of the plan's dense configuration dictionary.
    pub(crate) configs: usize,
    /// Tasks per iteration at most.
    pub(crate) tasks: usize,
}

/// One tile state of a pass: what every physical tile holds, with the
/// indexes the replacement kernel reads, and the clock its last-use stamps
/// come from (chunk-scoped; see [`SimScratch`] for the two clocks).
#[derive(Debug)]
pub(crate) struct TileState {
    pub(crate) contents: TileContents,
    pub(crate) now: Time,
    /// Whether several lanes read this state (its clock then leaves the
    /// penalties out).
    pub(crate) shared: bool,
}

impl TileState {
    /// Empty tiles with the clock at zero, their per-configuration masks
    /// sized for the dense ids below `configs`, so no load allocates.
    fn cold(tiles: usize, configs: usize) -> Self {
        let mut contents = TileContents::new(tiles);
        contents.reserve_configs(configs);
        TileState {
            contents,
            now: Time::ZERO,
            shared: false,
        }
    }
}

/// One requested policy inside a pass: the tile state it reads, its
/// inter-task window, the outcome of the current iteration, the chunk's
/// running sums and the first error it hit. A lane with an error is dead
/// for the rest of the chunk; the others go on.
#[derive(Debug)]
pub(crate) struct Lane {
    pub(crate) policy: PolicyKind,
    /// The tile state the lane reads; `None` for the cached-artifact
    /// policies, which read none.
    pub(crate) tiles: Option<usize>,
    /// Trailing port idle window of the previous task (chunk-scoped).
    pub(crate) window: InterTaskWindow,
    /// What the current iteration contributed so far.
    pub(crate) outcome: IterationOutcome,
    /// The chunk's iterations folded so far.
    pub(crate) stats: ChunkStats,
    /// The first error, which ends the lane's chunk.
    pub(crate) error: Option<SimError>,
}

impl Lane {
    /// Whether the lane is still running and reads tile state `state`.
    #[inline]
    pub(crate) fn reads(&self, state: usize) -> bool {
        self.tiles == Some(state) && self.error.is_none()
    }

    /// Takes the lane's chunk result: its first error, else its sums.
    pub(crate) fn take_result(&mut self) -> Result<ChunkStats, SimError> {
        match self.error.take() {
            Some(error) => Err(error),
            None => Ok(std::mem::take(&mut self.stats)),
        }
    }
}

/// The mutable per-worker state threaded through
/// [`IterationPlan::evaluate_with`](crate::IterationPlan::evaluate_with),
/// [`IterationPlan::run`](crate::IterationPlan::run) and the engine's pool
/// workers.
///
/// Create one via [`IterationPlan::make_scratch`](crate::IterationPlan::make_scratch),
/// which binds it to the plan and so pre-sizes every buffer.
///
/// # Tile states
///
/// A pass keeps one tile state — tile contents plus the clock their
/// last-use stamps come from — per reuse-exploiting policy, or one shared
/// by all of them. Eviction reads only the *order* of the stamps. A state
/// read by one policy keeps that policy's simulated clock, which each
/// activation advances by its ideal makespan plus its penalty; a shared
/// state advances by the ideal makespan alone, so its stamps depend on no
/// policy. When every prepared scenario of the plan has a positive ideal
/// makespan, both clocks rise with every activation and stamp each tile
/// with the position of the activation that last touched it, so the
/// policies evict alike and share one state exactly. Otherwise each keeps
/// its own.
///
/// Each tile state also keeps the indexes the replacement kernel reads
/// (see [`TileContents`]): a tile mask per configuration, sized to the
/// bound plan's dictionary so that no load allocates, and the tiles
/// grouped by last-use stamp, which is how eviction reads the stamps'
/// order.
#[derive(Debug)]
pub struct SimScratch {
    /// Buffers of the per-activation prefetch kernels.
    pub(crate) prefetch: Scratch,
    /// The tile states of the current pass (chunk-scoped); the first
    /// `tile_states` are in use. Kept across passes so a warm pass never
    /// allocates them again.
    pub(crate) tiles: Vec<TileState>,
    /// How many of `tiles` the current pass uses.
    pub(crate) tile_states: usize,
    /// One lane per policy of the current pass, in request order.
    pub(crate) lanes: Vec<Lane>,
    /// The iteration's activations as (task index, scenario) pairs.
    pub(crate) activations: Vec<(usize, ScenarioId)>,
    /// The artifact index of each activation (parallel to `activations`),
    /// resolved once per iteration so the hot loop never touches the
    /// artifact map.
    pub(crate) activation_artifacts: Vec<usize>,
    /// The bound plan's memo set, one kernel memo per plan artifact, indexed
    /// by artifact slot. Memo entries are pure-function results, so they
    /// survive chunk resets and outlive the scratch: the set goes back to
    /// `pool` when the scratch is rebound or dropped.
    pub(crate) memo: Vec<KernelMemo>,
    /// The memo pool of the plan the scratch is bound to (`None` while
    /// unbound); its identity is the plan's design's.
    pool: Option<Arc<MemoPool>>,
}

impl SimScratch {
    /// A scratch bound to no plan; the first [`bind_plan`](Self::bind_plan)
    /// sizes it.
    pub(crate) fn unbound() -> Self {
        SimScratch {
            prefetch: Scratch::new(),
            tiles: Vec::new(),
            tile_states: 0,
            lanes: Vec::new(),
            activations: Vec::new(),
            activation_artifacts: Vec::new(),
            memo: Vec::new(),
            pool: None,
        }
    }

    /// Binds the scratch to the plan whose memo pool is `pool`, whose buffer
    /// maxima are `shape`, whose platform has `tiles` tiles and whose
    /// artifacts have `graph_sizes` subtasks each. Bound to another design
    /// (or to none), the whole scratch is rebound: one tile state for the
    /// plan's platform, lanes for every policy, kernel buffers reserved for
    /// its maxima, and a memo set of the plan's — taken from its pool, or
    /// built cold at its artifacts' sizes when the pool is empty — after
    /// the old plan's set went back to the old pool. So a scratch made by
    /// one plan's `make_scratch` never simulates another plan's platform or
    /// replays its summaries. Plans stamped out by
    /// [`with_config`](crate::IterationPlan::with_config) and
    /// [`with_platform`](crate::IterationPlan::with_platform) share
    /// design-time artifacts and therefore the pool, so re-parameterised
    /// runs keep their warm memos; bound to the same design on another tile
    /// count, the scratch rebuilds its tile states and buffers and keeps its
    /// memo set. A pointer and a tile-count compare on the steady path.
    pub(crate) fn bind_plan(
        &mut self,
        pool: &Arc<MemoPool>,
        shape: &ScratchShape,
        tiles: usize,
        graph_sizes: impl Iterator<Item = usize>,
    ) {
        let same_design = self
            .pool
            .as_ref()
            .is_some_and(|bound| Arc::ptr_eq(bound, pool));
        let same_tiles = self.tiles.first().map(|state| state.contents.tile_count()) == Some(tiles);
        if same_design && same_tiles {
            return;
        }
        self.prefetch
            .reserve(shape.subtasks, shape.slots, shape.configs);
        if same_tiles {
            // Kept from another design: size their masks for this one's
            // dictionary.
            for state in &mut self.tiles {
                state.contents.reserve_configs(shape.configs);
            }
        } else {
            self.tiles.clear();
            self.tiles.push(TileState::cold(tiles, shape.configs));
        }
        self.tile_states = 0;
        self.lanes.clear();
        self.lanes.reserve(PolicyKind::ALL.len());
        self.activations.clear();
        self.activations.reserve(shape.tasks);
        self.activation_artifacts.clear();
        self.activation_artifacts.reserve(shape.tasks);
        if !same_design {
            self.release_memo();
            // Pop in a statement of its own: the lock is released before a
            // cold build, which other scratches binding the plan need not
            // wait for.
            let warm = pool.idle().pop();
            self.memo = warm.unwrap_or_else(|| graph_sizes.map(KernelMemo::for_subtasks).collect());
            self.pool = Some(Arc::clone(pool));
        }
    }

    /// Hands the memo set back to the pool of the plan the scratch is bound
    /// to, leaving it unbound.
    fn release_memo(&mut self) {
        if let Some(pool) = self.pool.take() {
            pool.idle().push(std::mem::take(&mut self.memo));
        }
    }

    /// Sets up a pass over `policies` from the cold start every chunk
    /// begins at: one lane per policy with an empty window and zero sums,
    /// and empty tiles with the clock at zero. The reuse-exploiting lanes
    /// read one shared tile state when there are several of them and
    /// `share` holds, else one tile state each; a state added here gets
    /// masks for the `configs` ids of the bound plan's dictionary. In
    /// place: after the first pass with as many tile states, nothing is
    /// allocated.
    pub(crate) fn start_chunk(&mut self, policies: &[PolicyKind], share: bool, configs: usize) {
        let reusing = policies.iter().filter(|p| p.exploits_reuse()).count();
        let shared = share && reusing > 1;
        self.lanes.clear();
        let mut next_state = 0;
        for &policy in policies {
            let tiles = policy.exploits_reuse().then(|| {
                let state = next_state;
                if !shared {
                    next_state += 1;
                }
                state
            });
            self.lanes.push(Lane {
                policy,
                tiles,
                window: InterTaskWindow::empty(),
                outcome: IterationOutcome::default(),
                stats: ChunkStats::default(),
                error: None,
            });
        }
        self.tile_states = if shared { 1 } else { reusing };
        let tile_count = self.tiles[0].contents.tile_count();
        while self.tiles.len() < self.tile_states {
            self.tiles.push(TileState::cold(tile_count, configs));
        }
        for state in &mut self.tiles[..self.tile_states] {
            state.contents.reset();
            state.now = Time::ZERO;
            state.shared = shared;
        }
    }
}

impl Drop for SimScratch {
    /// Hands the memo set back to the bound plan's pool, so the next
    /// scratch bound to the plan starts warm.
    fn drop(&mut self) {
        self.release_memo();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_indexed_tables_hold_every_key_at_once() {
        for n in 1..=5 {
            let masks = 0..1u64 << n;
            let mut list = MemoSet::<SlotMask, u64>::for_subtasks(n);
            let mut windowed = MemoSet::<(SlotMask, usize), u64>::for_subtasks(n);
            assert_eq!(list.indexed_by, Some(n));
            assert_eq!(windowed.indexed_by, Some(n));
            assert_eq!(list.entries.len(), 1 << n);
            assert_eq!(windowed.entries.len(), (1 << n) * (n + 1));
            for bits in masks.clone() {
                list.put(SlotMask::from_bits(bits), bits);
                for loads in 0..=n {
                    windowed.put(
                        (SlotMask::from_bits(bits), loads),
                        bits * 100 + loads as u64,
                    );
                }
            }
            for bits in masks {
                assert_eq!(list.get(SlotMask::from_bits(bits)), Some(bits), "n={n}");
                for loads in 0..=n {
                    assert_eq!(
                        windowed.get((SlotMask::from_bits(bits), loads)),
                        Some(bits * 100 + loads as u64),
                        "n={n} mask={bits:#b} loads={loads}"
                    );
                }
            }
        }
    }

    #[test]
    fn tables_switch_to_hashing_above_the_slot_budget() {
        // 2^8 masks still fit; 2^6·7 windowed keys do not.
        let list = MemoSet::<SlotMask, u64>::for_subtasks(8);
        assert_eq!(list.indexed_by, Some(8));
        assert_eq!(list.entries.len(), MEMO_SLOTS);
        for n in [6, 9, 63, 64] {
            let windowed = MemoSet::<(SlotMask, usize), u64>::for_subtasks(n);
            assert_eq!(windowed.indexed_by, None, "n={n}");
            assert_eq!(windowed.entries.len(), MEMO_SLOTS, "n={n}");
        }
        let mut widest = MemoSet::<SlotMask, u64>::for_subtasks(64);
        assert_eq!(widest.indexed_by, None);
        widest.put(SlotMask::from_bits(u64::MAX), 7);
        assert_eq!(widest.get(SlotMask::from_bits(u64::MAX)), Some(7));
        assert_eq!(widest.get(SlotMask::from_bits(1)), None);
    }
}
