//! Reusable per-worker state of the simulation core.
//!
//! [`SimScratch`] bundles everything one worker mutates while evaluating
//! iterations: the prefetch-kernel buffers ([`drhw_prefetch::Scratch`]), the
//! chunk-scoped platform state (tile contents, inter-task window, simulated
//! clock), the per-iteration activation/protection buffers and one kernel
//! memo per prepared scenario. One instance per worker thread; binding it to
//! a plan sizes every buffer for that plan, so a warm evaluation loop
//! performs **zero heap allocations** — an invariant enforced by the
//! `alloc_free` integration test with a counting global allocator.
//!
//! # Ownership and reset rules
//!
//! * The *plan* is immutable and shared; the *scratch* is exclusively owned
//!   by one worker and never crosses threads.
//! * A scratch is bound to one plan at a time. Every evaluate entry point
//!   binds it first ([`bind_plan`](SimScratch::bind_plan)); binding to a
//!   different plan rebinds the whole scratch — tile contents for the new
//!   platform, buffers for the new maxima, memo tables at the new sizes —
//!   so a scratch made by one plan's `make_scratch` can serve any other.
//! * Chunk-scoped state (`contents`, `window`, `now`) is reset in place by
//!   [`reset_chunk`](SimScratch::reset_chunk) at every chunk boundary —
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

use drhw_model::{mix64, ScenarioId, Time, GOLDEN_GAMMA};
use drhw_prefetch::{ExecSummary, HybridSummary, InterTaskWindow, Scratch, SlotMask, TileContents};

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
/// contents pipeline still runs every activation because it feeds the
/// evolving tile state.
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

/// The buffer maxima a plan needs of a scratch, computed once per plan.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScratchShape {
    /// Subtasks of the plan's largest graph.
    pub(crate) subtasks: usize,
    /// Slots of the plan's widest schedule.
    pub(crate) slots: usize,
    /// Tiles of the platform.
    pub(crate) tiles: usize,
    /// Size of the plan's dense configuration dictionary.
    pub(crate) configs: usize,
    /// Tasks per iteration at most.
    pub(crate) tasks: usize,
}

/// The mutable per-worker state threaded through
/// [`IterationPlan::evaluate_with`](crate::IterationPlan::evaluate_with),
/// [`IterationPlan::run`](crate::IterationPlan::run) and the engine's pool
/// workers.
///
/// Create one via [`IterationPlan::make_scratch`](crate::IterationPlan::make_scratch),
/// which binds it to the plan and so pre-sizes every buffer.
#[derive(Debug)]
pub struct SimScratch {
    /// Buffers of the per-activation prefetch kernels.
    pub(crate) prefetch: Scratch,
    /// What every physical tile currently holds (chunk-scoped).
    pub(crate) contents: TileContents,
    /// Trailing port idle window of the previous task (chunk-scoped).
    pub(crate) window: InterTaskWindow,
    /// Simulated clock (chunk-scoped).
    pub(crate) now: Time,
    /// The iteration's activations as (task index, scenario) pairs.
    pub(crate) activations: Vec<(usize, ScenarioId)>,
    /// The artifact index of each activation (parallel to `activations`),
    /// resolved once per iteration so the hot loop never touches the
    /// artifact map.
    pub(crate) activation_artifacts: Vec<usize>,
    /// One kernel memo per plan artifact, indexed by artifact slot. Memo
    /// entries are pure-function results, so they survive chunk resets; they
    /// are only discarded when the scratch is bound to a different plan.
    pub(crate) memo: Vec<KernelMemo>,
    /// Identity token of the plan the scratch is bound to (0 = unbound).
    plan_token: u64,
}

impl SimScratch {
    /// A scratch bound to no plan; the first [`bind_plan`](Self::bind_plan)
    /// sizes it.
    pub(crate) fn unbound() -> Self {
        SimScratch {
            prefetch: Scratch::new(),
            contents: TileContents::new(0),
            window: InterTaskWindow::empty(),
            now: Time::ZERO,
            activations: Vec::new(),
            activation_artifacts: Vec::new(),
            memo: Vec::new(),
            plan_token: 0,
        }
    }

    /// Binds the scratch to the plan identified by `token`, whose buffer
    /// maxima are `shape` and whose artifacts have `graph_sizes` subtasks
    /// each. Bound to another plan (or to none), the whole scratch is
    /// rebound: tile contents for the plan's platform, kernel buffers
    /// reserved for its maxima, and fresh memo tables at its artifacts'
    /// sizes — so a scratch made by one plan's `make_scratch` never
    /// simulates another plan's platform or replays its summaries. Plans
    /// stamped out by [`with_config`](crate::IterationPlan::with_config)
    /// share design-time artifacts and therefore the token, so
    /// re-parameterised runs keep their warm memos. One word compare on the
    /// steady path.
    pub(crate) fn bind_plan(
        &mut self,
        token: u64,
        shape: &ScratchShape,
        graph_sizes: impl Iterator<Item = usize>,
    ) {
        if self.plan_token == token {
            return;
        }
        self.prefetch
            .reserve(shape.subtasks, shape.slots, shape.tiles, shape.configs);
        if self.contents.tile_count() != shape.tiles {
            self.contents = TileContents::new(shape.tiles);
        }
        self.activations.clear();
        self.activations.reserve(shape.tasks);
        self.activation_artifacts.clear();
        self.activation_artifacts.reserve(shape.tasks);
        self.memo.clear();
        self.memo.extend(graph_sizes.map(KernelMemo::for_subtasks));
        self.plan_token = token;
    }

    /// Resets the chunk-scoped state to the cold start every chunk begins
    /// from: empty tiles, no inter-task window, clock at zero. In-place and
    /// bit-identical to fresh construction.
    pub(crate) fn reset_chunk(&mut self) {
        self.contents.reset();
        self.window = InterTaskWindow::empty();
        self.now = Time::ZERO;
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
