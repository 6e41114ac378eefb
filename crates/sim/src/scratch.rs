//! Reusable per-worker state of the simulation core.
//!
//! [`SimScratch`] bundles everything one worker mutates while evaluating
//! iterations: the prefetch-kernel buffers ([`drhw_prefetch::Scratch`]), the
//! chunk-scoped platform state (tile contents, inter-task window, simulated
//! clock) and the per-iteration activation/protection buffers. One instance
//! per worker thread; every buffer is pre-sized by
//! [`IterationPlan::make_scratch`](crate::IterationPlan::make_scratch) to the
//! largest graph of the plan, so a warm evaluation loop performs **zero heap
//! allocations** — an invariant enforced by the `alloc_free` integration test
//! with a counting global allocator.
//!
//! # Ownership and reset rules
//!
//! * The *plan* is immutable and shared; the *scratch* is exclusively owned
//!   by one worker and never crosses threads.
//! * Chunk-scoped state (`contents`, `window`, `now`) is reset in place by
//!   [`reset_chunk`](SimScratch::reset_chunk) at every chunk boundary —
//!   bit-identical to constructing fresh state, without the allocation.
//! * Kernel buffers are cleared and refilled by the kernels themselves; their
//!   contents are meaningless between calls.

use drhw_model::{mix64, ScenarioId, Time, GOLDEN_GAMMA};
use drhw_prefetch::{ExecSummary, HybridSummary, InterTaskWindow, Scratch, SlotMask, TileContents};

/// Slots per memo set (a power of two — the fingerprint is masked down to an
/// index). The windowed policies key on (mask, window) pairs whose working
/// set reaches the low hundreds per artifact across a run, so the table is
/// sized to keep conflict evictions rare while a lookup stays one probe.
const MEMO_SLOTS: usize = 256;

/// A key a [`MemoSet`] can index by: a cheap 64-bit fingerprint that picks
/// the slot (full keys are still compared on probe, so fingerprint collisions
/// only cost a miss, never a wrong hit). Fingerprints run the key through
/// the SplitMix64 finalizer, which mixes every key bit into the slot index.
pub(crate) trait MemoKey: Copy + PartialEq {
    fn fingerprint(self) -> u64;
}

impl MemoKey for SlotMask {
    fn fingerprint(self) -> u64 {
        mix64(self.bits())
    }
}

impl MemoKey for (SlotMask, usize) {
    fn fingerprint(self) -> u64 {
        mix64(
            self.0
                .bits()
                .wrapping_add((self.1 as u64).wrapping_mul(GOLDEN_GAMMA)),
        )
    }
}

/// A fixed-capacity direct-mapped cache: the key's fingerprint picks one
/// slot, a full-key compare decides hit or miss, and a colliding insert
/// simply overwrites. Both sides are `Copy`, so hits copy the stored value
/// out — bit-identical to recomputing it, which is what makes memoising the
/// evaluation kernels safe for the differential oracle.
#[derive(Debug, Clone)]
pub(crate) struct MemoSet<K: MemoKey, V: Copy> {
    entries: Box<[Option<(K, V)>]>,
}

impl<K: MemoKey, V: Copy> Default for MemoSet<K, V> {
    fn default() -> Self {
        MemoSet {
            entries: vec![None; MEMO_SLOTS].into_boxed_slice(),
        }
    }
}

impl<K: MemoKey, V: Copy> MemoSet<K, V> {
    pub(crate) fn get(&self, key: K) -> Option<V> {
        match self.entries[key.fingerprint() as usize & (MEMO_SLOTS - 1)] {
            Some((k, v)) if k == key => Some(v),
            _ => None,
        }
    }

    pub(crate) fn put(&mut self, key: K, value: V) {
        self.entries[key.fingerprint() as usize & (MEMO_SLOTS - 1)] = Some((key, value));
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
#[derive(Debug, Clone, Default)]
pub(crate) struct KernelMemo {
    /// `evaluate_list` keyed by residency mask.
    pub(crate) list: MemoSet<SlotMask, ExecSummary>,
    /// `evaluate_inter_task` (summary, preloaded) keyed by (mask, window
    /// loads).
    pub(crate) inter: MemoSet<(SlotMask, usize), (ExecSummary, usize)>,
    /// `evaluate_hybrid` keyed by (mask, window loads).
    pub(crate) hybrid: MemoSet<(SlotMask, usize), HybridSummary>,
}

/// The mutable per-worker state threaded through
/// [`IterationPlan::evaluate_with`](crate::IterationPlan::evaluate_with),
/// [`IterationPlan::run`](crate::IterationPlan::run) and the engine's pool
/// workers.
///
/// Create one via [`IterationPlan::make_scratch`](crate::IterationPlan::make_scratch),
/// which pre-sizes every buffer for the plan.
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
    /// Identity token of the plan the memos belong to (0 = unbound).
    plan_token: u64,
}

impl SimScratch {
    /// Creates a scratch pre-sized for plans whose largest graph has
    /// `subtasks` subtasks on `slots` slots, on a platform of `tiles` tiles,
    /// with `configs` dense configuration ids and `tasks` tasks per
    /// iteration.
    pub(crate) fn with_capacity(
        subtasks: usize,
        slots: usize,
        tiles: usize,
        configs: usize,
        tasks: usize,
        artifacts: usize,
        plan_token: u64,
    ) -> Self {
        let mut prefetch = Scratch::new();
        prefetch.reserve(subtasks, slots, tiles, configs);
        SimScratch {
            prefetch,
            contents: TileContents::new(tiles),
            window: InterTaskWindow::empty(),
            now: Time::ZERO,
            activations: Vec::with_capacity(tasks),
            activation_artifacts: Vec::with_capacity(tasks),
            memo: vec![KernelMemo::default(); artifacts],
            plan_token,
        }
    }

    /// Makes the memo tables safe to use with the plan identified by `token`:
    /// a scratch created by one plan's `make_scratch` but reused with a
    /// different plan gets its memos discarded and re-sized here, instead of
    /// replaying another plan's summaries. Plans stamped out by
    /// [`with_config`](crate::IterationPlan::with_config) share design-time
    /// artifacts and therefore the token, so re-parameterised runs keep their
    /// warm memos. No-op (two word compares) on the steady path.
    pub(crate) fn bind_plan(&mut self, token: u64, artifacts: usize) {
        if self.plan_token != token || self.memo.len() != artifacts {
            self.plan_token = token;
            self.memo.clear();
            self.memo.resize(artifacts, KernelMemo::default());
        }
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
