//! Exact branch & bound prefetch scheduling.
//!
//! The design-time phase of the hybrid heuristic can afford to search for the
//! *optimal* load order because it runs offline: "we apply a branch&bound
//! algorithm that always finds the optimal solution and for large graphs we
//! keep the heuristic presented in [7] since it generates near optimal
//! schedules in an affordable time" (§5). This module implements exactly that
//! pair: an exhaustive search over load orders with lower-bound pruning, and a
//! transparent fallback to the list scheduler once the number of loads exceeds
//! a configurable threshold.
//!
//! # Assisted search
//!
//! The critical-set loop (Fig. 4) re-runs this search once per round with a
//! monotonically shrinking load set, so consecutive searches share most of
//! their prefix evaluations. [`SearchCache`] captures that structure:
//!
//! * an **evaluation memo** keyed by `(load set, load order)` — a restricted
//!   fixed-order simulation depends on nothing else once the problem's graph,
//!   schedule, platform and timing offsets are fixed, so entries stay valid
//!   across rounds (and across the design-time all-loads search, whose leaves
//!   are the first round's evaluations). It is a hash map that grows with
//!   use: a search that ends at the root allocates next to nothing;
//! * a **dominance table**, valid within one search only: a prefix whose
//!   per-load finish times (compared in ascending subtask id order, so
//!   permutations of the same set line up) are all `>=` those of an
//!   already-explored prefix over the same set cannot lead to a strictly
//!   better completion, and is cut;
//! * a **warm bound**: the previous round's best order, filtered to the
//!   current load set, is evaluated once and its penalty prunes any prefix
//!   that is *strictly* worse.
//!
//! On top of the cache, the assisted search carries a **serialization
//! bound**: the reconfiguration port loads one configuration at a time, so
//! after any prefix the k-th remaining load cannot finish before the
//! prefix's loads plus `k` more latencies — and the loaded subtask still has
//! to run, followed by its longest mandatory chain of executions (graph
//! successors and the next subtask on its PE). Sorting the remaining
//! execution tails descending realizes the assignment that minimizes the
//! maximum finish, so the resulting penalty is a true lower bound on *every*
//! completion of the prefix and can be checked before simulating anything.
//!
//! All of these are pure accelerations: the assisted search visits a subset
//! of the naive search's nodes but provably still reaches the depth-first
//! earliest optimal leaf, so it returns bit-identical results (the
//! `schedule_naive` entry points keep the unassisted algorithm alive as the
//! differential reference).

use std::collections::HashMap;
use std::fmt;

use drhw_model::{SubtaskId, Time};

use crate::arena::{Strategy, Timeline};
use crate::error::PrefetchError;
use crate::list_scheduler::ListScheduler;
use crate::mask::SlotMask;
use crate::problem::{ExecutionResult, PrefetchProblem, ProblemMask};
use crate::scheduler::PrefetchScheduler;

/// Exact prefetch scheduler with a heuristic fallback for large problems.
///
/// The search enumerates load orders depth-first. A partial order is pruned
/// when a relaxation (remaining loads assumed free) already matches or exceeds
/// the best complete schedule found so far, so the incumbent produced by the
/// list scheduler makes the search terminate quickly on the graph sizes of the
/// paper's benchmarks. See the [module docs](self) for the memoization,
/// dominance and warm-start accelerations layered on top.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchBoundScheduler {
    exhaustive_limit: usize,
    node_limit: u64,
}

impl BranchBoundScheduler {
    /// Default maximum number of loads for which the exact search is run;
    /// larger problems fall back to the list scheduler, mirroring the paper.
    pub const DEFAULT_EXHAUSTIVE_LIMIT: usize = 12;

    /// Default cap on explored search nodes (a safety valve, far above what
    /// the benchmark graphs need).
    pub const DEFAULT_NODE_LIMIT: u64 = 2_000_000;

    /// Creates a scheduler with the default limits.
    pub fn new() -> Self {
        BranchBoundScheduler {
            exhaustive_limit: Self::DEFAULT_EXHAUSTIVE_LIMIT,
            node_limit: Self::DEFAULT_NODE_LIMIT,
        }
    }

    /// Returns a copy with a different exhaustive-search threshold.
    #[must_use]
    pub fn with_exhaustive_limit(mut self, loads: usize) -> Self {
        self.exhaustive_limit = loads;
        self
    }

    /// Returns a copy with a different search-node cap.
    #[must_use]
    pub fn with_node_limit(mut self, nodes: u64) -> Self {
        self.node_limit = nodes;
        self
    }

    /// The exhaustive-search threshold currently configured.
    pub fn exhaustive_limit(&self) -> usize {
        self.exhaustive_limit
    }

    /// Runs the assisted search and reports its statistics.
    ///
    /// `cache` may be shared across searches over the **same** graph,
    /// schedule, platform and timing offsets (the critical-set rounds); call
    /// [`SearchCache::clear`] before reusing it with a different problem.
    /// `warm_order` is a complete load order from a related search; its
    /// penalty, when it evaluates cleanly against this problem, prunes every
    /// prefix that is strictly worse. Invalid or infeasible warm orders are
    /// silently ignored.
    ///
    /// # Errors
    ///
    /// Returns an error if the problem's model is inconsistent.
    pub fn schedule_with_stats(
        &self,
        problem: &PrefetchProblem<'_>,
        cache: &mut SearchCache,
        warm_order: Option<&[SubtaskId]>,
    ) -> Result<(ExecutionResult, SearchStats), PrefetchError> {
        cache.begin_search(problem);
        let loads = problem.loads_by_weight_desc();
        let incumbent = ListScheduler::new().schedule(problem)?;
        if loads.len() > self.exhaustive_limit || incumbent.penalty().is_zero() {
            return Ok((incumbent, SearchStats::default()));
        }

        // Memoization and dominance key on a (one-word SlotMask, packed order)
        // pair, so they require every subtask id to fit one mask word and the
        // order to fit the packing. Larger problems still get the full
        // assisted control flow, just with the caches disabled.
        let cacheable =
            SlotMask::<1>::fits(problem.graph().len()) && loads.len() <= PACKED_ORDER_CAPACITY;
        let full_set = if cacheable {
            loads.iter().map(|id| id.index()).collect()
        } else {
            SlotMask::EMPTY
        };
        let mut search = AssistedSearch {
            problem,
            cache,
            best: incumbent,
            stats: SearchStats::default(),
            node_limit: self.node_limit,
            cacheable,
            full_set,
            warm_bound: None,
            timeline: Timeline::default(),
            state: Vec::with_capacity(loads.len()),
            exec_tail: exec_tails(problem)?,
            latency: problem.platform().reconfig_latency(),
            ideal: problem.ideal_makespan(),
            port_start: problem.earliest_port_start(),
            tail_scratch: Vec::with_capacity(loads.len()),
        };
        // The warm order is already a complete feasible order of the same
        // loads (when valid), so its penalty is an upper bound on the optimum.
        // It is only used as a *strictly greater* prune: prefixes whose lower
        // bound equals it survive, so the search still reaches the
        // depth-first-earliest optimal leaf and stays bit-identical.
        search.warm_bound = warm_order.and_then(|order| search.warm_penalty(order, &loads));
        let mut prefix = Vec::with_capacity(loads.len());
        search.explore(&mut prefix, SlotMask::EMPTY, &loads)?;
        let AssistedSearch { best, stats, .. } = search;
        Ok((best, stats))
    }

    /// The original, unassisted branch & bound — no memoization, dominance or
    /// warm pruning, and a fresh problem clone per interior node. Kept as the
    /// differential reference for the scheduler-equivalence tests and the
    /// pruning benchmarks; [`schedule`](PrefetchScheduler::schedule) must
    /// return bit-identical results.
    ///
    /// # Errors
    ///
    /// Returns an error if the problem's model is inconsistent.
    pub fn schedule_naive(
        &self,
        problem: &PrefetchProblem<'_>,
    ) -> Result<ExecutionResult, PrefetchError> {
        self.schedule_naive_with_stats(problem).map(|(r, _)| r)
    }

    /// [`schedule_naive`](Self::schedule_naive) plus node statistics.
    ///
    /// # Errors
    ///
    /// Returns an error if the problem's model is inconsistent.
    pub fn schedule_naive_with_stats(
        &self,
        problem: &PrefetchProblem<'_>,
    ) -> Result<(ExecutionResult, SearchStats), PrefetchError> {
        let loads = problem.loads_by_weight_desc();
        let incumbent = ListScheduler::new().schedule(problem)?;
        if loads.len() > self.exhaustive_limit || incumbent.penalty().is_zero() {
            return Ok((incumbent, SearchStats::default()));
        }

        let mut search = NaiveSearch {
            problem,
            best: incumbent,
            nodes: 0,
            node_limit: self.node_limit,
            timeline: Timeline::default(),
        };
        let mut prefix = Vec::with_capacity(loads.len());
        search.explore(&mut prefix, &loads)?;
        let stats = SearchStats {
            nodes: search.nodes,
            ..SearchStats::default()
        };
        Ok((search.best, stats))
    }
}

impl Default for BranchBoundScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl PrefetchScheduler for BranchBoundScheduler {
    fn name(&self) -> &str {
        "branch-and-bound"
    }

    fn schedule(&self, problem: &PrefetchProblem<'_>) -> Result<ExecutionResult, PrefetchError> {
        let mut cache = SearchCache::new();
        self.schedule_with_stats(problem, &mut cache, None)
            .map(|(result, _)| result)
    }

    fn schedule_assisted(
        &self,
        problem: &PrefetchProblem<'_>,
        cache: &mut SearchCache,
        warm_order: Option<&[SubtaskId]>,
    ) -> Result<ExecutionResult, PrefetchError> {
        self.schedule_with_stats(problem, cache, warm_order)
            .map(|(result, _)| result)
    }
}

/// Counters describing one branch & bound search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Search-tree nodes visited (prefixes, including complete orders).
    pub nodes: u64,
    /// Prefix evaluations answered from the cross-round memo table instead of
    /// running the timing simulation.
    pub memo_hits: u64,
    /// Subtrees cut because an already-explored prefix over the same load set
    /// had every load in place at least as early.
    pub dominance_prunes: u64,
    /// Subtrees cut by the warm-start bound carried in from a previous
    /// related search.
    pub warm_prunes: u64,
    /// Subtrees cut by the serialization bound *before* simulating the
    /// prefix: the remaining loads serialize on the reconfiguration port and
    /// drag their mandatory execution chains behind them, which already
    /// matches or exceeds the incumbent.
    pub tail_prunes: u64,
}

/// Maximum order length the `(set, order)` memo key can represent: orders are
/// packed 7 bits per subtask id into a `u128` (ids are `< 64` whenever the
/// set mask fits, so 7 bits are plenty and 18 ids fill 126 bits).
const PACKED_ORDER_CAPACITY: usize = 18;

/// Cap on stored dominance states per load set. Beyond it new states are
/// dropped, which only weakens pruning, never correctness.
const DOMINANCE_CAP: usize = 64;

/// Memo key: which loads cost anything (the restricted set) and the exact
/// order the prefix loads them in.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct EvalKey {
    set: SlotMask,
    order: u128,
}

fn pack_order(order: &[SubtaskId]) -> u128 {
    let mut packed = 0u128;
    for &id in order {
        packed = (packed << 7) | (id.index() as u128 + 1);
    }
    packed
}

/// Outcome of one restricted fixed-order evaluation. `None` means the order
/// deadlocks (and always will — feasibility of a prefix does not depend on
/// which other loads are free). A feasible outcome carries the penalty and the
/// per-load finish times in order position, from which dominance states are
/// derived on hits without re-simulating.
type EvalValue = Option<(Time, Box<[Time]>)>;

/// Reusable acceleration state of the assisted branch & bound search.
///
/// One cache may serve many searches over the *same* prefetch problem modulo
/// its resident set — exactly the shape of the critical-set loop, where every
/// round re-searches the same graph/schedule/platform with a shrinking load
/// set. The evaluation memo survives across those rounds; the dominance table
/// is valid within a single search only and is reset automatically. Reusing a
/// cache with a *different* graph, schedule, platform or timing offsets is a
/// logic error (debug builds assert against it) — call
/// [`clear`](SearchCache::clear) in between.
pub struct SearchCache {
    evals: HashMap<EvalKey, EvalValue>,
    dominance: HashMap<SlotMask, Vec<Box<[Time]>>>,
    #[cfg(debug_assertions)]
    bound_to: Option<(usize, usize, usize, Time, Time)>,
}

impl SearchCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        SearchCache {
            evals: HashMap::new(),
            dominance: HashMap::new(),
            #[cfg(debug_assertions)]
            bound_to: None,
        }
    }

    /// Drops every memoized entry, making the cache safe to reuse with a
    /// different problem.
    pub fn clear(&mut self) {
        self.evals.clear();
        self.dominance.clear();
        #[cfg(debug_assertions)]
        {
            self.bound_to = None;
        }
    }

    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    fn begin_search(&mut self, problem: &PrefetchProblem<'_>) {
        // Dominance is only meaningful within one search: a stored state
        // proves "some explored prefix reaches every completion at least as
        // early", and the completions range over the *remaining* loads, which
        // differ once the round's load set changes. The evaluation memo keys
        // on the restricted set explicitly and survives.
        self.dominance.clear();
        #[cfg(debug_assertions)]
        {
            let identity = (
                problem.graph() as *const _ as usize,
                problem.schedule() as *const _ as usize,
                problem.platform() as *const _ as usize,
                problem.earliest_exec_start(),
                problem.earliest_port_start(),
            );
            if let Some(bound) = self.bound_to {
                debug_assert!(
                    bound == identity,
                    "SearchCache reused across different problems; call clear() in between"
                );
            }
            self.bound_to = Some(identity);
        }
    }

    /// Records `state` (ascending-id per-load finish times of a prefix over
    /// `set`) and reports whether an already-recorded state dominates it
    /// componentwise. Dominated states are not recorded — the dominating one
    /// already covers everything they would.
    fn dominance_probe(&mut self, set: SlotMask, state: &[Time]) -> bool {
        let states = self.dominance.entry(set).or_default();
        if states
            .iter()
            .any(|s| s.iter().zip(state).all(|(a, b)| a <= b))
        {
            return true;
        }
        if states.len() < DOMINANCE_CAP {
            states.push(state.into());
        }
        false
    }
}

impl Default for SearchCache {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for SearchCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SearchCache")
            .field("evals", &self.evals.len())
            .field("dominance_sets", &self.dominance.len())
            .finish()
    }
}

struct AssistedSearch<'c, 'p, 'a> {
    problem: &'p PrefetchProblem<'a>,
    cache: &'c mut SearchCache,
    best: ExecutionResult,
    stats: SearchStats,
    node_limit: u64,
    cacheable: bool,
    full_set: SlotMask,
    warm_bound: Option<Time>,
    /// The timing loop's tables, reused by every evaluation of the search.
    timeline: Timeline,
    /// Scratch buffer for canonicalized dominance states.
    state: Vec<Time>,
    /// Per-subtask execution tails for the serialization bound (see
    /// [`exec_tails`]).
    exec_tail: Vec<Time>,
    /// One reconfiguration latency (every load occupies the port this long).
    latency: Time,
    /// The zero-latency makespan penalties are measured against.
    ideal: Time,
    /// Earliest instant the reconfiguration port may start a load.
    port_start: Time,
    /// Scratch for the descending sort of remaining execution tails.
    tail_scratch: Vec<Time>,
}

/// Per-subtask "execution tail": the subtask's own execution time plus the
/// longest chain of execution times that must follow it, over the combined
/// precedence relation (graph dependencies and the next subtask on the same
/// PE), with every load assumed free. A subtask whose load finishes at `t`
/// cannot see the last execution finish before `t + tail`, whatever the
/// remaining load order does — the chain is mandatory and load-independent.
fn exec_tails(problem: &PrefetchProblem<'_>) -> Result<Vec<Time>, PrefetchError> {
    let graph = problem.graph();
    let schedule = problem.schedule();
    let order = schedule.combined_topological_order(graph)?;
    let mut tail = vec![Time::ZERO; graph.len()];
    for &id in order.iter().rev() {
        let mut after = Time::ZERO;
        for &succ in graph.successors(id) {
            after = after.max(tail[succ.index()]);
        }
        if let Some(succ) = schedule.successor_on_pe(id) {
            after = after.max(tail[succ.index()]);
        }
        tail[id.index()] = graph.subtask(id).exec_time() + after;
    }
    Ok(tail)
}

impl AssistedSearch<'_, '_, '_> {
    fn explore(
        &mut self,
        prefix: &mut Vec<SubtaskId>,
        set: SlotMask,
        remaining: &[SubtaskId],
    ) -> Result<(), PrefetchError> {
        if self.best.penalty().is_zero() || self.stats.nodes >= self.node_limit {
            return Ok(());
        }
        self.stats.nodes += 1;

        if remaining.is_empty() {
            // The memo answers "is this complete order an improvement?"; only
            // improvements (rare) re-simulate to materialize the full result.
            match self.eval(self.full_set, prefix, true) {
                Ok(Some((penalty, _))) if penalty < self.best.penalty() => {
                    if let Ok(result) = self.problem.simulate(Strategy::Fixed(prefix)) {
                        self.best = result;
                    }
                }
                _ => {}
            }
            return Ok(());
        }

        // Serialization bound, before any simulation: even if every prefix
        // load finishes as early as the port allows, the remaining loads
        // still queue on the single reconfiguration port with their
        // mandatory execution chains behind them.
        let port_lb = self.port_start + self.latency * prefix.len() as u64;
        let tail_lb = self.tail_lower_bound(port_lb, remaining);
        if tail_lb >= self.best.penalty() {
            self.stats.tail_prunes += 1;
            return Ok(());
        }
        if self.warm_bound.is_some_and(|warm| tail_lb > warm) {
            self.stats.warm_prunes += 1;
            return Ok(());
        }

        // Lower bound: only the prefix loads cost anything; the rest are free.
        if !prefix.is_empty() {
            match self.eval(set, prefix, false)? {
                // A deadlocking prefix can never become a feasible order.
                None => return Ok(()),
                Some((penalty, times)) => {
                    // The restricted simulation yields the prefix's true
                    // port-free instant, which sharpens the serialization
                    // bound beyond the pre-simulation estimate.
                    let port_free = times.iter().copied().max().unwrap_or(self.port_start);
                    let bound = penalty.max(self.tail_lower_bound(port_free, remaining));
                    let bound_pruned = bound >= self.best.penalty();
                    let warm_pruned = self.warm_bound.is_some_and(|warm| bound > warm);
                    // The dominance state is recorded even when this prefix is
                    // pruned: its completions cannot beat the incumbent (or
                    // the warm bound) either, so later prefixes it dominates
                    // are just as safe to cut.
                    let dominated = self.probe_dominance(set, prefix, &times);
                    if bound_pruned {
                        return Ok(());
                    }
                    if warm_pruned {
                        self.stats.warm_prunes += 1;
                        return Ok(());
                    }
                    if dominated {
                        self.stats.dominance_prunes += 1;
                        return Ok(());
                    }
                }
            }
        }

        for (index, &next) in remaining.iter().enumerate() {
            prefix.push(next);
            let child_set = if self.cacheable {
                let mut child = set;
                child.insert(next.index());
                child
            } else {
                SlotMask::EMPTY
            };
            let mut rest = remaining.to_vec();
            rest.remove(index);
            self.explore(prefix, child_set, &rest)?;
            prefix.pop();
        }
        Ok(())
    }

    /// Admissible lower bound on the penalty of every completion of a prefix
    /// whose loads are all done by `port_free`: the k-th remaining load
    /// cannot finish before `port_free + k` latencies (the port is serial
    /// and the fixed order puts every remaining load after the prefix), and
    /// its subtask's execution tail follows. Pairing the largest tails with
    /// the earliest port slots minimizes the maximum over all assignments,
    /// so no completion — whatever order it picks — can land below the
    /// returned penalty.
    fn tail_lower_bound(&mut self, port_free: Time, remaining: &[SubtaskId]) -> Time {
        let latency = self.latency;
        let Self {
            tail_scratch,
            exec_tail,
            ..
        } = self;
        tail_scratch.clear();
        tail_scratch.extend(remaining.iter().map(|&id| exec_tail[id.index()]));
        tail_scratch.sort_unstable_by(|a, b| b.cmp(a));
        let mut makespan = Time::ZERO;
        for (position, &tail) in tail_scratch.iter().enumerate() {
            makespan = makespan.max(port_free + latency * (position as u64 + 1) + tail);
        }
        makespan.saturating_sub(self.ideal)
    }

    /// Evaluates `order` with exactly the loads in `set` costing anything
    /// (`full` marks the unrestricted problem), through the memo when the
    /// problem is cacheable. `Ok(None)` means the order deadlocks; errors
    /// other than a deadlock are surfaced and never memoized.
    fn eval(
        &mut self,
        set: SlotMask,
        order: &[SubtaskId],
        full: bool,
    ) -> Result<EvalValue, PrefetchError> {
        let key = self.cacheable.then(|| EvalKey {
            set,
            order: pack_order(order),
        });
        if let Some(key) = key {
            if let Some(value) = self.cache.evals.get(&key) {
                self.stats.memo_hits += 1;
                return Ok(value.clone());
            }
        }
        let needs = if full {
            self.problem.needs_mask()
        } else {
            order.iter().map(|id| id.index()).collect()
        };
        let value = match self.problem.time_order(needs, order, &mut self.timeline) {
            Ok(penalty) => {
                let loaded_at = &self.timeline.loaded_at;
                let times = order.iter().map(|id| loaded_at[id.index()]).collect();
                Some((penalty, times))
            }
            Err(PrefetchError::DeadlockedOrder) => None,
            Err(other) => return Err(other),
        };
        if let Some(key) = key {
            self.cache.evals.insert(key, value.clone());
        }
        Ok(value)
    }

    /// Canonicalizes the prefix's per-load finish times to ascending subtask
    /// id order (so different permutations of the same set are comparable) and
    /// probes the dominance table.
    fn probe_dominance(&mut self, set: SlotMask, order: &[SubtaskId], times: &[Time]) -> bool {
        if !self.cacheable {
            return false;
        }
        self.state.clear();
        for index in set.iter() {
            let position = order
                .iter()
                .position(|id| id.index() == index)
                .expect("the prefix is a permutation of its set");
            self.state.push(times[position]);
        }
        self.cache.dominance_probe(set, &self.state)
    }

    /// The warm bound: the previous search's best order filtered to this
    /// problem's loads, evaluated once (through the memo). Orders that are not
    /// a permutation of the current load set, or fail to simulate, yield no
    /// bound.
    fn warm_penalty(&mut self, order: &[SubtaskId], loads: &[SubtaskId]) -> Option<Time> {
        if order.len() != loads.len() {
            return None;
        }
        if self.cacheable {
            let set: SlotMask = order.iter().map(|id| id.index()).collect();
            if set != self.full_set {
                return None;
            }
        }
        match self.eval(self.full_set, order, true) {
            Ok(Some((penalty, _))) => Some(penalty),
            _ => None,
        }
    }
}

struct NaiveSearch<'p, 'a> {
    problem: &'p PrefetchProblem<'a>,
    best: ExecutionResult,
    nodes: u64,
    node_limit: u64,
    timeline: Timeline,
}

impl NaiveSearch<'_, '_> {
    fn explore(
        &mut self,
        prefix: &mut Vec<SubtaskId>,
        remaining: &[SubtaskId],
    ) -> Result<(), PrefetchError> {
        if self.best.penalty().is_zero() || self.nodes >= self.node_limit {
            return Ok(());
        }
        self.nodes += 1;

        if remaining.is_empty() {
            if let Ok(result) = self.problem.simulate(Strategy::Fixed(prefix)) {
                if result.penalty() < self.best.penalty() {
                    self.best = result;
                }
            }
            return Ok(());
        }

        // Lower bound: only the prefix loads cost anything; the rest are free.
        if !prefix.is_empty() {
            let needs: ProblemMask = prefix.iter().map(|id| id.index()).collect();
            match self.problem.time_order(needs, prefix, &mut self.timeline) {
                Ok(penalty) if penalty >= self.best.penalty() => return Ok(()),
                Ok(_) => {}
                // A deadlocking prefix can never become a feasible order.
                Err(PrefetchError::DeadlockedOrder) => return Ok(()),
                Err(other) => return Err(other),
            }
        }

        for (index, &next) in remaining.iter().enumerate() {
            prefix.push(next);
            let mut rest = remaining.to_vec();
            rest.remove(index);
            self.explore(prefix, &rest)?;
            prefix.pop();
        }
        Ok(())
    }
}

/// Convenience function: the optimal penalty of a problem (branch & bound with
/// default limits), returned as a duration.
///
/// # Errors
///
/// Propagates scheduling errors from the underlying search.
pub fn optimal_penalty(problem: &PrefetchProblem<'_>) -> Result<Time, PrefetchError> {
    BranchBoundScheduler::new()
        .schedule(problem)
        .map(|r| r.penalty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OnDemandScheduler;
    use drhw_model::{
        ConfigId, InitialSchedule, PeAssignment, Platform, Subtask, SubtaskGraph, TileSlot,
    };
    use std::collections::BTreeSet;

    /// A two-tile problem where greedy weight order is sub-optimal:
    /// the highest-weight load is not the one that must go first to keep the
    /// second tile busy.
    fn tricky() -> (SubtaskGraph, InitialSchedule, Platform) {
        let mut g = SubtaskGraph::new("tricky");
        // slot0: a(6ms) then c(20ms); slot1: b(5ms) then d(5ms).
        let a = g.add_subtask(Subtask::new("a", Time::from_millis(6), ConfigId::new(0)));
        let b = g.add_subtask(Subtask::new("b", Time::from_millis(5), ConfigId::new(1)));
        let c = g.add_subtask(Subtask::new("c", Time::from_millis(20), ConfigId::new(2)));
        let d = g.add_subtask(Subtask::new("d", Time::from_millis(5), ConfigId::new(3)));
        g.add_dependency(a, c).unwrap();
        g.add_dependency(b, d).unwrap();
        let schedule = InitialSchedule::from_assignment(
            &g,
            vec![
                PeAssignment::Tile(TileSlot::new(0)),
                PeAssignment::Tile(TileSlot::new(1)),
                PeAssignment::Tile(TileSlot::new(0)),
                PeAssignment::Tile(TileSlot::new(1)),
            ],
        )
        .unwrap();
        let platform = Platform::virtex_like(2).unwrap();
        (g, schedule, platform)
    }

    #[test]
    fn never_worse_than_the_list_scheduler() {
        let (g, schedule, platform) = tricky();
        let problem = PrefetchProblem::new(&g, &schedule, &platform).unwrap();
        let list = ListScheduler::new().schedule(&problem).unwrap();
        let exact = BranchBoundScheduler::new().schedule(&problem).unwrap();
        assert!(exact.penalty() <= list.penalty());
        let on_demand = OnDemandScheduler::new().schedule(&problem).unwrap();
        assert!(exact.penalty() <= on_demand.penalty());
    }

    #[test]
    fn matches_exhaustive_enumeration_on_a_small_problem() {
        let (g, schedule, platform) = tricky();
        let problem = PrefetchProblem::new(&g, &schedule, &platform).unwrap();
        let loads = problem.loads();
        // Enumerate every permutation by brute force and keep the best.
        let mut best = Time::MAX;
        let mut order = loads.clone();
        permute(&mut order, 0, &mut |candidate| {
            if let Ok(result) = problem.simulate(Strategy::Fixed(candidate)) {
                best = best.min(result.penalty());
            }
        });
        let exact = BranchBoundScheduler::new().schedule(&problem).unwrap();
        assert_eq!(exact.penalty(), best);
    }

    fn permute(items: &mut Vec<SubtaskId>, k: usize, visit: &mut impl FnMut(&[SubtaskId])) {
        if k == items.len() {
            visit(items);
            return;
        }
        for i in k..items.len() {
            items.swap(k, i);
            permute(items, k + 1, visit);
            items.swap(k, i);
        }
    }

    #[test]
    fn falls_back_to_the_heuristic_beyond_the_limit() {
        let (g, schedule, platform) = tricky();
        let problem = PrefetchProblem::new(&g, &schedule, &platform).unwrap();
        let limited = BranchBoundScheduler::new().with_exhaustive_limit(1);
        let list = ListScheduler::new().schedule(&problem).unwrap();
        let fallback = limited.schedule(&problem).unwrap();
        assert_eq!(fallback.penalty(), list.penalty());
        assert_eq!(limited.exhaustive_limit(), 1);
    }

    #[test]
    fn empty_load_set_is_trivially_optimal() {
        // Two independent subtasks, one per slot, both resident: no loads.
        let mut g = SubtaskGraph::new("resident");
        let a = g.add_subtask(Subtask::new("a", Time::from_millis(6), ConfigId::new(0)));
        let b = g.add_subtask(Subtask::new("b", Time::from_millis(9), ConfigId::new(1)));
        let schedule = InitialSchedule::from_assignment(
            &g,
            vec![
                PeAssignment::Tile(TileSlot::new(0)),
                PeAssignment::Tile(TileSlot::new(1)),
            ],
        )
        .unwrap();
        let platform = Platform::virtex_like(2).unwrap();
        let resident: BTreeSet<SubtaskId> = [a, b].into_iter().collect();
        let problem = PrefetchProblem::with_resident(&g, &schedule, &platform, &resident).unwrap();
        assert_eq!(problem.load_count(), 0);
        let exact = BranchBoundScheduler::new().schedule(&problem).unwrap();
        assert_eq!(exact.penalty(), Time::ZERO);
        assert_eq!(optimal_penalty(&problem).unwrap(), Time::ZERO);
    }

    #[test]
    fn residency_cannot_remove_a_second_configuration_on_the_same_slot() {
        // Marking every subtask resident is physically impossible when a slot
        // hosts two different configurations: the second one must be loaded.
        let (g, schedule, platform) = tricky();
        let resident: BTreeSet<SubtaskId> = g.ids().collect();
        let problem = PrefetchProblem::with_resident(&g, &schedule, &platform, &resident).unwrap();
        assert_eq!(problem.load_count(), 2);
        let exact = BranchBoundScheduler::new().schedule(&problem).unwrap();
        // The loads of c and d hide only partially behind a and b.
        assert_eq!(exact.penalty(), Time::from_millis(4));
    }

    #[test]
    fn assisted_search_matches_the_naive_search_bit_for_bit() {
        let (g, schedule, platform) = tricky();
        let problem = PrefetchProblem::new(&g, &schedule, &platform).unwrap();
        let scheduler = BranchBoundScheduler::new();
        let naive = scheduler.schedule_naive(&problem).unwrap();
        let mut cache = SearchCache::new();
        let (assisted, stats) = scheduler
            .schedule_with_stats(&problem, &mut cache, None)
            .unwrap();
        assert_eq!(assisted, naive);
        assert!(stats.nodes > 0);
        // A second search over the same problem replays from the memo.
        let (again, stats) = scheduler
            .schedule_with_stats(&problem, &mut cache, None)
            .unwrap();
        assert_eq!(again, naive);
        assert!(stats.memo_hits > 0, "second search should hit the memo");
    }

    #[test]
    fn warm_order_never_changes_the_result() {
        let (g, schedule, platform) = tricky();
        let problem = PrefetchProblem::new(&g, &schedule, &platform).unwrap();
        let scheduler = BranchBoundScheduler::new();
        let naive = scheduler.schedule_naive(&problem).unwrap();
        // Warm with the optimal order itself, a wrong-length order and a
        // reversed (possibly infeasible) order: all must give the same result.
        let optimal = naive.load_order().to_vec();
        let mut reversed = optimal.clone();
        reversed.reverse();
        let short = &optimal[..1];
        for warm in [
            Some(optimal.as_slice()),
            Some(reversed.as_slice()),
            Some(short),
            None,
        ] {
            let mut cache = SearchCache::new();
            let (result, _) = scheduler
                .schedule_with_stats(&problem, &mut cache, warm)
                .unwrap();
            assert_eq!(result, naive);
        }
    }

    #[test]
    fn assisted_search_explores_no_more_nodes_than_the_naive_search() {
        let (g, schedule, platform) = tricky();
        let problem = PrefetchProblem::new(&g, &schedule, &platform).unwrap();
        let scheduler = BranchBoundScheduler::new();
        let (_, naive) = scheduler.schedule_naive_with_stats(&problem).unwrap();
        let mut cache = SearchCache::new();
        let (_, assisted) = scheduler
            .schedule_with_stats(&problem, &mut cache, None)
            .unwrap();
        assert!(assisted.nodes <= naive.nodes);
    }

    /// The façade copies the schedule it prepares, but the cache's
    /// identity check still sees the caller's schedule: a second schedule,
    /// even an equal one, is a different problem.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "SearchCache reused across different problems")]
    fn reusing_a_cache_on_another_schedule_is_caught_in_debug_builds() {
        let (g, schedule, platform) = tricky();
        let other = schedule.clone();
        let scheduler = BranchBoundScheduler::new();
        let mut cache = SearchCache::new();
        let first = PrefetchProblem::new(&g, &schedule, &platform).unwrap();
        scheduler
            .schedule_with_stats(&first, &mut cache, None)
            .unwrap();
        let second = PrefetchProblem::new(&g, &other, &platform).unwrap();
        let _ = scheduler.schedule_with_stats(&second, &mut cache, None);
    }

    #[test]
    fn search_cache_debug_is_compact() {
        let cache = SearchCache::new();
        let text = format!("{cache:?}");
        assert!(text.contains("SearchCache"));
        assert!(text.len() < 200);
    }
}
