//! Property-based tests (proptest) of the scheduling invariants on random
//! task graphs, a reference-model check of the `SlotMask` bitmask set the
//! hot kernels use in place of per-subtask boolean vectors, and parity
//! checks of the tile rules and of the run-time decisions, kernels and
//! one-shot, against the oracle's.

use std::collections::{BTreeSet, HashSet};

use drhw_integration::random_instance;
use drhw_model::{
    ConfigId, InitialSchedule, PeAssignment, Platform, SplitMix64, Subtask, SubtaskGraph,
    SubtaskId, TileId, TileSlot, Time,
};
use drhw_oracle::reference::{self, Mapping, ReplacementRule, Tiles};
use drhw_prefetch::{
    apply_schedule_to_contents, assign_tiles_protecting, reusable_subtasks, BranchBoundScheduler,
    CriticalSetAnalysis, ExecSummary, HybridPrefetch, HybridSummary, InterTaskWindow,
    ListScheduler, OnDemandScheduler, PrefetchProblem, PrefetchScheduler, PreparedSchedule,
    ReplacementPolicy, Scratch, SlotMask, TileContents,
};
use drhw_tcm::DesignTimeScheduler;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Prefetching never loses to loading on demand, and the exact search
    /// never loses to the heuristic.
    #[test]
    fn prefetch_never_loses_to_on_demand(subtasks in 2usize..24, seed in 0u64..500, latency in 1u64..8) {
        let (graph, schedule, platform) = random_instance(subtasks, seed, latency);
        let problem = PrefetchProblem::new(&graph, &schedule, &platform).unwrap();
        let on_demand = OnDemandScheduler::new().schedule(&problem).unwrap();
        let list = ListScheduler::new().schedule(&problem).unwrap();
        prop_assert!(list.penalty() <= on_demand.penalty());
        if problem.load_count() <= 8 {
            let exact = BranchBoundScheduler::new().schedule(&problem).unwrap();
            prop_assert!(exact.penalty() <= list.penalty());
        }
    }

    /// The timing engine never violates the platform constraints: precedence,
    /// per-PE serialisation, configuration residency before execution, and the
    /// single serialised reconfiguration port.
    #[test]
    fn executor_respects_every_constraint(subtasks in 2usize..24, seed in 0u64..500, latency in 0u64..8) {
        let (graph, schedule, platform) = random_instance(subtasks, seed, latency);
        let problem = PrefetchProblem::new(&graph, &schedule, &platform).unwrap();
        let result = ListScheduler::new().schedule(&problem).unwrap();
        let timed = result.timed();

        for (from, to) in graph.edges() {
            prop_assert!(timed.execution(to).unwrap().start >= timed.execution(from).unwrap().finish);
        }
        for id in graph.ids() {
            if let Some(prev) = schedule.predecessor_on_pe(id) {
                prop_assert!(timed.execution(id).unwrap().start >= timed.execution(prev).unwrap().finish);
            }
            if problem.needs_load(id) {
                let load = timed.load(id).expect("every needed load is performed");
                prop_assert!(timed.execution(id).unwrap().start >= load.finish);
                // The tile cannot be reconfigured while its previous occupant runs.
                if let Some(prev) = schedule.predecessor_on_pe(id) {
                    prop_assert!(load.start >= timed.execution(prev).unwrap().finish);
                }
            }
        }
        // Loads never overlap on the shared port.
        let mut loads: Vec<_> = timed.loads().to_vec();
        loads.sort_by_key(|l| l.start);
        for pair in loads.windows(2) {
            prop_assert!(pair[1].start >= pair[0].finish);
        }
        // Executions sharing a PE never overlap either.
        for (pe, order) in schedule.pe_order() {
            if let PeAssignment::Tile(_) = pe {
                for pair in order.windows(2) {
                    prop_assert!(
                        timed.execution(pair[1]).unwrap().start
                            >= timed.execution(pair[0]).unwrap().finish
                    );
                }
            }
        }
    }

    /// Zero reconfiguration latency means zero overhead for every policy.
    #[test]
    fn zero_latency_means_zero_overhead(subtasks in 2usize..20, seed in 0u64..500) {
        let (graph, schedule, _) = random_instance(subtasks, seed, 0);
        let platform = Platform::new(schedule.slot_count().max(1), Time::ZERO).unwrap();
        let problem = PrefetchProblem::new(&graph, &schedule, &platform).unwrap();
        prop_assert_eq!(OnDemandScheduler::new().schedule(&problem).unwrap().penalty(), Time::ZERO);
        prop_assert_eq!(ListScheduler::new().schedule(&problem).unwrap().penalty(), Time::ZERO);
    }

    /// The defining property of the Critical Subtask set: if every CS member is
    /// resident, the stored schedule hides all remaining loads (up to the
    /// residual penalty recorded at design time).
    #[test]
    fn critical_set_definition_holds(subtasks in 2usize..16, seed in 0u64..300, latency in 1u64..8) {
        let (graph, schedule, platform) = random_instance(subtasks, seed, latency);
        let cs = CriticalSetAnalysis::compute_with(&graph, &schedule, &platform, &ListScheduler::new()).unwrap();
        let resident: BTreeSet<SubtaskId> = cs.critical_subtasks().iter().copied().collect();
        let problem = PrefetchProblem::with_resident(&graph, &schedule, &platform, &resident).unwrap();
        let replay = ListScheduler::new().schedule(&problem).unwrap();
        prop_assert_eq!(replay.penalty(), cs.stored_penalty());
        // The critical set never exceeds the number of DRHW subtasks.
        prop_assert!(cs.len() <= graph.drhw_subtasks().len());
    }

    /// A cold-start activation of the hybrid heuristic costs exactly its
    /// initialization phase plus the residual penalty stored at design time,
    /// and an inter-task window can only help.
    #[test]
    fn hybrid_cold_start_cost_is_the_initialization_phase(subtasks in 2usize..16, seed in 0u64..300, latency in 1u64..8) {
        let (graph, schedule, platform) = random_instance(subtasks, seed, latency);
        let hybrid = HybridPrefetch::compute_with(&graph, &schedule, &platform, &ListScheduler::new()).unwrap();
        let cold = hybrid
            .evaluate(&graph, &schedule, &platform, &BTreeSet::new(), InterTaskWindow::empty())
            .unwrap();
        let expected = cold.init_duration() + hybrid.critical().stored_penalty();
        prop_assert_eq!(cold.penalty(), expected);

        let warm = hybrid
            .evaluate(
                &graph,
                &schedule,
                &platform,
                &BTreeSet::new(),
                InterTaskWindow::new(Time::from_millis(1_000)),
            )
            .unwrap();
        prop_assert!(warm.penalty() <= cold.penalty());
        prop_assert_eq!(warm.init_duration(), Time::ZERO);
    }

    /// The Pareto front of every scenario is a real front: no point dominates
    /// another, the points are sorted by increasing execution time, and every
    /// point fits the platform.
    #[test]
    fn pareto_front_has_no_dominated_points_and_is_sorted(subtasks in 2usize..20, seed in 0u64..400, tiles in 1usize..10) {
        let (graph, _, _) = random_instance(subtasks, seed, 4);
        let platform = Platform::virtex_like(tiles).unwrap();
        let curve = DesignTimeScheduler::new().pareto_curve(&graph, &platform).unwrap();
        let points = curve.points();
        prop_assert!(!points.is_empty());
        for (i, a) in points.iter().enumerate() {
            prop_assert!(a.tiles_used() <= platform.tile_count().max(1));
            for (j, b) in points.iter().enumerate() {
                if i != j {
                    prop_assert!(!a.dominates(b), "point {i} dominates point {j}");
                }
            }
        }
        // Sorted by increasing execution time; the energy axis must strictly
        // decrease along it (otherwise a later point would be dominated).
        for pair in points.windows(2) {
            prop_assert!(pair[0].exec_time() <= pair[1].exec_time());
            if pair[0].exec_time() < pair[1].exec_time() {
                prop_assert!(pair[0].energy_mj() > pair[1].energy_mj());
            }
        }
    }

    /// No tile double-booking: on every slot, execution windows and load
    /// windows form a serial, non-overlapping sequence (a tile cannot execute
    /// one configuration while another is being loaded onto it).
    #[test]
    fn schedules_never_double_book_a_tile(subtasks in 2usize..24, seed in 0u64..400, latency in 0u64..8) {
        let (graph, schedule, platform) = random_instance(subtasks, seed, latency);
        let problem = PrefetchProblem::new(&graph, &schedule, &platform).unwrap();
        for result in [
            ListScheduler::new().schedule(&problem).unwrap(),
            OnDemandScheduler::new().schedule(&problem).unwrap(),
        ] {
            let timed = result.timed();
            for slot_index in 0..schedule.slot_count() {
                let slot = drhw_model::TileSlot::new(slot_index);
                // Every window occupying this slot: executions of its
                // subtasks plus the loads reconfiguring it.
                let mut windows: Vec<(Time, Time)> = schedule
                    .subtasks_on(PeAssignment::Tile(slot))
                    .iter()
                    .map(|&id| {
                        let e = timed.execution(id).expect("every subtask is timed");
                        (e.start, e.finish)
                    })
                    .collect();
                windows.extend(
                    timed
                        .loads()
                        .iter()
                        .filter(|l| l.slot == slot)
                        .map(|l| (l.start, l.finish)),
                );
                windows.sort();
                for pair in windows.windows(2) {
                    prop_assert!(
                        pair[1].0 >= pair[0].1,
                        "slot {slot_index} double-booked: {:?} overlaps {:?}",
                        pair[0],
                        pair[1]
                    );
                }
            }
        }
    }

    /// More residency never increases the number of loads the prefetch problem
    /// requires (monotonicity the hybrid run-time phase relies on).
    #[test]
    fn residency_is_monotone(subtasks in 2usize..20, seed in 0u64..300, keep in 0usize..20) {
        let (graph, schedule, platform) = random_instance(subtasks, seed, 4);
        let all: Vec<SubtaskId> = graph.drhw_subtasks();
        let some: BTreeSet<SubtaskId> = all.iter().copied().take(keep % (all.len() + 1)).collect();
        let base = PrefetchProblem::new(&graph, &schedule, &platform).unwrap();
        let reduced = PrefetchProblem::with_resident(&graph, &schedule, &platform, &some).unwrap();
        prop_assert!(reduced.load_count() <= base.load_count());
        for id in graph.ids() {
            if reduced.needs_load(id) {
                prop_assert!(base.needs_load(id));
            }
        }
    }

    /// The allocation-free replacement, reuse and contents-update kernels
    /// agree with the oracle's reference for all three replacement rules
    /// on random tile states: configurations repeated across tiles, tied
    /// last-use stamps, random protected sets, sparse ids from 10 000 up,
    /// and up to 64 tiles with as many slots as tiles or fewer.
    #[test]
    fn replacement_kernels_match_the_reference(seed in 0u64..1_000_000, tiles in 1usize..65) {
        let mut rng = SplitMix64::new(seed);
        let mut draw = |bound: usize| (rng.next_u64() % bound as u64) as usize;
        let case = ParityCase::draw(&mut draw, tiles, SlotMask::<1>::CAPACITY);
        check_kernels(&case, &mut draw, tiles);
    }

    /// The one-shot replacement, reuse check and contents update agree
    /// with the oracle's reference in the same way on tile states wider
    /// than one mask word: 65 to 256 tiles, kept in two or four words.
    #[test]
    fn wide_one_shot_tile_rules_match_the_reference(seed in 0u64..1_000_000, tiles in 65usize..257) {
        if SlotMask::<2>::fits(tiles) {
            check_one_shot::<2>(seed, tiles);
        } else {
            check_one_shot::<4>(seed, tiles);
        }
    }

    /// The hybrid heuristic's run-time decision and the inter-task preload
    /// agree with the oracle's reference, fed the fast path's critical set
    /// and stored order, on random graphs, random residency and windows of
    /// zero to four whole loads plus a remainder: the one-word kernels in
    /// every number they report, and the one-shot `HybridPrefetch` in the
    /// same numbers and in every list of its decision. Each graph runs on
    /// its fully parallel schedule and on a design-time schedule of one to
    /// three slots, where subtasks share slots: only there do intra-task
    /// reuse and an overwritten slot decide what residency is worth.
    #[test]
    fn run_time_decisions_match_the_reference(subtasks in 2usize..17, seed in 0u64..1_000_000, latency in 1u64..8, slots in 1usize..4) {
        let (graph, parallel, platform) = random_instance(subtasks, seed, latency);
        let shared = DesignTimeScheduler::new().schedule_on(&graph, slots).unwrap();
        let mut rng = SplitMix64::new(seed);
        let mut draw = |bound: u64| rng.next_u64() % bound;
        for schedule in [&parallel, &shared] {
            let hybrid =
                HybridPrefetch::compute_with(&graph, schedule, &platform, &ListScheduler::new()).unwrap();
            let case = DecisionCase::new(&graph, schedule, &platform, &hybrid);
            for _ in 0..6 {
                let resident = graph.ids().filter(|_| draw(2) == 0).collect();
                let remainder = Time::from_micros(draw(latency * 1_000));
                let window = Time::from_millis(latency * draw(5)) + remainder;
                case.check(&resident, window);
            }
        }
    }

    /// `SlotMask` behaves exactly like a `HashSet<usize>` over `0..64` under
    /// a random interleaving of inserts, removes and membership queries:
    /// same membership, same popcount, and ascending iteration order.
    #[test]
    fn slot_mask_matches_a_hash_set_reference(seed in 0u64..10_000, ops in 1usize..256) {
        let mut rng = SplitMix64::new(seed);
        let mut mask: SlotMask = SlotMask::empty();
        let mut model: HashSet<usize> = HashSet::new();
        for _ in 0..ops {
            let word = rng.next_u64();
            let index = (word % SlotMask::<1>::CAPACITY as u64) as usize;
            match (word >> 8) % 3 {
                0 => {
                    mask.insert(index);
                    model.insert(index);
                }
                1 => {
                    mask.remove(index);
                    model.remove(&index);
                }
                _ => prop_assert_eq!(mask.contains(index), model.contains(&index)),
            }
            prop_assert_eq!(mask.len(), model.len());
            prop_assert_eq!(mask.is_empty(), model.is_empty());
        }
        let mut reference: Vec<usize> = model.iter().copied().collect();
        reference.sort_unstable();
        prop_assert_eq!(mask.iter().collect::<Vec<_>>(), reference);
        prop_assert_eq!(mask.iter().len(), model.len());
    }

    /// `SlotMask` union/intersection/difference agree with the `HashSet`
    /// set algebra, element for element.
    #[test]
    fn slot_mask_algebra_matches_the_reference_model(seed in 0u64..10_000, fill in 1u64..48) {
        let mut rng = SplitMix64::new(seed);
        let mut mask_a: SlotMask = SlotMask::empty();
        let mut mask_b: SlotMask = SlotMask::empty();
        let mut set_a: HashSet<usize> = HashSet::new();
        let mut set_b: HashSet<usize> = HashSet::new();
        for _ in 0..fill {
            let index = (rng.next_u64() % SlotMask::<1>::CAPACITY as u64) as usize;
            mask_a.insert(index);
            set_a.insert(index);
            let index = (rng.next_u64() % SlotMask::<1>::CAPACITY as u64) as usize;
            mask_b.insert(index);
            set_b.insert(index);
        }
        let sorted = |set: HashSet<usize>| {
            let mut v: Vec<usize> = set.into_iter().collect();
            v.sort_unstable();
            v
        };
        prop_assert_eq!(
            mask_a.union(mask_b).iter().collect::<Vec<_>>(),
            sorted(set_a.union(&set_b).copied().collect())
        );
        prop_assert_eq!(
            mask_a.intersection(mask_b).iter().collect::<Vec<_>>(),
            sorted(set_a.intersection(&set_b).copied().collect())
        );
        prop_assert_eq!(
            mask_a.difference(mask_b).iter().collect::<Vec<_>>(),
            sorted(set_a.difference(&set_b).copied().collect())
        );
        // Round trip through FromIterator preserves the set.
        prop_assert_eq!(mask_a.iter().collect::<SlotMask>(), mask_a);
    }
}

/// The three replacement rules, each with the oracle's name for it.
const RULES: [(ReplacementPolicy, ReplacementRule); 3] = [
    (ReplacementPolicy::ReuseAware, ReplacementRule::ReuseAware),
    (
        ReplacementPolicy::LeastRecentlyUsed,
        ReplacementRule::LeastRecentlyUsed,
    ),
    (ReplacementPolicy::Direct, ReplacementRule::Direct),
];

/// A protected set and a set protected once and released once; protected
/// twice and released once stays protected, released without a second
/// protection drops back to zero.
type Protection = [Vec<ConfigId>; 2];

/// What one activation decides: the tile of every slot and the subtasks
/// that reuse a resident configuration.
type Decision = (Vec<TileId>, BTreeSet<SubtaskId>);

/// One activation: its rule, its protection in the ids of the state it
/// runs on and, to record its loads too, the instant it ends.
type Activation<'p> = (ReplacementPolicy, &'p Protection, Option<Time>);

/// The tile rules under test, run for one activation on a state in raw ids
/// (`false`) or dense ids (`true`).
type Rules<'a, const W: usize> =
    dyn FnMut(bool, &mut TileContents<W>, Activation<'_>) -> Decision + 'a;

/// The reference tile state holding what `contents` holds: each tile's
/// configuration and last-use stamp.
fn reference_tiles<const W: usize>(contents: &TileContents<W>) -> Tiles {
    let tiles = (0..contents.tile_count()).map(TileId::new);
    Tiles {
        configs: tiles.clone().map(|t| contents.config_on(t)).collect(),
        last_used: tiles.map(|t| contents.last_used(t)).collect(),
    }
}

/// A schedule whose configurations come from small pools of sparse ids,
/// so they repeat across subtasks and tiles; `foreign` ones are wanted by
/// no subtask. `dense_graph` renames every id to its position in
/// `dictionary`, which holds both pools, sorted.
struct ParityCase {
    graph: SubtaskGraph,
    dense_graph: SubtaskGraph,
    schedule: InitialSchedule,
    pool: Vec<ConfigId>,
    foreign: Vec<ConfigId>,
    dictionary: Vec<ConfigId>,
}

impl ParityCase {
    /// A random case of 1 to `tiles` slots and at most `capacity` subtasks.
    fn draw(draw: &mut dyn FnMut(usize) -> usize, tiles: usize, capacity: usize) -> Self {
        let slots = 1 + draw(tiles);
        let subtasks = slots + draw(capacity - slots + 1);
        let mut sparse = || ConfigId::new(10_000 + draw(50_000));
        let mut pool: Vec<ConfigId> = (0..12).map(|_| sparse()).collect();
        let foreign = (0..4).map(|_| sparse()).collect();
        pool.truncate(1 + draw(pool.len()));
        let subtasks: Vec<_> = (0..subtasks)
            .map(|i| {
                let config = pool[draw(pool.len())];
                let ms = 1 + draw(5) as u64;
                (ms, config, if i < slots { i } else { draw(slots) })
            })
            .collect();
        ParityCase::new(&subtasks, pool, foreign)
    }

    /// The case of `subtasks`: execution ms, configuration and slot each
    /// (dependencies do not enter the tile rules).
    fn new(
        subtasks: &[(u64, ConfigId, usize)],
        pool: Vec<ConfigId>,
        foreign: Vec<ConfigId>,
    ) -> Self {
        let mut dictionary: Vec<ConfigId> = pool.iter().chain(&foreign).copied().collect();
        dictionary.sort_unstable();
        dictionary.dedup();
        let graph = |rename: &dyn Fn(ConfigId) -> ConfigId| {
            let mut graph = SubtaskGraph::new("parity");
            for (i, &(ms, config, _)) in subtasks.iter().enumerate() {
                let exec = Time::from_millis(ms);
                graph.add_subtask(Subtask::new(format!("s{i}"), exec, rename(config)));
            }
            graph
        };
        let dense = |config| ConfigId::new(dictionary.binary_search(&config).unwrap());
        let (graph, dense_graph) = (graph(&|config| config), graph(&dense));
        let slots = subtasks
            .iter()
            .map(|s| PeAssignment::Tile(TileSlot::new(s.2)));
        let schedule = InitialSchedule::from_assignment(&graph, slots.collect()).unwrap();
        ParityCase {
            graph,
            dense_graph,
            schedule,
            pool,
            foreign,
            dictionary,
        }
    }

    /// `configs` renamed to their positions in the dictionary if `dense`.
    fn ids(&self, configs: &[ConfigId], dense: bool) -> Vec<ConfigId> {
        let rename = |c: &ConfigId| ConfigId::new(self.dictionary.binary_search(c).unwrap());
        configs
            .iter()
            .map(|c| if dense { rename(c) } else { *c })
            .collect()
    }

    /// Loads a configuration of the pool, or a foreign one with one chance
    /// in `odds`, onto `tile` of the raw and the dense state.
    fn load<const W: usize>(
        &self,
        draw: &mut dyn FnMut(usize) -> usize,
        states: &mut [TileContents<W>; 2],
        tile: usize,
        odds: usize,
        now: Time,
    ) {
        let from = [&self.pool, &self.foreign][usize::from(draw(odds) == 0)];
        let config = [from[draw(from.len())]];
        for (dense, state) in [false, true].into_iter().zip(states) {
            state.record_load(TileId::new(tile), self.ids(&config, dense)[0], now);
        }
    }

    /// The reference's mapping of the schedule onto `state`.
    fn reference(&self, state: &Tiles, rule: ReplacementRule, protected: &[ConfigId]) -> Mapping {
        let protected = protected.iter().copied().collect();
        reference::assign_tiles(&self.graph, &self.schedule, state, rule, &protected).unwrap()
    }

    /// Checks `rules` against the oracle's reference on tile states of `W`
    /// words, in raw and in dense ids: four fresh states (most tiles hold a
    /// configuration; stamps from a few values, so eviction keys tie on
    /// everything but the tile index), then one state evolved by 32 random
    /// loads, uses, clears and activations applied by `rules` (stamps from a
    /// few values, so they tie and go back), compared after every step. The
    /// reference state is rebuilt from each tile's configuration and stamp.
    fn check<const W: usize>(
        &self,
        draw: &mut dyn FnMut(usize) -> usize,
        tiles: usize,
        rules: &mut Rules<'_, W>,
    ) {
        let cold = || [0, 1].map(|_| TileContents::<W>::cold(tiles));
        for round in 0..4 {
            let mut states = cold();
            for t in 0..tiles {
                let now = Time::from_millis(5 * draw(4) as u64);
                match draw(4) {
                    0 => states
                        .iter_mut()
                        .for_each(|s| s.record_use(TileId::new(t), now)),
                    _ => self.load(draw, &mut states, t, 3, now),
                }
            }
            self.check_rules(draw, &mut states, rules, &format!("fresh round {round}"));
        }
        let mut states = cold();
        for step in 0..32 {
            let now = Time::from_millis(5 * draw(8) as u64);
            let tile = draw(tiles);
            match draw(8) {
                0 => states.iter_mut().for_each(TileContents::clear),
                1 | 2 => states
                    .iter_mut()
                    .for_each(|s| s.record_use(TileId::new(tile), now)),
                3..=5 => self.load(draw, &mut states, tile, 4, now),
                _ => {
                    let (policy, rule) = RULES[draw(3)];
                    let protected = self.protection(draw)[0].clone();
                    let mut expected = reference_tiles(&states[0]);
                    let mapping = self.reference(&expected, rule, &protected);
                    reference::commit_contents(
                        &self.graph,
                        &self.schedule,
                        &mapping,
                        &mut expected,
                        now,
                    );
                    for (dense, state) in [false, true].into_iter().zip(&mut states) {
                        let protection = [self.ids(&protected, dense), Vec::new()];
                        rules(dense, state, (policy, &protection, Some(now)));
                    }
                    assert_eq!(
                        reference_tiles(&states[0]),
                        expected,
                        "{policy} step {step}"
                    );
                }
            }
            for t in (0..tiles).map(TileId::new) {
                let raw = (
                    states[0].config_on(t).map(|c| self.ids(&[c], true)[0]),
                    states[0].last_used(t),
                );
                assert_eq!(
                    (states[1].config_on(t), states[1].last_used(t)),
                    raw,
                    "step {step}"
                );
            }
            self.check_rules(draw, &mut states, rules, &format!("evolved step {step}"));
        }
    }

    /// A random protection.
    fn protection(&self, draw: &mut dyn FnMut(usize) -> usize) -> Protection {
        [0, 1].map(|_| {
            self.dictionary
                .iter()
                .copied()
                .filter(|_| draw(2) == 0)
                .collect()
        })
    }

    /// Checks every rule of `rules` on both states against the reference,
    /// under a random protection.
    fn check_rules<const W: usize>(
        &self,
        draw: &mut dyn FnMut(usize) -> usize,
        states: &mut [TileContents<W>; 2],
        rules: &mut Rules<'_, W>,
        label: &str,
    ) {
        let protection = self.protection(draw);
        let state = reference_tiles(&states[0]);
        for (policy, rule) in RULES {
            let mapping = self.reference(&state, rule, &protection[0]);
            let reused =
                reference::resident_subtasks(&self.graph, &self.schedule, &mapping, &state);
            let expected = (mapping.into_iter().map(TileId::new).collect(), reused);
            for (dense, contents) in [false, true].into_iter().zip(states.iter_mut()) {
                let protection = protection.clone().map(|ids| self.ids(&ids, dense));
                let got = rules(dense, contents, (policy, &protection, None));
                assert_eq!(got, expected, "{policy} dense {dense} {label}");
            }
        }
    }
}

/// Checks the allocation-free kernels (`assign_tiles_into`,
/// `mark_reusable`, `apply_to_contents`) on `case`, prepared with raw ids
/// and interned into its dictionary, against the oracle's reference.
fn check_kernels(case: &ParityCase, draw: &mut dyn FnMut(usize) -> usize, tiles: usize) {
    let platform = Platform::virtex_like(tiles).unwrap();
    let raw = PreparedSchedule::new(&case.graph, case.schedule.clone(), &platform).unwrap();
    let mut interned = raw.clone();
    interned.intern_configs(&case.dictionary);
    let mut scratch = Scratch::new();
    let mut kernels =
        |dense, contents: &mut TileContents, (policy, [ids, extra], now): Activation| {
            let prepared = if dense { &interned } else { &raw };
            scratch.clear_protection();
            scratch.protect(ids);
            scratch.protect(extra);
            scratch.unprotect(extra);
            prepared
                .assign_tiles_into(contents, policy, &mut scratch)
                .unwrap();
            let left = scratch.resident();
            let count = prepared.mark_reusable(contents, &mut scratch);
            let resident = scratch.resident();
            assert_eq!(count, resident.len());
            if policy == ReplacementPolicy::ReuseAware {
                // The reuse-aware assignment leaves the residency mask.
                assert_eq!(left, resident);
            }
            if let Some(now) = now {
                prepared.apply_to_contents(contents, &scratch, now);
            }
            let resident = resident.iter().map(SubtaskId::new).collect();
            (scratch.slot_to_tile().to_vec(), resident)
        };
    case.check::<1>(draw, tiles, &mut kernels);
}

/// Checks the one-shot functions (`assign_tiles_protecting`,
/// `reusable_subtasks`, `apply_schedule_to_contents`) on a random case, on
/// tile states of `W` words, against the oracle's reference.
fn check_one_shot<const W: usize>(seed: u64, tiles: usize) {
    let mut rng = SplitMix64::new(seed);
    let mut draw = |bound: usize| (rng.next_u64() % bound as u64) as usize;
    let case = ParityCase::draw(&mut draw, tiles, SlotMask::<W>::CAPACITY);
    let schedule = &case.schedule;
    let mut one_shot =
        |dense, contents: &mut TileContents<W>, (policy, [ids, _], now): Activation| {
            let graph = [&case.graph, &case.dense_graph][usize::from(dense)];
            let protected = ids.iter().copied().collect();
            let mapping =
                assign_tiles_protecting(graph, schedule, contents, policy, &protected).unwrap();
            let reused = reusable_subtasks(graph, schedule, &mapping, contents);
            if let Some(now) = now {
                apply_schedule_to_contents(graph, schedule, &mapping, contents, now);
            }
            (mapping.iter().map(|(_, tile)| tile).collect(), reused)
        };
    case.check::<W>(&mut draw, tiles, &mut one_shot);
}

/// The kernels agree with the oracle's reference on the slots of the Fig. 3
/// schedule: four subtasks on three tiles, subtask 4 sharing slot 0 with
/// subtask 1; configuration 7 is wanted by no subtask.
#[test]
fn replacement_and_reuse_kernels_match_the_reference_on_fig3() {
    let config = ConfigId::new;
    let subtasks = [
        (10, config(1), 0),
        (12, config(2), 1),
        (6, config(3), 2),
        (8, config(4), 0),
    ];
    let pool = (1..=4).map(config).collect();
    let case = ParityCase::new(&subtasks, pool, vec![config(7)]);
    for seed in 0..8 {
        let mut rng = SplitMix64::new(seed);
        let mut draw = |bound: usize| (rng.next_u64() % bound as u64) as usize;
        check_kernels(&case, &mut draw, 3);
    }
}

/// One scheduled graph and its hybrid artifact, prepared for the one-word
/// kernels.
struct DecisionCase<'a> {
    graph: &'a SubtaskGraph,
    schedule: &'a InitialSchedule,
    platform: &'a Platform,
    hybrid: &'a HybridPrefetch,
    prepared: PreparedSchedule,
}

impl<'a> DecisionCase<'a> {
    fn new(
        graph: &'a SubtaskGraph,
        schedule: &'a InitialSchedule,
        platform: &'a Platform,
        hybrid: &'a HybridPrefetch,
    ) -> Self {
        let prepared = PreparedSchedule::new(graph, schedule.clone(), platform).unwrap();
        DecisionCase {
            graph,
            schedule,
            platform,
            hybrid,
            prepared,
        }
    }

    /// A scratch whose residency is `resident` as the simulation finds it:
    /// the configuration of each member that is first on its slot sits on
    /// the tile the direct rule maps the slot to, and the reuse check reads
    /// it back (only a slot's first subtask can reuse what an earlier task
    /// left there).
    fn scratch(&self, resident: &BTreeSet<SubtaskId>) -> Scratch {
        let mut contents = TileContents::new(self.platform.tile_count());
        for slot in (0..self.schedule.slot_count()).map(TileSlot::new) {
            let first = self.schedule.first_on_slot(slot);
            if let Some(id) = first.filter(|id| resident.contains(id)) {
                let config = self.graph.required_config(id).unwrap();
                contents.record_load(TileId::new(slot.index()), config, Time::ZERO);
            }
        }
        let mut scratch = Scratch::new();
        self.prepared
            .assign_tiles_into(&contents, ReplacementPolicy::Direct, &mut scratch)
            .unwrap();
        self.prepared.mark_reusable(&contents, &mut scratch);
        scratch
    }

    /// Checks one activation with `resident` on the tiles and a port-idle
    /// `window` against the reference.
    fn check(&self, resident: &BTreeSet<SubtaskId>, window: Time) {
        let label = format!(
            "{} resident {resident:?} window {window}",
            self.graph.name()
        );
        let (graph, schedule, platform) = (self.graph, self.schedule, self.platform);
        let critical = self.hybrid.critical();
        let stored = critical.stored_load_order();
        let expected = reference::hybrid_activation(
            graph,
            schedule,
            platform,
            critical.critical_subtasks(),
            stored,
            resident,
            window,
        )
        .unwrap();
        let (inter_timing, inter_preloaded) =
            reference::inter_task_activation(graph, schedule, platform, resident, window).unwrap();
        let trailing = expected.timing.trailing_port_idle();
        let window = InterTaskWindow::new(window);

        let mut scratch = self.scratch(resident);
        let inter = self.prepared.evaluate_inter_task(window, &mut scratch);
        let summary = ExecSummary {
            penalty: inter_timing.penalty,
            loads: inter_timing.load_order.len(),
            trailing_port_idle: inter_timing.trailing_port_idle(),
        };
        assert_eq!(
            inter,
            Ok((summary, inter_preloaded)),
            "inter-task kernel {label}"
        );
        let kernel = self
            .prepared
            .evaluate_hybrid(self.hybrid, window, &mut scratch);
        let summary = HybridSummary {
            penalty: expected.timing.penalty,
            loads_performed: expected.init.len() + expected.body.len(),
            preloaded: expected.preloaded.len(),
            cancelled: expected.cancelled,
            trailing_port_idle: trailing,
        };
        assert_eq!(kernel, Ok(summary), "hybrid kernel {label}");

        let decision = self
            .hybrid
            .runtime_decision(graph, schedule, platform, resident, window)
            .unwrap();
        let outcome = self
            .hybrid
            .evaluate(graph, schedule, platform, resident, window)
            .unwrap();
        assert_eq!(outcome.decision(), &decision, "{label}");
        let cancelled: Vec<SubtaskId> = stored
            .iter()
            .copied()
            .filter(|id| !expected.body.contains(id))
            .collect();
        assert_eq!(cancelled.len(), expected.cancelled, "{label}");
        assert_eq!(
            (
                &decision.init_loads,
                &decision.preloaded,
                &decision.body_loads,
                &decision.cancelled_loads,
            ),
            (
                &expected.init,
                &expected.preloaded,
                &expected.body,
                &cancelled
            ),
            "one-shot decision {label}"
        );
        assert_eq!(
            (
                outcome.penalty(),
                outcome.loads_performed(),
                outcome.init_duration(),
                outcome.trailing_window().remaining(),
            ),
            (
                expected.timing.penalty,
                summary.loads_performed,
                platform.reconfig_latency() * expected.init.len() as u64,
                trailing,
            ),
            "one-shot outcome {label}"
        );
    }
}

/// The run-time decisions agree with the oracle's reference on the Fig. 3
/// example (four subtasks on three tiles, subtask 4 sharing slot 0 with
/// subtask 1, which branch & bound leaves the only critical one) under
/// every single resident subtask, none and all, and windows of none, one,
/// two and all loads.
#[test]
fn run_time_decisions_match_the_reference_on_fig3() {
    let mut graph = SubtaskGraph::new("fig3");
    let ids: Vec<SubtaskId> = [(10, 1), (12, 2), (6, 3), (8, 4)]
        .into_iter()
        .map(|(ms, config)| {
            let name = format!("{config}");
            let exec = Time::from_millis(ms);
            graph.add_subtask(Subtask::new(name, exec, ConfigId::new(config)))
        })
        .collect();
    for (from, to) in [(0, 1), (0, 2), (2, 3)] {
        graph.add_dependency(ids[from], ids[to]).unwrap();
    }
    let slots = [0, 1, 2, 0].map(|slot| PeAssignment::Tile(TileSlot::new(slot)));
    let schedule = InitialSchedule::from_assignment(&graph, slots.to_vec()).unwrap();
    let platform = Platform::virtex_like(3).unwrap();
    let hybrid = HybridPrefetch::compute(&graph, &schedule, &platform).unwrap();
    assert_eq!(hybrid.critical().critical_subtasks(), &ids[..1]);
    let case = DecisionCase::new(&graph, &schedule, &platform, &hybrid);
    let mut residencies = vec![BTreeSet::new(), ids.iter().copied().collect()];
    residencies.extend(ids.iter().map(|&id| BTreeSet::from([id])));
    for resident in &residencies {
        for window_ms in [0, 4, 9, 100] {
            case.check(resident, Time::from_millis(window_ms));
        }
    }
}
