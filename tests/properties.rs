//! Property-based tests (proptest) of the scheduling invariants on random
//! task graphs, a reference-model check of the `SlotMask` bitmask set the
//! hot kernels use in place of per-subtask boolean vectors, and a parity
//! check of the allocation-free replacement kernels against the classic
//! replacement and reuse modules.

use std::collections::{BTreeSet, HashSet};

use drhw_integration::random_instance;
use drhw_model::{
    ConfigId, InitialSchedule, PeAssignment, Platform, SplitMix64, Subtask, SubtaskGraph,
    SubtaskId, TileId, TileSlot, Time,
};
use drhw_prefetch::{
    apply_schedule_to_contents, assign_tiles_protecting, reusable_subtasks, BranchBoundScheduler,
    CriticalSetAnalysis, HybridPrefetch, InterTaskWindow, ListScheduler, OnDemandScheduler,
    PrefetchProblem, PrefetchScheduler, PreparedSchedule, ReplacementPolicy, Scratch, SlotMask,
    TileContents,
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

    /// The allocation-free replacement and reuse kernels agree with the
    /// classic modules for all three replacement rules on random tile
    /// states: configurations repeated across tiles, tied last-use stamps,
    /// random protected sets, sparse ids from 10 000 up, and up to 64 tiles
    /// with as many slots as tiles or fewer.
    #[test]
    fn replacement_kernels_match_the_classic_modules(seed in 0u64..1_000_000, tiles in 1usize..65) {
        check_replacement_parity(seed, tiles);
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

/// Checks every replacement rule of the allocation-free kernels
/// (`assign_tiles_into` + `mark_reusable`) against the classic modules
/// (`assign_tiles_protecting` + `reusable_subtasks`), on the schedule both
/// with raw configuration ids and interned into a dense dictionary: on
/// tile states drawn fresh, and after every step of one state evolved by
/// random loads, uses, clears and kernel-applied activations.
fn check_replacement_parity(seed: u64, tiles: usize) {
    let mut rng = SplitMix64::new(seed);
    let mut draw = |bound: usize| (rng.next_u64() % bound as u64) as usize;
    let slots = 1 + draw(tiles);
    let subtasks = slots + draw(SlotMask::<1>::CAPACITY - slots + 1);
    // Small pools of sparse ids, so configurations repeat across subtasks
    // and tiles; `foreign` ones are wanted by no subtask of this graph.
    let mut sparse = || ConfigId::new(10_000 + draw(50_000));
    let pool: Vec<ConfigId> = (0..12).map(|_| sparse()).collect();
    let foreign: Vec<ConfigId> = (0..4).map(|_| sparse()).collect();
    let pool = &pool[..1 + draw(pool.len())];
    let mut graph = SubtaskGraph::new("parity");
    let mut assignment = Vec::with_capacity(subtasks);
    for i in 0..subtasks {
        let config = pool[draw(pool.len())];
        graph.add_subtask(Subtask::new(
            format!("s{i}"),
            Time::from_millis(1 + draw(5) as u64),
            config,
        ));
        let slot = if i < slots { i } else { draw(slots) };
        assignment.push(PeAssignment::Tile(TileSlot::new(slot)));
    }
    let schedule = InitialSchedule::from_assignment(&graph, assignment).unwrap();
    let platform = Platform::virtex_like(tiles).unwrap();
    let mut dictionary: Vec<ConfigId> = pool.iter().chain(&foreign).copied().collect();
    dictionary.sort_unstable();
    dictionary.dedup();
    let dense = |config: ConfigId| ConfigId::new(dictionary.binary_search(&config).unwrap());
    let raw = PreparedSchedule::new(&graph, schedule.clone(), &platform).unwrap();
    let mut interned = PreparedSchedule::new(&graph, schedule.clone(), &platform).unwrap();
    interned.intern_configs(&dictionary);

    // Checks every rule against the classic modules on one pair of tile
    // states (the same state in raw and in dense ids).
    let mut scratch = Scratch::new();
    let check = |scratch: &mut Scratch,
                 contents: &TileContents,
                 dense_contents: &TileContents,
                 protected: &BTreeSet<ConfigId>,
                 extra: &[ConfigId],
                 label: &str| {
        for policy in [
            ReplacementPolicy::ReuseAware,
            ReplacementPolicy::LeastRecentlyUsed,
            ReplacementPolicy::Direct,
        ] {
            let classic =
                assign_tiles_protecting(&graph, &schedule, contents, policy, protected).unwrap();
            let expected: Vec<TileId> = (0..classic.slot_count())
                .map(|s| classic.tile_of(TileSlot::new(s)))
                .collect();
            let resident: SlotMask = reusable_subtasks(&graph, &schedule, &classic, contents)
                .iter()
                .map(|id| id.index())
                .collect();
            let variants = [
                (
                    &raw,
                    contents,
                    protected.iter().copied().collect::<Vec<_>>(),
                    extra.to_vec(),
                ),
                (
                    &interned,
                    dense_contents,
                    protected.iter().map(|&c| dense(c)).collect(),
                    extra.iter().map(|&c| dense(c)).collect(),
                ),
            ];
            for (prepared, tile_state, ids, extra) in &variants {
                scratch.clear_protection();
                scratch.protect(ids);
                scratch.protect(extra);
                scratch.unprotect(extra);
                prepared
                    .assign_tiles_into(tile_state, policy, scratch)
                    .unwrap();
                assert_eq!(scratch.slot_to_tile(), &expected[..], "{policy} {label}");
                if policy == ReplacementPolicy::ReuseAware {
                    // The reuse-aware assignment leaves the residency mask.
                    assert_eq!(scratch.resident(), resident, "{policy} {label}");
                }
                let count = prepared.mark_reusable(tile_state, scratch);
                assert_eq!(count, resident.len(), "{policy} {label}");
                assert_eq!(scratch.resident(), resident, "{policy} {label}");
            }
        }
    };
    let draw_protection = |draw: &mut dyn FnMut(usize) -> usize| {
        // Protected twice and released once stays protected; released
        // without a second protection drops back to zero.
        let protected: BTreeSet<ConfigId> = dictionary
            .iter()
            .copied()
            .filter(|_| draw(2) == 0)
            .collect();
        let extra: Vec<ConfigId> = dictionary
            .iter()
            .copied()
            .filter(|_| draw(2) == 0)
            .collect();
        (protected, extra)
    };

    for round in 0..4 {
        // Most tiles hold a configuration; last-use stamps come from a few
        // values, so eviction keys tie on everything but the tile index.
        let mut contents = TileContents::new(tiles);
        let mut dense_contents = TileContents::new(tiles);
        for t in 0..tiles {
            let tile = TileId::new(t);
            let stamp = Time::from_millis(5 * draw(4) as u64);
            let held = match draw(4) {
                0 => None,
                1 => Some(foreign[draw(foreign.len())]),
                _ => Some(pool[draw(pool.len())]),
            };
            match held {
                Some(config) => {
                    contents.record_load(tile, config, stamp);
                    dense_contents.record_load(tile, dense(config), stamp);
                }
                None => {
                    contents.record_use(tile, stamp);
                    dense_contents.record_use(tile, stamp);
                }
            }
        }
        let (protected, extra) = draw_protection(&mut draw);
        check(
            &mut scratch,
            &contents,
            &dense_contents,
            &protected,
            &extra,
            &format!("fresh round {round}"),
        );
    }

    // Evolved states: one pair of states goes through random loads, uses
    // and clears — stamps from a few values, so they tie and go back, and
    // loads replace configurations in place — and through whole
    // activations applied by the kernel, compared after every step.
    let mut contents = TileContents::new(tiles);
    let mut dense_contents = TileContents::new(tiles);
    for step in 0..32 {
        let stamp = Time::from_millis(5 * draw(8) as u64);
        let tile = TileId::new(draw(tiles));
        match draw(8) {
            0 => {
                contents.clear();
                dense_contents.clear();
            }
            1 | 2 => {
                contents.record_use(tile, stamp);
                dense_contents.record_use(tile, stamp);
            }
            3..=5 => {
                let config = if draw(4) == 0 {
                    foreign[draw(foreign.len())]
                } else {
                    pool[draw(pool.len())]
                };
                contents.record_load(tile, config, stamp);
                dense_contents.record_load(tile, dense(config), stamp);
            }
            _ => {
                // One activation under a random rule, applied by the kernel
                // and, on a copy, by the classic module.
                let policy = [
                    ReplacementPolicy::ReuseAware,
                    ReplacementPolicy::LeastRecentlyUsed,
                    ReplacementPolicy::Direct,
                ][draw(3)];
                let (protected, _) = draw_protection(&mut draw);
                let mapping =
                    assign_tiles_protecting(&graph, &schedule, &contents, policy, &protected)
                        .unwrap();
                let mut classic = contents.clone();
                apply_schedule_to_contents(&graph, &schedule, &mapping, &mut classic, stamp);
                let ids: Vec<ConfigId> = protected.iter().copied().collect();
                scratch.clear_protection();
                scratch.protect(&ids);
                raw.assign_tiles_into(&contents, policy, &mut scratch)
                    .unwrap();
                raw.apply_to_contents(&mut contents, &scratch, stamp);
                assert_eq!(contents, classic, "{policy} step {step}");
                let ids: Vec<ConfigId> = protected.iter().map(|&c| dense(c)).collect();
                scratch.clear_protection();
                scratch.protect(&ids);
                interned
                    .assign_tiles_into(&dense_contents, policy, &mut scratch)
                    .unwrap();
                interned.apply_to_contents(&mut dense_contents, &scratch, stamp);
            }
        }
        for t in 0..tiles {
            let tile = TileId::new(t);
            assert_eq!(
                dense_contents.config_on(tile),
                contents.config_on(tile).map(dense),
                "step {step}"
            );
            assert_eq!(dense_contents.last_used(tile), contents.last_used(tile));
        }
        let (protected, extra) = draw_protection(&mut draw);
        check(
            &mut scratch,
            &contents,
            &dense_contents,
            &protected,
            &extra,
            &format!("evolved step {step}"),
        );
    }
}
