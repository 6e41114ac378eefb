//! Determinism guarantees: the same seed reproduces the same workload and the
//! same reports, policy comparisons are paired (every policy sees exactly
//! the same activation sequence), and scoring several policies in one pass
//! gives each the numbers it gets alone.

use drhw_bench::experiments::workload_config;
use drhw_engine::{Engine, JobSpec};
use drhw_integration::zero_time_task_set;
use drhw_model::{Platform, TaskSet};
use drhw_prefetch::{PolicyKind, ReplacementPolicy};
use drhw_sim::{IterationPlan, SimulationConfig};
use drhw_workloads::multimedia::multimedia_task_set;
use drhw_workloads::pocket_gl::pocket_gl_task_set;
use drhw_workloads::random::{random_task_set, seeded_random_graph, RandomGraphConfig};
use drhw_workloads::{MultimediaWorkload, PocketGlWorkload, Workload, WorkloadRegistry};

#[test]
fn identical_specs_produce_identical_reports_through_the_engine() {
    // The engine-level determinism contract: the same JobSpec resolves to
    // the same reports on any engine — across separate engine instances,
    // worker counts and cache states.
    let spec = drhw_engine::JobSpec::new("multimedia")
        .with_tiles(9)
        .with_iterations(80)
        .with_seed(77);
    let engine = drhw_engine::Engine::builder().build();
    let first = engine.run(spec.clone()).unwrap();
    let warm = engine.run(spec.clone()).unwrap();
    let fresh = drhw_engine::Engine::builder()
        .threads(1)
        .build()
        .run(spec)
        .unwrap();
    assert_eq!(first, warm);
    assert_eq!(first, fresh);
}

#[test]
fn identical_seeds_produce_identical_reports() {
    let set = multimedia_task_set();
    let platform = Platform::virtex_like(9).unwrap();
    let config = SimulationConfig::default()
        .with_iterations(80)
        .with_seed(77);
    let plan_a = IterationPlan::new(&set, &platform, config.clone()).unwrap();
    let plan_b = IterationPlan::new(&set, &platform, config).unwrap();
    for policy in PolicyKind::ALL {
        assert_eq!(
            plan_a.run(&[policy]).unwrap(),
            plan_b.run(&[policy]).unwrap(),
            "{policy}"
        );
    }
}

#[test]
fn policies_see_exactly_the_same_workload() {
    let set = multimedia_task_set();
    let platform = Platform::virtex_like(12).unwrap();
    let config = SimulationConfig::default().with_iterations(60).with_seed(3);
    let plan = IterationPlan::new(&set, &platform, config).unwrap();
    let reports = plan.run(&PolicyKind::ALL).unwrap();
    let reference = &reports[0];
    for report in &reports {
        assert_eq!(report.activations(), reference.activations());
        assert_eq!(report.ideal_total(), reference.ideal_total());
        assert_eq!(
            report.drhw_subtasks_executed(),
            reference.drhw_subtasks_executed()
        );
    }
}

#[test]
fn pocket_gl_simulation_is_deterministic_too() {
    let set = pocket_gl_task_set();
    let platform = Platform::virtex_like(7).unwrap();
    let config = SimulationConfig::default()
        .with_iterations(50)
        .with_seed(11);
    let plan = IterationPlan::new(&set, &platform, config).unwrap();
    let a = plan.run(&[PolicyKind::Hybrid]).unwrap();
    let b = plan.run(&[PolicyKind::Hybrid]).unwrap();
    assert_eq!(a, b);
}

#[test]
fn random_workload_generation_is_seed_stable() {
    let a = seeded_random_graph(&RandomGraphConfig::with_subtasks(48), 123);
    let b = seeded_random_graph(&RandomGraphConfig::with_subtasks(48), 123);
    assert_eq!(a, b);
    let set_a = random_task_set(4, 12, 5);
    let set_b = random_task_set(4, 12, 5);
    assert_eq!(set_a, set_b);
}

#[test]
fn engine_matches_the_sequential_run_for_any_worker_count() {
    // The §7 case: the same master seed must give identical reports for all
    // five policies whether the plan runs sequentially or on a pool of any
    // size — including the floating-point energy totals, which the engine
    // folds in chunk order precisely so this equality is exact.
    let registry = WorkloadRegistry::with_builtins();
    let multimedia = registry.resolve("multimedia").unwrap();
    let set = multimedia.task_set();
    let platform = Platform::virtex_like(9).unwrap();
    let config = workload_config(multimedia.as_ref(), 96, 2005).with_chunk_size(16);
    let sequential = IterationPlan::new(&set, &platform, config)
        .unwrap()
        .run(&PolicyKind::ALL)
        .unwrap();
    let spec = JobSpec::new("multimedia")
        .with_tiles(9)
        .with_iterations(96)
        .with_chunk_size(16)
        .with_seed(2005);
    for threads in [1, 2, 4, 8] {
        let parallel = Engine::builder()
            .threads(threads)
            .build()
            .run(spec.clone())
            .unwrap();
        assert_eq!(
            sequential, parallel,
            "{threads}-worker engine diverged from the sequential run"
        );
    }
}

#[test]
fn batch_reports_match_across_independently_built_plans() {
    // Two independent builds of the same plan run to the same reports. The
    // second carries a pool size of three, which only an engine reads.
    let set = multimedia_task_set();
    let platform = Platform::virtex_like(9).unwrap();
    let config = SimulationConfig::default().with_iterations(40).with_seed(7);
    let plan_a = IterationPlan::new(&set, &platform, config.clone()).unwrap();
    let plan_b = IterationPlan::new(&set, &platform, config.with_threads(3)).unwrap();
    assert_eq!(
        plan_a.run(&PolicyKind::ALL).unwrap(),
        plan_b.run(&PolicyKind::ALL).unwrap()
    );
}

#[test]
fn a_scratch_reused_across_plans_matches_a_fresh_one() {
    // A scratch made by one plan must simulate whichever plan evaluates
    // through it: that plan's platform, buffer sizes and memo set — across
    // tile counts and across workloads — and again the first plan's once it
    // comes back. Every crossing hands the scratch's memo set back to the
    // pool of the plan it came from, so the plans' pools grow warm while
    // the scratch wanders; each answer must still be the one a freshly
    // built plan, with a cold pool, gives. Multimedia on four tiles runs
    // other schedules than on eight, so a summary replayed from one plan in
    // the other shows.
    let seed = SimulationConfig::default().seed;
    let multimedia = MultimediaWorkload.task_set();
    let pocket_gl = PocketGlWorkload.task_set();
    let platforms: Vec<Platform> = [8, 16, 5, 10, 4]
        .into_iter()
        .map(|tiles| Platform::virtex_like(tiles).unwrap())
        .collect();
    let cases = [
        (
            &MultimediaWorkload as &dyn Workload,
            &multimedia,
            &platforms[0],
        ),
        (&MultimediaWorkload, &multimedia, &platforms[1]),
        (&PocketGlWorkload, &pocket_gl, &platforms[2]),
        (&PocketGlWorkload, &pocket_gl, &platforms[3]),
        (&MultimediaWorkload, &multimedia, &platforms[4]),
    ];
    let build = |(workload, set, platform): (&dyn Workload, &TaskSet, &Platform)| {
        IterationPlan::new(set, platform, workload_config(workload, 64, seed)).unwrap()
    };
    let fresh: Vec<Vec<_>> = cases
        .iter()
        .map(|&case| {
            PolicyKind::ALL
                .map(|policy| build(case).evaluate_run(policy))
                .to_vec()
        })
        .collect();
    let plans: Vec<(String, IterationPlan)> = cases
        .iter()
        .map(|&case| {
            let label = format!("{}@{}", case.0.name(), case.2.tile_count());
            (label, build(case))
        })
        .collect();
    for (first_index, (first_label, first)) in plans.iter().enumerate() {
        for (other_index, (other_label, other)) in plans.iter().enumerate() {
            if first_index == other_index {
                continue;
            }
            let mut scratch = first.make_scratch();
            for (index, label, plan) in [
                (other_index, other_label, other),
                (first_index, first_label, first),
            ] {
                for (policy, expected) in PolicyKind::ALL.into_iter().zip(&fresh[index]) {
                    assert_eq!(
                        &plan.evaluate_run_with(policy, &mut scratch),
                        expected,
                        "{label} through a scratch made by {first_label}, {policy}"
                    );
                    assert_eq!(
                        &plan.evaluate_run(policy),
                        expected,
                        "{label} on its warm pool, {policy}"
                    );
                }
            }
        }
    }
}

#[test]
fn engine_jobs_on_warm_plans_match_runs_on_fresh_plans() {
    // The fifteen Fig. 6/7 plans, all submitted at once so that jobs on
    // different plans interleave on the pool: first on cold plans (empty
    // memo pools), then with another seed on the cached plans, whose pools
    // hold the memo sets of the first round. Every report must equal
    // `IterationPlan::run` on a freshly built plan.
    let registry = WorkloadRegistry::with_builtins();
    let mut rounds: [Vec<(JobSpec, _)>; 2] = Default::default();
    for name in ["multimedia", "pocket_gl"] {
        let workload = registry.resolve(name).unwrap();
        let set = workload.task_set();
        for tiles in workload.tile_sweep() {
            let platform = Platform::virtex_like(tiles).unwrap();
            for (round, seed) in rounds.iter_mut().zip([2005, 7]) {
                let config = workload_config(workload.as_ref(), 40, seed).with_chunk_size(8);
                let fresh = IterationPlan::new(&set, &platform, config)
                    .unwrap()
                    .run(&PolicyKind::ALL)
                    .unwrap();
                let spec = JobSpec::new(name)
                    .with_tiles(tiles)
                    .with_iterations(40)
                    .with_chunk_size(8)
                    .with_seed(seed);
                round.push((spec, fresh));
            }
        }
    }
    assert_eq!(rounds[0].len(), 15);
    for threads in [1, 2, 4] {
        let engine = Engine::builder()
            .threads(threads)
            .cache_capacity(16)
            .build();
        for (round, jobs) in rounds.iter().enumerate() {
            let handles: Vec<_> = jobs
                .iter()
                .map(|(spec, _)| engine.submit(spec.clone()).unwrap())
                .collect();
            for (handle, (spec, fresh)) in handles.iter().zip(jobs) {
                assert_eq!(
                    &handle.wait().unwrap(),
                    fresh,
                    "{threads} workers, round {round}, {}@{:?}",
                    spec.workload,
                    spec.tiles
                );
            }
        }
        let stats = engine.cache_stats();
        assert_eq!((stats.misses, stats.hits), (15, 15), "{threads} workers");
    }
}

#[test]
fn different_seeds_produce_different_workloads() {
    let set = multimedia_task_set();
    let platform = Platform::virtex_like(9).unwrap();
    let plan_a = IterationPlan::new(
        &set,
        &platform,
        SimulationConfig::default().with_iterations(80).with_seed(1),
    )
    .unwrap();
    let plan_b = IterationPlan::new(
        &set,
        &platform,
        SimulationConfig::default().with_iterations(80).with_seed(2),
    )
    .unwrap();
    let a = plan_a.run(&[PolicyKind::NoPrefetch]).unwrap();
    let b = plan_b.run(&[PolicyKind::NoPrefetch]).unwrap();
    assert_ne!(a, b);
}

/// The policy sets the multi-policy pass is checked on: all five, the
/// figures' three, and all five in reverse order.
fn policy_sets() -> [Vec<PolicyKind>; 3] {
    let mut reversed = PolicyKind::ALL.to_vec();
    reversed.reverse();
    [
        PolicyKind::ALL.to_vec(),
        PolicyKind::FIGURE_POLICIES.to_vec(),
        reversed,
    ]
}

/// Asserts that, chunk by chunk, one pass over each policy set yields for
/// every policy exactly the result a one-policy pass gives it.
fn assert_shared_pass_matches_one_policy_passes(label: &str, plan: &IterationPlan) {
    let mut scratch = plan.make_scratch();
    for chunk in 0..plan.chunk_count() {
        let alone: Vec<_> = PolicyKind::ALL
            .into_iter()
            .map(|policy| plan.evaluate_chunk_with(policy, chunk, &mut scratch))
            .collect();
        for set in policy_sets() {
            let shared: Vec<_> = plan
                .evaluate_chunk_policies_with(&set, chunk, &mut scratch)
                .collect();
            assert_eq!(shared.len(), set.len());
            for (policy, result) in set.iter().zip(&shared) {
                let index = PolicyKind::ALL.iter().position(|p| p == policy).unwrap();
                assert_eq!(
                    result, &alone[index],
                    "{label}, chunk {chunk}, {policy} within {set:?}"
                );
            }
        }
    }
}

const REPLACEMENTS: [ReplacementPolicy; 3] = [
    ReplacementPolicy::ReuseAware,
    ReplacementPolicy::LeastRecentlyUsed,
    ReplacementPolicy::Direct,
];

#[test]
fn the_shared_pass_matches_one_policy_passes_on_the_figure_plans() {
    // The fifteen Fig. 6/7 plans under every replacement rule, over two
    // chunks each.
    let registry = WorkloadRegistry::with_builtins();
    for name in ["multimedia", "pocket_gl"] {
        let workload = registry.resolve(name).unwrap();
        let set = workload.task_set();
        for tiles in workload.tile_sweep() {
            let platform = Platform::virtex_like(tiles).unwrap();
            let config = workload_config(workload.as_ref(), 48, 2005).with_chunk_size(24);
            let base = IterationPlan::new(&set, &platform, config.clone()).unwrap();
            for replacement in REPLACEMENTS {
                let mut config = config.clone();
                config.replacement = replacement;
                let plan = base.with_config(config).unwrap();
                assert_shared_pass_matches_one_policy_passes(
                    &format!("{name}@{tiles} {replacement}"),
                    &plan,
                );
            }
        }
    }
}

#[test]
fn the_shared_pass_matches_one_policy_passes_on_fuzz_plans() {
    let registry = WorkloadRegistry::with_builtins();
    for (case, family) in ["chain", "fork", "diamond", "layered", "heavy", "mix"]
        .into_iter()
        .enumerate()
    {
        for seed in [3u64, 11] {
            let workload = registry.resolve(&format!("fuzz-{family}-{seed}")).unwrap();
            let set = workload.task_set();
            let tiles = workload.tile_sweep().next().unwrap();
            let platform = Platform::virtex_like(tiles).unwrap();
            let mut config = workload_config(workload.as_ref(), 20, seed).with_chunk_size(10);
            config.replacement = REPLACEMENTS[(case + seed as usize) % REPLACEMENTS.len()];
            let plan = IterationPlan::new(&set, &platform, config).unwrap();
            assert_shared_pass_matches_one_policy_passes(workload.name(), &plan);
        }
    }
}

#[test]
fn a_repeated_policy_gets_its_own_report_each_time() {
    let set = multimedia_task_set();
    let platform = Platform::virtex_like(9).unwrap();
    let config = SimulationConfig::default().with_iterations(40).with_seed(5);
    let plan = IterationPlan::new(&set, &platform, config).unwrap();
    let requested = [
        PolicyKind::Hybrid,
        PolicyKind::RunTime,
        PolicyKind::Hybrid,
        PolicyKind::NoPrefetch,
        PolicyKind::Hybrid,
    ];
    let together = plan.run(&requested).unwrap();
    for (policy, report) in requested.iter().zip(&together) {
        assert_eq!(report, &plan.run(&[*policy]).unwrap()[0], "{policy}");
    }
}

#[test]
fn the_shared_pass_matches_one_policy_passes_when_subtasks_take_no_time() {
    // Activations with a zero ideal makespan do not advance a shared
    // state's clock, so its stamps would stop ordering the tiles the way
    // each policy's own clock does: such plans must keep one tile state
    // per policy.
    let set = zero_time_task_set();
    let platform = Platform::virtex_like(4).unwrap();
    for replacement in REPLACEMENTS {
        for seed in [1u64, 2, 3] {
            let mut config = SimulationConfig::default()
                .with_iterations(40)
                .with_chunk_size(20)
                .with_seed(seed);
            config.replacement = replacement;
            let plan = IterationPlan::new(&set, &platform, config).unwrap();
            assert_shared_pass_matches_one_policy_passes(
                &format!("zero-time {replacement} seed {seed}"),
                &plan,
            );
        }
    }
}
