//! Determinism guarantees: the same seed reproduces the same workload and the
//! same reports, and policy comparisons are paired (every policy sees exactly
//! the same activation sequence).

use drhw_bench::experiments::workload_config;
use drhw_engine::{Engine, JobSpec};
use drhw_model::Platform;
use drhw_prefetch::PolicyKind;
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
    // Two builds of the same plan — one on the default plan-build worker
    // count, one on three workers — run to the same reports.
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
    // through it: that plan's platform, buffer sizes and memo tables —
    // across tile counts and across workloads — and again the first plan's
    // once it comes back.
    let seed = SimulationConfig::default().seed;
    let multimedia = MultimediaWorkload.task_set();
    let pocket_gl = PocketGlWorkload.task_set();
    let platforms: Vec<Platform> = [8, 16, 5, 10]
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
    ];
    let plans: Vec<(String, IterationPlan<'_>)> = cases
        .iter()
        .map(|&(workload, set, platform)| {
            let config = workload_config(workload, 64, seed);
            let label = format!("{}@{}", workload.name(), platform.tile_count());
            (label, IterationPlan::new(set, platform, config).unwrap())
        })
        .collect();
    for (first_label, first) in &plans {
        for (other_label, other) in &plans {
            if first_label == other_label {
                continue;
            }
            let mut scratch = first.make_scratch();
            for (label, plan) in [(other_label, other), (first_label, first)] {
                for policy in PolicyKind::ALL {
                    assert_eq!(
                        plan.evaluate_run_with(policy, &mut scratch),
                        plan.evaluate_run(policy),
                        "{label} through a scratch made by {first_label}, {policy}"
                    );
                }
            }
        }
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
