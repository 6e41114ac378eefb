//! Differential tests: the fast path versus the straight-line oracle.
//!
//! The pinned corpus sweeps all five policies over generated workloads from
//! every DAG family and demands **bit-for-bit** agreement — per-iteration
//! outcomes, the sequential aggregate reports, and their replay through the
//! engine's default-size worker pool (CI additionally runs the whole suite
//! under `DRHW_SIM_THREADS=1`). `DRHW_FUZZ_CASES` scales the corpus; the default
//! here keeps unoptimised test runs quick, while the `oracle_diff` binary
//! (release) runs hundreds by default and thousands on demand.

use drhw_model::{ConfigId, Platform, Subtask, SubtaskGraph, Task, TaskId, TaskSet, Time};
use drhw_oracle::diff::CORPUS_SEED;
use drhw_oracle::reference::{OracleConfig, ReferencePolicy, ReferenceSimulator};
use drhw_oracle::{corpus_cases_from_env, pinned_corpus, run_case, run_corpus, DiffCase};
use drhw_prefetch::{PolicyKind, ReplacementPolicy, SlotMask};
use drhw_sim::{IterationPlan, SimulationConfig};
use drhw_workloads::{FuzzFamily, FuzzWorkload, MultimediaWorkload, PocketGlWorkload, Workload};

/// Default corpus size for unoptimised `cargo test` runs; the release-mode
/// test (and the `oracle_diff` binary) run the full pinned 240-case corpus,
/// which `run_corpus` routes through BOTH the direct `IterationPlan::run`
/// path and the `drhw-engine` job path with bit-for-bit comparison.
#[cfg(debug_assertions)]
const DEFAULT_TEST_CASES: usize = 18;
#[cfg(not(debug_assertions))]
const DEFAULT_TEST_CASES: usize = 240;

#[test]
fn pinned_corpus_agrees_bit_for_bit() {
    let cases = pinned_corpus(corpus_cases_from_env(DEFAULT_TEST_CASES));
    // Every generated case is reproducible by registry name, so the corpus
    // genuinely exercises the engine replay inside run_corpus.
    assert!(cases.iter().all(|c| c.workload.is_some()));
    match run_corpus(&cases) {
        Ok(outcomes) => {
            assert_eq!(outcomes.len(), cases.len());
            let iterations: usize = outcomes.iter().map(|o| o.iterations).sum();
            assert!(iterations > 0, "the corpus must actually simulate");
        }
        Err(divergence) => panic!("{divergence}"),
    }
}

#[test]
fn the_widest_simulated_platform_agrees_bit_for_bit() {
    // The simulation tracks tiles in one-word masks: 64 tiles is the widest
    // platform it runs (one more is rejected at plan time, see
    // `wide_platforms_are_rejected_at_plan_time` in drhw-sim). The pinned
    // corpus stays at 1-11 tiles, so these cases pin the boundary itself —
    // multimedia, Pocket GL and one fuzz family under all three replacement
    // rules, every policy, per iteration, in aggregate and through the
    // engine.
    let widest = SlotMask::<1>::CAPACITY;
    let fuzz = FuzzWorkload::new(FuzzFamily::Layered, CORPUS_SEED);
    let workloads: [&dyn Workload; 3] = [&MultimediaWorkload, &PocketGlWorkload, &fuzz];
    let mut cases = Vec::new();
    for workload in workloads {
        for replacement in [
            ReplacementPolicy::ReuseAware,
            ReplacementPolicy::LeastRecentlyUsed,
            ReplacementPolicy::Direct,
        ] {
            let mut case = DiffCase::from_workload(workload, widest, 24, CORPUS_SEED, 8);
            case.config.replacement = replacement;
            case.label = format!("{} {replacement}", case.label);
            cases.push(case);
        }
    }
    match run_corpus(&cases) {
        Ok(outcomes) => {
            for outcome in &outcomes {
                assert!(outcome.reports.is_some(), "{} must simulate", outcome.label);
            }
        }
        Err(divergence) => panic!("{divergence}"),
    }
}

#[test]
fn oracle_matches_engine_on_a_handwritten_workload() {
    // A tiny deterministic sanity check that does not depend on the fuzz
    // generators: one chain task, every policy, every iteration.
    let mut graph = SubtaskGraph::new("chain");
    let ids: Vec<_> = (0..4)
        .map(|i| {
            graph.add_subtask(Subtask::new(
                format!("c{i}"),
                Time::from_millis(5 + i as u64),
                ConfigId::new(i),
            ))
        })
        .collect();
    for pair in ids.windows(2) {
        graph.add_dependency(pair[0], pair[1]).unwrap();
    }
    let set = TaskSet::new(
        "handwritten",
        vec![Task::single_scenario(TaskId::new(0), "chain", graph).unwrap()],
    )
    .unwrap();
    let config = SimulationConfig::default()
        .with_iterations(9)
        .with_seed(7)
        .with_chunk_size(4);
    let case = DiffCase {
        label: "handwritten-chain".to_string(),
        task_set: set,
        tiles: 4,
        config,
        workload: None,
    };
    if let Err(divergence) = run_case(&case) {
        panic!("{divergence}");
    }
}

#[test]
fn the_comparison_actually_detects_disagreement() {
    // Give the oracle a *different seed* than the engine on a multi-task
    // case: the activation sequences must disagree somewhere, proving the
    // comparison is not vacuously true. (Single-task cases are excluded —
    // with one task the activation set is seed-independent.)
    let case = pinned_corpus(12)
        .into_iter()
        .find(|c| c.task_set.tasks().len() >= 2 && c.config.iterations >= 8)
        .expect("the corpus contains multi-task cases");
    let platform = Platform::virtex_like(case.tiles).unwrap();
    let plan = IterationPlan::new(&case.task_set, &platform, case.config.clone()).unwrap();
    let oracle = ReferenceSimulator::new(
        &case.task_set,
        &platform,
        OracleConfig {
            iterations: case.config.iterations,
            seed: case.config.seed ^ 0x5555,
            task_inclusion_probability: case.config.task_inclusion_probability,
            ..OracleConfig::default()
        },
    )
    .unwrap();
    let engine = plan.evaluate_run(PolicyKind::NoPrefetch).unwrap();
    let reference = oracle.simulate_policy(ReferencePolicy::NoPrefetch).unwrap();
    assert_ne!(
        engine
            .iter()
            .map(|o| (o.activations(), o.ideal()))
            .collect::<Vec<_>>(),
        reference
            .iter()
            .map(|o| (o.activations, o.ideal))
            .collect::<Vec<_>>(),
        "different seeds must yield different activation sequences"
    );
}

#[test]
fn shrinking_reports_carry_the_minimal_case() {
    // Force a real divergence through the public API by corrupting a case's
    // oracle-visible knobs: a case whose engine config and oracle config
    // disagree cannot be built through DiffCase (the oracle side is derived),
    // so instead check the shrinker's contract directly on a passing case —
    // shrink() of a non-diverging case must keep the original divergence
    // object and attach a description.
    let case = &pinned_corpus(2)[1];
    let divergence = drhw_oracle::diff::Divergence {
        case: case.label.clone(),
        policy: PolicyKind::Hybrid,
        iteration: Some(0),
        field: "synthetic".to_string(),
        engine: "1".to_string(),
        oracle: "2".to_string(),
        minimized: None,
    };
    let shrunk = drhw_oracle::diff::shrink(case, divergence);
    let minimized = shrunk.minimized.as_deref().expect("description attached");
    assert!(minimized.contains("tiles="));
    assert!(minimized.contains("task "));
    assert!(shrunk.to_string().contains("minimal counterexample"));
}
