//! The zero-allocation invariant of the per-iteration evaluator.
//!
//! The simulation core promises that, once a plan and a scratch exist, the
//! steady-state per-iteration loop never touches the global allocator: every
//! buffer lives in [`drhw_sim::SimScratch`] and is pre-sized by
//! `IterationPlan::make_scratch`. This test installs a counting global
//! allocator and proves it, plus the weaker-but-end-to-end corollary that a
//! warm `IterationPlan::run` performs a constant number of allocations no
//! matter how many iterations it simulates.
//!
//! The counter is per thread: the test harness's own threads allocate while
//! a test runs, and a process-wide count would charge those events to the
//! loop under measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use drhw_bench::experiments::workload_config;
use drhw_model::Platform;
use drhw_prefetch::PolicyKind;
use drhw_sim::{IterationPlan, SimulationConfig};
use drhw_workloads::{MultimediaWorkload, PocketGlWorkload, Workload};

/// Counts every allocation event (alloc, alloc_zeroed, realloc) of the
/// calling thread and forwards to the system allocator.
struct CountingAllocator;

thread_local! {
    /// Allocation events of the current thread. Constant-initialised and
    /// without a destructor, so reading it never allocates.
    static ALLOCATION_EVENTS: Cell<usize> = const { Cell::new(0) };
}

fn count_allocation() {
    let _ = ALLOCATION_EVENTS.try_with(|events| events.set(events.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocation events the calling thread has made so far.
fn allocation_events() -> usize {
    ALLOCATION_EVENTS.with(Cell::get)
}

/// Counts the allocation events of one warm `IterationPlan::run` over all
/// five policies.
fn plan_run_allocations(plan: &IterationPlan) -> usize {
    // Warm run outside the measurement: lets lazy process-wide state (e.g.
    // environment lookups) settle.
    plan.run(&PolicyKind::ALL).expect("simulation runs");
    let before = allocation_events();
    plan.run(&PolicyKind::ALL).expect("simulation runs");
    allocation_events() - before
}

/// Scores every (policy, iteration) pair of `workload` on `tiles` tiles
/// against one scratch fresh from `make_scratch` and returns the allocation
/// events counted.
fn warm_loop_allocations(workload: &dyn Workload, tiles: usize) -> usize {
    let set = workload.task_set();
    let platform = Platform::virtex_like(tiles).expect("tile count is positive");
    let config = workload_config(workload, 96, 7)
        .with_chunk_size(32)
        .with_threads(1);
    let plan = IterationPlan::new(&set, &platform, config).expect("plan builds");
    // No warm-up: make_scratch pre-sizes every buffer (kernel tables, the
    // dense configuration ids' protection counts, the memos), so even the
    // first iteration must be allocation-free.
    let mut scratch = plan.make_scratch();
    // evaluate_with replays each chunk prefix, so this also covers the
    // chunk-reset path.
    let before = allocation_events();
    for policy in PolicyKind::ALL {
        for index in 0..plan.config().iterations {
            plan.evaluate_with(policy, index, &mut scratch)
                .expect("iteration evaluates");
        }
    }
    allocation_events() - before
}

#[test]
fn warm_iteration_loop_performs_zero_heap_allocations() {
    // The invariant itself, on two inputs: the multimedia set (independent
    // scenarios, configuration ids from 0) and Pocket GL (40 prepared
    // scenarios under correlated selection, configuration ids from 100).
    for (workload, tiles) in [
        (&MultimediaWorkload as &dyn Workload, 8),
        (&PocketGlWorkload, 10),
    ] {
        assert_eq!(
            warm_loop_allocations(workload, tiles),
            0,
            "the steady-state per-iteration loop must be allocation-free ({}@{tiles})",
            workload.name()
        );
    }
    let workload = MultimediaWorkload;
    let set = workload.task_set();
    let platform = Platform::virtex_like(8).expect("tile count is positive");

    // End-to-end corollary: a warm run allocates only its per-run setup
    // (scratch, reports), so the allocation count must not grow with the
    // iteration count.
    let small = IterationPlan::new(
        &set,
        &platform,
        SimulationConfig::default()
            .with_iterations(64)
            .with_chunk_size(32)
            .with_seed(7)
            .with_threads(1),
    )
    .expect("plan builds");
    let large = IterationPlan::new(
        &set,
        &platform,
        SimulationConfig::default()
            .with_iterations(512)
            .with_chunk_size(32)
            .with_seed(7)
            .with_threads(1),
    )
    .expect("plan builds");
    let small_allocs = plan_run_allocations(&small);
    let large_allocs = plan_run_allocations(&large);
    assert_eq!(
        small_allocs, large_allocs,
        "plan run allocations must be independent of the iteration count \
         (64 iters: {small_allocs}, 512 iters: {large_allocs})"
    );
    assert!(
        small_allocs < 64,
        "a plan run should only pay a small constant setup cost, got {small_allocs}"
    );
}
