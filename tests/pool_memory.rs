//! Pool-mode memory regression test (DESIGN.md §8).
//!
//! With `threads > 1` the deterministic engine trains jobs on a worker
//! pool at dispatch time and collects each result when the event loop
//! pops its completion. Kickoff jobs are shipped in pop order, at most a
//! fixed window ahead of the wave's cursor. Shipping the whole kickoff
//! wave at once instead makes the workers train clients in id order
//! while the loop consumes them in completion order, so uncollected
//! results pile up in proportion to `num_clients`. The assertion below
//! fails if that comes back.
//!
//! A binary of its own: the allocator's peak is process-global.

use asyncfilter::prelude::*;

#[global_allocator]
static ALLOC: asyncfilter::telemetry::alloc::CountingAllocator =
    asyncfilter::telemetry::alloc::CountingAllocator::new();

/// Many clients, few of which complete: the shape where every pop is a
/// kickoff pop.
fn config(threads: usize) -> SimConfig {
    let mut cfg = SimConfig::smoke_test().with_threads(threads);
    cfg.num_clients = 20_000;
    cfg.num_malicious = 0;
    cfg.aggregation_bound = 512;
    cfg.rounds = 2;
    cfg.eval_every = 2;
    cfg.partition_size = Some(4);
    cfg.test_samples = 100;
    cfg
}

/// Runs the config and returns the peak live bytes above the live bytes
/// at its start. The peak is monotonic, so a later run that stays below
/// an earlier run's peak reports about that earlier peak.
fn peak_growth(threads: usize) -> (u64, RunResult) {
    let before = asyncfilter::telemetry::alloc::live_bytes();
    let result =
        Simulation::new(config(threads)).run(Box::new(PassthroughFilter), AttackKind::None);
    let peak = asyncfilter::telemetry::alloc::peak_live_bytes();
    (peak.saturating_sub(before), result)
}

#[test]
fn pool_mode_peak_stays_near_the_inline_peak() {
    let (inline_peak, inline) = peak_growth(1);
    let (pool_peak, pooled) = peak_growth(2);
    assert_eq!(inline, pooled, "threads=2 diverged from threads=1");
    assert_eq!(inline.rounds_completed, 2);
    assert!(
        pool_peak <= 3 * inline_peak,
        "threads=2 peak grew by {pool_peak} bytes against {inline_peak} at threads=1: \
         kickoff results are piling up uncollected"
    );
}
