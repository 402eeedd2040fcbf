//! Determinism regression tests — the runtime counterpart of the `D1`/`D2`
//! lints (`docs/LINTS.md`).
//!
//! AsyncFilter's accept/defer/reject verdicts must be a pure function of
//! (seed, inputs): the paper's detection-quality tables are only meaningful
//! if a rerun reproduces them bit-for-bit. Two properties are pinned here:
//!
//! 1. **Run-level**: the same seeded simulation executed twice yields
//!    byte-identical round reports and filter-verdict traces.
//! 2. **Batch-level**: within one aggregation buffer, the arrival *order*
//!    of updates must not change any client's verdict — the filter's
//!    geometry (eqs. 4–7) is a function of the buffer as a set.

use asyncfilter::prelude::*;
use asyncfilter::sim::runner::build_attack;
use std::sync::Arc;

// Run the determinism pins with allocation accounting live: the counting
// allocator is observer-only, so verdict traces must stay byte-identical
// with it installed (threads=1 and threads=4 both covered below).
#[global_allocator]
static ALLOC: asyncfilter::telemetry::alloc::CountingAllocator =
    asyncfilter::telemetry::alloc::CountingAllocator::new();

fn small_config() -> SimConfig {
    let mut cfg = SimConfig::smoke_test();
    cfg.num_clients = 16;
    cfg.num_malicious = 4;
    cfg.aggregation_bound = 8;
    cfg.rounds = 8;
    cfg.test_samples = 200;
    cfg
}

/// One traced run: `RunResult` plus every update-received and
/// filter-verdict event, in order.
fn traced_run(seed: u64) -> (RunResult, Vec<Event>) {
    traced_run_threaded(seed, 1)
}

/// As [`traced_run`], with an explicit worker-thread count.
fn traced_run_threaded(seed: u64, threads: usize) -> (RunResult, Vec<Event>) {
    traced_run_config(small_config().with_seed(seed).with_threads(threads))
}

/// One traced run of an explicit configuration.
fn traced_run_config(config: SimConfig) -> (RunResult, Vec<Event>) {
    let mem = Arc::new(MemorySink::new(100_000));
    let sink = SharedSink::from_arc(Arc::clone(&mem) as Arc<dyn Sink>);
    let mut sim = Simulation::new(config);
    let attack = build_attack(
        AttackKind::Gd,
        sim.config().num_clients,
        sim.config().num_malicious,
    );
    let result = sim.run_with_sink(
        Box::new(AsyncFilter::default()),
        attack,
        Box::new(MeanAggregator::new()),
        Some(sink),
    );
    let verdicts: Vec<Event> = mem
        .events()
        .into_iter()
        .filter(|e| matches!(e, Event::FilterScore { .. } | Event::UpdateReceived { .. }))
        .collect();
    (result, verdicts)
}

#[test]
fn seeded_runs_replay_byte_identically() {
    let (first, first_verdicts) = traced_run(42);
    let (second, second_verdicts) = traced_run(42);

    // The whole result must match structurally…
    assert_eq!(first, second);
    // …and the filtering trace must match byte-for-byte, not just "close":
    // Debug formatting captures every f64 bit pattern that differs.
    assert_eq!(
        format!("{:?}", first.round_reports),
        format!("{:?}", second.round_reports)
    );
    assert_eq!(
        format!("{first_verdicts:?}"),
        format!("{second_verdicts:?}"),
        "per-update filter verdicts diverged between identical seeded runs"
    );
    // Sanity: the trace is non-trivial (the filter actually judged updates).
    assert!(!first_verdicts.is_empty());
}

#[test]
fn worker_pool_replays_byte_identically() {
    // Dispatch-time determinism: with threads > 1 the engine trains
    // in-flight clients eagerly on a worker pool, but consumes completions
    // in the same heap order — so the parallel run must match the
    // sequential one bit-for-bit, not just statistically.
    let (sequential, sequential_verdicts) = traced_run_threaded(42, 1);
    let (parallel, parallel_verdicts) = traced_run_threaded(42, 4);

    assert_eq!(sequential, parallel);
    assert_eq!(sequential.final_accuracy, parallel.final_accuracy);
    assert_eq!(
        format!("{:?}", sequential.round_reports),
        format!("{:?}", parallel.round_reports),
        "round reports diverged between threads=1 and threads=4"
    );
    assert_eq!(
        format!("{sequential_verdicts:?}"),
        format!("{parallel_verdicts:?}"),
        "per-update filter verdicts diverged between threads=1 and threads=4"
    );
    assert!(!sequential_verdicts.is_empty());
}

#[test]
fn heap_twin_replays_byte_identically() {
    // Run-level pin for the engine's event queue, a binary heap and the
    // only scheduler (DESIGN.md §12; the name dates from when the heap
    // was the calendar queue's differential twin): pop order is
    // `(completes_at, seq)` under `f64::total_cmp`, so two identically
    // seeded runs agree bit-for-bit — round reports and every per-update
    // verdict — at threads=1 and on the worker pool.
    for threads in [1, 4] {
        let (first, first_verdicts) = traced_run_threaded(42, threads);
        let (second, second_verdicts) = traced_run_threaded(42, threads);
        assert_eq!(first, second, "run results diverged at threads={threads}");
        assert_eq!(
            format!("{:?}", first.round_reports),
            format!("{:?}", second.round_reports),
            "round reports diverged at threads={threads}"
        );
        assert_eq!(
            format!("{first_verdicts:?}"),
            format!("{second_verdicts:?}"),
            "filter verdicts diverged at threads={threads}"
        );
        assert!(!first_verdicts.is_empty());
    }
}

#[test]
fn windowed_kickoff_dispatch_replays_byte_identically() {
    // More clients than the pool's kickoff dispatch window (256 jobs
    // ahead of the wave's cursor), so pool mode ships the kickoff wave in
    // slices as the loop pops it. The horizon is long enough that fast
    // clients complete again, so jobs from the heap interleave with the
    // wave. threads=1 and threads=4 must agree bit-for-bit.
    let config = |threads| {
        let mut cfg = small_config().with_seed(42).with_threads(threads);
        cfg.num_clients = 400;
        cfg.num_malicious = 40;
        cfg.aggregation_bound = 32;
        cfg.rounds = 12;
        cfg.eval_every = 6;
        cfg.partition_size = Some(16);
        cfg
    };
    let (sequential, sequential_verdicts) = traced_run_config(config(1));
    let (parallel, parallel_verdicts) = traced_run_config(config(4));

    assert_eq!(sequential, parallel);
    assert_eq!(
        format!("{:?}", sequential.round_reports),
        format!("{:?}", parallel.round_reports),
        "round reports diverged between threads=1 and threads=4"
    );
    assert_eq!(
        format!("{sequential_verdicts:?}"),
        format!("{parallel_verdicts:?}"),
        "per-update filter verdicts diverged between threads=1 and threads=4"
    );
    // Some client reported twice: its second job came from the heap.
    let mut reported: Vec<usize> = sequential_verdicts
        .iter()
        .filter_map(|e| match e {
            Event::UpdateReceived { client, .. } => Some(*client),
            _ => None,
        })
        .collect();
    let total = reported.len();
    reported.sort_unstable();
    reported.dedup();
    assert!(
        reported.len() < total,
        "no client reported twice; the run never popped the heap"
    );
}

#[test]
fn different_seeds_actually_differ() {
    // Guards against the trivial failure mode where determinism holds
    // because the seed is ignored entirely.
    let (a, _) = traced_run(42);
    let (b, _) = traced_run(43);
    assert_ne!(a.final_accuracy, b.final_accuracy);
}

/// A buffer with clearly separated benign/outlier geometry and distinct
/// score values (so 3-means has no ties for the shuffle to exploit).
fn batch() -> Vec<ClientUpdate> {
    let base = Vector::zeros(3);
    let mut updates: Vec<ClientUpdate> = (0..9)
        .map(|c| {
            let delta = Vector::from(vec![1.0 + 0.03 * c as f64, 0.5 - 0.01 * c as f64, 0.2]);
            ClientUpdate::from_delta(c, 0, 0, &base, delta, 10)
        })
        .collect();
    updates.push(ClientUpdate::from_delta(
        9,
        0,
        0,
        &base,
        Vector::from(vec![80.0, -40.0, 60.0]),
        10,
    ));
    updates
}

/// Sorted `(client, verdict)` pairs plus client-sorted scores for one
/// freshly created filter fed `updates` in the given order.
fn verdict_fingerprint(updates: Vec<ClientUpdate>) -> (Vec<(usize, &'static str)>, Vec<f64>) {
    let mut filter = AsyncFilter::default();
    let global = Vector::zeros(3);
    let ctx = FilterContext::new(0, &global, 20);
    let outcome = filter.filter(updates, &ctx);
    let mut verdicts: Vec<(usize, &'static str)> = Vec::new();
    for u in &outcome.accepted {
        verdicts.push((u.client, "accept"));
    }
    for u in &outcome.rejected {
        verdicts.push((u.client, "reject"));
    }
    for u in &outcome.deferred {
        verdicts.push((u.client, "defer"));
    }
    verdicts.sort_unstable();
    let mut scores: Vec<(usize, f64)> = filter
        .last_scores()
        .iter()
        .map(|r| (r.client, r.score))
        .collect();
    scores.sort_by_key(|&(client, _)| client);
    (verdicts, scores.into_iter().map(|(_, s)| s).collect())
}

#[test]
fn within_batch_arrival_order_is_irrelevant() {
    let (ref_verdicts, ref_scores) = verdict_fingerprint(batch());
    // Several deterministic permutations: reversal and all rotations.
    let mut permutations: Vec<Vec<ClientUpdate>> = Vec::new();
    let mut reversed = batch();
    reversed.reverse();
    permutations.push(reversed);
    for rot in 1..batch().len() {
        let mut rotated = batch();
        rotated.rotate_left(rot);
        permutations.push(rotated);
    }
    for (i, perm) in permutations.into_iter().enumerate() {
        let (verdicts, scores) = verdict_fingerprint(perm);
        // Verdicts must match byte-for-byte: the accept/defer/reject
        // decision is what the paper's detection tables are built from.
        assert_eq!(verdicts, ref_verdicts, "permutation {i} changed a verdict");
        // Scores may differ in the final ulp (eq. 7 sums squared distances
        // in arrival order and float addition is not associative), but any
        // drift beyond that is a real order-dependence bug.
        for (s, r) in scores.iter().zip(&ref_scores) {
            assert!(
                (s - r).abs() <= 1e-12,
                "permutation {i} moved a score beyond rounding: {s} vs {r}"
            );
        }
    }
    // Sanity: the scenario is non-trivial — the outlier is actually singled
    // out by the reference run.
    assert!(ref_verdicts
        .iter()
        .any(|&(c, v)| c == 9 && (v == "reject" || v == "defer")));
}
