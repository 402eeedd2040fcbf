//! Memory-flatness regression test for lazy client materialization
//! (DESIGN.md §11).
//!
//! The scale contract: a run's resident client state grows with the
//! in-flight set and the spawner's shard-cache capacity, **not** with
//! `num_clients`. The eager engine held every client's dataset, RNG and
//! factor in `O(num_clients)` `Vec`s (~1.3 KB/client at these settings);
//! the lazy engine keeps one 32-byte kickoff wave entry per client, a heap
//! of the jobs it scheduled since, and shards only while the population
//! fits the cache (never here). Scaling the population 100× must therefore
//! cost about 32 B per extra client — the assertions below fail if anyone
//! reintroduces a per-client array or fattens the wave entry.

use asyncfilter::prelude::*;
use std::sync::Arc;

#[global_allocator]
static ALLOC: asyncfilter::telemetry::alloc::CountingAllocator =
    asyncfilter::telemetry::alloc::CountingAllocator::new();

/// Tiny per-client shards and a shard-cache capacity below both
/// populations (so no shard is cached), so the only thing that scales
/// between the two runs is the client population itself.
fn scale_config(num_clients: usize) -> SimConfig {
    let mut cfg = SimConfig::smoke_test();
    cfg.num_clients = num_clients;
    cfg.num_malicious = num_clients / 10;
    cfg.aggregation_bound = 32;
    cfg.rounds = 2;
    cfg.eval_every = 2;
    cfg.partition_size = Some(4);
    cfg.test_samples = 100;
    cfg.shard_cache_capacity = Some(64);
    cfg
}

/// Runs the config and returns (peak live bytes afterwards, max
/// `resident_client_states` gauge sample, final shard-cache occupancy).
fn run_and_measure(num_clients: usize) -> (u64, u64, usize) {
    let mem = Arc::new(MemorySink::new(100_000));
    let sink = SharedSink::from_arc(Arc::clone(&mem) as Arc<dyn Sink>);
    let mut sim = Simulation::new(scale_config(num_clients));
    let result = sim.run_with_sink(
        Box::new(PassthroughFilter),
        AttackKind::None.build(num_clients, num_clients / 10),
        Box::new(MeanAggregator::new()),
        Some(sink),
    );
    assert_eq!(result.rounds_completed, 2, "run at {num_clients} clients");
    let max_resident = mem
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::GaugeSample {
                name: "resident_client_states",
                value,
            } => Some(*value),
            _ => None,
        })
        .max()
        .expect("at least one gauge sample per aggregation");
    let resident_after = sim.spawner().resident_states();
    (
        asyncfilter::telemetry::alloc::peak_live_bytes(),
        max_resident,
        resident_after,
    )
}

#[test]
fn resident_memory_grows_with_cache_not_population() {
    // One test function: the allocator peak is process-global and
    // monotonic, so the small run must complete (and set its peak) before
    // the large run starts.
    let (small_peak, small_resident, small_after) = run_and_measure(1_000);
    let (large_peak, large_resident, large_after) = run_and_measure(100_000);

    // The shard cache — the only materialized client state — stays at its
    // configured bound regardless of population.
    assert!(
        small_resident <= 64,
        "1k-client run exceeded the shard-cache bound: {small_resident}"
    );
    assert!(
        large_resident <= 64,
        "100k-client run exceeded the shard-cache bound: {large_resident}"
    );
    assert!(small_after <= 64 && large_after <= 64);

    // Scaling the population 100× may only add the per-client wave
    // entries (completion time, RNG state, factor, id, size — no
    // datasets), one per client. The measured growth is 32.4 B per extra
    // client; the budget is 2× that.
    let added = large_peak.saturating_sub(small_peak);
    let budget = 100_000u64 * 64;
    assert!(
        added <= budget,
        "peak grew by {added} bytes for 99k extra clients (budget {budget}): \
         resident client state is scaling with num_clients again"
    );
}
