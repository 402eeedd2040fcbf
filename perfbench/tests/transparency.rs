//! The decorators and the folding sink must not change what a run computes.

use asyncfl_attacks::AttackKind;
use asyncfl_core::aggregation::{Aggregator, MeanAggregator};
use asyncfl_core::update::UpdateFilter;
use asyncfl_core::AsyncFilter;
use asyncfl_perfbench::layers::{Layers, TimedAggregator, TimedAttack, TimedFilter};
use asyncfl_sim::runner::build_attack;
use asyncfl_sim::{RunResult, SimConfig, Simulation};
use asyncfl_telemetry::{Event, FanoutSink, MemorySink, SharedSink, Sink, Verdict};
use std::sync::Arc;

/// `(client, group, score bits, verdict)` of every `FilterScore` event. The
/// server builds these from `last_scores`, so equal lists show the scores
/// reached it unchanged through the decorator.
type Scores = Vec<(usize, u64, u64, Verdict)>;

fn filter_scores(memory: &MemorySink) -> Scores {
    memory
        .events()
        .into_iter()
        .filter_map(|e| match e {
            Event::FilterScore {
                client,
                staleness_group,
                score,
                verdict,
            } => Some((client, staleness_group, score.to_bits(), verdict)),
            _ => None,
        })
        .collect()
}

fn run(decorate: bool, memory: Option<Arc<MemorySink>>) -> (RunResult, Option<Arc<Layers>>) {
    let config = SimConfig::smoke_test();
    let mut sim = Simulation::new(config.clone());
    let filter: Box<dyn UpdateFilter> = Box::new(AsyncFilter::default());
    let attack = build_attack(AttackKind::Gd, config.num_clients, config.num_malicious);
    let aggregator: Box<dyn Aggregator> = Box::new(MeanAggregator::new());
    let memory = memory.map(|m| SharedSink::from_arc(m as Arc<dyn Sink>));
    if !decorate {
        return (sim.run_with_sink(filter, attack, aggregator, memory), None);
    }
    let layers = Layers::new();
    let mut sinks = vec![SharedSink::from_arc(Arc::clone(&layers) as Arc<dyn Sink>)];
    sinks.extend(memory);
    let result = sim.run_with_sink(
        Box::new(TimedFilter::new(filter, Arc::clone(&layers))),
        Box::new(TimedAttack::new(attack, Arc::clone(&layers))),
        Box::new(TimedAggregator::new(aggregator, Arc::clone(&layers))),
        Some(SharedSink::new(FanoutSink::new(sinks))),
    );
    (result, Some(layers))
}

#[test]
fn decorated_traced_run_matches_bare_run() {
    let (bare, _) = run(false, None);
    let bare_memory = Arc::new(MemorySink::new(1 << 16));
    let (bare_traced, _) = run(false, Some(Arc::clone(&bare_memory)));
    let decorated_memory = Arc::new(MemorySink::new(1 << 16));
    let (decorated, layers) = run(true, Some(Arc::clone(&decorated_memory)));

    assert_eq!(bare, bare_traced);
    assert_eq!(bare, decorated);

    let bare_scores = filter_scores(&bare_memory);
    assert!(
        bare_scores.iter().any(|s| !f64::from_bits(s.2).is_nan()),
        "the smoke run must score some updates"
    );
    assert_eq!(bare_scores, filter_scores(&decorated_memory));

    let t = layers.expect("decorated run").snapshot();
    assert!(t.norm_checked > 0);
    assert_eq!(t.norm_violations, 0);
    assert_eq!(t.nonfinite_globals, 0);
    assert_eq!(t.pass_ns.len() as u64, bare.rounds_completed);
    assert_eq!(t.aggregate_ns.len() as u64, bare.rounds_completed);
    assert_eq!(t.train_ns.len() as u64, bare.updates_received);
    assert!(!t.craft_ns.is_empty());
    assert!(t.first_train_start_ns.is_some());
    assert!(t.distances > 0);
}
