//! Per-layer measurement from outside the program.
//!
//! Nothing here changes what the stack computes. Timing decorators wrap the
//! [`UpdateFilter`], [`Aggregator`] and [`Attack`] trait objects handed to
//! `Simulation::run_with_sink` / `BufferedServer::new` and forward every
//! call unchanged; [`Layers`] doubles as a [`Sink`] that folds the spans,
//! counters and gauges the program already emits. The decorators also run
//! the per-pass output checks (unit-norm eq. 7 scores, finite global model)
//! because they are the only place those values are visible from outside.

use asyncfl_attacks::Attack;
use asyncfl_core::aggregation::Aggregator;
use asyncfl_core::update::{ClientUpdate, FilterContext, FilterOutcome, ScoreRecord, UpdateFilter};
use asyncfl_rng::rngs::StdRng;
use asyncfl_telemetry::alloc;
use asyncfl_telemetry::{Event, Sink, Stopwatch};
use asyncfl_tensor::Vector;
use std::sync::{Arc, Mutex, MutexGuard};

/// Tolerance on `Σ score² = 1` for one pass's eq. 7 scores.
const UNIT_NORM_TOLERANCE: f64 = 1e-6;

/// Raw per-layer observations of one run.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    /// Nanoseconds per `UpdateFilter::on_buffered` call.
    pub arrival_ns: Vec<u64>,
    /// `on_buffered` calls that re-announced a deferred update.
    pub rescored: u64,
    /// Nanoseconds per `UpdateFilter::filter` call.
    pub pass_ns: Vec<u64>,
    /// Bytes allocated inside `filter` calls.
    pub pass_alloc_bytes: u64,
    /// Updates handed to `filter` calls.
    pub pass_inputs: u64,
    /// Updates rejected by `filter` calls.
    pub pass_rejected: u64,
    /// Updates deferred by `filter` calls.
    pub pass_deferred: u64,
    /// Bytes of update parameters behind the score records returned through
    /// `last_scores` after each pass (records × dim × 8).
    pub bytes_scored: u64,
    /// Passes whose scores were checked for unit norm.
    pub norm_checked: u64,
    /// Passes whose scores were neither unit-norm nor all zero.
    pub norm_violations: u64,
    /// Nanoseconds per `Aggregator::aggregate` call.
    pub aggregate_ns: Vec<u64>,
    /// Bytes allocated inside `aggregate` calls.
    pub aggregate_alloc_bytes: u64,
    /// Aggregations that produced a non-finite global model.
    pub nonfinite_globals: u64,
    /// Nanoseconds per `Attack::craft_all` call.
    pub craft_ns: Vec<u64>,
    /// Nanoseconds per `local_training` span.
    pub train_ns: Vec<u64>,
    /// Bytes allocated inside `local_training` spans.
    pub train_alloc_bytes: u64,
    /// Start of the first `local_training` span, nanoseconds after the
    /// [`Layers`] clock started.
    pub first_train_start_ns: Option<u64>,
    /// Nanoseconds per `kmeans_1d` span.
    pub kmeans_ns: Vec<u64>,
    /// `filter_distances_computed` counter total.
    pub distances: u64,
    /// Largest `resident_client_states` gauge sample.
    pub resident_max: u64,
    /// Nanoseconds from the post-aggregation gauge samples to each
    /// `AccuracyCheckpoint`: the checkpoint evaluations.
    pub evaluate_ns: u64,
    /// Time of the latest post-aggregation gauge sample.
    eval_from_ns: Option<u64>,
}

/// Shared collector for one run: a clock started at construction, the
/// folded observations, and a [`Sink`] implementation.
#[derive(Debug)]
pub struct Layers {
    clock: Stopwatch,
    times: Mutex<LayerTimes>,
}

impl Layers {
    /// A collector whose clock starts now; create it right before the run.
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            clock: Stopwatch::start(),
            times: Mutex::new(LayerTimes::default()),
        })
    }

    fn times(&self) -> MutexGuard<'_, LayerTimes> {
        self.times
            .lock()
            .expect("layer collector poisoned: a wrapped call panicked while recording")
    }

    /// A copy of everything observed so far.
    pub fn snapshot(&self) -> LayerTimes {
        self.times().clone()
    }
}

impl Sink for Layers {
    fn emit(&self, event: &Event) {
        let now = self.clock.elapsed_nanos();
        let mut t = self.times();
        match *event {
            Event::SpanClosed {
                name: "local_training",
                nanos,
                alloc_bytes,
                ..
            } => {
                t.first_train_start_ns
                    .get_or_insert(now.saturating_sub(nanos));
                t.train_ns.push(nanos);
                t.train_alloc_bytes += alloc_bytes;
            }
            Event::SpanClosed {
                name: "kmeans_1d",
                nanos,
                ..
            } => t.kmeans_ns.push(nanos),
            Event::CounterAdd {
                name: "filter_distances_computed",
                delta,
            } => t.distances += delta,
            Event::GaugeSample {
                name: "resident_client_states",
                value,
            } => t.resident_max = t.resident_max.max(value),
            // The engine samples this gauge after every aggregation and then,
            // on checkpoint rounds, evaluates and emits the checkpoint.
            Event::GaugeSample {
                name: "alloc_live_bytes",
                ..
            } => t.eval_from_ns = Some(now),
            Event::AccuracyCheckpoint { .. } => {
                if let Some(from) = t.eval_from_ns.take() {
                    t.evaluate_ns += now.saturating_sub(from);
                }
            }
            _ => {}
        }
    }
}

/// Times `on_buffered` and `filter`, forwards `last_scores`, and checks
/// each pass's scores for unit norm.
pub struct TimedFilter {
    inner: Box<dyn UpdateFilter>,
    layers: Arc<Layers>,
}

impl TimedFilter {
    /// Wraps `inner`, recording into `layers`.
    pub fn new(inner: Box<dyn UpdateFilter>, layers: Arc<Layers>) -> Self {
        Self { inner, layers }
    }
}

impl UpdateFilter for TimedFilter {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn filter(&mut self, updates: Vec<ClientUpdate>, ctx: &FilterContext<'_>) -> FilterOutcome {
        let inputs = updates.len() as u64;
        let dim = updates.first().map_or(0, |u| u.params.len()) as u64;
        let bytes_before = alloc::allocated_bytes();
        let watch = Stopwatch::start();
        let outcome = self.inner.filter(updates, ctx);
        let nanos = watch.elapsed_nanos();
        let bytes = alloc::allocated_bytes().saturating_sub(bytes_before);

        let scores = self.last_scores();
        let sum_sq: f64 = scores.iter().map(|r| r.score * r.score).sum();
        let all_zero = scores.iter().all(|r| r.score == 0.0);
        // NaN sums fail the comparison and count as violations.
        let unit_norm = (sum_sq - 1.0).abs() < UNIT_NORM_TOLERANCE;
        let violation = !scores.is_empty() && !all_zero && !unit_norm;
        let scored = scores.len() as u64;

        let mut t = self.layers.times();
        t.pass_ns.push(nanos);
        t.pass_alloc_bytes += bytes;
        t.pass_inputs += inputs;
        t.pass_rejected += outcome.rejected.len() as u64;
        t.pass_deferred += outcome.deferred.len() as u64;
        t.bytes_scored += scored * dim * std::mem::size_of::<f64>() as u64;
        t.norm_checked += u64::from(scored > 0);
        t.norm_violations += u64::from(violation);
        outcome
    }

    fn on_buffered(&mut self, update: &ClientUpdate, ctx: &FilterContext<'_>) {
        let watch = Stopwatch::start();
        self.inner.on_buffered(update, ctx);
        let nanos = watch.elapsed_nanos();
        let mut t = self.layers.times();
        t.arrival_ns.push(nanos);
        t.rescored += u64::from(update.defers > 0);
    }

    fn last_scores(&self) -> &[ScoreRecord] {
        self.inner.last_scores()
    }
}

/// Times `aggregate` and checks that every new global model is finite.
pub struct TimedAggregator {
    inner: Box<dyn Aggregator>,
    layers: Arc<Layers>,
}

impl TimedAggregator {
    /// Wraps `inner`, recording into `layers`.
    pub fn new(inner: Box<dyn Aggregator>, layers: Arc<Layers>) -> Self {
        Self { inner, layers }
    }
}

impl Aggregator for TimedAggregator {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn aggregate(&mut self, updates: &[ClientUpdate], global: &Vector) -> Vector {
        let bytes_before = alloc::allocated_bytes();
        let watch = Stopwatch::start();
        let next = self.inner.aggregate(updates, global);
        let nanos = watch.elapsed_nanos();
        let bytes = alloc::allocated_bytes().saturating_sub(bytes_before);
        let finite = next.is_finite();
        let mut t = self.layers.times();
        t.aggregate_ns.push(nanos);
        t.aggregate_alloc_bytes += bytes;
        t.nonfinite_globals += u64::from(!finite);
        next
    }
}

/// Times `craft_all`.
pub struct TimedAttack {
    inner: Box<dyn Attack>,
    layers: Arc<Layers>,
}

impl TimedAttack {
    /// Wraps `inner`, recording into `layers`.
    pub fn new(inner: Box<dyn Attack>, layers: Arc<Layers>) -> Self {
        Self { inner, layers }
    }
}

impl Attack for TimedAttack {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn craft_all(&self, colluding_deltas: &[Vector], rng: &mut StdRng) -> Vec<Vector> {
        let watch = Stopwatch::start();
        let crafted = self.inner.craft_all(colluding_deltas, rng);
        let nanos = watch.elapsed_nanos();
        self.layers.times().craft_ns.push(nanos);
        crafted
    }
}
