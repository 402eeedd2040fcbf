//! The benchmark's workloads: their inputs, made from the seed, and one
//! measured execution of each.

use crate::layers::{LayerTimes, Layers, TimedAggregator, TimedAttack, TimedFilter};
use asyncfl_attacks::{Attack, AttackKind, GradientDeviationAttack};
use asyncfl_core::aggregation::{Aggregator, MeanAggregator};
use asyncfl_core::update::{ClientUpdate, UpdateFilter};
use asyncfl_core::AsyncFilter;
use asyncfl_data::DatasetProfile;
use asyncfl_rng::rngs::StdRng;
use asyncfl_rng::{RngExt, SeedableRng};
use asyncfl_sim::metrics::DetectionStats;
use asyncfl_sim::runner::{build_attack, GD_LAMBDA};
use asyncfl_sim::{BufferedServer, RunResult, SimConfig, Simulation};
use asyncfl_telemetry::{SharedSink, Sink, Stopwatch};
use asyncfl_tensor::Vector;
use std::sync::Arc;

/// A named set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's §5 default: CIFAR-10 profile, 100 clients, 20 Min-Max
    /// attackers, AsyncFilter + FedBuff mean, 60 rounds.
    PaperCifar,
    /// The million-client scale shape with AsyncFilter and no attackers.
    MillionClients,
    /// Server-only ingest of wide (131 072-parameter) updates.
    ServerWide,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperCifar,
        Workload::MillionClients,
        Workload::ServerWide,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCifar => "paper_cifar",
            Workload::MillionClients => "million_clients",
            Workload::ServerWide => "server_wide",
        }
    }

    /// Looks a workload up by [`name`](Self::name).
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How a run is observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Bare trait objects and no sink: the end-to-end measurement.
    Plain,
    /// Decorated trait objects, no sink: output checks at near-zero cost.
    Checked,
    /// Decorated trait objects plus the folding sink: per-layer numbers.
    Traced,
}

/// Server-side shape of [`Workload::ServerWide`].
pub mod wide {
    /// Parameters per update, near the paper's LeNet-5 scale.
    pub const DIM: usize = 131_072;
    /// Aggregation bound Ω.
    pub const BOUND: usize = 32;
    /// Staleness groups; update `i` arrives `i % GROUPS` rounds stale.
    pub const GROUPS: usize = 3;
    /// Pool entries per group: benign deltas around the group's centre.
    pub const BENIGN_PER_GROUP: usize = 8;
    /// Pool entries per group crafted by the GD attack (20% of the pool).
    pub const CRAFTED_PER_GROUP: usize = 2;
    /// Passes per run: at least 100, so ten pass latencies lie beyond p90.
    pub const PASSES: u64 = 120;
    /// Generous enough that no update is discarded as stale.
    pub const STALENESS_LIMIT: u64 = 64;
    /// Spread of the group centres.
    pub const CENTRE_SCALE: f64 = 0.05;
    /// Per-coordinate noise of a benign delta around its centre.
    pub const NOISE_SCALE: f64 = 0.02;
}

/// The inputs of one workload, generated from the seed. Only these reach
/// the program.
#[derive(Debug, Clone)]
pub enum Inputs {
    /// A simulation configuration and the attack its malicious clients run.
    Sim {
        /// The configuration handed to `Simulation::new`.
        config: SimConfig,
        /// The attack handed to the run.
        attack: AttackKind,
    },
    /// A fixed pool of updates replayed into a server.
    Server(ServerInputs),
}

/// [`Workload::ServerWide`]'s update pool and arrival stream seed.
#[derive(Debug, Clone)]
pub struct ServerInputs {
    /// `wide::GROUPS` consecutive blocks of `BENIGN_PER_GROUP +
    /// CRAFTED_PER_GROUP` updates, block `g` for staleness `g`.
    pub pool: Vec<ClientUpdate>,
    /// Seeds the choice of pool entry for each arrival.
    pub stream_seed: u64,
    /// Nanoseconds of each `craft_all` call made building the pool.
    pub craft_ns: Vec<u64>,
}

impl Inputs {
    /// Generates `workload`'s inputs from `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Self {
        match workload {
            Workload::PaperCifar => Inputs::Sim {
                config: SimConfig::paper_default(DatasetProfile::Cifar10)
                    .with_seed(seed)
                    .with_threads(1),
                attack: AttackKind::MinMax,
            },
            Workload::MillionClients => {
                let mut config = SimConfig::paper_default(DatasetProfile::Mnist)
                    .with_seed(seed)
                    .with_threads(1);
                config.num_clients = 1_000_000;
                config.num_malicious = 0;
                config.aggregation_bound = 8_192;
                config.rounds = 12;
                config.partition_size = Some(4);
                config.test_samples = 200;
                config.eval_every = config.rounds;
                config.participation = 0.5;
                Inputs::Sim {
                    config,
                    attack: AttackKind::None,
                }
            }
            Workload::ServerWide => Inputs::Server(ServerInputs::generate(seed)),
        }
    }

    /// Builds the program's entry object once and drops it, returning the
    /// construction time in seconds.
    pub fn setup_once(&self) -> f64 {
        match self {
            Inputs::Sim { config, .. } => {
                let config = config.clone();
                let watch = Stopwatch::start();
                let sim = Simulation::new(config);
                let secs = watch.elapsed_secs();
                drop(sim);
                secs
            }
            Inputs::Server(_) => {
                let parts = plain_parts();
                let watch = Stopwatch::start();
                let server = new_server(parts);
                let secs = watch.elapsed_secs();
                drop(server);
                secs
            }
        }
    }

    /// Whether some updates are crafted by attackers, so detection
    /// precision and recall are defined.
    pub fn has_attackers(&self) -> bool {
        match self {
            Inputs::Sim { config, .. } => config.num_malicious > 0,
            Inputs::Server(_) => true,
        }
    }

    /// Nanoseconds of each attack call made while generating the inputs.
    pub fn setup_craft_ns(&self) -> &[u64] {
        match self {
            Inputs::Sim { .. } => &[],
            Inputs::Server(inputs) => &inputs.craft_ns,
        }
    }

    /// One measured execution under `probe`.
    pub fn run(&self, probe: Probe) -> Rep {
        match self {
            Inputs::Sim { config, attack } => run_sim(config, *attack, probe),
            Inputs::Server(inputs) => inputs.run(probe),
        }
    }
}

/// The deterministic result of one execution, compared across repetitions.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A simulation's full result.
    Sim(RunResult),
    /// The server replay's end state.
    Server(ServerOutcome),
}

/// End state of a [`Workload::ServerWide`] replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerOutcome {
    /// Terminal detection verdicts.
    pub detection: DetectionStats,
    /// Updates handed to `receive`.
    pub received: u64,
    /// Updates discarded as stale.
    pub stale: u64,
    /// Rounds completed.
    pub rounds: u64,
    /// Fresh updates still buffered.
    pub buffered: u64,
    /// Deferred updates re-buffered by the last pass.
    pub deferred: u64,
    /// Bit-level digest of the final global model.
    pub global_digest: u64,
}

/// One measured execution.
#[derive(Debug, Clone)]
pub struct Rep {
    /// How the execution was observed.
    pub probe: Probe,
    /// Construction of the program's entry object, seconds.
    pub setup_s: f64,
    /// The run: wall clock of a simulation, or time summed inside
    /// `receive` calls of the server replay.
    pub run_s: f64,
    /// Updates handed to the server.
    pub received: u64,
    /// Deterministic fields.
    pub outcome: Outcome,
    /// Failed output checks, one line each.
    pub failures: Vec<String>,
    /// Nanoseconds of each `receive` call that did not aggregate (server
    /// replay only).
    pub admit_ns: Vec<u64>,
    /// Nanoseconds of each `receive` call that aggregated (server replay
    /// only).
    pub pass_ns: Vec<u64>,
    /// Per-layer observations of decorated runs.
    pub layers: Option<LayerTimes>,
}

impl Rep {
    /// Detection counts of the run.
    pub fn detection(&self) -> DetectionStats {
        match &self.outcome {
            Outcome::Sim(r) => r.detection,
            Outcome::Server(s) => s.detection,
        }
    }

    /// Final test accuracy (simulations only).
    pub fn accuracy(&self) -> Option<f64> {
        match &self.outcome {
            Outcome::Sim(r) => Some(r.final_accuracy),
            Outcome::Server(_) => None,
        }
    }

    /// Discrete events the engine consumed; the replay counts arrivals.
    pub fn loop_events(&self) -> u64 {
        match &self.outcome {
            Outcome::Sim(r) => r.loop_events,
            Outcome::Server(s) => s.received,
        }
    }

    /// Updates discarded as stale.
    pub fn discarded_stale(&self) -> u64 {
        match &self.outcome {
            Outcome::Sim(r) => r.updates_discarded_stale,
            Outcome::Server(s) => s.stale,
        }
    }
}

struct Parts {
    filter: Box<dyn UpdateFilter>,
    aggregator: Box<dyn Aggregator>,
    layers: Option<Arc<Layers>>,
    sink: Option<SharedSink>,
}

fn plain_parts() -> Parts {
    Parts {
        filter: Box::new(AsyncFilter::default()),
        aggregator: Box::new(MeanAggregator::new()),
        layers: None,
        sink: None,
    }
}

/// The filter and aggregator for `probe`, decorated and traced as asked.
fn parts(probe: Probe) -> Parts {
    let plain = plain_parts();
    if probe == Probe::Plain {
        return plain;
    }
    let layers = Layers::new();
    let sink = (probe == Probe::Traced)
        .then(|| SharedSink::from_arc(Arc::clone(&layers) as Arc<dyn Sink>));
    Parts {
        filter: Box::new(TimedFilter::new(plain.filter, Arc::clone(&layers))),
        aggregator: Box::new(TimedAggregator::new(plain.aggregator, Arc::clone(&layers))),
        layers: Some(layers),
        sink,
    }
}

fn new_server(parts: Parts) -> BufferedServer {
    let mut server = BufferedServer::new(
        Vector::zeros(wide::DIM),
        wide::BOUND,
        wide::STALENESS_LIMIT,
        parts.filter,
        parts.aggregator,
    );
    server.set_sink(parts.sink);
    server
}

/// Checks shared by every decorated run.
fn layer_failures(t: &LayerTimes, failures: &mut Vec<String>) {
    if t.norm_violations > 0 {
        failures.push(format!(
            "{} of {} passes returned eq. 7 scores without unit norm",
            t.norm_violations, t.norm_checked
        ));
    }
    if t.norm_checked == 0 {
        failures.push("no pass returned eq. 7 scores".into());
    }
    if t.nonfinite_globals > 0 {
        failures.push(format!(
            "{} aggregations produced a non-finite global model",
            t.nonfinite_globals
        ));
    }
}

fn run_sim(config: &SimConfig, attack: AttackKind, probe: Probe) -> Rep {
    let owned = config.clone();
    let watch = Stopwatch::start();
    let mut sim = Simulation::new(owned);
    let setup_s = watch.elapsed_secs();

    let attack = build_attack(attack, config.num_clients, config.num_malicious);
    let Parts {
        filter,
        aggregator,
        layers,
        sink,
    } = parts(probe);
    let attack: Box<dyn Attack> = match &layers {
        Some(layers) => Box::new(TimedAttack::new(attack, Arc::clone(layers))),
        None => attack,
    };
    let watch = Stopwatch::start();
    let result = sim.run_with_sink(filter, attack, aggregator, sink);
    let run_s = watch.elapsed_secs();
    drop(sim);

    let mut failures = Vec::new();
    if result.rounds_completed != config.rounds {
        failures.push(format!(
            "completed {} of {} rounds",
            result.rounds_completed, config.rounds
        ));
    }
    if !(0.0..=1.0).contains(&result.final_accuracy) {
        failures.push(format!(
            "final accuracy {} is not in [0, 1]",
            result.final_accuracy
        ));
    }
    let layers = layers.map(|l| l.snapshot());
    if let Some(t) = &layers {
        layer_failures(t, &mut failures);
    }
    Rep {
        probe,
        setup_s,
        run_s,
        received: result.updates_received,
        outcome: Outcome::Sim(result),
        failures,
        admit_ns: Vec::new(),
        pass_ns: Vec::new(),
        layers,
    }
}

impl ServerInputs {
    /// Builds the pool: per staleness group a random centre, benign deltas
    /// around it, and GD-crafted reversals of some of them.
    pub fn generate(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let layers = Layers::new();
        let attack = TimedAttack::new(
            Box::new(GradientDeviationAttack::new(GD_LAMBDA)),
            Arc::clone(&layers),
        );
        let base = Vector::zeros(wide::DIM);
        let mut pool = Vec::new();
        for _ in 0..wide::GROUPS {
            let centre = Vector::from_fn(wide::DIM, |_| {
                wide::CENTRE_SCALE * rng.random_range(-1.0..1.0)
            });
            let benign: Vec<Vector> = (0..wide::BENIGN_PER_GROUP)
                .map(|_| {
                    Vector::from_fn(wide::DIM, |j| {
                        centre[j] + wide::NOISE_SCALE * rng.random_range(-1.0..1.0)
                    })
                })
                .collect();
            let crafted = attack.craft_all(&benign[..wide::CRAFTED_PER_GROUP], &mut rng);
            let entries = benign
                .into_iter()
                .map(|d| (d, false))
                .chain(crafted.into_iter().map(|d| (d, true)));
            for (delta, malicious) in entries {
                pool.push(
                    ClientUpdate::from_delta(0, 0, 0, &base, delta, 10)
                        .with_truth_malicious(malicious),
                );
            }
        }
        Self {
            pool,
            stream_seed: seed ^ 0x5EED_57EA_0000_0001,
            craft_ns: layers.snapshot().craft_ns,
        }
    }

    /// Replays `wide::PASSES` passes of arrivals into a fresh server,
    /// timing each `receive` call; cloning from the pool stays outside the
    /// timed call.
    pub fn run(&self, probe: Probe) -> Rep {
        let parts = parts(probe);
        let layers = parts.layers.clone();
        let watch = Stopwatch::start();
        let mut server = new_server(parts);
        let setup_s = watch.elapsed_secs();

        let per_group = wide::BENIGN_PER_GROUP + wide::CRAFTED_PER_GROUP;
        let mut rng = StdRng::seed_from_u64(self.stream_seed);
        let mut admit_ns = Vec::new();
        let mut pass_ns = Vec::new();
        let mut terminal = 0u64;
        let mut deferred = 0u64;
        let mut arrivals = 0usize;
        while server.round() < wide::PASSES {
            let lag = arrivals % wide::GROUPS;
            let entry = lag * per_group + rng.random_range(0..per_group);
            let mut update = self.pool[entry].clone();
            update.client = arrivals;
            update.base_round = server.round().saturating_sub(lag as u64);
            let watch = Stopwatch::start();
            let report = server.receive(update);
            let nanos = watch.elapsed_nanos();
            arrivals += 1;
            match report {
                Some(report) => {
                    pass_ns.push(nanos);
                    terminal += (report.accepted + report.rejected) as u64;
                    deferred = report.deferred as u64;
                }
                None => admit_ns.push(nanos),
            }
        }
        let run_s = (admit_ns.iter().chain(&pass_ns).sum::<u64>()) as f64 * 1e-9;

        let outcome = ServerOutcome {
            detection: server.detection(),
            received: server.received(),
            stale: server.discarded_stale(),
            rounds: server.round(),
            buffered: (server.buffer_len() as u64).saturating_sub(deferred),
            deferred,
            global_digest: digest(server.global()),
        };
        let mut failures = Vec::new();
        if outcome.rounds != wide::PASSES {
            failures.push(format!(
                "completed {} of {} rounds",
                outcome.rounds,
                wide::PASSES
            ));
        }
        if !server.global().is_finite() {
            failures.push("global model is not finite".into());
        }
        let accounted = terminal + outcome.stale + outcome.buffered + outcome.deferred;
        if outcome.received != accounted {
            failures.push(format!(
                "received {} != terminal {} + stale {} + buffered {} + deferred {}",
                outcome.received, terminal, outcome.stale, outcome.buffered, outcome.deferred
            ));
        }
        if outcome.detection.total() as u64 != terminal {
            failures.push(format!(
                "detection counts {} terminal verdicts, passes reported {terminal}",
                outcome.detection.total()
            ));
        }
        drop(server);
        let layers = layers.map(|l| l.snapshot());
        if let Some(t) = &layers {
            layer_failures(t, &mut failures);
        }
        Rep {
            probe,
            setup_s,
            run_s,
            received: outcome.received,
            outcome: Outcome::Server(outcome),
            failures,
            admit_ns,
            pass_ns,
            layers,
        }
    }
}

/// FNV-1a over the bit patterns of `v`.
fn digest(v: &Vector) -> u64 {
    v.iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        (h ^ x.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
