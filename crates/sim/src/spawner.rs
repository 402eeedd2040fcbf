//! Lazy client materialization: the million-client memory contract.
//!
//! The deterministic engine used to precompute every client's dataset,
//! latency factor, attacker flag and RNG stream into `O(num_clients)`
//! resident `Vec`s, which made `--clients 1_000_000` memory-infeasible.
//! [`ClientSpawner`] replaces those arrays with a *pure derivation*: a
//! client's full state is a function of `(seed, client id)` alone, replayed
//! on demand via `asyncfl_rng::stream::substream(seed, c)` in exactly the
//! draw order the precomputing constructor used —
//!
//! 1. optional partition-size jitter draw (only when `partition_jitter > 0`),
//! 2. the dataset shard draws (`Task::client_dataset`),
//! 3. the persistent latency-factor draw,
//! 4. everything after is the client's live stream, carried in its
//!    in-flight [`ClientState`].
//!
//! Because the order is identical, every paper-scale golden and
//! `tests/determinism.rs` pin holds byte-for-byte; because it is a pure
//! function, nothing needs to stay resident.
//!
//! Kickoff ([`ClientSpawner::spawn`]) needs only steps 1, 3 and 4, but the
//! factor draw sits behind the dataset draws, so it replays step 2
//! draw-only ([`Task::skip_client_dataset`]): the same RNG draws, no
//! features generated, no shard built. The deterministic engine keeps each
//! kicked-off client as a 32-byte [`WaveEntry`] ([`ClientSpawner::kickoff`])
//! until its first completion, and [`ClientSpawner::resume`] rebuilds the
//! in-flight state from it. Dataset shards — the only heavy piece — are
//! built when a client trains ([`ClientSpawner::dataset`]). When the whole
//! population fits the shard-cache capacity, each shard is kept in a slot
//! indexed by client id after its first build; otherwise no shard is kept
//! and every fetch regenerates it, so resident shards are bounded by the
//! cache capacity, never by `num_clients` alone. Results cannot depend on
//! either choice, since a regenerated shard is byte-equal to the first.
//!
//! The attacker set is derived once with
//! [`select_prefix`](asyncfl_data::sampling::select_prefix) — the same
//! master-stream draws as the historical full Fisher–Yates permutation,
//! `O(num_malicious)` memory — and queried by binary search.

use asyncfl_data::partition::Partitioner;
use asyncfl_data::synthetic::Task;
use asyncfl_data::Dataset;
use asyncfl_rng::rngs::StdRng;
use asyncfl_rng::RngExt;
use std::sync::{Arc, OnceLock};

use crate::latency::LatencyModel;

/// A client's RNG stream was requested while a worker already held it.
///
/// The engine moves an in-flight client's generator into its training task
/// at dispatch; a second checkout before the result returns would silently
/// train on a placeholder stream (the historical bug this type surfaces).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RngCheckedOut {
    /// The client whose stream was requested twice.
    pub client: usize,
}

impl std::fmt::Display for RngCheckedOut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "client {} RNG already checked out to an in-flight training job",
            self.client
        )
    }
}

impl std::error::Error for RngCheckedOut {}

/// The live, cheap (24-byte) state of one in-flight client, carried in
/// the engine's event-queue entry from dispatch to completion.
///
/// The RNG stream is either home or checked out, tracked by an explicit
/// flag beside a bare `StdRng` (an `Option<StdRng>` would cost a second
/// word per client): [`ClientState::checkout_rng`] hands the stream to a
/// job shipped to the worker pool and [`ClientState::check_in_rng`]
/// returns the advanced stream with the result. While the stream is out,
/// the slot keeps a stale copy that no accessor hands out, so a double
/// checkout is an [`RngCheckedOut`] error instead of a silent placeholder
/// stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientState {
    rng: StdRng,
    /// Persistent latency factor (the client's "device class").
    pub factor: f64,
    /// Local partition size — the update's aggregation weight.
    pub size: u32,
    /// Ground-truth attacker flag.
    pub malicious: bool,
    rng_home: bool,
}

impl ClientState {
    /// Takes the client's RNG stream for a training job.
    ///
    /// # Errors
    ///
    /// [`RngCheckedOut`] if the stream is already held by an in-flight
    /// job — the double-dispatch condition that must abort the run.
    pub fn checkout_rng(&mut self, client: usize) -> Result<StdRng, RngCheckedOut> {
        if !self.rng_home {
            return Err(RngCheckedOut { client });
        }
        self.rng_home = false;
        Ok(self.rng.clone())
    }

    /// Returns the advanced stream after the job completes.
    pub fn check_in_rng(&mut self, rng: StdRng) {
        self.rng = rng;
        self.rng_home = true;
    }

    /// Whether the stream is currently home (not shipped to a worker).
    pub fn rng_is_home(&self) -> bool {
        self.rng_home
    }

    /// Mutable access to the home stream for event-loop draws (cycle
    /// scheduling, participation sampling, dropout).
    ///
    /// # Errors
    ///
    /// [`RngCheckedOut`] if the stream is currently shipped to a worker.
    pub fn rng_mut(&mut self, client: usize) -> Result<&mut StdRng, RngCheckedOut> {
        if self.rng_home {
            Ok(&mut self.rng)
        } else {
            Err(RngCheckedOut { client })
        }
    }
}

/// A client's kickoff job as the deterministic engine's wave holds it:
/// 32 bytes, one per client (pinned by a unit test).
///
/// It keeps what [`ClientState`] needs and cannot recompute cheaply — the
/// live RNG stream (positioned after the first cycle-duration draw), the
/// latency factor and the partition size — plus the client id and the
/// first cycle's completion time. The attacker flag is not stored:
/// [`ClientSpawner::resume`] looks it up again by binary search.
#[derive(Debug, Clone)]
pub struct WaveEntry {
    completes_at: f64,
    rng: StdRng,
    factor: f64,
    client: u32,
    size: u32,
}

impl WaveEntry {
    /// Virtual time at which the client's first training cycle completes.
    pub fn completes_at(&self) -> f64 {
        self.completes_at
    }

    /// The client this entry kicks off.
    pub fn client(&self) -> u32 {
        self.client
    }
}

/// Materializes client state on demand from `(seed, client id)`.
///
/// Shared by both engines (the deterministic runner borrows it across its
/// worker pool, the threaded engine across client threads), so it is
/// `Sync`: the only interior state is the shard cache, one `OnceLock`
/// slot per client.
pub struct ClientSpawner {
    seed: u64,
    num_clients: usize,
    partitioner: Partitioner,
    partition_size: usize,
    partition_jitter: f64,
    latency: LatencyModel,
    task: Arc<Task>,
    /// Sorted attacker ids — `O(num_malicious)` memory.
    malicious: Vec<usize>,
    poison_labels: bool,
    /// One shard slot per client when the whole population fits the cache
    /// capacity, filled on first fetch and never evicted; `None` when it
    /// does not fit, and every fetch regenerates the shard.
    cache: Option<Vec<OnceLock<Arc<Dataset>>>>,
}

impl ClientSpawner {
    /// Builds a spawner over `num_clients` clients.
    ///
    /// `malicious` is the sorted attacker id set (from
    /// [`select_prefix`](asyncfl_data::sampling::select_prefix)). Shards
    /// are cached only if `num_clients <= cache_capacity`: then every
    /// client's shard is kept after its first build; otherwise none is.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        seed: u64,
        num_clients: usize,
        partitioner: Partitioner,
        partition_size: usize,
        partition_jitter: f64,
        latency: LatencyModel,
        task: Arc<Task>,
        malicious: Vec<usize>,
        cache_capacity: usize,
    ) -> Self {
        debug_assert!(malicious.windows(2).all(|w| w[0] < w[1]));
        Self {
            seed,
            num_clients,
            partitioner,
            partition_size,
            partition_jitter,
            latency,
            task,
            malicious,
            poison_labels: false,
            cache: (num_clients <= cache_capacity)
                .then(|| (0..num_clients).map(|_| OnceLock::new()).collect()),
        }
    }

    /// The population size this spawner derives over.
    pub fn num_clients(&self) -> usize {
        self.num_clients
    }

    /// Ground-truth attacker flag for `client`.
    pub fn is_malicious(&self, client: usize) -> bool {
        self.malicious.binary_search(&client).is_ok()
    }

    /// Enables label-flip data poisoning: every malicious client's derived
    /// shard has its labels cyclically shifted (the client then trains
    /// honestly on corrupted data). Clears the shard cache, since cached
    /// shards were derived unpoisoned.
    pub fn set_poison_labels(&mut self) {
        self.poison_labels = true;
        for slot in self.cache.iter_mut().flatten() {
            slot.take();
        }
    }

    /// Whether label-flip poisoning is enabled.
    pub fn poison_labels(&self) -> bool {
        self.poison_labels
    }

    /// Number of dataset shards currently cached — the
    /// `resident_client_states` gauge, and the quantity the memory-flatness
    /// regression test bounds by cache capacity instead of `num_clients`.
    /// Always 0 when the population does not fit the cache.
    pub fn resident_states(&self) -> usize {
        self.cache
            .iter()
            .flatten()
            .filter(|slot| slot.get().is_some())
            .count()
    }

    /// Step 1 of the module's draw order: a fresh stream for `client` and
    /// its partition size (the jitter draw, only when jitter is on).
    ///
    /// The size is stored as `u32`. [`SimConfig::validate`] bounds the
    /// jittered partition size below `u32::MAX`, so the saturation here
    /// is unreachable from either engine; it only keeps a hand-built
    /// spawner's shard length and aggregation weight equal.
    ///
    /// [`SimConfig::validate`]: crate::config::SimConfig::validate
    fn begin(&self, client: usize) -> (StdRng, u32) {
        let mut rng = asyncfl_rng::stream::substream(self.seed, client as u64);
        let size = if self.partition_jitter > 0.0 {
            let factor = 1.0 + self.partition_jitter * (2.0 * rng.random::<f64>() - 1.0);
            ((self.partition_size as f64 * factor).round() as usize).max(1)
        } else {
            self.partition_size
        };
        (rng, u32::try_from(size).unwrap_or(u32::MAX))
    }

    /// Step 3 of the module's draw order: the latency factor, after which
    /// `rng` is the client's live stream.
    fn finish(&self, client: usize, mut rng: StdRng, size: u32) -> ClientState {
        let factor = self.latency.draw_factor(&mut rng);
        ClientState {
            rng,
            factor,
            size,
            malicious: self.is_malicious(client),
            rng_home: true,
        }
    }

    /// The full per-client derivation — the pure replay of the draw order
    /// documented on the module. Returns the in-flight state (with the
    /// live RNG positioned after the factor draw) and the derived shard.
    fn derive(&self, client: usize) -> (ClientState, Arc<Dataset>) {
        let (mut rng, size) = self.begin(client);
        let mut data = self
            .task
            .client_dataset(&self.partitioner, client, size as usize, &mut rng);
        let state = self.finish(client, rng, size);
        if self.poison_labels && state.malicious {
            data = data.with_flipped_labels();
        }
        (state, Arc::new(data))
    }

    /// Materializes `client`'s in-flight state (live RNG, latency factor,
    /// partition size, attacker flag), as it stands at kickoff.
    ///
    /// Equal to `derive(client).0`, but draw-only: the dataset step is
    /// replayed by [`Task::skip_client_dataset`], so no shard is built and
    /// the shard cache is left untouched.
    pub fn spawn(&self, client: usize) -> ClientState {
        let (mut rng, size) = self.begin(client);
        self.task
            .skip_client_dataset(&self.partitioner, size as usize, &mut rng);
        self.finish(client, rng, size)
    }

    /// The deterministic engine's kickoff: [`spawn`](Self::spawn), then the
    /// first cycle's duration drawn from the client's stream, compacted into
    /// a [`WaveEntry`].
    pub fn kickoff(&self, client: u32) -> WaveEntry {
        let ClientState {
            mut rng,
            factor,
            size,
            ..
        } = self.spawn(client as usize);
        let completes_at = self.latency.cycle_duration(factor, &mut rng);
        WaveEntry {
            completes_at,
            rng,
            factor,
            client,
            size,
        }
    }

    /// Rebuilds the in-flight state a [`WaveEntry`] compacts: the state
    /// [`spawn`](Self::spawn) returns, after the first cycle-duration draw.
    pub fn resume(&self, entry: &WaveEntry) -> ClientState {
        ClientState {
            rng: entry.rng.clone(),
            factor: entry.factor,
            size: entry.size,
            malicious: self.is_malicious(entry.client as usize),
            rng_home: true,
        }
    }

    /// The client's dataset shard: its cache slot (one `Arc` clone after
    /// the first build) when the population fits the cache, a fresh
    /// regeneration otherwise.
    pub fn dataset(&self, client: usize) -> Arc<Dataset> {
        match self.cache.as_ref().and_then(|slots| slots.get(client)) {
            Some(slot) => Arc::clone(slot.get_or_init(|| self.derive(client).1)),
            None => self.derive(client).1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncfl_data::DatasetProfile;
    use asyncfl_rng::SeedableRng;

    fn test_spawner(cache_capacity: usize) -> ClientSpawner {
        let mut master = StdRng::seed_from_u64(7);
        let task = Arc::new(DatasetProfile::Mnist.build_task(&mut master));
        ClientSpawner::new(
            7,
            16,
            Partitioner::dirichlet(0.5),
            32,
            0.0,
            LatencyModel::zipf(1.2, 4),
            task,
            vec![1, 5, 9],
            cache_capacity,
        )
    }

    /// Satellite regression: the dispatch RNG checkout is an explicit take
    /// that surfaces a double checkout instead of handing out a silent
    /// placeholder stream.
    #[test]
    fn double_rng_checkout_is_an_error() {
        let spawner = test_spawner(16);
        let mut state = spawner.spawn(3);
        assert!(state.rng_is_home());
        let rng = state.checkout_rng(3).expect("first checkout succeeds");
        assert!(!state.rng_is_home());
        assert_eq!(state.checkout_rng(3), Err(RngCheckedOut { client: 3 }));
        state.check_in_rng(rng);
        assert!(state.rng_is_home());
        assert!(state.checkout_rng(3).is_ok());
    }

    /// The draw-only kickoff replay must leave every client exactly where
    /// the full derivation does: same live RNG state, factor, size and
    /// attacker flag — across profiles (all four draw label noise),
    /// partitioners (Dirichlet 0.001 hits the degenerate one-hot draw),
    /// size jitter and label poisoning — and must build no shard.
    #[test]
    fn spawn_replays_the_full_derivation_without_building_shards() {
        // Spawner seed 887 puts a degenerate Dirichlet(0.001) draw among
        // clients 0..24 both with and without the jitter draw in front.
        const SEED: u64 = 887;
        let degenerate = |client: usize, jitter: f64, classes: usize| {
            let mut rng = asyncfl_rng::stream::substream(SEED, client as u64);
            if jitter > 0.0 {
                let _ = rng.random::<f64>();
            }
            let gammas: Vec<f64> = (0..classes)
                .map(|_| asyncfl_rng::dist::gamma(&mut rng, 0.001))
                .collect();
            gammas.iter().sum::<f64>() <= 0.0
        };
        let partitioners = [
            Partitioner::iid(),
            Partitioner::dirichlet(0.1),
            Partitioner::dirichlet(0.5),
            Partitioner::dirichlet(0.001),
        ];
        for profile in DatasetProfile::ALL {
            let mut master = StdRng::seed_from_u64(11);
            let task = Arc::new(profile.build_task(&mut master));
            for partitioner in &partitioners {
                for jitter in [0.0, 0.3] {
                    assert!((0..24).any(|c| degenerate(c, jitter, task.num_classes())));
                    for poison in [false, true] {
                        let mut spawner = ClientSpawner::new(
                            SEED,
                            24,
                            partitioner.clone(),
                            6,
                            jitter,
                            LatencyModel::zipf(1.2, 4),
                            Arc::clone(&task),
                            vec![2, 7, 19],
                            64,
                        );
                        if poison {
                            spawner.set_poison_labels();
                        }
                        for c in 0..24 {
                            assert_eq!(
                                spawner.spawn(c),
                                spawner.derive(c).0,
                                "{profile:?} {partitioner:?} jitter {jitter} \
                                 poison {poison} client {c}"
                            );
                        }
                        assert_eq!(spawner.resident_states(), 0);
                    }
                }
            }
        }
    }

    #[test]
    fn derivation_is_a_pure_function_of_seed_and_client() {
        let spawner = test_spawner(16);
        let a = spawner.spawn(4);
        let data_a = spawner.dataset(4);
        let b = spawner.spawn(4);
        let data_b = spawner.dataset(4);
        assert_eq!(a, b);
        assert_eq!(*data_a, *data_b);
        assert_eq!(a.factor, spawner.spawn(4).factor);
    }

    #[test]
    fn shards_are_cached_only_when_the_population_fits() {
        // 16 clients over 4 slots: nothing is kept, every fetch regenerates
        // a byte-equal shard.
        let uncached = test_spawner(4);
        let first = uncached.dataset(0);
        let again = uncached.dataset(0);
        assert_eq!(*again, *first);
        assert!(!Arc::ptr_eq(&first, &again));
        assert_eq!(uncached.resident_states(), 0);

        // 16 clients over 16 slots: each shard is built once and kept.
        let cached = test_spawner(16);
        let first = cached.dataset(3);
        assert_eq!(cached.resident_states(), 1);
        assert!(Arc::ptr_eq(&first, &cached.dataset(3)));
        assert_eq!(*first, *uncached.dataset(3));
        for c in 0..16 {
            let _ = cached.dataset(c);
        }
        assert_eq!(cached.resident_states(), 16);
    }

    #[test]
    fn wave_entry_stays_at_32_bytes() {
        // One entry per client: at 10⁶ clients every byte here is ~1 MB of
        // the run's peak.
        assert_eq!(std::mem::size_of::<WaveEntry>(), 32);
    }

    #[test]
    fn kickoff_resumes_to_the_spawned_state_after_one_cycle_draw() {
        let spawner = test_spawner(16);
        let latency = LatencyModel::zipf(1.2, 4);
        for c in 0..16u32 {
            let mut state = spawner.spawn(c as usize);
            let factor = state.factor;
            let dur = latency.cycle_duration(factor, state.rng_mut(c as usize).unwrap());
            let entry = spawner.kickoff(c);
            assert_eq!(entry.client(), c);
            assert_eq!(entry.completes_at().to_bits(), dur.to_bits());
            assert_eq!(spawner.resume(&entry), state, "client {c}");
        }
        assert_eq!(spawner.resident_states(), 0);
    }

    #[test]
    fn malicious_set_queries_by_binary_search() {
        let spawner = test_spawner(16);
        let flags: Vec<bool> = (0..16).map(|c| spawner.is_malicious(c)).collect();
        let expected: Vec<bool> = (0..16).map(|c| [1, 5, 9].contains(&c)).collect();
        assert_eq!(flags, expected);
        let states: Vec<ClientState> = (0..16).map(|c| spawner.spawn(c)).collect();
        for (c, s) in states.iter().enumerate() {
            assert_eq!(s.malicious, spawner.is_malicious(c));
            assert!(s.factor >= 1.0 && s.size == 32);
        }
    }

    #[test]
    fn poisoning_flips_only_malicious_labels_and_invalidates_cache() {
        let mut spawner = test_spawner(16);
        let benign_before = spawner.dataset(0);
        let malicious_before = spawner.dataset(1);
        spawner.set_poison_labels();
        assert_eq!(spawner.resident_states(), 0, "cache must be invalidated");
        assert!(spawner.poison_labels());
        let benign_after = spawner.dataset(0);
        let malicious_after = spawner.dataset(1);
        assert_eq!(*benign_before, *benign_after);
        assert_ne!(*malicious_before, *malicious_after);
        assert_eq!(*malicious_after, malicious_before.with_flipped_labels());
    }
}
