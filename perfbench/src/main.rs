//! Command-line entry of the benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload in this process for about `--seconds` seconds, checks
//! its outputs, prints a human-readable table and, as the last line, one
//! JSON object with the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). Exits 1 when a check fails and 2 on bad usage.

use asyncfl_perfbench::report::{self, Metric};
use asyncfl_perfbench::workloads::{Inputs, Probe, Rep, Workload};
use asyncfl_telemetry::alloc::CountingAllocator;
use asyncfl_telemetry::Stopwatch;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Set-up is repeated at least this often, and for at least
/// [`SETUP_MIN_SECS`], so its median is steady even when one construction
/// takes microseconds.
const SETUP_MIN_SAMPLES: usize = 5;
const SETUP_MIN_SECS: f64 = 0.25;
const SETUP_MAX_SAMPLES: usize = 2_000;

/// Plain (`--trace 0`) or traced (`--trace 1`) runs made even when one run
/// outlasts `--seconds`, so no reported median rests on a single run.
const MIN_REPEATS: usize = 2;

const USAGE: &str = "usage: perfbench --workload <paper_cifar|million_clients|server_wide> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                });
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Every repetition of this process, with its check results.
#[derive(Default)]
struct Tally {
    reps: Vec<Rep>,
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Runs one repetition; a panic fails it instead of the process.
    /// Returns whether the repetition completed.
    fn run(&mut self, inputs: &Inputs, probe: Probe) -> bool {
        match catch_unwind(AssertUnwindSafe(|| inputs.run(probe))) {
            Ok(rep) => {
                eprintln!(
                    "perfbench: {probe:?} run: setup {:.6} s, run {:.6} s, {} updates",
                    rep.setup_s, rep.run_s, rep.received
                );
                self.attempted += rep.received;
                let mut failed = !rep.failures.is_empty();
                for f in &rep.failures {
                    self.failures.push(format!("{probe:?} run: {f}"));
                }
                if let Some(first) = self.reps.first() {
                    if first.outcome != rep.outcome {
                        self.failures.push(format!(
                            "{probe:?} run differs from the first run of the same seed"
                        ));
                        failed = true;
                    }
                }
                if failed {
                    self.failed += rep.received.max(1);
                }
                self.reps.push(rep);
                true
            }
            Err(_) => {
                self.failures.push(format!("{probe:?} run panicked"));
                self.attempted += 1;
                self.failed += 1;
                false
            }
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let inputs = Inputs::generate(args.workload, args.seed);

    let mut setup_samples = Vec::new();
    let setup_watch = Stopwatch::start();
    while setup_samples.len() < SETUP_MAX_SAMPLES
        && (setup_samples.len() < SETUP_MIN_SAMPLES || setup_watch.elapsed_secs() < SETUP_MIN_SECS)
    {
        setup_samples.push(inputs.setup_once());
    }

    // Untraced runs use bare trait objects. Each process also makes one
    // decorated run: `--trace 0` a checked run without a sink first, so the
    // per-pass checks cover every invocation; `--trace 1` the traced runs.
    // Every run of the seed must reproduce the first one's outcome.
    let mut tally = Tally::default();
    let (first, repeated) = if args.trace {
        (Probe::Plain, Probe::Traced)
    } else {
        (Probe::Checked, Probe::Plain)
    };
    let watch = Stopwatch::start();
    let mut ok = tally.run(&inputs, first);
    let mut repeats = 0;
    while ok && (repeats < MIN_REPEATS || watch.elapsed_secs() < args.seconds) {
        ok = tally.run(&inputs, repeated);
        repeats += 1;
    }
    setup_samples.extend(tally.reps.iter().map(|r| r.setup_s));
    let of =
        |probe: Probe| -> Vec<&Rep> { tally.reps.iter().filter(|r| r.probe == probe).collect() };
    let plain = of(Probe::Plain);
    let traced = of(Probe::Traced);

    let correct = tally.failures.is_empty() && !plain.is_empty();
    for f in &tally.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    if plain.is_empty() {
        let attempted = tally.attempted.max(1);
        println!("{}", report::json_line(false, attempted, attempted, &[]));
        return ExitCode::FAILURE;
    }

    let name = args.workload.name();
    let figures = report::workload_figures(&plain, inputs.has_attackers());
    let (title, mut metrics) = if args.trace {
        let per_run: Vec<Vec<Metric>> = traced
            .iter()
            .filter_map(|rep| {
                Some(report::layers(
                    rep,
                    rep.layers.as_ref()?,
                    inputs.setup_craft_ns(),
                ))
            })
            .collect();
        let mut layers = report::median_metrics(&per_run);
        let run_s =
            |reps: &[&Rep]| report::median(&reps.iter().map(|r| r.run_s).collect::<Vec<_>>());
        layers.push(Metric {
            name: "trace.overhead_frac",
            unit: "frac",
            value: run_s(&traced) / run_s(&plain) - 1.0,
        });
        ("per-layer metrics (traced)", layers)
    } else {
        (
            "end-to-end metrics",
            report::end_to_end(&setup_samples, &plain),
        )
    };
    print!("{}", report::table(&format!("{name}: {title}"), &metrics));
    print!(
        "{}",
        report::table(
            &format!("{name}: workload figures (0 where the workload has none)"),
            &figures
        )
    );
    println!(
        "# {name}: {} plain, {} traced, {} setup samples; checks {}",
        plain.len(),
        traced.len(),
        setup_samples.len(),
        if correct { "passed" } else { "FAILED" }
    );
    // The workload figures cannot be bounded (see README.md), so they ride
    // with the unbounded per-layer metrics.
    if args.trace {
        metrics.extend(figures);
    }
    println!(
        "{}",
        report::json_line(correct, tally.attempted.max(1), tally.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
