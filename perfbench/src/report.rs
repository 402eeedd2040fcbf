//! Turning repetitions into the named metrics, and printing them.

use crate::layers::LayerTimes;
use crate::workloads::Rep;

const MIB: f64 = 1024.0 * 1024.0;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Median of `values` (the mean of the middle pair for even counts); 0 for
/// none.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank `p`-quantile (`0 < p ≤ 1`) of `values`; 0 for none.
pub fn quantile(values: &[u64], p: f64) -> u64 {
    let mut v = values.to_vec();
    v.sort_unstable();
    if v.is_empty() {
        return 0;
    }
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn secs(ns: &[u64]) -> f64 {
    ns.iter().sum::<u64>() as f64 * 1e-9
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The bounded end-to-end metrics, from untraced repetitions.
pub fn end_to_end(setup_samples: &[f64], plain: &[&Rep]) -> Vec<Metric> {
    let run: Vec<f64> = plain.iter().map(|r| r.run_s).collect();
    let rate: Vec<f64> = plain.iter().map(|r| r.received as f64 / r.run_s).collect();
    vec![
        metric("setup_s", "s", median(setup_samples)),
        metric("run_s", "s", median(&run)),
        metric("updates_per_s", "1/s", median(&rate)),
        metric(
            "peak_alloc_mib",
            "MiB",
            asyncfl_telemetry::alloc::peak_live_bytes() as f64 / MIB,
        ),
        metric("rss_hwm_mib", "MiB", vm_hwm_kib() / 1024.0),
    ]
}

/// The end-to-end figures that exist on some workloads only, from
/// untraced repetitions; 0 where the workload has no such figure.
pub fn workload_figures(plain: &[&Rep], has_attackers: bool) -> Vec<Metric> {
    let first = plain[0];
    let detection = first.detection();
    let (precision, recall) = if has_attackers {
        (detection.precision(), detection.recall())
    } else {
        (0.0, 0.0)
    };
    let admit: Vec<u64> = plain
        .iter()
        .flat_map(|r| r.admit_ns.iter().copied())
        .collect();
    let pass: Vec<u64> = plain
        .iter()
        .flat_map(|r| r.pass_ns.iter().copied())
        .collect();
    vec![
        metric("accuracy", "frac", first.accuracy().unwrap_or(0.0)),
        metric("precision", "frac", precision),
        metric("recall", "frac", recall),
        metric("admit_us_p50", "us", quantile(&admit, 0.5) as f64 * 1e-3),
        metric("admit_us_p99", "us", quantile(&admit, 0.99) as f64 * 1e-3),
        metric("pass_ms_p50", "ms", quantile(&pass, 0.5) as f64 * 1e-6),
        metric("pass_ms_p90", "ms", quantile(&pass, 0.9) as f64 * 1e-6),
    ]
}

/// Per-layer metrics of one traced repetition. `setup_craft_ns` is attack
/// work done while generating the inputs (the server replay's GD pool).
pub fn layers(rep: &Rep, t: &LayerTimes, setup_craft_ns: &[u64]) -> Vec<Metric> {
    let kickoff_s = t.first_train_start_ns.unwrap_or(0) as f64 * 1e-9;
    let train_s = secs(&t.train_ns);
    let craft_s = secs(&t.craft_ns);
    let arrival_s = secs(&t.arrival_ns);
    let pass_s = secs(&t.pass_ns);
    let aggregate_s = secs(&t.aggregate_ns);
    let evaluate_s = t.evaluate_ns as f64 * 1e-9;
    let attributed = kickoff_s + train_s + craft_s + arrival_s + pass_s + aggregate_s + evaluate_s;
    vec![
        metric("spawner.kickoff_s", "s", kickoff_s),
        metric("spawner.resident_max", "count", t.resident_max as f64),
        metric("train.s", "s", train_s),
        metric("train.calls", "count", t.train_ns.len() as f64),
        metric(
            "train.us_p50",
            "us",
            quantile(&t.train_ns, 0.5) as f64 * 1e-3,
        ),
        metric(
            "train.us_p99",
            "us",
            quantile(&t.train_ns, 0.99) as f64 * 1e-3,
        ),
        metric("train.alloc_bytes", "bytes", t.train_alloc_bytes as f64),
        metric("attack.craft_s", "s", craft_s + secs(setup_craft_ns)),
        metric(
            "attack.craft_calls",
            "count",
            (t.craft_ns.len() + setup_craft_ns.len()) as f64,
        ),
        metric("filter.arrival_s", "s", arrival_s),
        metric("filter.arrival_calls", "count", t.arrival_ns.len() as f64),
        metric(
            "filter.arrival_us_p50",
            "us",
            quantile(&t.arrival_ns, 0.5) as f64 * 1e-3,
        ),
        metric("filter.pass_s", "s", pass_s),
        metric("filter.pass_calls", "count", t.pass_ns.len() as f64),
        metric(
            "filter.pass_ms_p50",
            "ms",
            quantile(&t.pass_ns, 0.5) as f64 * 1e-6,
        ),
        metric(
            "filter.pass_alloc_bytes",
            "bytes",
            t.pass_alloc_bytes as f64,
        ),
        metric("filter.distances", "count", t.distances as f64),
        metric(
            "filter.rescore_frac",
            "frac",
            ratio(t.rescored, t.arrival_ns.len() as u64),
        ),
        metric(
            "filter.reject_frac",
            "frac",
            ratio(t.pass_rejected, t.pass_inputs),
        ),
        metric(
            "filter.defer_frac",
            "frac",
            ratio(t.pass_deferred, t.pass_inputs),
        ),
        metric("kmeans.s", "s", secs(&t.kmeans_ns)),
        metric("kmeans.calls", "count", t.kmeans_ns.len() as f64),
        metric("aggregate.s", "s", aggregate_s),
        metric("aggregate.calls", "count", t.aggregate_ns.len() as f64),
        metric(
            "aggregate.alloc_bytes",
            "bytes",
            t.aggregate_alloc_bytes as f64,
        ),
        metric("evaluate.s", "s", evaluate_s),
        metric("engine.other_s", "s", rep.run_s - attributed),
        metric("engine.attributed_frac", "frac", attributed / rep.run_s),
        metric("engine.loop_events", "count", rep.loop_events() as f64),
        metric(
            "engine.discarded_stale",
            "count",
            rep.discarded_stale() as f64,
        ),
        metric("tensor.bytes_scored", "bytes", t.bytes_scored as f64),
    ]
}

/// Element-wise median of metric lists that share names and order.
pub fn median_metrics(runs: &[Vec<Metric>]) -> Vec<Metric> {
    let Some(first) = runs.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = runs.iter().map(|run| run[i].value).collect();
            metric(m.name, m.unit, median(&values))
        })
        .collect()
}

/// The kernel's peak resident set size of this process in KiB (`VmHWM`),
/// or 0 where `/proc` does not provide it.
pub fn vm_hwm_kib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// Human-readable table lines: `name value unit`.
pub fn table(title: &str, metrics: &[Metric]) -> String {
    let mut out = format!("# {title}\n");
    for m in metrics {
        out.push_str(&format!(
            "#   {:<26} {:>18.6} {}\n",
            m.name, m.value, m.unit
        ));
    }
    out
}

/// The machine-readable result line: one JSON object.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // Non-finite values are not JSON; they only arise from a broken
            // run, which the checks already flag.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
