//! End-to-end benchmark of the uSystolic reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path ubench/Cargo.toml -- \
//!     --workload fig9_infer|dse_sweep|fleet_serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload drives the public API of one user-facing study in a
//! single-threaded, host-side closed loop with one client: ops run back
//! to back for `--seconds`, then untimed oracle checks compare the
//! outputs against the bit-serial or exact-tier reference. With
//! `--trace 0` the run reports the end-to-end metrics, timed on the
//! probe clock of [`probe`] so that the shared host's load cancels; with
//! `--trace 1` it alternates untraced and traced ops and folds the traced
//! spans and counters into per-layer metrics. The last stdout line is one JSON
//! object; the lines before it list every metric by name with its unit.
//! See `ubench/README.md` for the workloads, the metric map and why the
//! timings come from long runs.

mod dse;
mod fig9;
mod fleet;
mod fold;
mod probe;

use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median. The first one
/// builds the state the ops use; the others are spread evenly over the
/// timed phase, so the median samples the same host load as the ops.
const SETUPS: usize = 9;

/// The seed whose model metrics each workload pins.
pub const DEFAULT_SEED: u64 = 1;

const FIG9: &str = "fig9_infer";
const DSE: &str = "dse_sweep";
const FLEET: &str = "fleet_serve";
const ALL: &[&str] = &[FIG9, DSE, FLEET];

/// The end-to-end metrics (`--trace 0`), in `BENCHMARK.json` order. The
/// times are on the probe clock. The wall-clock figures are per-layer:
/// the shared host's load moves them by more than the bounds allow (see
/// `ubench/README.md`).
const END_TO_END: [(&str, &str, &[&str]); 4] = [
    ("ops_per_s", "1/s", ALL),
    ("op_ms_p90", "ms", ALL),
    ("setup_s", "s", ALL),
    ("peak_rss_mb", "MB", ALL),
];

/// The per-layer metrics (`--trace 1`), in `BENCHMARK.json` order, with
/// the workloads that report each one. A workload must report every
/// metric it owns; the others read 0 on it.
const PER_LAYER: [(&str, &str, &[&str]); 69] = [
    ("wall.ops_per_s", "1/s", ALL),
    ("wall.op_ms_p50", "ms", ALL),
    ("wall.op_ms_p90", "ms", ALL),
    ("wall.setup_s", "s", ALL),
    ("host.probe_us", "us", ALL),
    ("models.predict_ms.rate8", "ms", &[FIG9]),
    ("models.predict_ms.rate12", "ms", &[FIG9]),
    ("models.predict_ms.temporal8", "ms", &[FIG9]),
    ("models.predict_ms.temporal12", "ms", &[FIG9]),
    ("models.predict_ms.ugemmh8", "ms", &[FIG9]),
    ("models.predict_ms.ugemmh12", "ms", &[FIG9]),
    ("models.glue_ms", "ms", &[FIG9]),
    ("models.op_share.rate8", "frac", &[FIG9]),
    ("models.op_share.rate12", "frac", &[FIG9]),
    ("models.op_share.temporal8", "frac", &[FIG9]),
    ("models.op_share.temporal12", "frac", &[FIG9]),
    ("models.op_share.ugemmh8", "frac", &[FIG9]),
    ("models.op_share.ugemmh12", "frac", &[FIG9]),
    ("core.execute_ms.rate8", "ms", &[FIG9]),
    ("core.execute_ms.rate12", "ms", &[FIG9]),
    ("core.execute_ms.temporal8", "ms", &[FIG9]),
    ("core.execute_ms.temporal12", "ms", &[FIG9]),
    ("core.execute_ms.ugemmh8", "ms", &[FIG9]),
    ("core.execute_ms.ugemmh12", "ms", &[FIG9]),
    ("core.tile_us.rate8", "us", &[FIG9]),
    ("core.tile_us.rate12", "us", &[FIG9]),
    ("core.tile_us.temporal8", "us", &[FIG9]),
    ("core.tile_us.temporal12", "us", &[FIG9]),
    ("core.tile_us.ugemmh8", "us", &[FIG9]),
    ("core.tile_us.ugemmh12", "us", &[FIG9]),
    ("core.tiles.rate8", "count", &[FIG9]),
    ("core.tiles.rate12", "count", &[FIG9]),
    ("core.tiles.temporal8", "count", &[FIG9]),
    ("core.tiles.temporal12", "count", &[FIG9]),
    ("core.tiles.ugemmh8", "count", &[FIG9]),
    ("core.tiles.ugemmh12", "count", &[FIG9]),
    ("core.mac_windows.rate8", "count", &[FIG9]),
    ("core.mac_windows.rate12", "count", &[FIG9]),
    ("core.mac_windows.temporal8", "count", &[FIG9]),
    ("core.mac_windows.temporal12", "count", &[FIG9]),
    ("core.mac_windows.ugemmh8", "count", &[FIG9]),
    ("core.mac_windows.ugemmh12", "count", &[FIG9]),
    ("core.exec_overhead_frac", "frac", &[FIG9]),
    ("core.saturation_events", "count", &[FIG9]),
    ("core.kernel_fallbacks", "count", &[FIG9]),
    ("top1_pct", "%", &[FIG9]),
    ("sim.simulate_network_ms.bp", "ms", &[DSE]),
    ("sim.simulate_network_ms.bs", "ms", &[DSE]),
    ("sim.simulate_network_ms.ug", "ms", &[DSE]),
    ("sim.simulate_network_ms.ur", "ms", &[DSE]),
    ("sim.simulate_network_ms.ut", "ms", &[DSE]),
    ("sim.host_us_per_layer", "us", &[DSE]),
    ("sim.distinct_shape_frac", "frac", &[DSE]),
    ("des.events_dispatched", "count", &[DSE, FLEET]),
    ("hw.evaluate_ms", "ms", &[DSE]),
    ("sim_gcycles", "Gcycles", &[DSE]),
    ("serve.call_ms.cycle", "ms", &[FLEET]),
    ("serve.call_ms.analytic", "ms", &[FLEET]),
    ("serve.rederive_frac", "frac", &[FLEET]),
    ("sim.layer_profile_us", "us", &[FLEET]),
    ("des.host_ns_per_event", "ns", &[FLEET]),
    ("serve.batches", "count", &[FLEET]),
    ("serve.mean_utilization", "frac", &[FLEET]),
    ("serve.max_queue_depth", "count", &[FLEET]),
    ("fleet_p99_ms", "sim_ms", &[FLEET]),
    ("failed_frac", "frac", ALL),
    ("obs.trace_overhead_frac.fig9_infer", "frac", &[FIG9]),
    ("obs.trace_overhead_frac.dse_sweep", "frac", &[DSE]),
    ("obs.trace_overhead_frac.fleet_serve", "frac", &[FLEET]),
];

/// A named measurement; the unit comes from the metric tables above.
pub type Metric = (String, f64);

/// One benchmark workload: set-up, a homogeneous op, and its oracle.
///
/// The op carries the benchmark's spans ([`fold::span`]), which record
/// nothing without a session: the traced run installs a session around
/// the same op the untraced run times.
pub trait Workload: Sized {
    /// Trace events one op records; a traced op that records more fails.
    const TRACE_CAPACITY: usize;

    /// Builds the inputs from the seed and warms up: runs the ops whose
    /// outputs later ops and the oracle compare against.
    ///
    /// # Errors
    ///
    /// A description of the set-up failure.
    fn setup(seed: u64) -> Result<Self, String>;

    /// Runs op `i`. An error, or an output that differs from an earlier
    /// run of the same op, counts as a failed op.
    ///
    /// # Errors
    ///
    /// A description of the failure.
    fn op(&mut self, i: usize) -> Result<(), String>;

    /// Folds the session of a traced run of op `i` into the per-layer
    /// totals, and runs the calls that only the traced run makes.
    ///
    /// # Errors
    ///
    /// A description of the failure, including a span or counter the op
    /// must have recorded and did not.
    fn absorb(&mut self, i: usize, fold: &fold::Fold) -> Result<(), String>;

    /// Untimed oracle checks after the timed phase: returns the number
    /// of failed checks and the workload's model metrics (deterministic
    /// in the seed, and pinned at [`DEFAULT_SEED`]).
    ///
    /// # Errors
    ///
    /// A description of a failure that prevents checking at all.
    fn verify(&mut self) -> Result<(u64, Vec<Metric>), String>;

    /// The per-layer metrics folded by [`Workload::absorb`].
    fn layer_metrics(&self) -> Vec<Metric>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag}: missing value"))?;
        match flag.as_str() {
            "--workload" => {
                if !ALL.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value}"));
                }
                workload = Some(value);
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|_| format!("--seed {value}: not a u64"))?,
                );
            }
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("--seconds {value}: not an integer"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A seed-derived stream for one purpose, so that changing how one input
/// is drawn never shifts another.
#[must_use]
pub fn seed_for(seed: u64, purpose: u64) -> u64 {
    usystolic_unary::rng::SplitMix64::new(seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .next_u64()
}

/// A seed-determined permutation of `0..n`.
#[must_use]
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = usystolic_unary::rng::SplitMix64::new(seed);
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
    v
}

/// Nearest-rank percentile of an ascending slice.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a non-empty slice.
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// VmHWM of this process in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("VmHWM missing from /proc/self/status")?;
    Ok(kb / 1024.0)
}

struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Metrics of the other table, printed as `extra` lines.
    extra: Vec<Metric>,
}

/// The untraced run: set up, then time ops back to back for `seconds`,
/// with [`SETUPS`] − 1 further set-ups spread over that time. A probe
/// follows every op; each op and set-up is put on the probe clock by the
/// probes around it.
fn run_untraced<W: Workload>(seed: u64, seconds: u64) -> Result<Outcome, String> {
    let probe = probe::Probe::new();
    let t0 = Instant::now();
    let mut w = W::setup(seed)?;
    // (ops timed before it, wall seconds) of each set-up.
    let mut setups = vec![(0, t0.elapsed().as_secs_f64())];
    let mut extra_setup_s = 0.0;

    let mut op_ms = Vec::new();
    let mut probe_us = Vec::new();
    let mut failed = 0u64;
    let budget = std::time::Duration::from_secs(seconds);
    let start = Instant::now();
    loop {
        let elapsed = start.elapsed();
        if elapsed >= budget {
            break;
        }
        if setups.len() < SETUPS && elapsed >= budget * setups.len() as u32 / SETUPS as u32 {
            let t0 = Instant::now();
            let fresh = W::setup(seed)?;
            let s = t0.elapsed().as_secs_f64();
            drop(fresh);
            setups.push((op_ms.len(), s));
            extra_setup_s += s;
            continue;
        }
        let t0 = Instant::now();
        let r = w.op(op_ms.len());
        op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        probe_us.push(probe.run_us());
        if let Err(e) = r {
            eprintln!("op {} failed: {e}", op_ms.len() - 1);
            failed += 1;
        }
    }
    let wall = start.elapsed().as_secs_f64() - extra_setup_s - probe_us.iter().sum::<f64>() / 1e6;
    let rss = peak_rss_mb()?;
    let attempted = op_ms.len() as u64;
    if attempted < 100 {
        eprintln!("warning: only {attempted} ops timed; p90 has fewer than 10 samples beyond it");
    }
    let (check_failures, mut extra) = w.verify()?;

    let mut clock_ms: Vec<f64> = op_ms
        .iter()
        .enumerate()
        .map(|(i, ms)| ms * probe::scale(&probe_us, i))
        .collect();
    let clock_setup_s: Vec<f64> = setups
        .iter()
        .map(|&(i, s)| s * probe::scale(&probe_us, i))
        .collect();
    let wall_setup_s: Vec<f64> = setups.iter().map(|s| s.1).collect();
    let ops_per_s = attempted as f64 / (clock_ms.iter().sum::<f64>() / 1e3);
    op_ms.sort_by(f64::total_cmp);
    clock_ms.sort_by(f64::total_cmp);
    extra.extend([
        ("wall.ops_per_s".into(), attempted as f64 / wall),
        ("wall.op_ms_p50".into(), percentile(&op_ms, 50.0)),
        ("wall.op_ms_p90".into(), percentile(&op_ms, 90.0)),
        ("wall.setup_s".into(), median(&wall_setup_s)),
        ("host.probe_us".into(), median(&probe_us)),
    ]);
    Ok(Outcome {
        attempted,
        failed: (failed + check_failures).min(attempted),
        metrics: vec![
            ("ops_per_s".into(), ops_per_s),
            ("op_ms_p90".into(), percentile(&clock_ms, 90.0)),
            ("setup_s".into(), median(&clock_setup_s)),
            ("peak_rss_mb".into(), rss),
        ],
        extra,
    })
}

/// The traced run: alternate an untraced and a traced run of the same op,
/// so the tracing overhead is measured under the same host load. Its
/// times are wall times; a probe after each pair reports the host's load.
fn run_traced<W: Workload>(name: &str, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let probe = probe::Probe::new();
    let t0 = Instant::now();
    let mut w = W::setup(seed)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let mut probe_us = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut traced_s = 0.0;
    let mut pairs = 0usize;
    let mut failed = 0u64;
    let budget = std::time::Duration::from_secs(seconds);
    let start = Instant::now();
    while start.elapsed() < budget {
        let t0 = Instant::now();
        let r = w.op(pairs);
        untraced_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if let Err(e) = r {
            eprintln!("op {pairs} failed: {e}");
            failed += 1;
        }
        usystolic_obs::install(fold::session(W::TRACE_CAPACITY));
        let t0 = Instant::now();
        let r = w.op(pairs);
        traced_s += t0.elapsed().as_secs_f64();
        let session = usystolic_obs::take().ok_or("session vanished")?;
        if let Err(e) = r.and_then(|()| w.absorb(pairs, &fold::fold(&session)?)) {
            eprintln!("traced op {pairs} failed: {e}");
            failed += 1;
        }
        probe_us.push(probe.run_us());
        pairs += 1;
    }
    let attempted = 2 * pairs as u64;
    let (check_failures, model) = w.verify()?;
    let failed = (failed + check_failures).min(attempted);
    let untraced_s = untraced_ms.iter().sum::<f64>() / 1e3;
    untraced_ms.sort_by(f64::total_cmp);
    let mut metrics = w.layer_metrics();
    metrics.extend(model);
    metrics.extend([
        ("wall.ops_per_s".into(), pairs as f64 / untraced_s),
        ("wall.op_ms_p50".into(), percentile(&untraced_ms, 50.0)),
        ("wall.op_ms_p90".into(), percentile(&untraced_ms, 90.0)),
        ("wall.setup_s".into(), setup_s),
        ("host.probe_us".into(), median(&probe_us)),
        ("failed_frac".into(), failed as f64 / attempted as f64),
    ]);
    // (untraced ops/s − traced ops/s) / untraced ops/s.
    metrics.push((
        format!("obs.trace_overhead_frac.{name}"),
        1.0 - untraced_s / traced_s,
    ));
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        extra: Vec::new(),
    })
}

fn run<W: Workload>(args: &Args) -> Result<Outcome, String> {
    if args.trace {
        run_traced::<W>(&args.workload, args.seed, args.seconds)
    } else {
        run_untraced::<W>(args.seed, args.seconds)
    }
}

/// Orders `metrics` as `table` lists them. A name `workload` owns must be
/// reported; other names read 0. Names outside the table are rejected.
fn complete(
    table: &[(&'static str, &'static str, &[&str])],
    workload: &str,
    metrics: &[Metric],
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    if let Some((name, _)) = metrics
        .iter()
        .find(|(n, _)| !table.iter().any(|(t, _, _)| t == n))
    {
        return Err(format!("metric {name} is not declared"));
    }
    table
        .iter()
        .map(|&(name, unit, owners)| {
            let value = match metrics.iter().find(|(n, _)| n == name) {
                Some(m) => m.1,
                None if owners.contains(&workload) => {
                    return Err(format!("{workload} did not report {name}"))
                }
                None => 0.0,
            };
            if value.is_finite() {
                Ok((name, value, unit))
            } else {
                Err(format!("metric {name} is not finite: {value}"))
            }
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: ubench --workload fig9_infer|dse_sweep|fleet_serve --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        FIG9 => run::<fig9::Fig9>(&args),
        DSE => run::<dse::DseSweep>(&args),
        _ => run::<fleet::FleetServe>(&args),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    let table: &[(&str, &str, &[&str])] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = match complete(table, &args.workload, &outcome.metrics) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };

    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("attempted {} failed {}", outcome.attempted, outcome.failed);
    for (name, value) in &outcome.extra {
        let unit = PER_LAYER
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or("", |m| m.1);
        println!("extra  {name:<40} {value} {unit}");
    }
    for (name, value, unit) in &metrics {
        println!("metric {name:<40} {value} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
