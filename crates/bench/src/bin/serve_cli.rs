//! Command-line load harness for the serving simulator.
//!
//! ```sh
//! cargo run --release -p usystolic-bench --bin serve_cli -- \
//!     --seed 7 --workers 4 --instances 4 \
//!     --arrival-rate 2000000 --duration 0.002
//! cargo run --release -p usystolic-bench --bin serve_cli -- \
//!     --network mnist --instances 8 --arrival-rate 2000 --duration 0.5 \
//!     --deadline 2.0 --json
//! cargo run --release -p usystolic-bench --bin serve_cli -- \
//!     --closed-loop 16 --think 0.1 --duration 0.01 --max-batch 8
//! ```
//!
//! The run is **bit-for-bit deterministic**: the same seed and
//! configuration print the same report (including `--json`) on every run
//! and for every `--workers` value — the worker pool only parallelises
//! pure phases. Under overload the bounded admission queue rejects
//! explicitly; rejections, deadline misses and exact p50/p95/p99
//! latencies all land in the report. `--trace`/`--metrics` export the
//! observability session (per-batch spans on the simulated-cycle lane,
//! queue-depth gauges, stage histograms).

use usystolic_analyze::{check_serving, Report, ServingSpec};
use usystolic_bench::cli::{self, ArrayFlags, CliError, ObsFlags};
use usystolic_gemm::GemmConfig;
use usystolic_obs::{JsonValue, ToJson};
use usystolic_serve::loadgen::{ArrivalProcess, LoadGenConfig};
use usystolic_serve::workload::{LayerProfile, WorkloadProfile};
use usystolic_serve::{
    serve, BrownoutPolicy, Fidelity, FleetFaultPlan, LatencySummary, RetryPolicy, ServeConfig,
    ServeReport, ShardFailure, ShardSlowdown, Workload,
};
use usystolic_sim::CLOCK_HZ;

/// The parsed command line. Times are already in array cycles.
#[derive(Debug)]
struct Args {
    array: ArrayFlags,
    obs: ObsFlags,
    workers: usize,
    instances: usize,
    queue_depth: usize,
    max_batch: usize,
    arrival_rate: Option<f64>,
    closed_loop: Option<usize>,
    think_cycles: u64,
    duration_cycles: u64,
    deadline_cycles: Option<u64>,
    hi_frac: f64,
    seed: u64,
    check: bool,
    shard_fails: Vec<ShardFailure>,
    shard_slows: Vec<ShardSlowdown>,
    timeout_cycles: Option<u64>,
    retry_max: u32,
    retry_backoff_cycles: u64,
    retry_jitter_permille: u32,
    brownout: Option<BrownoutPolicy>,
    shed_expired: bool,
    fault_seed: Option<u64>,
    fidelity: Fidelity,
}

const USAGE: &str = "usage: serve_cli [--workers N] [--instances N] [--arrival-rate REQ_PER_S]
                 [--closed-loop CLIENTS] [--think S] [--duration S]
                 [--deadline MS] [--seed N] [--queue-depth N] [--max-batch N]
                 [--hi-frac F] [--scheme BP|BS|UG|UR|UT] [--cycles N] [--bits N]
                 [--shape edge|cloud] [--sram|--no-sram]
                 [--network alexnet|resnet18|vgg16|mnist]... [--matmul M,K,N]...
                 [--conv IH,IW,IC,WH,WW,S,OC]... [--trace FILE] [--metrics FILE]
                 [--metrics-format json|prom] [--report FILE.html] [--json]
                 [--check]
                 [--shard-fail MS[,IDX]]... [--shard-slow MS,PCT[,IDX]]...
                 [--timeout MS] [--retry-max N] [--retry-backoff MS]
                 [--retry-jitter PERMILLE] [--brownout DEPTH,SERVICE]
                 [--shed-expired] [--fault-seed N]
                 [--fidelity cycle|packed|analytic]

Each --network/--matmul/--conv adds one workload class; requests draw a
class uniformly. With no workload flags a 64x64x64 matmul is served.
Open-loop Poisson arrivals by default (--arrival-rate, requests per
second of simulated time); --closed-loop switches to a fixed client
population with --think seconds between completion and re-issue.

Fleet faults (all deterministic under --fault-seed, default --seed):
--shard-fail kills instance IDX (default 1) at MS milliseconds of
simulated time; its in-flight requests retry on the survivors up to
--retry-max times with exponential backoff (--retry-backoff base,
--retry-jitter permille of seeded jitter). --shard-slow multiplies
instance IDX's service times by PCT percent from MS on. --timeout bounds
queue wait; --shed-expired drops queued requests past their deadline;
--brownout DEPTH,SERVICE (permille) degrades service to SERVICE/1000 of
nominal once the queue passes DEPTH/1000 of capacity, admitting overflow
up to twice the queue instead of rejecting.

--fidelity picks the service-time model resolution: cycle (default)
re-derives every layer timing from first principles at each dispatch,
packed uses the precomputed exact totals (identical numbers, faster),
analytic interpolates the closed-form feasibility estimate (approximate,
fleet-scale fast).

--check runs the static serving-feasibility analysis instead of the
event simulation: USY070 (provable overload), USY071 (near-saturation
utilisation), USY072 (deadline below the minimum possible latency),
USY073 (DRAM-limited operating point). Exit 0 when feasible, 1 when any
error fires.";

fn parse(mut rest: impl Iterator<Item = String>) -> Result<Args, CliError> {
    let mut args = Args {
        array: ArrayFlags::default(),
        obs: ObsFlags::default(),
        workers: 1,
        instances: 1,
        queue_depth: 64,
        max_batch: 8,
        arrival_rate: None,
        closed_loop: None,
        think_cycles: 0,
        duration_cycles: (0.01 * CLOCK_HZ).ceil() as u64,
        deadline_cycles: None,
        hi_frac: 0.0,
        seed: 1,
        check: false,
        shard_fails: Vec::new(),
        shard_slows: Vec::new(),
        timeout_cycles: None,
        retry_max: 0,
        retry_backoff_cycles: ((0.01 * 1.0e-3 * CLOCK_HZ).round() as u64).max(1),
        retry_jitter_permille: 0,
        brownout: None,
        shed_expired: false,
        fault_seed: None,
        fidelity: Fidelity::CycleAccurate,
    };
    while let Some(flag) = rest.next() {
        if !(args.array.accept(&flag, &mut rest)?
            || args.obs.accept(&flag, &mut rest)?
            || set(&mut args, &flag, &mut rest)?)
        {
            return Err(cli::unknown(&flag));
        }
    }
    if args.closed_loop.is_some() && args.arrival_rate.is_some() {
        return Err(CliError::Invalid(
            "--closed-loop and --arrival-rate are mutually exclusive".into(),
        ));
    }
    Ok(args)
}

/// Applies one serving flag `f`, reading its value from `rest`;
/// `Ok(false)` when `f` is not a serving flag.
fn set(args: &mut Args, f: &str, rest: &mut impl Iterator<Item = String>) -> Result<bool, String> {
    let mut value = || cli::value(f, rest);
    match f {
        "--check" => args.check = true,
        "--shed-expired" => args.shed_expired = true,
        "--workers" => args.workers = cli::int(f, &value()?)?,
        "--instances" => args.instances = cli::int(f, &value()?)?,
        "--queue-depth" => args.queue_depth = cli::int(f, &value()?)?,
        "--max-batch" => args.max_batch = cli::int(f, &value()?)?,
        "--closed-loop" => args.closed_loop = Some(cli::count(f, &value()?)?),
        "--seed" => args.seed = cli::int(f, &value()?)?,
        "--retry-max" => args.retry_max = cli::int(f, &value()?)?,
        "--retry-jitter" => args.retry_jitter_permille = cli::int(f, &value()?)?,
        "--fault-seed" => args.fault_seed = Some(cli::int(f, &value()?)?),
        "--deadline" => args.deadline_cycles = Some(cli::ms_cycles(f, &value()?)?),
        "--timeout" => args.timeout_cycles = Some(cli::positive_ms_cycles(f, &value()?)?),
        "--retry-backoff" => args.retry_backoff_cycles = cli::positive_ms_cycles(f, &value()?)?,
        "--think" => args.think_cycles = cli::time_cycles(f, &value()?, 1.0)?.round() as u64,
        "--fidelity" => {
            let v = value()?;
            args.fidelity = v.parse().map_err(|e| format!("{f} {v}: {e}"))?;
        }
        "--duration" => {
            let v = value()?;
            match cli::time_cycles(f, &v, 1.0)? {
                cycles if cycles > 0.0 => args.duration_cycles = cycles.ceil() as u64,
                _ => return Err(format!("{f} {v}: must be positive")),
            }
        }
        "--arrival-rate" => {
            let v = value()?;
            match cli::real(f, &v)? {
                rate if rate > 0.0 => args.arrival_rate = Some(rate),
                _ => return Err(format!("{f} {v}: must be positive")),
            }
        }
        "--hi-frac" => {
            let v = value()?;
            match cli::real(f, &v)? {
                frac if (0.0..=1.0).contains(&frac) => args.hi_frac = frac,
                _ => return Err(format!("{f} {v}: must be in [0, 1]")),
            }
        }
        "--shard-fail" => {
            let v = value()?;
            let (at, idx) = match v.split(',').collect::<Vec<_>>()[..] {
                [at] => (at, "1"),
                [at, idx] => (at, idx),
                _ => return Err(format!("{f} {v}: expected MS or MS,IDX")),
            };
            args.shard_fails.push(ShardFailure {
                at: cli::ms_cycles(f, at)?,
                instance: cli::int(f, idx)?,
            });
        }
        "--shard-slow" => {
            let v = value()?;
            let (at, pct, idx) = match v.split(',').collect::<Vec<_>>()[..] {
                [at, pct] => (at, pct, "1"),
                [at, pct, idx] => (at, pct, idx),
                _ => return Err(format!("{f} {v}: expected MS,PCT or MS,PCT,IDX")),
            };
            args.shard_slows.push(ShardSlowdown {
                at: cli::ms_cycles(f, at)?,
                instance: cli::int(f, idx)?,
                factor_percent: cli::int(f, pct)?,
            });
        }
        "--brownout" => {
            let v = value()?;
            let Some((depth, service)) = v.split_once(',') else {
                return Err(format!("{f} {v}: expected DEPTH,SERVICE (both permille)"));
            };
            args.brownout = Some(BrownoutPolicy {
                depth_permille: cli::int(f, depth)?,
                service_permille: cli::int(f, service)?,
            });
        }
        _ => return Ok(false),
    }
    Ok(true)
}

fn build_config(args: &Args) -> Result<(ServeConfig, Vec<Workload>), String> {
    let workloads = if args.array.workloads.is_empty() {
        let gemm = GemmConfig::matmul(64, 64, 64).map_err(|e| format!("default workload: {e}"))?;
        vec![Workload::from_gemm("matmul64,64,64", gemm)]
    } else {
        args.array
            .workloads
            .iter()
            .map(|w| match w {
                cli::Workload::Layer(label, gemm) => Workload::from_gemm(label, *gemm),
                cli::Workload::Network(net) => Workload::from_network(net),
            })
            .collect()
    };

    let process = match args.closed_loop {
        Some(clients) => ArrivalProcess::ClosedLoop {
            clients,
            think_cycles: args.think_cycles,
        },
        None => ArrivalProcess::OpenPoisson {
            mean_interarrival_cycles: CLOCK_HZ / args.arrival_rate.unwrap_or(1000.0),
        },
    };

    let config = ServeConfig {
        array: args.array.config()?,
        memory: args.array.memory(),
        instances: args.instances,
        queue_capacity: args.queue_depth,
        max_batch: args.max_batch,
        workers: args.workers,
        duration_cycles: args.duration_cycles,
        load: LoadGenConfig {
            process,
            seed: args.seed,
            classes: workloads.len(),
            high_priority_fraction: args.hi_frac,
            deadline_cycles: args.deadline_cycles,
        },
        faults: FleetFaultPlan {
            seed: args.fault_seed.unwrap_or(args.seed),
            failures: args.shard_fails.clone(),
            slowdowns: args.shard_slows.clone(),
            timeout_cycles: args.timeout_cycles,
            shed_expired: args.shed_expired,
            retry: RetryPolicy {
                max_retries: args.retry_max,
                backoff_base_cycles: args.retry_backoff_cycles,
                jitter_permille: args.retry_jitter_permille,
            },
            brownout: args.brownout,
        },
        fidelity: args.fidelity,
    };
    Ok((config, workloads))
}

fn ms(cycles: u64) -> f64 {
    ServeReport::cycles_to_ms(cycles)
}

fn print_stage(name: &str, s: &LatencySummary) {
    println!(
        "{name:<12} p50 {:>10.4} ms   p95 {:>10.4} ms   p99 {:>10.4} ms   max {:>10.4} ms",
        ms(s.p50_cycles),
        ms(s.p95_cycles),
        ms(s.p99_cycles),
        ms(s.max_cycles)
    );
}

/// The static `USY07x` pre-flight (`--check`): feasibility verdicts from
/// the closed-form service model, without simulating a single event.
fn run_check(args: &Args, config: &ServeConfig, workloads: &[Workload]) -> Result<i32, String> {
    if config.instances == 0 || config.max_batch == 0 {
        return Err("--check needs at least one instance and a non-zero --max-batch".into());
    }
    let mean_interarrival_cycles = match config.load.process {
        ArrivalProcess::OpenPoisson {
            mean_interarrival_cycles,
        } => mean_interarrival_cycles,
        ArrivalProcess::OpenUniform { interval_cycles } => interval_cycles as f64,
        // A closed loop self-limits: it never offers more than the
        // system completes, so the overload bound is vacuous.
        ArrivalProcess::ClosedLoop { .. } => f64::INFINITY,
    };
    let spec = ServingSpec {
        mean_interarrival_cycles,
        instances: config.instances,
        max_batch: config.max_batch,
        queue_capacity: config.queue_capacity,
        deadline_cycles: config.load.deadline_cycles,
    };

    let mut report = Report::default();
    let mut estimates = Vec::new();
    for wl in workloads {
        let layers: Vec<LayerProfile> = wl
            .layers
            .iter()
            .map(|g| LayerProfile::compute(g, &config.array, &config.memory))
            .collect();
        let profile = WorkloadProfile::from_layers(&wl.name, &layers, &config.memory);
        let estimate = profile.service_estimate(config.max_batch, config.instances);
        report.merge(check_serving(&estimate, &spec));
        let capacity_per_s = spec.instances as f64 * spec.max_batch as f64
            / estimate.batch_cycles.max(1) as f64
            * CLOCK_HZ;
        estimates.push((estimate, capacity_per_s));
    }

    if args.obs.json {
        let classes: Vec<JsonValue> = estimates
            .iter()
            .map(|(e, capacity_per_s)| {
                JsonValue::object(vec![
                    ("name", e.name.to_json()),
                    ("batch_cycles", e.batch_cycles.to_json()),
                    ("single_request_cycles", e.single_cycles.to_json()),
                    ("dram_limited", e.dram_limited.to_json()),
                    ("capacity_req_per_s", capacity_per_s.to_json()),
                ])
            })
            .collect();
        let record = JsonValue::object(vec![
            ("config", config.array.to_json()),
            ("memory", config.memory.to_json()),
            ("instances", spec.instances.to_json()),
            ("max_batch", spec.max_batch.to_json()),
            ("queue_capacity", spec.queue_capacity.to_json()),
            (
                "mean_interarrival_cycles",
                spec.mean_interarrival_cycles.to_json(),
            ),
            ("workloads", JsonValue::Array(classes)),
            ("report", report.to_json()),
        ]);
        println!("{}", record.render());
    } else {
        println!("array:      {}", config.array);
        println!(
            "pool:       {} instance(s), queue {} deep, batch <= {}",
            spec.instances, spec.queue_capacity, spec.max_batch
        );
        match config.load.process {
            ArrivalProcess::OpenPoisson { .. } => println!(
                "arrivals:   open Poisson, {:.1} req/s offered",
                CLOCK_HZ / mean_interarrival_cycles
            ),
            ArrivalProcess::OpenUniform { .. } => println!(
                "arrivals:   open uniform, {:.1} req/s offered",
                CLOCK_HZ / mean_interarrival_cycles
            ),
            ArrivalProcess::ClosedLoop { clients, .. } => {
                println!("arrivals:   closed loop, {clients} client(s) (cannot overload)");
            }
        }
        println!();
        println!(
            "{:<24} {:>14} {:>14} {:>14}  dram",
            "workload", "min lat (ms)", "batch (cyc)", "cap (req/s)"
        );
        for (e, capacity_per_s) in &estimates {
            println!(
                "{:<24} {:>14.4} {:>14} {:>14.1}  {}",
                e.name,
                ServeReport::cycles_to_ms(e.single_cycles),
                e.batch_cycles,
                capacity_per_s,
                if e.dram_limited { "limited" } else { "ok" }
            );
        }
        println!();
        println!("{report}");
        println!(
            "serving plan is {}",
            if report.is_legal() {
                "FEASIBLE"
            } else {
                "INFEASIBLE"
            }
        );
    }
    Ok(i32::from(!report.is_legal()))
}

fn main() {
    let args = cli::or_exit("serve_cli", USAGE, parse(std::env::args().skip(1)));
    match run(&args) {
        Ok(code) => std::process::exit(code),
        Err(e) => cli::die("serve_cli", &e),
    }
}

/// Runs the `--check` pre-flight or the event simulation; returns the
/// exit code.
fn run(args: &Args) -> Result<i32, String> {
    let (config, workloads) = build_config(args)?;
    if args.check {
        return run_check(args, &config, &workloads);
    }

    // The session also feeds the --json "metrics" section, so install it
    // unconditionally; every recorded value is simulation-derived (no
    // wall-clock), keeping the output bit-for-bit reproducible.
    usystolic_obs::install(usystolic_obs::Session::new());
    let report = serve(&config, &workloads).map_err(|e| e.to_string())?;
    let session = usystolic_obs::take().unwrap_or_default();
    args.obs.export("serve_cli", &session)?;

    if args.obs.json {
        let record = JsonValue::object(vec![
            ("config", config.array.to_json()),
            ("memory", config.memory.to_json()),
            ("seed", args.seed.to_json()),
            ("faults", config.faults.to_json()),
            ("report", report.to_json()),
            ("metrics", session.metrics.to_json()),
        ]);
        println!("{}", record.render());
        return Ok(0);
    }

    println!("array:      {}", config.array);
    println!(
        "pool:       {} instance(s), {} worker(s), queue {} deep, batch <= {}",
        report.instances, report.workers, report.queue_capacity, report.max_batch
    );
    println!("workloads:  {}", report.workload_names.join(", "));
    println!(
        "horizon:    {:.4} ms ({} cycles), makespan {:.4} ms",
        ms(report.duration_cycles),
        report.duration_cycles,
        ms(report.makespan_cycles)
    );
    println!();
    println!(
        "offered {}   admitted {}   rejected {}   completed {}   deadline missed {}",
        report.offered, report.admitted, report.rejected, report.completed, report.deadline_missed
    );
    println!(
        "batches {}   mean batch {:.2}   max queue depth {}   utilization {:.1}%",
        report.batches,
        report.mean_batch_size(),
        report.max_queue_depth,
        100.0 * report.mean_utilization
    );
    println!("throughput  {:.1} req/s", report.throughput_per_s);
    if !config.faults.is_quiet() {
        println!(
            "resilience  crashes {}   retries {}   failovers {}   timed out {}   failed {}   \
             brownout {}   lost {}",
            report.shard_crashes,
            report.retries,
            report.failovers,
            report.timed_out,
            report.failed,
            report.brownout_requests,
            report.lost()
        );
    }
    println!();
    print_stage("latency", &report.latency);
    print_stage("queue wait", &report.queue_wait);
    print_stage("service", &report.service);
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(args: &[&str]) -> Result<ServeConfig, CliError> {
        let args = parse(args.iter().map(|s| (*s).to_owned()))?;
        Ok(build_config(&args)?.0)
    }

    #[test]
    fn an_empty_closed_loop_is_rejected() {
        let err = setup(&["--closed-loop", "0"]).unwrap_err();
        let named = matches!(&err, CliError::Invalid(m) if m.starts_with("--closed-loop 0: "));
        assert!(named, "{err:?}");
    }

    #[test]
    fn times_convert_to_cycles_as_before() {
        let config = setup(&["--deadline", "0.0001", "--timeout", "2"]).unwrap();
        assert_eq!(config.load.deadline_cycles, Some(40));
        assert_eq!(config.faults.timeout_cycles, Some(800_000));
        assert_eq!(config.duration_cycles, 4_000_000);
        assert_eq!(config.faults.retry.backoff_base_cycles, 4_000);
        let config = setup(&["--closed-loop", "3", "--think", "0.1"]).unwrap();
        assert!(matches!(
            config.load.process,
            ArrivalProcess::ClosedLoop {
                clients: 3,
                think_cycles: 40_000_000
            }
        ));
    }
}
