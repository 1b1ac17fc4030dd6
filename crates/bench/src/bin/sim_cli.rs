//! A command-line front end in the spirit of the released uSystolic-Sim:
//! pick a computing scheme, an array shape, a memory hierarchy and a
//! layer, and get the full evaluation record.
//!
//! ```sh
//! cargo run --release -p usystolic-bench --bin sim_cli -- \
//!     --scheme UR --cycles 128 --shape edge --no-sram \
//!     --conv 31,31,96,5,5,1,256
//! cargo run --release -p usystolic-bench --bin sim_cli -- \
//!     --scheme BP --shape cloud --matmul 1,9216,4096
//! cargo run --release -p usystolic-bench --bin sim_cli -- --network alexnet
//! ```
//!
//! Observability (all optional, zero overhead when absent):
//!
//! ```sh
//! sim_cli --scheme UR --cycles 128 --no-sram --conv 31,31,96,5,5,1,256 \
//!     --trace /tmp/t.json --metrics /tmp/m.json --json
//! ```
//!
//! `--trace` writes a Chrome `trace_event` file (open in
//! `chrome://tracing` or Perfetto), `--metrics` a counters/gauges/
//! histograms snapshot, and `--json` replaces the human-readable report
//! with the full evaluation record as structured JSON on stdout.
//!
//! Static analysis (`--check`): validate a configuration against the
//! paper's invariants *without* running anything. The raw knob values go
//! straight to `usystolic_analyze` — including values the simulator's
//! constructors would reject — and every violation is reported with a
//! stable `USYxxx` code. Exits 1 when any error-severity diagnostic
//! fires, 0 otherwise.
//!
//! ```sh
//! sim_cli --check --scheme UR --acc-width 4           # USY020: overflow
//! sim_cli --check --scheme UR --cycles 256            # USY011: n > N
//! sim_cli --check --scheme UR --wiring independent    # USY030: SCC != 0
//! sim_cli --check --scheme BP --no-sram --conv 27,27,96,5,5,1,256
//!                                                     # USY050: bandwidth
//! ```

use usystolic_analyze::{analyze, analyze_network, NetworkAnalysis, RawSpec, Report, RngWiring};
use usystolic_bench::cli::{self, ArrayFlags, CliError, ObsFlags};
use usystolic_bench::faults::nrmse;
use usystolic_core::ComputingScheme;
use usystolic_faults::{
    faulty_binary_gemm, faulty_unary_gemm, DeviceFaults, FaultKernel, FaultReport, GemmShape,
    StuckAt,
};
use usystolic_gemm::GemmConfig;
use usystolic_hw::evaluate_layer_with;
use usystolic_hw::summary::NetworkEvaluation;
use usystolic_obs::{JsonValue, ToJson};
use usystolic_sim::{Fidelity, MultiInstanceSystem, ScalingReport, Simulator};
use usystolic_unary::coding::Coding;
use usystolic_unary::rng::SplitMix64;
use usystolic_unary::stream_len;

#[derive(Debug)]
struct Args {
    array: ArrayFlags,
    obs: ObsFlags,
    instances: Option<usize>,
    fidelity: Fidelity,
    check: bool,
    acc_width: Option<u32>,
    acc_budget: Option<f64>,
    wiring: RngWiring,
    fifo_depth: Option<usize>,
    fault_ber: Option<f64>,
    fault_stuck: Vec<StuckAt>,
    fault_seed: Option<u64>,
}

const USAGE: &str = "usage: sim_cli [--scheme BP|BS|UG|UR|UT] [--cycles N] [--bits N]
                     [--shape edge|cloud] [--sram|--no-sram] [--instances N]
                     [--fidelity cycle|packed|analytic]
                     [--trace FILE] [--metrics FILE] [--metrics-format json|prom]
                     [--report FILE.html] [--json]
                     [--fault-ber F] [--fault-stuck R,C,V]... [--fault-seed N]
                     (--conv IH,IW,IC,WH,WW,S,OC | --matmul M,K,N | --network alexnet|resnet18|vgg16|mnist)
       sim_cli --check [--scheme S] [--cycles N] [--bits N] [--shape edge|cloud]
                     [--acc-width N] [--acc-budget FRACTION]
                     [--wiring shared|independent] [--fifo-depth N]
                     [--sram|--no-sram] [--json]
                     [--conv ... | --matmul ... | --network ...]

--fidelity picks the timing-model tier: cycle (default) walks every
fold of the tile mapping, packed uses the bit-identical closed form,
and analytic additionally drops the SRAM service bound (exact for
compute- or DRAM-bound layers).

Fault injection (--fault-ber, --fault-stuck, --fault-seed) runs a
deterministic device-fault characterization on a sub-sampled window of
the layer's GEMM: bit-serial and word-packed unary kernels (which must
agree bit for bit) against the binary product-register baseline, under
the same seeded fault sites. --fault-stuck takes R,C,V with V=0|1 and
may repeat; --fault-seed defaults to 1.

--check statically validates the configuration against the paper's
invariants (stable USYxxx diagnostic codes) and exits 1 on any error.
With --network it also runs the whole-network abstract interpreter:
calibrated value ranges prove per-layer overflow freedom or saturation
(USY060/USY061), and the composed early-termination error bound is
compared against --acc-budget (USY062/USY063).";

fn parse(mut rest: impl Iterator<Item = String>) -> Result<Args, CliError> {
    let mut args = Args {
        array: ArrayFlags::default(),
        obs: ObsFlags::default(),
        instances: None,
        fidelity: Fidelity::CycleAccurate,
        check: false,
        acc_width: None,
        acc_budget: None,
        wiring: RngWiring::SharedDelayed,
        fifo_depth: None,
        fault_ber: None,
        fault_stuck: Vec::new(),
        fault_seed: None,
    };
    while let Some(flag) = rest.next() {
        if !(args.array.accept(&flag, &mut rest)?
            || args.obs.accept(&flag, &mut rest)?
            || set(&mut args, &flag, &mut rest)?)
        {
            return Err(cli::unknown(&flag));
        }
    }
    if !args.check && args.array.workloads.is_empty() {
        return Err(CliError::Usage);
    }
    Ok(args)
}

/// Applies one simulator flag `f`, reading its value from `rest`;
/// `Ok(false)` when `f` is not a simulator flag.
fn set(args: &mut Args, f: &str, rest: &mut impl Iterator<Item = String>) -> Result<bool, String> {
    let mut value = || cli::value(f, rest);
    match f {
        "--check" => args.check = true,
        "--instances" => args.instances = Some(cli::count(f, &value()?)?),
        "--acc-width" => args.acc_width = Some(cli::int(f, &value()?)?),
        "--fifo-depth" => args.fifo_depth = Some(cli::int(f, &value()?)?),
        "--fault-seed" => args.fault_seed = Some(cli::int(f, &value()?)?),
        "--fault-stuck" => args.fault_stuck.push(parse_stuck(&value()?)?),
        "--fidelity" => {
            let v = value()?;
            args.fidelity = v.parse().map_err(|e| format!("{f} {v}: {e}"))?;
        }
        "--acc-budget" => {
            let v = value()?;
            match cli::real(f, &v)? {
                b if b > 0.0 => args.acc_budget = Some(b),
                _ => return Err(format!("{f} {v}: must be a positive fraction")),
            }
        }
        "--fault-ber" => {
            let v = value()?;
            match cli::real(f, &v)? {
                ber if (0.0..=1.0).contains(&ber) => args.fault_ber = Some(ber),
                _ => return Err(format!("{f} {v}: must be a probability in [0, 1]")),
            }
        }
        "--wiring" => {
            let v = value()?;
            args.wiring = match v.as_str() {
                "shared" | "shared-delayed" => RngWiring::SharedDelayed,
                "independent" => RngWiring::Independent,
                _ => return Err(format!("{f} {v}: expected shared or independent")),
            };
        }
        _ => return Ok(false),
    }
    Ok(true)
}

/// Parses one `--fault-stuck R,C,V` site.
fn parse_stuck(v: &str) -> Result<StuckAt, String> {
    let parts: Vec<&str> = v.split(',').map(str::trim).collect();
    let [row, col, value] = parts[..] else {
        return Err(format!("--fault-stuck {v}: expected R,C,V (three fields)"));
    };
    Ok(StuckAt {
        row: row
            .parse()
            .map_err(|_| format!("--fault-stuck {v}: bad row '{row}'"))?,
        col: col
            .parse()
            .map_err(|_| format!("--fault-stuck {v}: bad col '{col}'"))?,
        value: match value {
            "0" => false,
            "1" => true,
            other => return Err(format!("--fault-stuck {v}: value '{other}' must be 0 or 1")),
        },
    })
}

/// The `--check` mode: static analysis of the raw knob values, no
/// simulation. Returns exit code 1 when any error-severity diagnostic
/// fires, 0 otherwise.
fn run_check(args: &Args) -> i32 {
    let array = &args.array;
    let (rows, cols) = array.shape();
    let mut spec = RawSpec::new(rows, cols, array.scheme, array.bitwidth).with_wiring(args.wiring);
    spec.mul_cycles = array.cycles;
    spec.acc_width = args.acc_width;
    spec.fifo_depth = args.fifo_depth;
    let memory = array.memory();

    // Spec-only checks, plus workload/memory checks per GEMM layer.
    let network = array.network();
    let gemms: Vec<GemmConfig> = match (array.gemm(), network) {
        (Some(g), _) => vec![g],
        (None, Some(net)) => net.gemms(),
        (None, None) => Vec::new(),
    };
    let mut report = if gemms.is_empty() {
        analyze(&spec, None, Some(&memory))
    } else {
        let mut merged = Report::default();
        for gemm in &gemms {
            for d in analyze(&spec, Some(gemm), Some(&memory)).diagnostics {
                if !merged.diagnostics.contains(&d) {
                    merged.diagnostics.push(d);
                }
            }
        }
        merged
    };
    // Whole-network abstract interpretation: calibrated ranges, composed
    // ET error. Only meaningful when a full network is on the table.
    let interp: Option<NetworkAnalysis> =
        network.map(|net| analyze_network(&spec, net, args.acc_budget));
    if let Some(na) = &interp {
        // Calibrated ranges subsume the worst-case width rule: when the
        // interpreter proves every layer overflow-free, the coarse
        // USY020 rejection is withdrawn in favour of the USY060 notes.
        if !na.layers.is_empty() && !na.report.has("USY061") {
            report.diagnostics.retain(|d| d.code != "USY020");
        }
        for d in &na.report.diagnostics {
            if !report.diagnostics.contains(d) {
                report.diagnostics.push(d.clone());
            }
        }
    }
    report
        .diagnostics
        .sort_by(|a, b| (a.code, &a.message).cmp(&(b.code, &b.message)));

    if args.obs.json {
        let mut json = report.to_json();
        if let (JsonValue::Object(pairs), Some(na)) = (&mut json, &interp) {
            pairs.push(("network".to_owned(), na.to_json()));
        }
        println!("{}", json.render());
    } else {
        println!(
            "check: {}x{} {} {}b, wiring {}, {}",
            rows,
            cols,
            array.scheme.label(),
            array.bitwidth,
            args.wiring,
            if array.no_sram() {
                "DRAM only"
            } else {
                "SRAM + DRAM"
            }
        );
        if let Some(na) = &interp {
            if !na.layers.is_empty() {
                println!(
                    "\n{:<8} {:>6} {:>6} {:>6} {:>10} {:>12} {:>12} {:>6} {:>10}",
                    "layer",
                    "in_lv",
                    "w_lv",
                    "depth",
                    "window",
                    "acc bound",
                    "capacity",
                    "worst",
                    "et error"
                );
                for l in &na.layers {
                    println!(
                        "{:<8} {:>6} {:>6} {:>6} {:>10} {:>12} {:>12} {:>6} {:>10.3e}",
                        l.name,
                        l.input_levels,
                        l.weight_levels,
                        l.depth,
                        l.window_bound,
                        l.acc_bound,
                        l.acc_capacity,
                        l.worst_case_width,
                        l.et_rel_error
                    );
                }
                match args.acc_budget {
                    Some(b) => println!(
                        "composed ET error bound {:.3e} vs budget {b}\n",
                        na.composed_et_error
                    ),
                    None => println!(
                        "composed ET error bound {:.3e} (no --acc-budget given)\n",
                        na.composed_et_error
                    ),
                }
            }
        }
        println!("{report}");
    }
    i32::from(!report.is_legal())
}

/// The device fault model assembled from the CLI flags, on the array's
/// physical PE grid — `None` when no fault flag was given.
fn device_faults(args: &Args) -> Result<Option<DeviceFaults>, String> {
    if args.fault_ber.is_none() && args.fault_stuck.is_empty() && args.fault_seed.is_none() {
        return Ok(None);
    }
    let (rows, cols) = args.array.shape();
    let mut faults = DeviceFaults::new(args.fault_seed.unwrap_or(1))
        .with_ber(args.fault_ber.unwrap_or(0.0))
        .with_grid(rows, cols);
    for &s in &args.fault_stuck {
        faults = faults.with_stuck(s);
    }
    faults.validate().map_err(|e| format!("fault model: {e}"))?;
    Ok(Some(faults))
}

/// Outcome of the seeded device-fault characterization: both unary
/// kernels and the binary baseline on the same sub-sampled GEMM window,
/// each compared against its own quiet (fault-free) run.
struct FaultCharacterization {
    faults: DeviceFaults,
    shape: GemmShape,
    coding: Coding,
    serial: FaultReport,
    packed: FaultReport,
    binary: FaultReport,
    unary_nrmse: f64,
    binary_nrmse: f64,
    kernels_agree: bool,
}

/// Runs the characterization. The layer's GEMM is sub-sampled to at most
/// an 8×16×8 window so the bit-level simulation stays tractable on full
/// layers; the fault model's `(seed, window, cycle)` determinism is
/// untouched by the sampling. `bitwidth` is the validated array
/// configuration's.
fn fault_characterization(
    scheme: ComputingScheme,
    bitwidth: u32,
    faults: &DeviceFaults,
    gemm: &GemmConfig,
) -> Result<FaultCharacterization, String> {
    let shape = GemmShape {
        m: gemm.output_pixels().min(8),
        k: gemm.reduction_len().min(16),
        n: gemm.output_channels().min(8),
    };
    let hi = (stream_len(bitwidth) - 1).cast_signed();
    let mut rng = SplitMix64::new(faults.seed);
    let a: Vec<i64> = (0..shape.m * shape.k)
        .map(|_| rng.range_i64(-hi, hi))
        .collect();
    let b: Vec<i64> = (0..shape.k * shape.n)
        .map(|_| rng.range_i64(-hi, hi))
        .collect();
    let coding = match scheme {
        ComputingScheme::UnaryTemporal => Coding::Temporal,
        _ => Coding::Rate,
    };
    let quiet = DeviceFaults::new(faults.seed).with_grid(faults.rows, faults.cols);
    let injected = |e| format!("fault injection: {e}");
    let run_unary = |model: &DeviceFaults, kernel: FaultKernel| {
        faulty_unary_gemm(&a, &b, shape, bitwidth, coding, model, kernel).map_err(injected)
    };
    let run_binary =
        |model: &DeviceFaults| faulty_binary_gemm(&a, &b, shape, bitwidth, model).map_err(injected);
    let unary_clean = run_unary(&quiet, FaultKernel::Packed)?;
    let binary_clean = run_binary(&quiet)?;
    let serial = run_unary(faults, FaultKernel::Serial)?;
    let packed = run_unary(faults, FaultKernel::Packed)?;
    let binary = run_binary(faults)?;
    Ok(FaultCharacterization {
        faults: faults.clone(),
        shape,
        coding,
        unary_nrmse: nrmse(&packed, &unary_clean),
        binary_nrmse: nrmse(&binary, &binary_clean),
        kernels_agree: serial == packed,
        serial,
        packed,
        binary,
    })
}

impl FaultCharacterization {
    fn kernel_json(report: &FaultReport, error: f64) -> JsonValue {
        JsonValue::object(vec![
            ("transient_flips", report.transient_flips.to_json()),
            ("stuck_windows", report.stuck_windows.to_json()),
            ("corrupted_words", report.corrupted_words.to_json()),
            ("checksum", report.checksum().to_json()),
            ("nrmse", error.to_json()),
        ])
    }

    fn to_json(&self) -> JsonValue {
        let faults = &self.faults;
        JsonValue::object(vec![
            ("seed", faults.seed.to_json()),
            ("ber", faults.ber.to_json()),
            ("stuck", faults.stuck.to_json()),
            ("coding", self.coding.to_string().to_json()),
            (
                "shape",
                JsonValue::object(vec![
                    ("m", (self.shape.m as u64).to_json()),
                    ("k", (self.shape.k as u64).to_json()),
                    ("n", (self.shape.n as u64).to_json()),
                ]),
            ),
            ("kernels_agree", self.kernels_agree.to_json()),
            (
                "unary_serial",
                Self::kernel_json(&self.serial, self.unary_nrmse),
            ),
            (
                "unary_packed",
                Self::kernel_json(&self.packed, self.unary_nrmse),
            ),
            ("binary", Self::kernel_json(&self.binary, self.binary_nrmse)),
        ])
    }

    fn print_human(&self) {
        let faults = &self.faults;
        println!(
            "\nfault injection  seed {} BER {:.2e} stuck {} ({} coding, {}x{}x{} window)",
            faults.seed,
            faults.ber,
            faults.stuck.len(),
            self.coding,
            self.shape.m,
            self.shape.k,
            self.shape.n
        );
        println!(
            "  unary ({} = packed: {})  flips {:>6}  stuck windows {:>4}  nrmse {:.4}",
            FaultKernel::Serial,
            self.kernels_agree,
            self.packed.transient_flips,
            self.packed.stuck_windows,
            self.unary_nrmse
        );
        println!(
            "  binary baseline        flips {:>6}  stuck windows {:>4}  nrmse {:.4}",
            self.binary.transient_flips, self.binary.stuck_windows, self.binary_nrmse
        );
    }
}

fn main() {
    let args = cli::or_exit("sim_cli", USAGE, parse(std::env::args().skip(1)));
    if args.check {
        std::process::exit(run_check(&args));
    }
    if let Err(e) = simulate(&args) {
        cli::die("sim_cli", &e);
    }
}

/// Simulates the layer or network and prints its evaluation record.
fn simulate(args: &Args) -> Result<(), String> {
    let config = args.array.config()?;
    let memory = args.array.memory();
    let faults = device_faults(args)?;
    let characterize = |gemm: &GemmConfig| {
        faults
            .as_ref()
            .map(|f| fault_characterization(config.scheme(), config.bitwidth(), f, gemm))
            .transpose()
    };

    // Collect traces/metrics only when asked for: with no session the
    // instrumented hot paths stay allocation-free.
    if args.obs.observing() {
        usystolic_obs::install(usystolic_obs::Session::new());
    }
    let export = || match usystolic_obs::take() {
        Some(session) => args.obs.export("sim_cli", &session),
        None => Ok(()),
    };

    if !args.obs.json {
        println!("array:  {config}");
        println!(
            "memory: {}",
            if args.array.no_sram() {
                "DRAM only (SRAM eliminated)"
            } else {
                "SRAM + DRAM"
            }
        );
    }

    let sim = Simulator::new(config, memory).with_fidelity(args.fidelity);

    if let Some(gemm) = args.array.gemm() {
        let ev = evaluate_layer_with(&sim, &gemm);
        let scaling = args
            .instances
            .map(|n| MultiInstanceSystem::new(config, memory).scale(&gemm, n));
        let characterization = characterize(&gemm)?;
        export()?;
        if args.obs.json {
            let mut pairs = vec![
                ("config", config.to_json()),
                ("memory", memory.to_json()),
                ("gemm", gemm.to_json()),
                ("evaluation", ev.to_json()),
            ];
            pairs.extend(scaling.as_ref().map(|s| ("scaling", s.to_json())));
            pairs.extend(characterization.as_ref().map(|c| ("faults", c.to_json())));
            println!("{}", JsonValue::object(pairs).render());
            return Ok(());
        }
        println!("layer:  {gemm}\n");
        println!(
            "runtime          {:>12.6} s  ({} cycles, {:.1}% stall)",
            ev.report.runtime_s,
            ev.report.timing.runtime_cycles,
            100.0 * ev.report.timing.overhead()
        );
        println!(
            "throughput       {:>12.3} layers/s",
            ev.report.throughput_per_s
        );
        println!(
            "DRAM bandwidth   {:>12.3} GB/s",
            ev.report.dram_bandwidth_gbps
        );
        println!(
            "SRAM bandwidth   {:>12.3} GB/s",
            ev.report.sram_bandwidth_gbps
        );
        println!("utilization      {:>12.1} %", 100.0 * ev.report.utilization);
        println!(
            "on-chip energy   {:>12.3} uJ",
            ev.energy.on_chip_j() * 1.0e6
        );
        println!("total energy     {:>12.3} uJ", ev.energy.total_j() * 1.0e6);
        println!("on-chip power    {:>12.3} mW", ev.power.on_chip_w() * 1.0e3);
        println!("total power      {:>12.3} mW", ev.power.total_w() * 1.0e3);
        println!("on-chip area     {:>12.3} mm2", ev.area.total_mm2());
        if let Some(s) = &scaling {
            println!("\n{}", scaling_line(s));
        }
        if let Some(c) = &characterization {
            c.print_human();
        }
        return Ok(());
    }

    let network = args.array.network().ok_or("nothing to simulate")?;
    let ev = NetworkEvaluation::evaluate_with(&sim, &network.gemms());
    // Device faults characterize on the network's first layer.
    let characterization = match network.gemms().first() {
        Some(first) => characterize(first)?,
        None if faults.is_some() => return Err("fault injection: network has no layers".into()),
        None => None,
    };
    let scaling: Vec<(String, ScalingReport)> = match args.instances {
        Some(n) => {
            let sys = MultiInstanceSystem::new(config, memory);
            network
                .layers
                .iter()
                .zip(network.gemms())
                .map(|(layer, gemm)| (layer.name.clone(), sys.scale(&gemm, n)))
                .collect()
        }
        None => Vec::new(),
    };
    export()?;
    if args.obs.json {
        let mut pairs = vec![
            ("config", config.to_json()),
            ("memory", memory.to_json()),
            ("network", network.to_json()),
            ("evaluation", ev.to_json()),
        ];
        let layers: Vec<JsonValue> = scaling
            .iter()
            .map(|(name, s)| {
                let mut obj = s.to_json();
                if let JsonValue::Object(p) = &mut obj {
                    p.insert(0, ("layer".to_owned(), name.to_json()));
                }
                obj
            })
            .collect();
        pairs.extend((!layers.is_empty()).then_some(("scaling", JsonValue::Array(layers))));
        pairs.extend(characterization.as_ref().map(|c| ("faults", c.to_json())));
        println!("{}", JsonValue::object(pairs).render());
        return Ok(());
    }
    println!(
        "network: {} ({} GEMM layers, {} parameters)\n",
        network.name,
        network.layers.len(),
        network.parameters()
    );
    println!(
        "{:<10} {:>12} {:>14} {:>14}",
        "layer", "runtime s", "on-chip uJ", "total uJ"
    );
    for (layer, l) in network.layers.iter().zip(&ev.layers) {
        println!(
            "{:<10} {:>12.6} {:>14.3} {:>14.3}",
            layer.name,
            l.report.runtime_s,
            l.energy.on_chip_j() * 1.0e6,
            l.energy.total_j() * 1.0e6
        );
    }
    println!(
        "\ninference runtime    {:>12.6} s ({:.2} inf/s, {:.1} GOPS)",
        ev.runtime_s,
        ev.inferences_per_s(),
        ev.gops()
    );
    println!(
        "on-chip energy       {:>12.3} mJ ({:.0} inf per on-chip J)",
        ev.on_chip_j * 1.0e3,
        ev.inferences_per_on_chip_joule()
    );
    println!("total energy         {:>12.3} mJ", ev.total_j * 1.0e3);
    println!(
        "avg on-chip power    {:>12.3} mW",
        ev.on_chip_power_w() * 1.0e3
    );
    println!(
        "avg total power      {:>12.3} mW",
        ev.total_power_w() * 1.0e3
    );
    if !scaling.is_empty() {
        println!();
        for (name, s) in &scaling {
            println!("{name:<10} {}", scaling_line(s));
        }
    }
    if let Some(c) = &characterization {
        c.print_human();
    }
    Ok(())
}

/// One human-readable line of a [`ScalingReport`].
fn scaling_line(s: &ScalingReport) -> String {
    format!(
        "scaling x{}: {:.3} layers/s aggregate, {:.1}% efficiency{}",
        s.instances,
        s.aggregate_throughput,
        100.0 * s.scaling_efficiency,
        if s.dram_limited { ", DRAM-limited" } else { "" }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(args: &[&str]) -> Result<Args, CliError> {
        parse(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn check_mode_passes_raw_bits_to_the_analyzer() {
        let args = parsed(&["--check", "--bits", "0"]).unwrap();
        assert_eq!(args.array.bitwidth, 0);
        assert_eq!(run_check(&args), 1);
    }

    #[test]
    fn nothing_to_simulate_prints_usage() {
        assert_eq!(parsed(&[]).err(), Some(CliError::Usage));
        assert_eq!(parsed(&["--help"]).err(), Some(CliError::Usage));
    }

    #[test]
    fn fault_flags_are_range_checked() {
        for (flag, v) in [("--fault-ber", "1.5"), ("--fault-stuck", "2,3,7")] {
            let err = parsed(&["--matmul", "4,4,4", flag, v]).unwrap_err();
            assert!(
                matches!(&err, CliError::Invalid(m) if m.starts_with(&format!("{flag} {v}: "))),
                "{err:?}"
            );
        }
    }
}
