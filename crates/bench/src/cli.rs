//! The flag layer shared by `sim_cli` and `serve_cli`.
//!
//! It holds the array and workload flags ([`ArrayFlags`]), the
//! observability-artefact flags ([`ObsFlags`]) and the value parsers
//! behind every flag of both tools. Each parser returns
//! `Result<_, String>` with a `--flag value: …` message; only a binary's
//! `main` turns an error into `<tool>: error: …` and exit code 2
//! ([`or_exit`], [`die`]).

use std::path::PathBuf;
use std::str::FromStr;

use usystolic_core::{
    ComputingScheme, SystolicConfig, CLOUD_COLS, CLOUD_ROWS, EDGE_COLS, EDGE_ROWS,
};
use usystolic_gemm::GemmConfig;
use usystolic_models::zoo::{self, Network};
use usystolic_obs::Session;
use usystolic_sim::{MemoryHierarchy, CLOCK_HZ};

/// Why a command line was not accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `--help`, or nothing to do: print the usage text.
    Usage,
    /// A malformed or out-of-range flag.
    Invalid(String),
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Invalid(message)
    }
}

/// The error for a flag no parser accepted.
#[must_use]
pub fn unknown(flag: &str) -> CliError {
    match flag {
        "--help" | "-h" => CliError::Usage,
        _ => CliError::Invalid(format!("unknown flag '{flag}' (--help lists the flags)")),
    }
}

/// Prints `<tool>: error: <message>` and exits with code 2.
pub fn die(tool: &str, message: &str) -> ! {
    eprintln!("{tool}: error: {message}");
    std::process::exit(2);
}

/// Unwraps a parsed command line; on an error prints the usage text or
/// the error and exits with code 2.
pub fn or_exit<T>(tool: &str, usage: &str, parsed: Result<T, CliError>) -> T {
    match parsed {
        Ok(v) => v,
        Err(CliError::Usage) => {
            eprintln!("{usage}");
            std::process::exit(2);
        }
        Err(CliError::Invalid(message)) => die(tool, &message),
    }
}

/// The value following `flag`.
///
/// # Errors
///
/// When the command line ends after the flag.
pub fn value(flag: &str, rest: &mut impl Iterator<Item = String>) -> Result<String, String> {
    rest.next()
        .ok_or_else(|| format!("{flag} requires a value"))
}

/// An integer flag value.
///
/// # Errors
///
/// When `v` does not parse as a `T`.
pub fn int<T: FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.trim()
        .parse()
        .map_err(|_| format!("{flag} {v}: not an integer in range"))
}

/// A count that must be at least one.
///
/// # Errors
///
/// When `v` is not a positive integer.
pub fn count(flag: &str, v: &str) -> Result<usize, String> {
    match int(flag, v)? {
        0 => Err(format!("{flag} {v}: must be at least 1")),
        n => Ok(n),
    }
}

/// A finite real flag value.
///
/// # Errors
///
/// When `v` is not a finite number.
pub fn real(flag: &str, v: &str) -> Result<f64, String> {
    match v.trim().parse::<f64>() {
        Ok(x) if x.is_finite() => Ok(x),
        _ => Err(format!("{flag} {v}: not a finite number")),
    }
}

/// A span of simulated time, given in `unit`s of one second (`1e-3` for
/// milliseconds), as fractional array cycles.
///
/// # Errors
///
/// When `v` is not a finite, non-negative number.
pub fn time_cycles(flag: &str, v: &str, unit: f64) -> Result<f64, String> {
    let t = real(flag, v)?;
    if t < 0.0 {
        return Err(format!("{flag} {v}: must be a non-negative time"));
    }
    Ok(t * unit * CLOCK_HZ)
}

/// Milliseconds of simulated time, rounded to whole array cycles.
///
/// # Errors
///
/// As [`time_cycles`].
pub fn ms_cycles(flag: &str, v: &str) -> Result<u64, String> {
    Ok(time_cycles(flag, v, 1.0e-3)?.round() as u64)
}

/// Strictly positive milliseconds of simulated time, as whole array
/// cycles (at least one).
///
/// # Errors
///
/// As [`time_cycles`], and for a zero time.
pub fn positive_ms_cycles(flag: &str, v: &str) -> Result<u64, String> {
    let cycles = time_cycles(flag, v, 1.0e-3)?;
    if cycles > 0.0 {
        Ok((cycles.round() as u64).max(1))
    } else {
        Err(format!("{flag} {v}: must be positive"))
    }
}

/// Parses a `--conv`/`--matmul` dimension list of exactly `expected`
/// comma-separated non-negative integers.
///
/// # Errors
///
/// On a non-integer field or a wrong field count.
pub fn parse_dims(flag: &str, s: &str, expected: usize) -> Result<Vec<usize>, String> {
    let dims = s
        .split(',')
        .map(|p| {
            p.trim()
                .parse()
                .map_err(|_| format!("{flag} {s}: '{}' is not a non-negative integer", p.trim()))
        })
        .collect::<Result<Vec<usize>, _>>()?;
    if dims.len() != expected {
        return Err(format!(
            "{flag} {s}: expected {expected} comma-separated dimensions, got {}",
            dims.len()
        ));
    }
    Ok(dims)
}

/// A network of the model zoo by its command-line name.
///
/// # Errors
///
/// On an unknown name.
pub fn network_by_name(name: &str) -> Result<Network, String> {
    match name {
        "alexnet" => Ok(zoo::alexnet()),
        "resnet18" => Ok(zoo::resnet18()),
        "vgg16" => Ok(zoo::vgg16()),
        "mnist" => Ok(zoo::mnist_cnn4()),
        other => Err(format!(
            "--network {other}: expected alexnet, resnet18, vgg16 or mnist"
        )),
    }
}

/// One `--conv`, `--matmul` or `--network` flag.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// A single GEMM layer, labelled with its flag and value
    /// (`matmul64,64,64`).
    Layer(String, GemmConfig),
    /// A whole network.
    Network(Network),
}

/// The array and workload flags: `--scheme --cycles --bits --shape
/// --sram/--no-sram --conv --matmul --network`.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayFlags {
    /// `--scheme BP|BS|UG|UR|UT` (default UR).
    pub scheme: ComputingScheme,
    /// `--cycles N`: multiply cycles of early termination.
    pub cycles: Option<u64>,
    /// `--bits N` (default 8), unvalidated until [`config`](Self::config).
    pub bitwidth: u32,
    /// `--shape cloud` (default edge).
    pub cloud: bool,
    /// `--sram`/`--no-sram`; unset picks the scheme's default.
    pub no_sram: Option<bool>,
    /// Every workload flag, in command-line order.
    pub workloads: Vec<Workload>,
}

impl Default for ArrayFlags {
    fn default() -> Self {
        Self {
            scheme: ComputingScheme::UnaryRate,
            cycles: None,
            bitwidth: 8,
            cloud: false,
            no_sram: None,
            workloads: Vec::new(),
        }
    }
}

impl ArrayFlags {
    /// Consumes `flag` (and its value from `rest`) when it is an array or
    /// workload flag; `Ok(false)` leaves it to the caller.
    ///
    /// # Errors
    ///
    /// On a missing or malformed value.
    pub fn accept(
        &mut self,
        flag: &str,
        rest: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        match flag {
            "--sram" => self.no_sram = Some(false),
            "--no-sram" => self.no_sram = Some(true),
            "--scheme" | "--cycles" | "--bits" | "--shape" | "--conv" | "--matmul"
            | "--network" => {
                let v = value(flag, rest)?;
                match flag {
                    "--scheme" => self.scheme = parse_scheme(&v)?,
                    "--cycles" => self.cycles = Some(int(flag, &v)?),
                    "--bits" => self.bitwidth = int(flag, &v)?,
                    "--shape" => {
                        self.cloud = match v.as_str() {
                            "edge" => false,
                            "cloud" => true,
                            _ => return Err(format!("--shape {v}: expected edge or cloud")),
                        }
                    }
                    "--network" => self.workloads.push(Workload::Network(network_by_name(&v)?)),
                    _ => {
                        let gemm = if flag == "--conv" {
                            let d = parse_dims(flag, &v, 7)?;
                            GemmConfig::conv(d[0], d[1], d[2], d[3], d[4], d[5], d[6])
                        } else {
                            let d = parse_dims(flag, &v, 3)?;
                            GemmConfig::matmul(d[0], d[1], d[2])
                        }
                        .map_err(|e| format!("{flag} {v}: {e}"))?;
                        self.workloads
                            .push(Workload::Layer(format!("{}{v}", &flag[2..]), gemm));
                    }
                }
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Array rows and columns of the chosen shape.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        if self.cloud {
            (CLOUD_ROWS, CLOUD_COLS)
        } else {
            (EDGE_ROWS, EDGE_COLS)
        }
    }

    /// The validated array configuration.
    ///
    /// # Errors
    ///
    /// On an unsupported `--bits` or `--cycles`.
    pub fn config(&self) -> Result<SystolicConfig, String> {
        let (rows, cols) = self.shape();
        let config = SystolicConfig::new(rows, cols, self.scheme, self.bitwidth)
            .map_err(|e| format!("--bits {}: {e}", self.bitwidth))?;
        match self.cycles {
            Some(c) => config
                .with_mul_cycles(c)
                .map_err(|e| format!("--cycles {c}: {e}")),
            None => Ok(config),
        }
    }

    /// Whether the SRAM is dropped. By default binary keeps it and unary
    /// drops it (the paper's conclusion).
    #[must_use]
    pub fn no_sram(&self) -> bool {
        self.no_sram.unwrap_or(self.scheme.is_unary())
    }

    /// The memory hierarchy of the chosen shape and SRAM setting.
    #[must_use]
    pub fn memory(&self) -> MemoryHierarchy {
        if self.no_sram() {
            MemoryHierarchy::no_sram()
        } else if self.cloud {
            MemoryHierarchy::cloud_with_sram()
        } else {
            MemoryHierarchy::edge_with_sram()
        }
    }

    /// The last `--conv`/`--matmul` layer.
    #[must_use]
    pub fn gemm(&self) -> Option<GemmConfig> {
        self.workloads.iter().rev().find_map(|w| match w {
            Workload::Layer(_, gemm) => Some(*gemm),
            Workload::Network(_) => None,
        })
    }

    /// The last `--network`.
    #[must_use]
    pub fn network(&self) -> Option<&Network> {
        self.workloads.iter().rev().find_map(|w| match w {
            Workload::Network(net) => Some(net),
            Workload::Layer(..) => None,
        })
    }
}

fn parse_scheme(v: &str) -> Result<ComputingScheme, String> {
    Ok(match v {
        "BP" => ComputingScheme::BinaryParallel,
        "BS" => ComputingScheme::BinarySerial,
        "UG" => ComputingScheme::UGemmHybrid,
        "UR" => ComputingScheme::UnaryRate,
        "UT" => ComputingScheme::UnaryTemporal,
        _ => return Err(format!("--scheme {v}: expected BP, BS, UG, UR or UT")),
    })
}

/// The observability-artefact flags: `--trace --metrics --metrics-format
/// --report --json`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObsFlags {
    /// `--trace FILE`: Chrome `trace_event` output.
    pub trace: Option<PathBuf>,
    /// `--metrics FILE`: metrics snapshot.
    pub metrics: Option<PathBuf>,
    /// `--metrics-format prom` (default json).
    pub prometheus: bool,
    /// `--report FILE.html`: HTML metrics report.
    pub report: Option<PathBuf>,
    /// `--json`: structured JSON on stdout instead of the human report.
    pub json: bool,
}

impl ObsFlags {
    /// Consumes `flag` (and its value from `rest`) when it is an
    /// observability flag; `Ok(false)` leaves it to the caller.
    ///
    /// # Errors
    ///
    /// On a missing or malformed value.
    pub fn accept(
        &mut self,
        flag: &str,
        rest: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        match flag {
            "--trace" => self.trace = Some(value(flag, rest)?.into()),
            "--metrics" => self.metrics = Some(value(flag, rest)?.into()),
            "--report" => self.report = Some(value(flag, rest)?.into()),
            "--json" => self.json = true,
            "--metrics-format" => {
                let v = value(flag, rest)?;
                self.prometheus = match v.as_str() {
                    "json" => false,
                    "prom" => true,
                    _ => return Err(format!("--metrics-format {v}: expected json or prom")),
                };
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Whether any artefact file was asked for.
    #[must_use]
    pub fn observing(&self) -> bool {
        self.trace.is_some() || self.metrics.is_some() || self.report.is_some()
    }

    /// Writes the artefacts collected in `session`, naming each on stderr
    /// unless `--json` is set.
    ///
    /// # Errors
    ///
    /// When a file cannot be written.
    pub fn export(&self, tool: &str, session: &Session) -> Result<(), String> {
        let note = |line: String| {
            if !self.json {
                eprintln!("{line}");
            }
        };
        let written = |what: &str, path: &PathBuf, r: std::io::Result<()>| {
            r.map_err(|e| format!("writing {what} to {}: {e}", path.display()))
        };
        if let Some(path) = &self.trace {
            written("trace", path, session.tracer.write_chrome(path))?;
            note(format!(
                "trace:  {} ({} events, {} dropped)",
                path.display(),
                session.tracer.len(),
                session.tracer.dropped()
            ));
        }
        if let Some(path) = &self.metrics {
            let r = if self.prometheus {
                std::fs::write(path, usystolic_obs::prometheus_text(&session.metrics))
            } else {
                session.metrics.write_snapshot(path)
            };
            written("metrics", path, r)?;
            note(format!("metrics: {}", path.display()));
        }
        if let Some(path) = &self.report {
            let title = format!("{tool} observability report");
            let html = usystolic_obs::html_report(&title, &session.metrics);
            written("report", path, std::fs::write(path, html))?;
            note(format!("report: {}", path.display()));
        }
        if session.tracer.dropped() > 0 {
            eprintln!(
                "{tool}: warning: trace ring full, {} span(s) dropped (oldest first); \
                 raise the tracer capacity to keep them",
                session.tracer.dropped()
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn array(args: &[&str]) -> Result<ArrayFlags, String> {
        let mut flags = ArrayFlags::default();
        let mut rest = args.iter().map(|s| (*s).to_owned());
        while let Some(flag) = rest.next() {
            assert!(flags.accept(&flag, &mut rest)?, "{flag} not an array flag");
        }
        Ok(flags)
    }

    #[test]
    fn zero_bits_is_a_flag_error_not_a_panic() {
        let flags = array(&["--bits", "0", "--matmul", "4,4,4"]).unwrap();
        let err = flags.config().unwrap_err();
        assert!(err.starts_with("--bits 0: "), "{err}");
    }

    #[test]
    fn oversized_bits_is_a_flag_error_not_a_panic() {
        let err = array(&["--bits", "99"]).unwrap().config().unwrap_err();
        assert!(err.starts_with("--bits 99: "), "{err}");
        let cloud = array(&["--bits", "99", "--shape", "cloud"]).unwrap();
        assert!(cloud.config().is_err());
    }

    #[test]
    fn a_negative_deadline_is_rejected() {
        let err = ms_cycles("--deadline", "-1").unwrap_err();
        assert!(err.starts_with("--deadline -1: "), "{err}");
        assert!(ms_cycles("--deadline", "inf").is_err());
        assert!(ms_cycles("--deadline", "soon").is_err());
    }

    #[test]
    fn a_negative_think_time_is_rejected() {
        let err = time_cycles("--think", "-5", 1.0).unwrap_err();
        assert!(err.starts_with("--think -5: "), "{err}");
    }

    #[test]
    fn small_and_zero_times_keep_their_meaning() {
        // 0.0001 ms at 400 MHz is 40 cycles.
        assert_eq!(ms_cycles("--deadline", "0.0001"), Ok(40));
        assert_eq!(ms_cycles("--deadline", "0"), Ok(0));
        assert!(positive_ms_cycles("--timeout", "0").is_err());
        assert_eq!(positive_ms_cycles("--timeout", "1e-9"), Ok(1));
    }

    #[test]
    fn workloads_keep_their_order_and_labels() {
        let flags = array(&[
            "--network",
            "mnist",
            "--matmul",
            "2,3,4",
            "--conv",
            "5,5,1,3,3,1,2",
        ])
        .unwrap();
        assert_eq!(flags.workloads.len(), 3);
        assert!(matches!(&flags.workloads[1], Workload::Layer(l, _) if l == "matmul2,3,4"));
        assert_eq!(flags.network().map(|n| n.name.as_str()), Some("MNIST-CNN4"));
        assert!(flags.gemm().is_some_and(|g| g.reduction_len() == 9));
    }

    #[test]
    fn malformed_values_name_their_flag() {
        for (args, prefix) in [
            (&["--matmul", "4,4"][..], "--matmul 4,4: expected 3"),
            (
                &["--conv", "1,x,1,1,1,1,1"][..],
                "--conv 1,x,1,1,1,1,1: 'x'",
            ),
            (&["--network", "lenet"][..], "--network lenet: "),
            (&["--scheme", "XX"][..], "--scheme XX: "),
            (&["--bits"][..], "--bits requires a value"),
        ] {
            let err = array(args).unwrap_err();
            assert!(err.starts_with(prefix), "{err}");
        }
    }

    #[test]
    fn sram_default_follows_the_scheme() {
        assert!(array(&[]).unwrap().no_sram());
        assert!(!array(&["--scheme", "BP"]).unwrap().no_sram());
        assert!(array(&["--scheme", "BP", "--no-sram"]).unwrap().no_sram());
    }
}
