//! Regenerates the paper's evaluation from the experiment registry.
//!
//! ```sh
//! cargo run --release -p usystolic-bench --bin exp -- table1
//! cargo run --release -p usystolic-bench --bin exp -- accuracy --quick
//! cargo run --release -p usystolic-bench --bin exp -- kernel --out k.json
//! cargo run --release -p usystolic-bench --bin exp -- all --quick
//! ```
//!
//! `exp <name>` prints the experiment's tables (`USYSTOLIC_FORMAT=csv`
//! switches them to CSV). A benchmark also writes its `BENCH_*.json`
//! record, to `--out PATH` or its default file in the working directory.
//! `--quick` picks each experiment's smaller CI variant. `exp all` runs
//! every entry in registry order and writes no record. Exit codes: 0 on
//! success, 1 when a benchmark verdict fails or its record cannot be
//! written, 2 on a usage error.

use std::process::ExitCode;

use usystolic_bench::cli::{self, CliError};
use usystolic_bench::registry::{self, Experiment, EXPERIMENTS};

struct Args {
    /// `None` runs every entry.
    experiment: Option<&'static Experiment>,
    quick: bool,
    out: Option<String>,
}

fn parse(mut rest: impl Iterator<Item = String>) -> Result<Args, CliError> {
    let name = rest.next().ok_or(CliError::Usage)?;
    let experiment = match name.as_str() {
        "all" => None,
        _ if name.starts_with('-') => return Err(cli::unknown(&name)),
        _ => Some(
            registry::find(&name)
                .ok_or_else(|| format!("unknown experiment '{name}' (--help lists them)"))?,
        ),
    };
    let mut args = Args {
        experiment,
        quick: false,
        out: None,
    };
    while let Some(flag) = rest.next() {
        match flag.as_str() {
            "--quick" => args.quick = true,
            "--out" => args.out = Some(cli::value(&flag, &mut rest)?),
            _ => return Err(cli::unknown(&flag)),
        }
    }
    if args.out.is_some() && args.experiment.and_then(|e| e.bench_file).is_none() {
        return Err(format!("--out: '{name}' writes no BENCH record").into());
    }
    Ok(args)
}

fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    format!(
        "usage: exp <name>|all [--quick] [--out PATH]\n\nexperiments: {}",
        names.join(", ")
    )
}

fn main() -> ExitCode {
    let args = cli::or_exit("exp", &usage(), parse(std::env::args().skip(1)));
    let all = args.experiment.is_none();
    let mut status = ExitCode::SUCCESS;
    for e in args.experiment.map_or(EXPERIMENTS, std::slice::from_ref) {
        if all {
            println!("# exp {}\n", e.name);
        }
        let outcome = (e.run)(args.quick);
        outcome.tables.iter().for_each(usystolic_bench::table::emit);
        let mut see = String::new();
        if let (false, Some(json), Some(default)) = (all, &outcome.bench, e.bench_file) {
            let out = args.out.as_deref().unwrap_or(default);
            if let Err(err) = std::fs::write(out, json.render()) {
                eprintln!("failed to write {out}: {err}");
                return ExitCode::FAILURE;
            }
            println!("wrote {out}");
            see = format!("; see {out}");
        }
        if let Err(failure) = outcome.verdict {
            eprintln!("exp {}: {failure}{see}", e.name);
            status = ExitCode::FAILURE;
        }
    }
    status
}
