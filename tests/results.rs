//! Committed-results gate: every deterministic entry of the experiment
//! registry must regenerate its committed `results/exp_<name>.txt` byte
//! for byte, and every committed file must belong to a registry entry.

use std::path::{Path, PathBuf};

use usystolic_bench::registry::{self, EXPERIMENTS};

/// Entries whose committed file has drifted from the code. They stay out
/// of the byte comparison until the drift is explained (ROADMAP.md, "Gate
/// every committed result, and explain the two that drifted").
const DRIFTED: [&str; 2] = ["accuracy", "ablation"];

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

#[test]
fn committed_results_regenerate_byte_for_byte() {
    let mut gated = 0;
    for e in EXPERIMENTS {
        let path = results_dir().join(format!("exp_{}.txt", e.name));
        // Benchmarks report wall time: their record is a BENCH file, not
        // a committed text.
        if e.bench_file.is_some() {
            assert!(!path.exists(), "{} is a timing benchmark", path.display());
            continue;
        }
        let committed = std::fs::read_to_string(&path)
            .unwrap_or_else(|err| panic!("{}: {err}", path.display()));
        if DRIFTED.contains(&e.name) {
            continue;
        }
        let now = (e.run)(false).text();
        if let Some((line, (want, got))) = committed
            .lines()
            .zip(now.lines())
            .enumerate()
            .find(|(_, (want, got))| want != got)
        {
            panic!(
                "{} line {}: committed\n  {want}\nregenerated\n  {got}",
                path.display(),
                line + 1
            );
        }
        assert_eq!(now, committed, "{} differs in length", path.display());
        gated += 1;
    }
    assert_eq!(gated, 9, "gated experiment count");
}

#[test]
fn every_committed_result_names_a_registry_entry() {
    let entries = std::fs::read_dir(results_dir()).expect("results/ exists");
    for entry in entries {
        let file = entry.expect("readable entry").file_name();
        let file = file.to_string_lossy();
        let name = file
            .strip_prefix("exp_")
            .and_then(|f| f.strip_suffix(".txt"))
            .unwrap_or_else(|| panic!("results/{file} is not exp_<name>.txt"));
        assert!(
            registry::find(name).is_some(),
            "results/{file} has no registry entry"
        );
    }
}
