//! The experiment registry: every table, figure and benchmark of the
//! evaluation, by name, in the paper's order. The `exp` binary runs one
//! entry (`exp <name>`) or all of them (`exp all`); the committed-results
//! gate renders the same entries in-process.

use crate::ablation::{
    accumulator_width_sweep, early_termination_tradeoff, error_propagation, fault_tolerance,
    rng_quality,
};
use crate::accuracy::{figure9_cnn, figure9_mlp, gemm_error_study, Difficulty};
use crate::area::{area_reductions, figure11};
use crate::bandwidth::{bandwidth_summary, figure10};
use crate::design_space::{dataflow_comparison, sram_sweep};
use crate::efficiency::{figure14, utilization_summary, Workload};
use crate::energy::{energy_summary, figure13_on_chip, figure13_total};
use crate::power::{power_on_chip, power_summary, power_total};
use crate::system::{battery_table, scaling_table};
use crate::table1::table1;
use crate::throughput::{contention_summary, figure12};
use crate::{des_fleet, faults, kernel, ArrayShape, Table};
use usystolic_obs::{JsonValue, ToJson};

/// What one experiment run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The tables to print, in order.
    pub tables: Vec<Table>,
    /// The `BENCH_*.json` record of a benchmark.
    pub bench: Option<JsonValue>,
    /// A benchmark's pass/fail verdict: `Err` names the broken claim.
    pub verdict: Result<(), &'static str>,
}

impl Outcome {
    fn tables(tables: Vec<Table>) -> Self {
        Self {
            tables,
            bench: None,
            verdict: Ok(()),
        }
    }

    fn bench(table: Table, json: &impl ToJson, pass: bool, failure: &'static str) -> Self {
        Self {
            tables: vec![table],
            bench: Some(json.to_json()),
            verdict: if pass { Ok(()) } else { Err(failure) },
        }
    }

    /// The tables in the aligned text form `exp` prints, each followed by
    /// a blank line.
    #[must_use]
    pub fn text(&self) -> String {
        self.tables.iter().map(|t| format!("{t}\n")).collect()
    }
}

/// One registry entry.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Command-line name (`exp <name>`).
    pub name: &'static str,
    /// Default path of the benchmark's `BENCH_*.json` record.
    pub bench_file: Option<&'static str>,
    /// Runs the experiment; `true` asks for the smaller quick variant.
    pub run: fn(bool) -> Outcome,
}

const fn entry(name: &'static str, run: fn(bool) -> Outcome) -> Experiment {
    Experiment {
        name,
        bench_file: None,
        run,
    }
}

/// Every experiment, in the order `exp all` runs them.
pub const EXPERIMENTS: &[Experiment] = &[
    entry("accuracy", accuracy),
    entry("bandwidth", |_| {
        per_shape(|s| vec![figure10(s), bandwidth_summary(s)])
    }),
    entry("area", |_| {
        per_shape(|s| vec![figure11(s), area_reductions(s, 8), area_reductions(s, 16)])
    }),
    entry("throughput", |_| {
        per_shape(|s| vec![figure12(s), contention_summary(s)])
    }),
    entry("energy", |_| {
        per_shape(|s| vec![figure13_on_chip(s), figure13_total(s), energy_summary(s)])
    }),
    entry("power", |_| {
        per_shape(|s| vec![power_on_chip(s), power_total(s), power_summary(s)])
    }),
    entry("efficiency", |_| {
        let mut tables: Vec<Table> = [Workload::AlexNet, Workload::MlPerf]
            .into_iter()
            .flat_map(|w| ArrayShape::ALL.map(|s| figure14(s, w)))
            .collect();
        tables.push(utilization_summary());
        Outcome::tables(tables)
    }),
    entry("system", |_| {
        let mut tables: Vec<Table> = ArrayShape::ALL.map(scaling_table).into();
        tables.push(battery_table());
        Outcome::tables(tables)
    }),
    entry("table1", |_| Outcome::tables(vec![table1()])),
    entry("design_space", |_| {
        Outcome::tables(vec![sram_sweep(), dataflow_comparison()])
    }),
    entry("ablation", |_| {
        Outcome::tables(vec![
            rng_quality(8, 200),
            rng_quality(12, 100),
            accumulator_width_sweep(),
            early_termination_tradeoff(),
            error_propagation(8),
            fault_tolerance(8, 2000),
        ])
    }),
    Experiment {
        bench_file: Some("BENCH_kernel.json"),
        ..entry("kernel", |quick| {
            let r = kernel::run(quick);
            let pass = r.checksums_match
                && r.bit_exact
                && r.workers_consistent
                && r.temporal_bit_exact
                && r.hybrid_bit_exact;
            Outcome::bench(r.table(), &r, pass, "kernel bench found a mismatch")
        })
    },
    Experiment {
        bench_file: Some("BENCH_faults.json"),
        ..entry("faults", |quick| {
            let r = faults::run(quick);
            Outcome::bench(
                r.table(),
                &r,
                r.healthy(),
                "faults bench found a broken claim",
            )
        })
    },
    Experiment {
        bench_file: Some("BENCH_des.json"),
        ..entry("des", |quick| {
            let r = des_fleet::run(quick);
            let pass =
                r.speedup_target_met && r.packed_bit_identical && r.estimates_within_tolerance;
            Outcome::bench(r.table(), &r, pass, "fidelity bench missed a target")
        })
    },
];

/// The registry entry called `name`.
#[must_use]
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

fn per_shape(tables: impl Fn(ArrayShape) -> Vec<Table>) -> Outcome {
    Outcome::tables(ArrayShape::ALL.into_iter().flat_map(tables).collect())
}

fn accuracy(quick: bool) -> Outcome {
    let (ebts, per_class): (&[u32], usize) = if quick {
        (&[4, 6, 8], 3)
    } else {
        (&[3, 4, 5, 6, 7, 8, 10, 12], 10)
    };
    let mut tables: Vec<Table> = Difficulty::ALL
        .into_iter()
        .map(|d| figure9_cnn(d, ebts, per_class))
        .collect();
    tables.push(figure9_mlp(ebts, per_class));
    tables.push(gemm_error_study(8));
    if !quick {
        tables.push(gemm_error_study(6));
        tables.push(gemm_error_study(10));
    }
    Outcome::tables(tables)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_findable() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[..i].iter().all(|o| o.name != e.name),
                "{}",
                e.name
            );
            assert_eq!(find(e.name).map(|f| f.name), Some(e.name));
        }
        assert!(find("all").is_none());
    }

    #[test]
    fn text_is_the_emitted_form() {
        let outcome = (find("table1").unwrap().run)(true);
        let table = &outcome.tables[0];
        assert_eq!(outcome.text(), format!("{table}\n"));
        assert!(outcome.bench.is_none() && outcome.verdict.is_ok());
    }
}
