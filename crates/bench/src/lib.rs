//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each evaluation artefact has a module computing its data and an entry
//! in the [`registry`], which the `exp` binary runs by name
//! (`exp <name>`, or `exp all` for every entry in order):
//!
//! | Artefact | Module | `exp` name |
//! |---|---|---|
//! | Fig. 9 (accuracy vs EBT) | [`accuracy`] | `accuracy` |
//! | Fig. 10 (layerwise bandwidth) | [`bandwidth`] | `bandwidth` |
//! | Fig. 11 (area breakdown) | [`area`] | `area` |
//! | Fig. 12 (layerwise throughput) | [`throughput`] | `throughput` |
//! | Fig. 13 (layerwise energy) | [`energy`] | `energy` |
//! | §V-F (layerwise power) | [`power`] | `power` |
//! | Fig. 14 (efficiency gains, AlexNet + MLPerf) | [`efficiency`] | `efficiency` |
//! | §V-H (system-level scaling & battery) | [`system`] | `system` |
//! | Table I (quantified) | [`table1`] | `table1` |
//! | §V-G SRAM sweep + footnote-1 dataflows | [`design_space`] | `design_space` |
//! | §III-C / §V-A ablations | [`ablation`] | `ablation` |
//! | Kernel perf (serial vs packed MAC, `BENCH_kernel.json`) | [`kernel`] | `kernel` |
//! | Resilience (accuracy vs BER, `BENCH_faults.json`) | [`faults`] | `faults` |
//! | Serving fidelity tiers (`BENCH_des.json`) | [`des_fleet`] | `des` |
//!
//! The [`design`] module enumerates the paper's design points (computing
//! scheme × early termination × SRAM presence), [`table`] renders aligned
//! text tables, and [`cli`] is the flag layer shared by the `sim_cli` and
//! `serve_cli` binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod accuracy;
pub mod area;
pub mod bandwidth;
pub mod cli;
pub mod des_fleet;
pub mod design;
pub mod design_space;
pub mod efficiency;
pub mod energy;
pub mod faults;
pub mod kernel;
pub mod power;
pub mod registry;
pub mod system;
pub mod table;
pub mod table1;
pub mod throughput;

pub use design::{alexnet_8bit_layers, design_points, ArrayShape, DesignPoint};
pub use table::Table;
