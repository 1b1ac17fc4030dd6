//! Functional execution statistics of the GEMM executors.
//!
//! The unary schemes run through the one weight-stationary tile sweep of
//! [`crate::array2d`] (per-window kernels, the Fig. 7 M-end cascade of
//! reduced-resolution OREGs, the top-row shifters); [`ExecStats`] is the
//! functional summary [`crate::exec::GemmExecutor`] reports for it,
//! derived from the sweep's [`CycleStats`] in
//! [`ExecStats::from_cycle_stats`].

use crate::array2d::CycleStats;

/// Execution statistics of a functional GEMM run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// MAC windows executed (one per weight/input element pair).
    pub mac_windows: u64,
    /// Accumulator saturation events (OREG overflow under the configured
    /// reduced-resolution width).
    pub saturation_events: u64,
    /// PE compute cycles summed over all MAC windows (functional count;
    /// the timing simulator models overlap and stalls).
    pub compute_cycles: u64,
}

impl ExecStats {
    /// The functional statistics of a tile sweep whose MAC windows last
    /// `mac_cycles` cycles each: every window keeps one PE busy for
    /// exactly `mac_cycles`, so the busy PE-cycles are the compute cycles
    /// and divide into the window count.
    #[must_use]
    pub fn from_cycle_stats(stats: CycleStats, mac_cycles: u64) -> Self {
        Self {
            mac_windows: stats.busy_pe_cycles / mac_cycles.max(1),
            saturation_events: stats.saturation_events,
            compute_cycles: stats.busy_pe_cycles,
        }
    }

    /// Merges another run's statistics into this one (e.g. when summing
    /// over the layers of a network).
    pub fn absorb(&mut self, other: ExecStats) {
        self.mac_windows += other.mac_windows;
        self.saturation_events += other.saturation_events;
        self.compute_cycles += other.compute_cycles;
    }
}

impl usystolic_obs::ToJson for ExecStats {
    fn to_json(&self) -> usystolic_obs::JsonValue {
        usystolic_obs::JsonValue::object(vec![
            ("mac_windows", self.mac_windows.to_json()),
            ("saturation_events", self.saturation_events.to_json()),
            ("compute_cycles", self.compute_cycles.to_json()),
        ])
    }
}
