//! Static serving-feasibility checks (`USY07x`).
//!
//! `serve_cli` simulates a batched, multi-instance serving system event
//! by event. Much of what the simulation reveals is already decidable
//! from the workload's closed-form service-time model before a single
//! event runs:
//!
//! * the **best achievable throughput** is `instances × max_batch /
//!   service_cycles(max_batch, instances)` — batching amortises the
//!   weight preload and the per-request cost is non-increasing in the
//!   batch size, so no schedule beats the full batch at steady state;
//! * comparing the offered arrival rate against that capacity bounds the
//!   utilisation `ρ` — at `ρ ≥ 1` the backlog provably grows without
//!   bound and the admission queue must reject (`USY070`); at `ρ ≥ 0.8`
//!   the system operates near saturation and latency explodes with
//!   queueing delay (`USY071`);
//! * the **minimum possible latency** of any request is
//!   `service_cycles(1, 1)` — a lone request on an idle system. A
//!   deadline below it is missed by *every* request (`USY072`);
//! * a workload that is DRAM-limited at the operating point gains
//!   nothing from more instances — the shared DRAM is the binding
//!   resource (`USY073`).
//!
//! The checks consume a [`ServiceEstimate`] — three numbers evaluated at
//! the operating point — rather than the serving engine's profile type
//! directly, so this crate stays independent of `usystolic_serve` (which
//! depends on this crate for the [`ServiceEstimate`] type; `serve_cli
//! --check` runs the checks).
//! `WorkloadProfile::service_estimate` in `usystolic_serve` produces the
//! estimate from the real §V-H shared-DRAM model.
//!
//! All checks are conservative in the right direction: `USY070`/`USY072`
//! compare against *optimistic* bounds (ideal batching, zero queueing),
//! so an error here is a proof of infeasibility, not a heuristic.

use crate::diag::Report;

/// Utilisation above which `USY071` warns of near-saturation operation.
pub const NEAR_SATURATION: f64 = 0.8;

/// The serving-side knobs the feasibility checks need (all in cycles,
/// matching the event engine's units).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServingSpec {
    /// Mean cycles between open-loop arrivals (`clock / rate`).
    /// `f64::INFINITY` models a closed loop, which cannot overload.
    pub mean_interarrival_cycles: f64,
    /// Number of array instances.
    pub instances: usize,
    /// Largest batch one dispatch may carry.
    pub max_batch: usize,
    /// Admission queue bound.
    pub queue_capacity: usize,
    /// Latency deadline, if any.
    pub deadline_cycles: Option<u64>,
}

/// One workload's closed-form service numbers, evaluated at the
/// operating point (`max_batch`, `instances`) of a [`ServingSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceEstimate {
    /// Workload class name (shown in diagnostics).
    pub name: String,
    /// Service cycles of a full batch with every instance contending
    /// for the shared DRAM: `service_cycles(max_batch, instances)`.
    pub batch_cycles: u64,
    /// Minimum possible latency of any request — one request, one
    /// batch, an otherwise idle system: `service_cycles(1, 1)`.
    pub single_cycles: u64,
    /// Whether the full-batch operating point is DRAM-limited.
    pub dram_limited: bool,
}

/// Checks serving feasibility of the workload summarised by `estimate`
/// under `spec`, before any event is simulated. Returns only `USY07x`
/// diagnostics.
#[must_use]
pub fn check_serving(estimate: &ServiceEstimate, spec: &ServingSpec) -> Report {
    let mut report = Report::default();
    if spec.instances == 0 || spec.max_batch == 0 {
        return report; // the engine rejects degenerate knobs itself.
    }

    // Optimistic capacity: every dispatch carries a full batch, all
    // instances busy (the steady-state shared-DRAM operating point).
    let capacity =
        spec.instances as f64 * spec.max_batch as f64 / estimate.batch_cycles.max(1) as f64;
    let offered = if spec.mean_interarrival_cycles > 0.0 {
        1.0 / spec.mean_interarrival_cycles
    } else {
        f64::INFINITY
    };
    let rho = offered / capacity;

    if rho >= 1.0 {
        report.error(
            "USY070",
            "arrival_rate",
            format!(
                "{}: offered load {offered:.6} req/cycle exceeds the best achievable throughput \
                 {capacity:.6} (utilisation {rho:.2}) — the backlog grows without bound and the \
                 {}-deep admission queue must reject",
                estimate.name, spec.queue_capacity
            ),
            "lower the arrival rate, add instances, or pick a faster scheme".into(),
        );
    } else if rho >= NEAR_SATURATION {
        report.warning(
            "USY071",
            "arrival_rate",
            format!(
                "{}: utilisation {rho:.2} is near saturation; queueing delay dominates latency \
                 from here",
                estimate.name
            ),
            "keep utilisation below 0.8 for deadline-sensitive serving".into(),
        );
    }

    if let Some(deadline) = spec.deadline_cycles {
        // The floor: one request, one batch, an otherwise idle system.
        let min_latency = estimate.single_cycles;
        if deadline < min_latency {
            report.error(
                "USY072",
                "deadline",
                format!(
                    "{}: deadline {deadline} cycles is below the minimum possible latency \
                     {min_latency} (one request on an idle instance) — every request misses",
                    estimate.name
                ),
                "raise the deadline past the single-request service time or shrink the workload"
                    .into(),
            );
        }
    }

    if estimate.dram_limited {
        report.warning(
            "USY073",
            "instances",
            format!(
                "{}: batches of {} across {} instances are DRAM-limited — the shared DRAM, not \
                 the arrays, bounds throughput, so adding instances cannot add capacity",
                estimate.name, spec.max_batch, spec.instances
            ),
            "use a lower-bandwidth (crawling unary) scheme, add SRAM, or accept the ceiling".into(),
        );
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    // Integration tests against real `WorkloadProfile`s live in
    // `usystolic_serve::workload` (which depends on this crate); these
    // exercise the decision logic over synthetic estimates.

    fn estimate() -> ServiceEstimate {
        ServiceEstimate {
            name: "conv2".into(),
            batch_cycles: 80_000,
            single_cycles: 50_000,
            dram_limited: false,
        }
    }

    fn spec(mean_interarrival_cycles: f64) -> ServingSpec {
        ServingSpec {
            mean_interarrival_cycles,
            instances: 4,
            max_batch: 8,
            queue_capacity: 16,
            deadline_cycles: None,
        }
    }

    /// Capacity of `estimate()` under `spec(_)`: 4 × 8 / 80_000.
    const CAPACITY: f64 = 32.0 / 80_000.0;

    #[test]
    fn overload_is_detected_before_any_event() {
        // Arrivals far faster than the batched capacity: provable overload.
        let r = check_serving(&estimate(), &spec(1.0));
        assert!(r.has("USY070"), "{r}");
        assert!(!r.is_legal());
    }

    #[test]
    fn light_load_passes_clean() {
        // Utilisation ~0.0125: ten batch-times between arrivals.
        let r = check_serving(&estimate(), &spec(10.0 / CAPACITY));
        assert!(r.is_legal(), "{r}");
        assert!(r.diagnostics.is_empty(), "{r}");
    }

    #[test]
    fn near_saturation_warns_without_rejecting() {
        // Target utilisation 0.9: between the 0.8 warning and 1.0 error.
        let r = check_serving(&estimate(), &spec(1.0 / (0.9 * CAPACITY)));
        assert!(r.has("USY071"), "{r}");
        assert!(!r.has("USY070"), "{r}");
        assert!(r.is_legal());
    }

    #[test]
    fn impossible_deadline_is_an_error() {
        let e = estimate();
        let mut s = spec(1.0 / (0.1 * CAPACITY));
        s.deadline_cycles = Some(e.single_cycles - 1);
        let r = check_serving(&e, &s);
        assert!(r.has("USY072"), "{r}");
        s.deadline_cycles = Some(e.single_cycles);
        assert!(!check_serving(&e, &s).has("USY072"));
    }

    #[test]
    fn dram_bound_estimate_warns_on_instances() {
        let mut e = estimate();
        e.dram_limited = true;
        let r = check_serving(&e, &spec(10.0 / CAPACITY));
        assert!(r.has("USY073"), "{r}");
        assert!(r.is_legal());
        e.dram_limited = false;
        assert!(!check_serving(&e, &spec(10.0 / CAPACITY)).has("USY073"));
    }

    #[test]
    fn closed_loop_cannot_overload() {
        // A closed loop self-limits: infinite mean interarrival → ρ = 0.
        let r = check_serving(&estimate(), &spec(f64::INFINITY));
        assert!(r.is_legal(), "{r}");
        assert!(r.diagnostics.is_empty(), "{r}");
    }

    #[test]
    fn degenerate_knobs_defer_to_the_engine() {
        let mut s = spec(1.0);
        s.instances = 0;
        assert!(check_serving(&estimate(), &s).diagnostics.is_empty());
    }
}
