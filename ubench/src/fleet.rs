//! `fleet_serve`: the serving scenario as a stream of `serve()` calls.
//!
//! One op simulates a fleet of 16 cloud arrays (256×256, rate-coded,
//! 8-bit, with SRAM) serving an open-loop Poisson mix of MNIST-CNN4,
//! ResNet18 and AlexNet at the default cycle-accurate fidelity: about
//! 16.7 k requests over 50 simulated seconds, at a mean utilisation near
//! 0.72, with a 100 ms deadline and a 10% high-priority share. Op `i`
//! draws its arrivals from seed `base + i`. So many requests per call
//! keep the host cost of one op within a few percent across seeds. The
//! cycle-accurate tier re-derives every layer profile at each dispatch,
//! so `sim` is used the opposite way from `dse_sweep`: a few shapes,
//! recomputed many times. No `core` executor runs.

use crate::fold::{self, Fold};
use crate::{percentile, seed_for, Metric, Workload, DEFAULT_SEED};
use usystolic_core::{ComputingScheme, SystolicConfig};
use usystolic_models::zoo;
use usystolic_obs::ToJson;
use usystolic_serve::loadgen::{ArrivalProcess, LoadGenConfig};
use usystolic_serve::{
    serve, Fidelity, FleetFaultPlan, LayerProfile, ServeConfig, ServeReport,
    Workload as ServeWorkload,
};
use usystolic_sim::MemoryHierarchy;

/// Simulated array instances.
const INSTANCES: usize = 16;
/// Arrival horizon in cycles (400 MHz clock): 50 s.
const DURATION_CYCLES: u64 = 20_000_000_000;
/// Mean Poisson inter-arrival gap in cycles: 3 ms.
const MEAN_INTERARRIVAL_CYCLES: f64 = 1_200_000.0;
/// Relative deadline of every request, in cycles: 100 ms.
const DEADLINE_CYCLES: u64 = 40_000_000;
/// Share of requests issued at high priority.
const HIGH_PRIORITY_FRACTION: f64 = 0.1;
/// `fleet_p99_ms` pools the latencies of ops `0..P99_CALLS`.
const P99_CALLS: usize = 4;
/// `fleet_p99_ms` at [`DEFAULT_SEED`]; a run at that seed that reads
/// otherwise fails its oracle.
const P99_MS_DEFAULT_SEED: f64 = 116.38583;

#[derive(Default)]
struct Traced {
    calls: u64,
    cycle_us: f64,
    packed_us: f64,
    analytic_us: f64,
    profile_us: f64,
    profiled_layers: u64,
    events: u64,
    batches: u64,
    utilization: f64,
    max_queue_depth: f64,
}

pub struct FleetServe {
    base_seed: u64,
    workloads: Vec<ServeWorkload>,
    /// Completed-request latencies (cycles) of ops `0..P99_CALLS`.
    latencies: Vec<Option<Vec<u64>>>,
    /// Mean utilisation and maximum queue depth of the last op's report.
    last: (f64, f64),
    traced: Traced,
}

impl FleetServe {
    fn config(&self, i: usize, fidelity: Fidelity) -> ServeConfig {
        let seed = self.base_seed.wrapping_add(i as u64);
        ServeConfig {
            array: SystolicConfig::cloud(ComputingScheme::UnaryRate, 8),
            memory: MemoryHierarchy::cloud_with_sram(),
            instances: INSTANCES,
            queue_capacity: 256,
            max_batch: 8,
            workers: 1,
            duration_cycles: DURATION_CYCLES,
            load: LoadGenConfig {
                process: ArrivalProcess::OpenPoisson {
                    mean_interarrival_cycles: MEAN_INTERARRIVAL_CYCLES,
                },
                seed,
                classes: self.workloads.len(),
                high_priority_fraction: HIGH_PRIORITY_FRACTION,
                deadline_cycles: Some(DEADLINE_CYCLES),
            },
            faults: FleetFaultPlan {
                seed,
                ..FleetFaultPlan::default()
            },
            fidelity,
        }
    }

    fn call(&self, i: usize, fidelity: Fidelity) -> Result<ServeReport, String> {
        let report = serve(&self.config(i, fidelity), &self.workloads)
            .map_err(|e| format!("op {i} ({}): {e}", fidelity.label()))?;
        if report.lost() != 0 {
            return Err(format!("op {i}: {} requests lost", report.lost()));
        }
        Ok(report)
    }

    /// Keeps the latencies of the first calls; a repeat must match.
    fn record(&mut self, i: usize, report: &ServeReport) -> Result<(), String> {
        if i >= P99_CALLS {
            return Ok(());
        }
        let lat: Vec<u64> = report
            .records
            .iter()
            .filter_map(|r| r.latency_cycles())
            .collect();
        match &self.latencies[i] {
            None => {
                self.latencies[i] = Some(lat);
                Ok(())
            }
            Some(first) if *first == lat => Ok(()),
            Some(_) => Err(format!("op {i}: latencies differ from an earlier run")),
        }
    }

    /// Runs `f` under a fresh session and folds it.
    fn traced<T>(f: impl FnOnce() -> T) -> Result<(T, Fold), String> {
        usystolic_obs::install(fold::session(1 << 18));
        let out = f();
        let session = usystolic_obs::take().ok_or("session vanished")?;
        Ok((out, fold::fold(&session)?))
    }
}

impl Workload for FleetServe {
    const TRACE_CAPACITY: usize = 1 << 18;

    fn setup(seed: u64) -> Result<Self, String> {
        let mut w = Self {
            base_seed: seed_for(seed, 1),
            workloads: [zoo::mnist_cnn4(), zoo::resnet18(), zoo::alexnet()]
                .iter()
                .map(ServeWorkload::from_network)
                .collect(),
            latencies: vec![None; P99_CALLS],
            last: (0.0, 0.0),
            traced: Traced::default(),
        };
        // The fixed seed set `fleet_p99_ms` pools.
        for i in 0..P99_CALLS {
            w.op(i)?;
        }
        Ok(w)
    }

    fn op(&mut self, i: usize) -> Result<(), String> {
        let t0 = fold::now_us();
        let report = self.call(i, Fidelity::CycleAccurate);
        fold::span("serve.call.cycle", "serve", t0);
        let report = report?;
        self.last = (report.mean_utilization, report.max_queue_depth as f64);
        self.record(i, &report)
    }

    fn absorb(&mut self, i: usize, cycle: &Fold) -> Result<(), String> {
        let call = cycle.span("serve.call.cycle")?;
        let events = cycle.counter("des.events.dispatched")?;
        let batches = cycle.counter("serve.batches")?;
        if events == 0 || batches == 0 {
            return Err(format!("op {i}: {events} events, {batches} batches"));
        }
        // The calls only the traced run makes: the same fleet at the other
        // fidelities, and the profiles the cycle-accurate tier re-derives.
        let (others, f) = Self::traced(|| {
            let t0 = fold::now_us();
            let packed = self.call(i, Fidelity::Packed);
            fold::span("serve.call.packed", "serve", t0);
            let t0 = fold::now_us();
            let analytic = self.call(i, Fidelity::Analytic);
            fold::span("serve.call.analytic", "serve", t0);
            let t0 = fold::now_us();
            let mut profiled = 0u64;
            let cfg = self.config(i, Fidelity::CycleAccurate);
            for w in &self.workloads {
                for gemm in &w.layers {
                    std::hint::black_box(LayerProfile::compute(gemm, &cfg.array, &cfg.memory));
                    profiled += 1;
                }
            }
            fold::span("sim.layer_profile", "sim", t0);
            (packed, analytic, profiled)
        })?;
        let (packed, analytic, profiled) = others;
        packed?;
        analytic?;
        let t = &mut self.traced;
        t.calls += 1;
        t.cycle_us += call.total_us;
        t.packed_us += f.span("serve.call.packed")?.total_us;
        t.analytic_us += f.span("serve.call.analytic")?.total_us;
        t.profile_us += f.span("sim.layer_profile")?.total_us;
        t.profiled_layers += profiled;
        t.events += events;
        t.batches += batches;
        t.utilization += self.last.0;
        t.max_queue_depth += self.last.1;
        Ok(())
    }

    fn verify(&mut self) -> Result<(u64, Vec<Metric>), String> {
        let mut failures = 0u64;
        let mut pooled: Vec<f64> = self
            .latencies
            .iter()
            .flatten()
            .flatten()
            .map(|&c| ServeReport::cycles_to_ms(c))
            .collect();
        pooled.sort_by(f64::total_cmp);
        // The Packed tier must render the same report as the
        // cycle-accurate reference.
        let cycle = self.call(0, Fidelity::CycleAccurate)?.to_json().render();
        let packed = self.call(0, Fidelity::Packed)?.to_json().render();
        if cycle != packed {
            failures += 1;
            eprintln!("oracle: Packed serve report differs from cycle-accurate");
        }
        let p99 = percentile(&pooled, 99.0);
        if self.base_seed == seed_for(DEFAULT_SEED, 1) && p99 != P99_MS_DEFAULT_SEED {
            failures += 1;
            eprintln!(
                "oracle: fleet_p99_ms {p99}, pinned {P99_MS_DEFAULT_SEED} at seed {DEFAULT_SEED}"
            );
        }
        Ok((failures, vec![("fleet_p99_ms".into(), p99)]))
    }

    fn layer_metrics(&self) -> Vec<Metric> {
        let t = &self.traced;
        let calls = t.calls.max(1) as f64;
        vec![
            ("serve.call_ms.cycle".into(), t.cycle_us / calls / 1e3),
            ("serve.call_ms.analytic".into(), t.analytic_us / calls / 1e3),
            (
                "serve.rederive_frac".into(),
                1.0 - t.packed_us / t.cycle_us.max(f64::MIN_POSITIVE),
            ),
            (
                "sim.layer_profile_us".into(),
                t.profile_us / t.profiled_layers.max(1) as f64,
            ),
            (
                "des.host_ns_per_event".into(),
                t.cycle_us * 1e3 / t.events.max(1) as f64,
            ),
            ("des.events_dispatched".into(), t.events as f64 / calls),
            ("serve.batches".into(), t.batches as f64 / calls),
            ("serve.mean_utilization".into(), t.utilization / calls),
            ("serve.max_queue_depth".into(), t.max_queue_depth / calls),
        ]
    }
}
