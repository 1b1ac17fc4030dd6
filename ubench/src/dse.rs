//! `dse_sweep`: the paper's design-space figures (Figs. 10–14) as a
//! stream of design-point evaluations.
//!
//! The sweep has 40 design points: 5 schemes × {8, 12} bit × {SRAM, no
//! SRAM} × {edge, cloud} array. One op evaluates one (scheme, bitwidth,
//! SRAM) point on both arrays over all 1143 GEMM layers (the MLPerf suite
//! plus AlexNet, ResNet18, VGG16 and MNIST-CNN4): the cycle-accurate
//! `Simulator::simulate_network`, then `hw::evaluate_from_report` per
//! layer. Pairing the arrays keeps ops homogeneous: the fold walk of a
//! 12×14 edge array costs about 40 times that of the 256×256 cloud
//! array. It never calls the GEMM executor, so a kernel change predicts
//! no change here.

use crate::fold::{self, Fold};
use crate::{seed_for, shuffled, Metric, Workload};
use std::collections::HashSet;
use usystolic_core::{ComputingScheme, SystolicConfig};
use usystolic_gemm::GemmConfig;
use usystolic_hw::evaluate_from_report;
use usystolic_models::{mlperf, zoo};
use usystolic_sim::{Fidelity, LayerReport, MemoryHierarchy, Simulator};

/// Total simulated runtime cycles of the 40-point sweep. The sweep
/// visits every point whatever the seed, so every run must read this.
const SIM_CYCLES: u64 = 3_808_162_377_013;

/// The benchmark span of `simulate_network`, per scheme in
/// `ComputingScheme::ALL` order.
const SIM_SPANS: [&str; 5] = [
    "sim.simulate_network.bp",
    "sim.simulate_network.bs",
    "sim.simulate_network.ug",
    "sim.simulate_network.ur",
    "sim.simulate_network.ut",
];

struct Point {
    scheme: usize,
    config: SystolicConfig,
    memory: MemoryHierarchy,
}

/// Host totals of the traced ops.
#[derive(Default)]
struct Traced {
    ops: u64,
    sim_us: [f64; 5],
    sim_calls: [u64; 5],
    evaluate_us: f64,
    events: u64,
}

pub struct DseSweep {
    layers: Vec<GemmConfig>,
    /// The 40 design points; points `2k` (edge) and `2k + 1` (cloud)
    /// make up op pair `k`.
    points: Vec<Point>,
    /// Seed-determined order the pairs are visited in.
    order: Vec<usize>,
    /// Total runtime cycles and energy of each point's first evaluation.
    totals: Vec<Option<(u64, f64)>>,
    traced: Traced,
}

impl DseSweep {
    /// Simulates and evaluates point `p`: its layer reports, total
    /// runtime cycles and total energy.
    fn evaluate(&self, p: usize) -> (Vec<LayerReport>, (u64, f64)) {
        let pt = &self.points[p];
        let t0 = fold::now_us();
        let reports = Simulator::new(pt.config, pt.memory).simulate_network(&self.layers);
        fold::span(SIM_SPANS[pt.scheme], "sim", t0);
        let t0 = fold::now_us();
        let totals = reports.iter().fold((0u64, 0.0f64), |(c, e), r| {
            let eval = evaluate_from_report(&pt.config, &pt.memory, *r);
            (c + r.timing.runtime_cycles, e + eval.energy.total_j())
        });
        fold::span("hw.evaluate", "hw", t0);
        (reports, totals)
    }

    /// Keeps the first totals of a point; a later visit must repeat them.
    fn record(&mut self, p: usize, (cycles, energy): (u64, f64)) -> Result<(), String> {
        match self.totals[p] {
            None => {
                self.totals[p] = Some((cycles, energy));
                Ok(())
            }
            Some((c, e)) if c == cycles && e.to_bits() == energy.to_bits() => Ok(()),
            Some((c, e)) => Err(format!(
                "point {p}: {cycles} cycles / {energy} J, earlier visit {c} / {e}"
            )),
        }
    }
}

impl Workload for DseSweep {
    const TRACE_CAPACITY: usize = 1 << 15;

    fn setup(seed: u64) -> Result<Self, String> {
        let mut layers = mlperf::mlperf_gemms();
        for net in [
            zoo::alexnet(),
            zoo::resnet18(),
            zoo::vgg16(),
            zoo::mnist_cnn4(),
        ] {
            layers.extend(net.gemms());
        }
        let mut points = Vec::new();
        for (scheme, &s) in ComputingScheme::ALL.iter().enumerate() {
            for bits in [8, 12] {
                for sram in [true, false] {
                    for cloud in [false, true] {
                        let config = if cloud {
                            SystolicConfig::cloud(s, bits)
                        } else {
                            SystolicConfig::edge(s, bits)
                        };
                        let memory = match (sram, cloud) {
                            (false, _) => MemoryHierarchy::no_sram(),
                            (true, false) => MemoryHierarchy::edge_with_sram(),
                            (true, true) => MemoryHierarchy::cloud_with_sram(),
                        };
                        points.push(Point {
                            scheme,
                            config,
                            memory,
                        });
                    }
                }
            }
        }
        for (&s, span) in ComputingScheme::ALL.iter().zip(SIM_SPANS) {
            if span.rsplit('.').next() != Some(s.label().to_lowercase().as_str()) {
                return Err(format!("span {span} does not name scheme {}", s.label()));
            }
        }
        let mut w = Self {
            order: shuffled(points.len() / 2, seed_for(seed, 1)),
            totals: vec![None; points.len()],
            points,
            layers,
            traced: Traced::default(),
        };
        // One full sweep: every point's reference result.
        for i in 0..w.order.len() {
            w.op(i)?;
        }
        Ok(w)
    }

    fn op(&mut self, i: usize) -> Result<(), String> {
        let pair = self.order[i % self.order.len()];
        for p in [2 * pair, 2 * pair + 1] {
            let (_, totals) = self.evaluate(p);
            self.record(p, totals)?;
        }
        Ok(())
    }

    fn absorb(&mut self, i: usize, f: &Fold) -> Result<(), String> {
        let scheme = self.points[2 * self.order[i % self.order.len()]].scheme;
        let sim = f.span(SIM_SPANS[scheme])?;
        let evaluate = f.span("hw.evaluate")?;
        let events = f.counter("des.events.dispatched")?;
        if sim.count != 2 || evaluate.count != 2 || events == 0 {
            return Err(format!(
                "op {i}: {} simulate and {} evaluate spans, {events} events",
                sim.count, evaluate.count
            ));
        }
        let t = &mut self.traced;
        t.sim_us[scheme] += sim.total_us;
        t.sim_calls[scheme] += 2;
        t.evaluate_us += evaluate.total_us;
        t.events += events;
        t.ops += 1;
        Ok(())
    }

    fn verify(&mut self) -> Result<(u64, Vec<Metric>), String> {
        let mut failures = 0u64;
        let mut cycles = 0u64;
        for p in 0..self.points.len() {
            let (reports, totals) = self.evaluate(p);
            if let Err(e) = self.record(p, totals) {
                failures += 1;
                eprintln!("oracle: {e}");
            }
            cycles += totals.0;
            // The closed-form Packed tier must reproduce the cycle-accurate
            // fold walk bit for bit.
            let pt = &self.points[p];
            let packed = Simulator::new(pt.config, pt.memory)
                .with_fidelity(Fidelity::Packed)
                .simulate_network(&self.layers);
            if packed != reports {
                failures += 1;
                eprintln!("oracle: point {p}: Packed reports differ from cycle-accurate");
            }
        }
        if cycles != SIM_CYCLES {
            failures += 1;
            eprintln!("oracle: the sweep simulated {cycles} cycles, pinned {SIM_CYCLES}");
        }
        Ok((failures, vec![("sim_gcycles".into(), cycles as f64 / 1e9)]))
    }

    fn layer_metrics(&self) -> Vec<Metric> {
        let t = &self.traced;
        let mut m: Vec<Metric> = ComputingScheme::ALL
            .iter()
            .enumerate()
            .map(|(s, scheme)| {
                (
                    format!("sim.simulate_network_ms.{}", scheme.label().to_lowercase()),
                    t.sim_us[s] / t.sim_calls[s].max(1) as f64 / 1e3,
                )
            })
            .collect();
        let ops = t.ops.max(1) as f64;
        let distinct: HashSet<&GemmConfig> = self.layers.iter().collect();
        m.push((
            "sim.host_us_per_layer".into(),
            t.sim_us.iter().sum::<f64>() / ops / self.layers.len() as f64,
        ));
        m.push((
            "sim.distinct_shape_frac".into(),
            distinct.len() as f64 / self.layers.len() as f64,
        ));
        m.push(("des.events_dispatched".into(), t.events as f64 / ops));
        m.push(("hw.evaluate_ms".into(), t.evaluate_us / ops / 1e3));
        m
    }
}
