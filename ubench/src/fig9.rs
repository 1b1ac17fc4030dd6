//! `fig9_infer`: the paper's Fig. 9 accuracy study as a stream of single
//! inferences.
//!
//! Set-up trains one glyph CNN per Fig. 9 difficulty. One op classifies
//! one test image with `TinyCnn::predict_with` at six design points on
//! the paper's 12×14 array: {uSystolic-rate, uSystolic-temporal, uGEMM-H}
//! × EBT {8, 12}. The op is mostly `core` tile kernels; the closed-form
//! temporal points are the in-workload bypass of a kernel change.

use crate::fold::{self, Fold};
use crate::{seed_for, shuffled, Metric, Workload, DEFAULT_SEED};
use std::collections::BTreeMap;
use usystolic_core::{
    cycle_accurate_gemm_with, ComputingScheme, GemmExecutor, KernelMode, SystolicConfig,
};
use usystolic_gemm::{GemmConfig, Matrix};
use usystolic_models::dataset::Dataset;
use usystolic_models::trainer::TinyCnn;
use usystolic_unary::rng::SplitMix64;

/// Pixel noise of the easy / medium / hard Fig. 9 tasks.
const NOISE: [f64; 3] = [0.3, 0.8, 1.2];
/// Training samples per class, epochs and learning rate (as `exp_accuracy`).
const TRAIN_PER_CLASS: usize = 40;
const EPOCHS: usize = 8;
const LR: f64 = 0.05;
/// Test images per class and difficulty: 3 × 10 × 4 = 120 images.
const TEST_PER_CLASS: usize = 4;

/// `top1_pct` at [`DEFAULT_SEED`]; a run at that seed that reads
/// otherwise fails its oracle.
const TOP1_PCT_DEFAULT_SEED: f64 = 96.80555555555556;

/// The six design points: (name, predict span, scheme, EBT).
#[rustfmt::skip]
pub const DESIGN_POINTS: [(&str, &str, ComputingScheme, u32); 6] = [
    ("rate8", "models.predict.rate8", ComputingScheme::UnaryRate, 8),
    ("rate12", "models.predict.rate12", ComputingScheme::UnaryRate, 12),
    ("temporal8", "models.predict.temporal8", ComputingScheme::UnaryTemporal, 8),
    ("temporal12", "models.predict.temporal12", ComputingScheme::UnaryTemporal, 12),
    ("ugemmh8", "models.predict.ugemmh8", ComputingScheme::UGemmHybrid, 8),
    ("ugemmh12", "models.predict.ugemmh12", ComputingScheme::UGemmHybrid, 12),
];

struct Image {
    difficulty: usize,
    pixels: Vec<f64>,
    label: usize,
}

/// Counters one predict recorded.
#[derive(Default, Clone, Copy)]
struct Counts {
    tiles: u64,
    mac_windows: u64,
    saturation_events: u64,
    fallbacks: u64,
}

impl Counts {
    /// The counters recorded between two snapshots of the session.
    fn between(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>) -> Self {
        let d = |name: &str| {
            after.get(name).copied().unwrap_or(0) - before.get(name).copied().unwrap_or(0)
        };
        Self {
            tiles: d("core.tiles"),
            mac_windows: d("core.mac_windows"),
            saturation_events: d("core.saturation_events"),
            fallbacks: d("core.kernel.fallback"),
        }
    }
}

/// Traced totals of one design point.
#[derive(Default)]
struct DpTotals {
    calls: u64,
    predict_us: f64,
    glue_us: f64,
    execute_us: f64,
    execute_self_us: f64,
    tile_us: f64,
    tile_spans: u64,
    tiles: u64,
    mac_windows: u64,
    saturation_events: u64,
    fallbacks: u64,
}

pub struct Fig9 {
    seed: u64,
    nets: Vec<TinyCnn>,
    images: Vec<Image>,
    execs: Vec<GemmExecutor>,
    /// Seed-determined order the design points run in within an op.
    order: Vec<usize>,
    /// First prediction of every (image, design point).
    preds: Vec<[Option<usize>; 6]>,
    /// Counters of each design point's predict in the last op (zero
    /// without a session).
    last: [Counts; 6],
    traced: [DpTotals; 6],
    traced_ops: u64,
    /// Kernel fallbacks the oracle's calls counted.
    oracle_fallbacks: u64,
}

impl Fig9 {
    fn predict(&self, image: usize, dp: usize) -> Result<usize, String> {
        let img = &self.images[image];
        self.nets[img.difficulty]
            .predict_with(&img.pixels, &self.execs[dp])
            .map_err(|e| format!("{}: {e}", DESIGN_POINTS[dp].0))
    }

    /// Records a prediction; a later pass must repeat the first one.
    fn record(&mut self, image: usize, dp: usize, pred: usize) -> Result<(), String> {
        match self.preds[image][dp] {
            None => {
                self.preds[image][dp] = Some(pred);
                Ok(())
            }
            Some(first) if first == pred => Ok(()),
            Some(first) => Err(format!(
                "image {image} at {}: predicted {pred}, earlier pass {first}",
                DESIGN_POINTS[dp].0
            )),
        }
    }

    /// Lowered level matrices of `gemm`'s shape, magnitudes spanning the
    /// whole `bits`-bit range with zeros mixed in.
    fn levels(gemm: &GemmConfig, bits: u32, seed: u64) -> (Matrix<i64>, Matrix<i64>) {
        let (k, n) = gemm.lowered_shape();
        let m = gemm.output_pixels();
        let max = (1i64 << (bits - 1)) - 1;
        let mut rng = SplitMix64::new(seed);
        let mut draw = |_: usize, _: usize| {
            if rng.below(8) == 0 {
                0
            } else {
                rng.range_i64(-max, max)
            }
        };
        let input = Matrix::from_fn(m, k, &mut draw);
        let weights = Matrix::from_fn(k, n, &mut draw);
        (input, weights)
    }
}

impl Workload for Fig9 {
    const TRACE_CAPACITY: usize = 1 << 13;

    fn setup(seed: u64) -> Result<Self, String> {
        let mut nets = Vec::with_capacity(NOISE.len());
        let mut images = Vec::new();
        for (d, &noise) in NOISE.iter().enumerate() {
            let d64 = d as u64;
            let train = Dataset::generate(TRAIN_PER_CLASS, noise, seed_for(seed, 10 + d64));
            let test = Dataset::generate(TEST_PER_CLASS, noise, seed_for(seed, 20 + d64));
            let mut net = TinyCnn::new(seed_for(seed, 30 + d64));
            net.train(&train, EPOCHS, LR);
            nets.push(net);
            images.extend(test.samples().iter().map(|s| Image {
                difficulty: d,
                pixels: s.pixels.clone(),
                label: s.label,
            }));
        }
        let perm = shuffled(images.len(), seed_for(seed, 1));
        let mut slots: Vec<Option<Image>> = images.into_iter().map(Some).collect();
        let images: Vec<Image> = perm
            .iter()
            .map(|&i| slots[i].take().ok_or("permutation repeats an index"))
            .collect::<Result<_, _>>()?;
        let execs = DESIGN_POINTS
            .iter()
            .map(|&(name, _, scheme, ebt)| {
                SystolicConfig::new(12, 14, scheme, ebt)
                    .map(|cfg| GemmExecutor::new(cfg).with_workers(1))
                    .map_err(|e| format!("{name}: {e}"))
            })
            .collect::<Result<_, _>>()?;
        let mut w = Self {
            seed,
            nets,
            preds: vec![[None; 6]; images.len()],
            last: [Counts::default(); 6],
            images,
            execs,
            order: shuffled(DESIGN_POINTS.len(), seed_for(seed, 2)),
            traced: Default::default(),
            traced_ops: 0,
            oracle_fallbacks: 0,
        };
        w.op(0)?;
        Ok(w)
    }

    fn op(&mut self, i: usize) -> Result<(), String> {
        let image = i % self.images.len();
        for k in 0..self.order.len() {
            let dp = self.order[k];
            let before = fold::counters();
            let t0 = fold::now_us();
            let pred = self.predict(image, dp);
            fold::span(DESIGN_POINTS[dp].1, "models", t0);
            self.last[dp] = Counts::between(&before, &fold::counters());
            self.record(image, dp, pred?)?;
        }
        Ok(())
    }

    fn absorb(&mut self, _: usize, f: &Fold) -> Result<(), String> {
        let mut fallbacks = 0;
        for (dp, &(name, span, _, _)) in DESIGN_POINTS.iter().enumerate() {
            let predict = f.span(span)?;
            let execute = f.span(&format!("{span}/core.gemm.execute"))?;
            let tile = f.span(&format!("{span}/core.tile"))?;
            let c = self.last[dp];
            if c.tiles == 0 || c.mac_windows == 0 {
                return Err(format!("{name}: no core.tiles or core.mac_windows counted"));
            }
            let t = &mut self.traced[dp];
            t.calls += 1;
            t.predict_us += predict.total_us;
            t.glue_us += predict.self_us;
            t.execute_us += execute.total_us;
            t.execute_self_us += execute.self_us;
            t.tile_us += tile.total_us;
            t.tile_spans += tile.count;
            t.tiles += c.tiles;
            t.mac_windows += c.mac_windows;
            t.saturation_events += c.saturation_events;
            t.fallbacks += c.fallbacks;
            fallbacks += c.fallbacks;
        }
        self.traced_ops += 1;
        if fallbacks > 0 {
            return Err(format!("{fallbacks} kernel fallbacks"));
        }
        Ok(())
    }

    fn verify(&mut self) -> Result<(u64, Vec<Metric>), String> {
        let mut failures = 0u64;
        // Top-1 needs every image at every design point; finish any the
        // timed phase did not reach.
        for image in 0..self.images.len() {
            for dp in 0..DESIGN_POINTS.len() {
                if self.preds[image][dp].is_none() {
                    let pred = self.predict(image, dp)?;
                    self.preds[image][dp] = Some(pred);
                }
            }
        }
        let mut correct = 0usize;
        for (img, preds) in self.images.iter().zip(&self.preds) {
            correct += preds.iter().filter(|p| **p == Some(img.label)).count();
        }
        let top1_pct = 100.0 * correct as f64 / (self.images.len() * DESIGN_POINTS.len()) as f64;

        if self.seed == DEFAULT_SEED && top1_pct != TOP1_PCT_DEFAULT_SEED {
            failures += 1;
            eprintln!("oracle: top1_pct {top1_pct}, pinned {TOP1_PCT_DEFAULT_SEED} at seed {DEFAULT_SEED}");
        }

        // The executor's kernels, and the array's kernel dispatch table
        // (`KernelMode::Auto`), against the bit-serial machine, on operands
        // shaped like the CNN's two GEMMs. The executor never consults the
        // dispatch table, so only these calls can count a kernel fallback;
        // the session counts them in every run.
        usystolic_obs::install(fold::session(1 << 12));
        for (dp, exec) in self.execs.iter().enumerate() {
            let name = DESIGN_POINTS[dp].0;
            for (s, gemm) in [TinyCnn::conv_gemm(), TinyCnn::fc_gemm()]
                .iter()
                .enumerate()
            {
                let cfg = exec.config();
                let (input, weights) = Self::levels(
                    gemm,
                    cfg.bitwidth(),
                    seed_for(self.seed, 100 + 2 * dp as u64 + s as u64),
                );
                let run = |mode| cycle_accurate_gemm_with(cfg, gemm, &input, &weights, mode, 1);
                let serial = run(KernelMode::Serial).map_err(|e| format!("{name}: {e}"))?;
                let executor = exec.execute_lowered(gemm, &input, &weights);
                for (path, out) in [
                    (
                        "executor",
                        executor.map(|(m, st)| (m, st.saturation_events)),
                    ),
                    (
                        "dispatch",
                        run(KernelMode::Auto).map(|(m, st)| (m, st.saturation_events)),
                    ),
                ] {
                    match out {
                        Ok((out, sat)) if out == serial.0 && sat == serial.1.saturation_events => {}
                        out => {
                            failures += 1;
                            eprintln!(
                                "oracle: {name} gemm {s}: {path} saturation {:?} vs serial {:?}",
                                out.map(|r| r.1),
                                serial.1
                            );
                        }
                    }
                }
            }
        }
        let session = usystolic_obs::take().ok_or("session vanished")?;
        let fallbacks = fold::counters_of(&session)
            .get("core.kernel.fallback")
            .copied()
            .unwrap_or(0);
        if fallbacks > 0 {
            failures += fallbacks;
            eprintln!("oracle: {fallbacks} kernel fallbacks");
        }
        self.oracle_fallbacks = fallbacks;
        Ok((failures, vec![("top1_pct".into(), top1_pct)]))
    }

    fn layer_metrics(&self) -> Vec<Metric> {
        let mut m = Vec::new();
        let total_predict: f64 = self.traced.iter().map(|t| t.predict_us).sum();
        let calls: u64 = self.traced.iter().map(|t| t.calls).sum();
        let per_call = |v: f64, t: &DpTotals| v / t.calls.max(1) as f64;
        for ((name, _, _, _), t) in DESIGN_POINTS.iter().zip(&self.traced) {
            m.push((
                format!("models.predict_ms.{name}"),
                per_call(t.predict_us, t) / 1e3,
            ));
            m.push((
                format!("models.op_share.{name}"),
                t.predict_us / total_predict.max(f64::MIN_POSITIVE),
            ));
            m.push((
                format!("core.execute_ms.{name}"),
                per_call(t.execute_us, t) / 1e3,
            ));
            m.push((
                format!("core.tile_us.{name}"),
                t.tile_us / t.tile_spans.max(1) as f64,
            ));
            m.push((format!("core.tiles.{name}"), per_call(t.tiles as f64, t)));
            m.push((
                format!("core.mac_windows.{name}"),
                per_call(t.mac_windows as f64, t),
            ));
        }
        let sum = |f: fn(&DpTotals) -> f64| self.traced.iter().map(f).sum::<f64>();
        m.push((
            "models.glue_ms".into(),
            sum(|t| t.glue_us) / calls.max(1) as f64 / 1e3,
        ));
        m.push((
            "core.exec_overhead_frac".into(),
            sum(|t| t.execute_self_us) / sum(|t| t.execute_us).max(f64::MIN_POSITIVE),
        ));
        m.push((
            "core.saturation_events".into(),
            sum(|t| t.saturation_events as f64) / self.traced_ops.max(1) as f64,
        ));
        m.push((
            "core.kernel_fallbacks".into(),
            sum(|t| t.fallbacks as f64) + self.oracle_fallbacks as f64,
        ));
        m
    }
}
