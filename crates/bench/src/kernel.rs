//! Kernel micro-benchmark: bit-serial vs fast-path MAC-window
//! evaluation on the cycle-accurate machine, with bit-exactness and
//! worker-determinism checks (`BENCH_kernel.json`).
//!
//! The headline case is the paper's 8-bit rate-coded configuration on one
//! fully-occupied 16×16 weight tile. Three companion rows time the other
//! dispatch-table paths: the closed-form temporal window (uGEMM-T), the
//! constant-sign packed bipolar kernel (uGEMM-H), and the multi-word
//! popcount reduction on a stream wider than one machine word. The report
//! also sweeps the EBT × scheme space asserting every fast path reproduces
//! the bit-serial reference exactly, and re-runs each fast path across
//! worker counts asserting the output checksum never moves.

use std::time::Instant;

use crate::table::Table;
use usystolic_core::{
    cycle_accurate_gemm_with, ComputingScheme, CycleStats, KernelMode, SystolicConfig,
};
use usystolic_gemm::{GemmConfig, Matrix};
use usystolic_obs::{JsonValue, ToJson};
use usystolic_unary::rng::SplitMix64;

/// Result of one kernel benchmark run.
#[derive(Debug, Clone)]
pub struct KernelBench {
    /// Tile rows/cols of the headline case (square).
    pub tile: usize,
    /// Data bitwidth of the headline case.
    pub bitwidth: u32,
    /// Input vectors pushed through the tile.
    pub vectors: usize,
    /// Interleaved timing rounds per side (best-of).
    pub iters: usize,
    /// Bit-serial wall time per call, microseconds (best of `iters`).
    pub serial_us: f64,
    /// Word-packed wall time per call, microseconds (best of `iters`).
    pub packed_us: f64,
    /// `serial_us / packed_us`.
    pub speedup: f64,
    /// Output checksum of the bit-serial run.
    pub checksum_serial: u64,
    /// Output checksum of the packed run.
    pub checksum_packed: u64,
    /// Whether the two checksums (and cycle statistics) agree.
    pub checksums_match: bool,
    /// Whether the fast kernels matched the bit-serial reference exactly
    /// over the full EBT × scheme sweep and the multi-word case.
    pub bit_exact: bool,
    /// Worker counts exercised by the determinism check.
    pub workers: Vec<usize>,
    /// Whether every worker count produced the packed checksum.
    pub workers_consistent: bool,
    /// Bit-serial wall time of the temporal (uGEMM-T) case, microseconds.
    pub temporal_serial_us: f64,
    /// Closed-form wall time of the temporal case, microseconds.
    pub temporal_closed_us: f64,
    /// `temporal_serial_us / temporal_closed_us`.
    pub temporal_speedup: f64,
    /// Whether the closed-form temporal window reproduced the bit-serial
    /// reference (outputs and cycle statistics) at every worker count.
    pub temporal_bit_exact: bool,
    /// Bit-serial wall time of the uGEMM-H case, microseconds.
    pub hybrid_serial_us: f64,
    /// Packed wall time of the uGEMM-H case, microseconds.
    pub hybrid_packed_us: f64,
    /// `hybrid_serial_us / hybrid_packed_us`.
    pub hybrid_speedup: f64,
    /// Whether the packed bipolar uGEMM-H kernel reproduced the bit-serial
    /// reference (outputs and cycle statistics) at every worker count.
    pub hybrid_bit_exact: bool,
    /// Data bitwidth of the multi-word case (stream wider than 64 bits).
    pub multiword_bitwidth: u32,
    /// Bit-serial wall time of the multi-word case, microseconds.
    pub multiword_serial_us: f64,
    /// Packed wall time of the multi-word case, microseconds.
    pub multiword_packed_us: f64,
    /// `multiword_serial_us / multiword_packed_us`.
    pub multiword_speedup: f64,
}

/// Order-sensitive FNV-style checksum over an output matrix and its cycle
/// statistics, so "same checksum" means "same result, bit for bit".
#[must_use]
pub fn checksum(out: &Matrix<i64>, stats: &CycleStats) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for &v in out.as_slice() {
        mix(v as u64);
    }
    mix(stats.cycles);
    mix(stats.busy_pe_cycles);
    mix(stats.tiles);
    mix(stats.saturation_events);
    h
}

fn deterministic_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<i64> {
    let mut rng = SplitMix64::new(seed);
    let mut m = Matrix::<i64>::zeros(rows, cols);
    for v in m.as_mut_slice() {
        *v = rng.range_i64(-127, 127);
    }
    m
}

fn headline_case(tile: usize, vectors: usize) -> (GemmConfig, Matrix<i64>, Matrix<i64>) {
    let gemm = GemmConfig::matmul(vectors, tile, tile).expect("valid benchmark shape");
    let input = deterministic_matrix(vectors, tile, 0x5eed_0001);
    let weights = deterministic_matrix(tile, tile, 0x5eed_0002);
    (gemm, input, weights)
}

/// Worker counts of the determinism sweep.
pub const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// Timed rounds per side in the full run.
const ROUNDS: usize = 5;

/// Wall time each full-run round fills per side, microseconds: every
/// side runs for at least `ROUNDS × ROUND_US` = 20 ms.
const ROUND_US: f64 = 4_000.0;

/// Times two sides in `rounds` interleaved rounds and returns each side's
/// best per-call time over the rounds (microseconds) and its checksum.
/// An untimed warm-up call sizes each side's batch to fill `round_us`, and
/// each round times one batch of either side back to back, so a burst of
/// host load lands on both sides instead of on one short run.
fn time_sides(
    rounds: usize,
    round_us: f64,
    mut sides: [&mut dyn FnMut() -> u64; 2],
) -> [(f64, u64); 2] {
    let mut best = [(f64::INFINITY, 0u64); 2];
    let mut reps = [1usize; 2];
    for ((side, best), reps) in sides.iter_mut().zip(&mut best).zip(&mut reps) {
        let t0 = Instant::now();
        best.1 = side();
        let warm_us = t0.elapsed().as_secs_f64() * 1e6;
        *reps = (round_us / warm_us.max(1e-3)).ceil().max(1.0) as usize;
    }
    for _ in 0..rounds.max(1) {
        for ((side, best), &reps) in sides.iter_mut().zip(&mut best).zip(&reps) {
            let t0 = Instant::now();
            for _ in 0..reps {
                best.1 = side();
            }
            best.0 = best.0.min(t0.elapsed().as_secs_f64() * 1e6 / reps as f64);
        }
    }
    best
}

/// One serial-vs-fast comparison: interleaved timings, both checksums,
/// and whether the fast path replays its checksum at every worker count
/// of [`WORKERS`] (outputs *and* cycle statistics must agree).
struct PairTiming {
    serial_us: f64,
    fast_us: f64,
    checksum_serial: u64,
    checksum_fast: u64,
    workers_consistent: bool,
}

impl PairTiming {
    fn speedup(&self) -> f64 {
        self.serial_us / self.fast_us.max(1e-9)
    }

    fn exact(&self) -> bool {
        self.checksum_serial == self.checksum_fast && self.workers_consistent
    }
}

fn timed_pair(
    cfg: &SystolicConfig,
    gemm: &GemmConfig,
    input: &Matrix<i64>,
    weights: &Matrix<i64>,
    short: bool,
) -> PairTiming {
    let run = |mode: KernelMode, workers: usize| {
        let (out, stats) = cycle_accurate_gemm_with(cfg, gemm, input, weights, mode, workers)
            .expect("benchmark run");
        checksum(&out, &stats)
    };
    let (rounds, round_us) = if short { (1, 0.0) } else { (ROUNDS, ROUND_US) };
    let [(serial_us, checksum_serial), (fast_us, checksum_fast)] = time_sides(
        rounds,
        round_us,
        [&mut || run(KernelMode::Serial, 1), &mut || {
            run(KernelMode::Packed, 1)
        }],
    );
    PairTiming {
        serial_us,
        fast_us,
        checksum_serial,
        checksum_fast,
        workers_consistent: WORKERS
            .iter()
            .all(|&w| run(KernelMode::Packed, w) == checksum_fast),
    }
}

/// Runs the kernel benchmark. `short` shrinks the vector count and times
/// each side once, for CI smoke runs.
#[must_use]
pub fn run(short: bool) -> KernelBench {
    let tile = 16usize;
    let bitwidth = 8u32;
    let vectors = if short { 4 } else { 16 };
    let cfg = SystolicConfig::new(tile, tile, ComputingScheme::UnaryRate, bitwidth)
        .expect("valid benchmark configuration")
        .with_acc_width(32);
    let (gemm, input, weights) = headline_case(tile, vectors);
    let headline = timed_pair(&cfg, &gemm, &input, &weights, short);

    // EBT × scheme bit-exactness sweep (small case keeps smoke runs fast).
    // uGEMM-H rejects true early termination, so it rides along at the
    // full-width no-op EBT, pinning its packed kernel against the
    // bit-serial bipolar walk.
    let (sweep_gemm, sweep_in, sweep_w) = headline_case(8, 3);
    let mut bit_exact = true;
    for (scheme, ebts) in [
        (ComputingScheme::UnaryRate, &[8u32, 7, 6, 5, 4][..]),
        (ComputingScheme::UnaryTemporal, &[8u32][..]),
        (ComputingScheme::UGemmHybrid, &[8u32][..]),
    ] {
        for &ebt in ebts {
            let sweep_cfg = SystolicConfig::new(8, 8, scheme, bitwidth)
                .expect("valid sweep configuration")
                .with_effective_bitwidth(ebt)
                .expect("valid EBT")
                .with_acc_width(32);
            let (so, ss) = cycle_accurate_gemm_with(
                &sweep_cfg,
                &sweep_gemm,
                &sweep_in,
                &sweep_w,
                KernelMode::Serial,
                1,
            )
            .expect("serial sweep run");
            let (po, ps) = cycle_accurate_gemm_with(
                &sweep_cfg,
                &sweep_gemm,
                &sweep_in,
                &sweep_w,
                KernelMode::Packed,
                1,
            )
            .expect("packed sweep run");
            bit_exact &= checksum(&so, &ss) == checksum(&po, &ps);
        }
    }

    // Closed-form temporal window (uGEMM-T): the dispatch table resolves
    // the fast path to `KernelPath::ClosedForm`, so no stream is ever
    // materialised — window ones come from the prefix-count arithmetic.
    let temporal_cfg = SystolicConfig::new(tile, tile, ComputingScheme::UnaryTemporal, bitwidth)
        .expect("valid temporal configuration")
        .with_acc_width(32);
    let temporal = timed_pair(&temporal_cfg, &gemm, &input, &weights, short);

    // Packed bipolar uGEMM-H: constant-sign enable masks replace the
    // conditionally-advanced RNG walk. Saturation statistics must agree
    // too, so the accumulator stays at the default full width here.
    let hybrid_tile = 8usize;
    let hybrid_cfg = SystolicConfig::new(
        hybrid_tile,
        hybrid_tile,
        ComputingScheme::UGemmHybrid,
        bitwidth,
    )
    .expect("valid hybrid configuration")
    .with_acc_width(32);
    let (hybrid_gemm, hybrid_in, hybrid_w) = headline_case(hybrid_tile, vectors.min(8));
    let hybrid = timed_pair(&hybrid_cfg, &hybrid_gemm, &hybrid_in, &hybrid_w, short);

    // Multi-word reduction: a 14-bit rate-coded stream is 2^13 bits =
    // 128 u64 words per comparator stream, exercising the unrolled
    // popcount chain far past the single-word fast case.
    let multiword_bitwidth = 14u32;
    let multiword_tile = 4usize;
    let multiword_cfg = SystolicConfig::new(
        multiword_tile,
        multiword_tile,
        ComputingScheme::UnaryRate,
        multiword_bitwidth,
    )
    .expect("valid multi-word configuration")
    .with_acc_width(32);
    let (mw_gemm, mw_in, mw_w) = headline_case(multiword_tile, 2);
    let multiword = timed_pair(&multiword_cfg, &mw_gemm, &mw_in, &mw_w, short);
    bit_exact &= multiword.exact();

    KernelBench {
        tile,
        bitwidth,
        vectors,
        iters: if short { 1 } else { ROUNDS },
        serial_us: headline.serial_us,
        packed_us: headline.fast_us,
        speedup: headline.speedup(),
        checksum_serial: headline.checksum_serial,
        checksum_packed: headline.checksum_fast,
        checksums_match: headline.checksum_serial == headline.checksum_fast,
        bit_exact,
        workers: WORKERS.to_vec(),
        workers_consistent: headline.workers_consistent,
        temporal_serial_us: temporal.serial_us,
        temporal_closed_us: temporal.fast_us,
        temporal_speedup: temporal.speedup(),
        temporal_bit_exact: temporal.exact(),
        hybrid_serial_us: hybrid.serial_us,
        hybrid_packed_us: hybrid.fast_us,
        hybrid_speedup: hybrid.speedup(),
        hybrid_bit_exact: hybrid.exact(),
        multiword_bitwidth,
        multiword_serial_us: multiword.serial_us,
        multiword_packed_us: multiword.fast_us,
        multiword_speedup: multiword.speedup(),
    }
}

impl KernelBench {
    /// Renders the report as an aligned text table.
    #[must_use]
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "Kernel bench: {}-bit rate-coded {}x{} tile, {} vectors",
                self.bitwidth, self.tile, self.tile, self.vectors
            ),
            &["metric", "value"],
        );
        t.push_row(vec!["serial us".into(), format!("{:.1}", self.serial_us)]);
        t.push_row(vec!["packed us".into(), format!("{:.1}", self.packed_us)]);
        t.push_row(vec!["speedup".into(), format!("{:.1}x", self.speedup)]);
        t.push_row(vec![
            "checksums match".into(),
            self.checksums_match.to_string(),
        ]);
        t.push_row(vec![
            "bit exact (EBT sweep)".into(),
            self.bit_exact.to_string(),
        ]);
        t.push_row(vec![
            "workers consistent".into(),
            format!("{} ({:?})", self.workers_consistent, self.workers),
        ]);
        t.push_row(vec![
            "temporal closed-form speedup".into(),
            format!(
                "{:.1}x ({:.1} -> {:.1} us)",
                self.temporal_speedup, self.temporal_serial_us, self.temporal_closed_us
            ),
        ]);
        t.push_row(vec![
            "temporal bit exact".into(),
            self.temporal_bit_exact.to_string(),
        ]);
        t.push_row(vec![
            "uGEMM-H packed speedup".into(),
            format!(
                "{:.1}x ({:.1} -> {:.1} us)",
                self.hybrid_speedup, self.hybrid_serial_us, self.hybrid_packed_us
            ),
        ]);
        t.push_row(vec![
            "uGEMM-H bit exact".into(),
            self.hybrid_bit_exact.to_string(),
        ]);
        t.push_row(vec![
            format!("multi-word speedup ({}-bit)", self.multiword_bitwidth),
            format!(
                "{:.1}x ({:.1} -> {:.1} us)",
                self.multiword_speedup, self.multiword_serial_us, self.multiword_packed_us
            ),
        ]);
        t
    }
}

impl ToJson for KernelBench {
    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("tile", (self.tile as u64).to_json()),
            ("bitwidth", u64::from(self.bitwidth).to_json()),
            ("vectors", (self.vectors as u64).to_json()),
            ("iters", (self.iters as u64).to_json()),
            ("serial_us", self.serial_us.to_json()),
            ("packed_us", self.packed_us.to_json()),
            ("speedup", self.speedup.to_json()),
            ("checksum_serial", self.checksum_serial.to_json()),
            ("checksum_packed", self.checksum_packed.to_json()),
            ("checksums_match", JsonValue::Bool(self.checksums_match)),
            ("bit_exact", JsonValue::Bool(self.bit_exact)),
            (
                "workers",
                JsonValue::Array(self.workers.iter().map(|&w| (w as u64).to_json()).collect()),
            ),
            (
                "workers_consistent",
                JsonValue::Bool(self.workers_consistent),
            ),
            ("temporal_serial_us", self.temporal_serial_us.to_json()),
            ("temporal_closed_us", self.temporal_closed_us.to_json()),
            ("temporal_speedup", self.temporal_speedup.to_json()),
            (
                "temporal_bit_exact",
                JsonValue::Bool(self.temporal_bit_exact),
            ),
            ("hybrid_serial_us", self.hybrid_serial_us.to_json()),
            ("hybrid_packed_us", self.hybrid_packed_us.to_json()),
            ("hybrid_speedup", self.hybrid_speedup.to_json()),
            ("hybrid_bit_exact", JsonValue::Bool(self.hybrid_bit_exact)),
            (
                "multiword_bitwidth",
                u64::from(self.multiword_bitwidth).to_json(),
            ),
            ("multiword_serial_us", self.multiword_serial_us.to_json()),
            ("multiword_packed_us", self.multiword_packed_us.to_json()),
            ("multiword_speedup", self.multiword_speedup.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_bench_is_exact_and_deterministic() {
        let report = run(true);
        assert!(report.checksums_match, "serial vs packed checksums differ");
        assert!(report.bit_exact, "EBT sweep found a mismatch");
        assert!(report.workers_consistent, "worker count changed results");
        assert!(report.serial_us > 0.0 && report.packed_us > 0.0);
        assert!(report.temporal_bit_exact, "closed-form temporal mismatch");
        assert!(report.hybrid_bit_exact, "packed uGEMM-H mismatch");
        assert!(report.temporal_serial_us > 0.0 && report.temporal_closed_us > 0.0);
        assert!(report.hybrid_serial_us > 0.0 && report.hybrid_packed_us > 0.0);
        assert!(report.multiword_serial_us > 0.0 && report.multiword_packed_us > 0.0);
        let json = report.to_json().render();
        assert!(json.contains("\"checksums_match\":true"), "{json}");
        assert!(json.contains("\"bit_exact\":true"), "{json}");
        assert!(json.contains("\"workers_consistent\":true"), "{json}");
        assert!(json.contains("\"temporal_bit_exact\":true"), "{json}");
        assert!(json.contains("\"hybrid_bit_exact\":true"), "{json}");
        assert!(json.contains("\"multiword_speedup\""), "{json}");
        assert!(report.table().rows().len() >= 11);
    }

    #[test]
    fn checksum_is_order_sensitive() {
        let a = deterministic_matrix(2, 2, 1);
        let mut b = a.clone();
        let s = CycleStats::default();
        assert_eq!(checksum(&a, &s), checksum(&b, &s));
        let (x, y) = (b[(0, 0)], b[(0, 1)]);
        b[(0, 0)] = y;
        b[(0, 1)] = x;
        assert_ne!(checksum(&a, &s), checksum(&b, &s));
    }
}
