//! The array machine: the one weight-tile sweep every unary GEMM runs
//! through.
//!
//! Under [`KernelMode::Serial`] each tile steps the whole `R × C` array
//! cycle by cycle exactly as Fig. 7 describes it:
//!
//! * `R'` weight-preload cycles per tile;
//! * input vectors injected bottom-row-first through the staircase skew
//!   (the surrounding FIFOs), one new vector per MAC interval;
//! * per row, the leftmost PE generates the (IFM-bit, random-number) pair
//!   each multiply cycle and the pair travels right through the IDFF/RREG
//!   chain — one column per cycle;
//! * at the M-end cycle every PE folds in the partial sum its lower
//!   neighbour published on the previous cycle, and the top row streams
//!   the finished OFM through the early-termination shifters.
//!
//! The fast paths exploit the Eq. 3 equivalence instead: each PE's MAC
//! window is one call of a per-window kernel of [`crate::kernel`], and
//! the M-end cascade is replayed per `(vector, column)`. This bit-serial
//! machine is the oracle they are pinned against: `tests::*` prove every
//! fast path bit-exact against [`KernelMode::Serial`] at workers 1/2/4/8,
//! saturation statistics included, and
//! `tests::cycle_count_matches_timing_model` cross-validates the measured
//! cycle count against the `usystolic-sim` ideal-cycle formula.

use crate::config::SystolicConfig;
use crate::kernel::{
    ClosedFormTileKernel, KernelMode, KernelPath, PackedHybridTileKernel, PackedTileKernel,
};
use crate::mapping::TileMapping;
use crate::pe::IfmSource;
use crate::scheme::ComputingScheme;
use crate::CoreError;
use usystolic_gemm::{GemmConfig, Matrix};
use usystolic_unary::add::BinaryAccumulator;
use usystolic_unary::coding::Coding;
use usystolic_unary::rng::{NumberSource, SobolSource};
use usystolic_unary::sign::SignMagnitude;

/// Statistics of a cycle-accurate run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleStats {
    /// Total clock cycles summed over all tiles.
    pub cycles: u64,
    /// PE-cycles spent inside MAC windows.
    pub busy_pe_cycles: u64,
    /// Weight tiles executed.
    pub tiles: u64,
    /// OREG saturation events.
    pub saturation_events: u64,
}

/// Per-row bitstream generation state.
enum RowGen {
    /// uSystolic: C-I comparator source + conditional weight RNG.
    Unary {
        ifm_src: IfmSource,
        w_rng: SobolSource,
        ifm: SignMagnitude,
        last_r: u64,
    },
    /// uGEMM-H: bipolar input source + ones/zeros-phase RNG pair.
    Bipolar {
        in_src: SobolSource,
        rng_ones: SobolSource,
        rng_zeros: SobolSource,
        in_threshold: u64,
    },
    /// Binary schemes: exact arithmetic, no bitstreams.
    Binary,
}

impl RowGen {
    /// The (enable/input bit, random number) pair for one multiply cycle.
    fn gen_pair(&mut self) -> (bool, u64) {
        match self {
            RowGen::Unary {
                ifm_src,
                w_rng,
                ifm,
                last_r,
            } => {
                let e = ifm_src.next() < ifm.magnitude;
                if e {
                    *last_r = w_rng.next();
                }
                (e, *last_r)
            }
            RowGen::Bipolar {
                in_src,
                rng_ones,
                rng_zeros,
                in_threshold,
            } => {
                let in_bit = in_src.next() < *in_threshold;
                let r = if in_bit {
                    rng_ones.next()
                } else {
                    rng_zeros.next()
                };
                (in_bit, r)
            }
            RowGen::Binary => (false, 0),
        }
    }
}

/// Runs a lowered GEMM (`input: M × K`, `weights: K × N`) through the
/// array machine on the fastest exact kernel ([`KernelMode::Auto`]),
/// single-threaded.
///
/// # Errors
///
/// Returns [`CoreError::Shape`] for mismatched matrices.
pub fn cycle_accurate_gemm(
    config: &SystolicConfig,
    gemm: &GemmConfig,
    input: &Matrix<i64>,
    weights: &Matrix<i64>,
) -> Result<(Matrix<i64>, CycleStats), CoreError> {
    cycle_accurate_gemm_with(config, gemm, input, weights, KernelMode::Auto, 1)
}

/// [`cycle_accurate_gemm`] with an explicit kernel mode and worker count:
/// the weight-tile sweep behind [`crate::exec::GemmExecutor`].
///
/// The sweep is embarrassingly parallel (tiles share no machine state,
/// only the output accumulation), so tiles are dispatched across
/// `workers` threads of the shared work-stealing pool
/// ([`usystolic_pool`]) and each tile's `M × C'` partial output is
/// folded sequentially in the canonical `(col_fold, row_fold)` order —
/// the result is **bit-for-bit identical for every worker count and for
/// every [`KernelMode`]** (`tests::packed_kernel_and_workers_are_bit_exact`).
///
/// Under [`KernelMode::Auto`] / [`KernelMode::Packed`], each tile is
/// evaluated by the fastest path [`KernelMode::resolve`] grants the
/// configuration: closed-form window arithmetic for temporal coding,
/// the word-packed popcount kernel (64 multiply cycles per `u64` word,
/// see [`crate::kernel`]) for rate coding and uGEMM-H, and the
/// bit-serial reference for the binary baselines (and for uGEMM-H OREGs
/// narrower than `bitwidth + 2`, where mid-window clamping is real
/// behaviour the lump add cannot reproduce).
///
/// # Errors
///
/// Returns [`CoreError::Shape`] for mismatched matrices and
/// [`CoreError::Config`] if the worker pool fails.
pub fn cycle_accurate_gemm_with(
    config: &SystolicConfig,
    gemm: &GemmConfig,
    input: &Matrix<i64>,
    weights: &Matrix<i64>,
    mode: KernelMode,
    workers: usize,
) -> Result<(Matrix<i64>, CycleStats), CoreError> {
    let (k, n) = gemm.lowered_shape();
    let m = gemm.output_pixels();
    if input.rows() != m || input.cols() != k || weights.rows() != k || weights.cols() != n {
        return Err(CoreError::Shape(format!(
            "lowered shapes must be ({m}x{k})·({k}x{n}), got ({}x{})·({}x{})",
            input.rows(),
            input.cols(),
            weights.rows(),
            weights.cols()
        )));
    }

    let map = TileMapping::new(gemm, config.rows(), config.cols());
    // Resolve the dispatch table once per GEMM (not per tile), so a
    // demoted request records exactly one fallback event.
    let path = mode.resolve(config);
    let kernel_label = path.label();
    let tiles: Vec<(usize, usize)> = (0..map.col_folds())
        .flat_map(|cf| (0..map.row_folds()).map(move |rf| (cf, rf)))
        .collect();

    let mut sweep_t0 = 0.0;
    usystolic_obs::with(|o| sweep_t0 = o.tracer.now_us());

    // Per-tile partials in parallel. The per-tile spans inside the closure
    // are recorded only on the inline (single-worker) path: worker threads
    // carry no thread-local observability session, so the calls no-op
    // there and the sweep-level span below covers the parallel case.
    let partials = usystolic_pool::run_indexed(workers, tiles.len(), |i| {
        let (cf, rf) = tiles[i];
        let mut t0 = 0.0;
        usystolic_obs::with(|o| t0 = o.tracer.now_us());
        let tile = TileMachine::new(config, input, weights, &map, rf, cf);
        let mut tile_out = Matrix::<i64>::zeros(m, tile.cols);
        let mut tile_stats = CycleStats::default();
        match path {
            KernelPath::Serial => tile.run(&mut tile_out, &mut tile_stats),
            fast => tile.run_fast(fast, &mut tile_out, &mut tile_stats),
        }
        record_tile(kernel_label, cf, rf, tile.rows, tile.cols, t0);
        (tile_out, tile_stats)
    })
    .map_err(|e| CoreError::Config(format!("tile sweep worker pool failed: {e}")))?;

    // Deterministic sequential fold in tile order: parallelism changes
    // wall-clock time, never one output bit. Cross-fold partials meet in
    // the full-precision output buffer, never in a reduced-resolution
    // OREG.
    let mut out = Matrix::<i64>::zeros(m, n);
    let mut stats = CycleStats::default();
    for ((tile_out, tile_stats), &(cf, _)) in partials.iter().zip(&tiles) {
        let n0 = cf * config.cols();
        for p in 0..m {
            for c in 0..tile_out.cols() {
                out[(p, n0 + c)] += tile_out[(p, c)];
            }
        }
        stats.cycles += tile_stats.cycles;
        stats.busy_pe_cycles += tile_stats.busy_pe_cycles;
        stats.tiles += tile_stats.tiles;
        stats.saturation_events += tile_stats.saturation_events;
    }

    // Top-row shifters: rescale the early-terminated partial sums once,
    // after all folds have been accumulated (linear, so order-free).
    let et = config.early_termination();
    if et.terminates_early() {
        for v in out.as_mut_slice() {
            *v = et.scale(*v);
        }
    }

    usystolic_obs::with(|o| {
        use usystolic_obs::ToJson;
        let t1 = o.tracer.now_us();
        o.metrics.count(
            match path {
                KernelPath::Serial => "core.cycle.serial_pe_cycles",
                // The closed form models the same packed schedule; both
                // count as off-reference-machine PE cycles.
                KernelPath::Packed | KernelPath::ClosedForm => "core.cycle.packed_pe_cycles",
            },
            stats.busy_pe_cycles,
        );
        o.metrics.count("core.cycle.tiles", stats.tiles);
        o.metrics
            .count_labeled("core.cycle.tiles", &[("kernel", kernel_label)], stats.tiles);
        let args = o.correlated_args(vec![
            (
                "kernel".to_owned(),
                usystolic_obs::JsonValue::Str(kernel_label.to_owned()),
            ),
            (
                "packed".to_owned(),
                u64::from(path != KernelPath::Serial).to_json(),
            ),
            ("workers".to_owned(), (workers.max(1) as u64).to_json()),
            ("tiles".to_owned(), stats.tiles.to_json()),
        ]);
        o.tracer.complete(
            format!("cycle_gemm sweep {mode}"),
            "core",
            usystolic_obs::PID_WALL,
            0,
            sweep_t0,
            t1 - sweep_t0,
            args,
        );
    });
    Ok((out, stats))
}

/// Records one tile's wall-clock span on the [`usystolic_obs::PID_WALL`]
/// lane, labelled with its kernel path (no-op when no session is
/// installed — in particular on worker threads of the parallel sweep,
/// which carry no session).
fn record_tile(kernel: &'static str, cf: usize, rf: usize, rows: usize, cols: usize, t0: f64) {
    usystolic_obs::with(|o| {
        use usystolic_obs::ToJson;
        let t1 = o.tracer.now_us();
        o.metrics.observe("core.tile_us", t1 - t0);
        o.metrics
            .observe_labeled("core.tile_us", &[("kernel", kernel)], t1 - t0);
        o.metrics
            .count_labeled("core.tiles", &[("kernel", kernel)], 1);
        // `correlated_args` stamps the active request/shard ids (set by
        // the serve engine) onto the tile span, closing the admission →
        // batch → layer → tile chain in the trace.
        let args = o.correlated_args(vec![
            ("col_fold".to_owned(), (cf as u64).to_json()),
            ("row_fold".to_owned(), (rf as u64).to_json()),
            ("rows".to_owned(), (rows as u64).to_json()),
            ("cols".to_owned(), (cols as u64).to_json()),
        ]);
        o.tracer.complete(
            format!("{kernel} tile c{cf}r{rf}"),
            "core",
            usystolic_obs::PID_WALL,
            1,
            t0,
            t1 - t0,
            args,
        );
    });
}

/// One weight tile stepping cycle by cycle.
struct TileMachine<'a> {
    config: &'a SystolicConfig,
    input: &'a Matrix<i64>,
    weights: &'a Matrix<i64>,
    k0: usize,
    n0: usize,
    rows: usize,
    cols: usize,
    m: usize,
}

impl<'a> TileMachine<'a> {
    fn new(
        config: &'a SystolicConfig,
        input: &'a Matrix<i64>,
        weights: &'a Matrix<i64>,
        map: &TileMapping,
        rf: usize,
        cf: usize,
    ) -> Self {
        Self {
            config,
            input,
            weights,
            k0: rf * config.rows(),
            n0: cf * config.cols(),
            rows: map.rows_in_fold(rf),
            cols: map.cols_in_fold(cf),
            m: map.m(),
        }
    }

    fn fresh_row_gen(&self) -> RowGen {
        let bitwidth = self.config.bitwidth();
        match self.config.scheme() {
            s @ (ComputingScheme::UnaryRate | ComputingScheme::UnaryTemporal) => RowGen::Unary {
                ifm_src: IfmSource::for_coding(
                    if s == ComputingScheme::UnaryTemporal {
                        Coding::Temporal
                    } else {
                        Coding::Rate
                    },
                    bitwidth,
                ),
                w_rng: SobolSource::dimension(0, bitwidth - 1),
                ifm: SignMagnitude::default(),
                last_r: 0,
            },
            ComputingScheme::UGemmHybrid => RowGen::Bipolar {
                in_src: SobolSource::dimension(1, bitwidth),
                rng_ones: SobolSource::dimension(0, bitwidth),
                rng_zeros: SobolSource::dimension(2, bitwidth),
                in_threshold: 0,
            },
            _ => RowGen::Binary,
        }
    }

    /// Resets a row generator for a new MAC window on `level`.
    fn reset_row_gen(&self, gen: &mut RowGen, level: i64) {
        let bitwidth = self.config.bitwidth();
        match gen {
            RowGen::Unary {
                ifm_src,
                w_rng,
                ifm,
                last_r,
            } => {
                ifm_src.reset();
                w_rng.reset();
                *ifm = SignMagnitude::from_signed(level, bitwidth);
                *last_r = 0;
            }
            RowGen::Bipolar {
                in_src,
                rng_ones,
                rng_zeros,
                in_threshold,
            } => {
                in_src.reset();
                rng_ones.reset();
                rng_zeros.reset();
                *in_threshold = bipolar_threshold(level, bitwidth);
            }
            RowGen::Binary => {}
        }
    }

    fn run(&self, out: &mut Matrix<i64>, stats: &mut CycleStats) {
        let scheme = self.config.scheme();
        let bitwidth = self.config.bitwidth();
        let mac = self.config.mac_cycles() as i64;
        let mul = self.config.mul_cycles() as i64;
        let preload = self.rows as i64;
        let (rows, cols, m) = (self.rows, self.cols, self.m as i64);

        // Stationary weights of this tile, in the scheme's operand form.
        let w_sm = self.tile_weights(|w| SignMagnitude::from_signed(w, bitwidth));
        let w_bipolar_thr = self.tile_weights(|w| bipolar_threshold(w, bitwidth));

        // Bottom row starts first so partial sums cascade upward.
        let start = |r: usize, c: usize| preload + (rows as i64 - 1 - r as i64) + c as i64;
        let t_end = start(0, cols - 1) + m * mac - 1;

        let mut gens: Vec<RowGen> = (0..rows).map(|_| self.fresh_row_gen()).collect();
        // Per-row (bit, random) delay chains; index c holds the pair
        // generated c cycles ago.
        let mut pipes: Vec<Vec<(bool, u64)>> = vec![vec![(false, 0); cols]; rows];
        let mut accs: Vec<BinaryAccumulator> = (0..rows * cols)
            .map(|_| BinaryAccumulator::new(self.config.acc_width()))
            .collect();
        // Partial sums published at the previous cycle's M-end.
        let mut psum_prev = vec![0i64; rows * cols];
        let mut psum_next = vec![0i64; rows * cols];

        for t in 0..=t_end {
            // Phase 1: leftmost-column generation and pipeline shift.
            for r in 0..rows {
                let local0 = t - start(r, 0);
                let pair = if local0 >= 0 && local0 / mac < m {
                    let phase = local0 % mac;
                    if phase == 0 {
                        let p = (local0 / mac) as usize;
                        let level = self.input[(p, self.k0 + r)];
                        self.reset_row_gen(&mut gens[r], level);
                    }
                    if phase < mul {
                        gens[r].gen_pair()
                    } else {
                        (false, 0)
                    }
                } else {
                    (false, 0)
                };
                // Shift right by one PE; the new pair enters at column 0.
                pipes[r].rotate_right(1);
                pipes[r][0] = pair;
            }

            // Phase 2: PE compute and M-end cascade.
            for r in 0..rows {
                for c in 0..cols {
                    let local = t - start(r, c);
                    if local < 0 || local / mac >= m {
                        continue;
                    }
                    let p = (local / mac) as usize;
                    let phase = local % mac;
                    stats.busy_pe_cycles += 1;
                    let idx = r * cols + c;
                    if phase < mul {
                        match scheme {
                            ComputingScheme::UnaryRate | ComputingScheme::UnaryTemporal => {
                                let (e, rand) = pipes[r][c];
                                if e && rand < w_sm[r][c].magnitude {
                                    let ifm = SignMagnitude::from_signed(
                                        self.input[(p, self.k0 + r)],
                                        bitwidth,
                                    );
                                    accs[idx].add(ifm.product_increment(w_sm[r][c]));
                                }
                            }
                            ComputingScheme::UGemmHybrid => {
                                let (in_bit, rand) = pipes[r][c];
                                let thr = w_bipolar_thr[r][c];
                                let bit = if in_bit { rand < thr } else { rand >= thr };
                                accs[idx].add(if bit { 1 } else { -1 });
                            }
                            ComputingScheme::BinaryParallel | ComputingScheme::BinarySerial => {
                                // The exact product lands at the final
                                // multiply cycle (serial schemes spread it
                                // over N cycles without changing the value).
                                if phase == mul - 1 {
                                    accs[idx].add(
                                        self.input[(p, self.k0 + r)]
                                            * self.weights[(self.k0 + r, self.n0 + c)],
                                    );
                                }
                            }
                        }
                    }
                    if phase == mac - 1 {
                        // M-end: fold in the lower neighbour's partial sum
                        // (published last cycle) and publish our own.
                        let below = if r + 1 < rows {
                            psum_prev[(r + 1) * cols + c]
                        } else {
                            0
                        };
                        accs[idx].add(below);
                        if accs[idx].saturated() {
                            stats.saturation_events += 1;
                        }
                        let total = accs[idx].drain();
                        if r == 0 {
                            out[(p, c)] += total;
                        } else {
                            psum_next[idx] = total;
                        }
                    }
                }
            }
            std::mem::swap(&mut psum_prev, &mut psum_next);
        }

        stats.cycles += (t_end + 1) as u64;
        stats.tiles += 1;
    }

    /// The fast evaluation of the same tile on `path` (closed-form or
    /// word-packed): each PE's MAC window collapses to one call of the
    /// path's per-window kernel ([`crate::kernel`]), and
    /// [`cascade_replay`](Self::cascade_replay) folds the windows through
    /// the M-end cascade.
    ///
    /// Bit-exact against [`run`](Self::run) wherever
    /// [`KernelMode::resolve`] grants the path: a sign-magnitude window's
    /// increments all carry the sign `ISIGN ⊕ WSIGN` and the accumulator
    /// clamps monotonically, and a uGEMM-H OREG of at least
    /// `bitwidth + 2` bits cannot clamp mid-window — so one lump add per
    /// window reproduces the per-cycle adds, clamping and saturation
    /// count included.
    fn run_fast(&self, path: KernelPath, out: &mut Matrix<i64>, stats: &mut CycleStats) {
        let bitwidth = self.config.bitwidth();
        let mul_cycles = self.config.mul_cycles();
        let sm = move |v: i64| SignMagnitude::from_signed(v, bitwidth);
        let level = |p: usize, r: usize| self.input[(p, self.k0 + r)];
        match (path, self.config.scheme()) {
            (KernelPath::ClosedForm, _) => {
                let kernel =
                    ClosedFormTileKernel::new(bitwidth, mul_cycles, &self.tile_weights(sm));
                self.cascade_replay(
                    |p, r, c| kernel.window_count(r, c, sm(level(p, r))),
                    out,
                    stats,
                );
            }
            (_, ComputingScheme::UGemmHybrid) => {
                let thr = move |v: i64| bipolar_threshold(v, bitwidth);
                let mut kernel = PackedHybridTileKernel::new(bitwidth, &self.tile_weights(thr));
                self.cascade_replay(
                    |p, r, c| kernel.window_sum(r, c, thr(level(p, r))),
                    out,
                    stats,
                );
            }
            (_, scheme) => {
                let coding = if scheme == ComputingScheme::UnaryTemporal {
                    Coding::Temporal
                } else {
                    Coding::Rate
                };
                let mut kernel =
                    PackedTileKernel::new(bitwidth, coding, mul_cycles, &self.tile_weights(sm));
                self.cascade_replay(
                    |p, r, c| kernel.window_count(r, c, sm(level(p, r))),
                    out,
                    stats,
                );
            }
        }
    }

    /// This tile's stationary weights, each converted by `operand` into
    /// the scheme's operand form.
    fn tile_weights<T>(&self, operand: impl Fn(i64) -> T) -> Vec<Vec<T>> {
        (0..self.rows)
            .map(|r| {
                (0..self.cols)
                    .map(|c| operand(self.weights[(self.k0 + r, self.n0 + c)]))
                    .collect()
            })
            .collect()
    }

    /// The M-end cascade of the fast paths, replayed per
    /// `(vector, column)` bottom-up (row `r+1`'s M-end lands one cycle
    /// before row `r`'s, so its drained partial sum is what row `r`
    /// folds in), plus the closed-form schedule statistics, which
    /// `tests::packed_stats_match_serial_stats` pins against the stepped
    /// machine. One accumulator is reused across windows: `drain()`
    /// clears the value and the sticky saturation flag, exactly like the
    /// per-PE OREGs.
    fn cascade_replay(
        &self,
        mut window: impl FnMut(usize, usize, usize) -> i64,
        out: &mut Matrix<i64>,
        stats: &mut CycleStats,
    ) {
        let mac = self.config.mac_cycles() as i64;
        let preload = self.rows as i64;
        let (rows, cols, m) = (self.rows, self.cols, self.m);

        let mut acc = BinaryAccumulator::new(self.config.acc_width());
        for p in 0..m {
            for c in 0..cols {
                let mut below = 0i64;
                for r in (0..rows).rev() {
                    acc.add(window(p, r, c));
                    acc.add(below);
                    if acc.saturated() {
                        stats.saturation_events += 1;
                    }
                    below = acc.drain();
                }
                out[(p, c)] += below;
            }
        }

        let t_end = preload + (rows as i64 - 1) + (cols as i64 - 1) + m as i64 * mac - 1;
        stats.cycles += (t_end + 1) as u64;
        stats.busy_pe_cycles += (rows * cols * m) as u64 * self.config.mac_cycles();
        stats.tiles += 1;
    }
}

/// uGEMM-H's bipolar comparator threshold for a signed level:
/// `clamp(v) + 2^(bitwidth−1)`.
fn bipolar_threshold(v: i64, bitwidth: u32) -> u64 {
    let half = 1i64 << (bitwidth - 1);
    (v.clamp(-half, half) + half) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::GemmExecutor;
    use usystolic_gemm::im2col;
    use usystolic_gemm::{FeatureMap, WeightSet};

    fn lowered_case(seed: i64) -> (GemmConfig, Matrix<i64>, Matrix<i64>) {
        let gemm = GemmConfig::conv(4, 4, 2, 2, 2, 1, 3).expect("valid test shape");
        let input = FeatureMap::from_fn(4, 4, 2, |h, w, c| {
            ((h as i64 * 37 + w as i64 * 11 + c as i64 * 5 + seed) % 257) - 128
        });
        let weights = WeightSet::from_fn(3, 2, 2, 2, |oc, wh, ww, ic| {
            ((oc as i64 * 53 + wh as i64 * 17 + ww as i64 * 7 + ic as i64 * 3 + seed) % 257) - 128
        });
        let li = im2col::lower_input(&gemm, &input).expect("shapes match");
        let lw = im2col::lower_weights(&gemm, &weights).expect("shapes match");
        (gemm, li, lw)
    }

    /// The executor (fast kernels, one worker) against the bit-serial
    /// machine: the oracle, never the executor's own sweep mode.
    fn assert_matches_fast(scheme: ComputingScheme, rows: usize, cols: usize, seed: i64) {
        let (gemm, li, lw) = lowered_case(seed);
        let cfg = SystolicConfig::new(rows, cols, scheme, 8)
            .expect("valid test configuration")
            .with_acc_width(32);
        let (fast, _) = GemmExecutor::new(cfg)
            .execute_lowered(&gemm, &li, &lw)
            .expect("fast path executes");
        let (cycle, stats) = cycle_accurate_gemm_with(&cfg, &gemm, &li, &lw, KernelMode::Serial, 1)
            .expect("cycle path executes");
        assert_eq!(fast, cycle, "{scheme} {rows}x{cols}");
        assert!(stats.cycles > 0);
        assert_eq!(stats.saturation_events, 0);
    }

    #[test]
    fn matches_fast_executor_unary_rate() {
        assert_matches_fast(ComputingScheme::UnaryRate, 4, 3, 1);
        assert_matches_fast(ComputingScheme::UnaryRate, 3, 2, 2); // folded
        assert_matches_fast(ComputingScheme::UnaryRate, 12, 14, 3); // padded
    }

    #[test]
    fn matches_fast_executor_under_narrow_accumulator_folding() {
        // K > rows with deliberately narrow OREGs: each fold's partials
        // clamp in the per-row registers, but the cross-fold partials
        // must meet unclamped in the output buffer (a flat fold over the
        // whole K reduction would clamp where the M-end cascade of the
        // stepped machine cannot). Sign-magnitude schemes clamp at 4
        // bits; uGEMM-H at 10, the narrowest OREG that still packs.
        for (scheme, acc_width, seed) in [
            (ComputingScheme::UnaryRate, 4, 12),
            (ComputingScheme::UnaryTemporal, 4, 12),
            (ComputingScheme::UGemmHybrid, 10, 25),
        ] {
            let (gemm, li, lw) = lowered_case(seed);
            let mut saturated = false;
            for (rows, cols) in [(3, 2), (4, 3)] {
                let cfg = SystolicConfig::new(rows, cols, scheme, 8)
                    .expect("valid")
                    .with_acc_width(acc_width);
                assert_ne!(KernelMode::Auto.resolve(&cfg), KernelPath::Serial);
                let (cycle, cycle_stats) =
                    cycle_accurate_gemm_with(&cfg, &gemm, &li, &lw, KernelMode::Serial, 1)
                        .expect("cycle path executes");
                saturated |= cycle_stats.saturation_events > 0;
                for workers in [1usize, 2, 4, 8] {
                    let (fast, fast_stats) = GemmExecutor::new(cfg)
                        .with_workers(workers)
                        .execute_lowered(&gemm, &li, &lw)
                        .expect("fast path executes");
                    let case = format!("{scheme} {rows}x{cols} workers {workers}");
                    assert_eq!(fast, cycle, "{case}");
                    assert_eq!(
                        fast_stats.saturation_events, cycle_stats.saturation_events,
                        "{case}"
                    );
                }
            }
            assert!(saturated, "{scheme}: case must saturate");
        }
    }

    #[test]
    fn matches_fast_executor_unary_rate_early_terminated() {
        let (gemm, li, lw) = lowered_case(4);
        let cfg = SystolicConfig::new(4, 3, ComputingScheme::UnaryRate, 8)
            .expect("valid")
            .with_effective_bitwidth(6)
            .expect("valid EBT")
            .with_acc_width(32);
        let (fast, _) = GemmExecutor::new(cfg)
            .execute_lowered(&gemm, &li, &lw)
            .expect("fast path executes");
        let (cycle, _) = cycle_accurate_gemm_with(&cfg, &gemm, &li, &lw, KernelMode::Serial, 1)
            .expect("cycle path executes");
        assert_eq!(fast, cycle);
    }

    #[test]
    fn matches_fast_executor_unary_temporal() {
        assert_matches_fast(ComputingScheme::UnaryTemporal, 4, 3, 5);
        assert_matches_fast(ComputingScheme::UnaryTemporal, 2, 2, 6);
    }

    #[test]
    fn matches_fast_executor_binary() {
        assert_matches_fast(ComputingScheme::BinaryParallel, 4, 3, 7);
        assert_matches_fast(ComputingScheme::BinaryParallel, 3, 5, 8);
        assert_matches_fast(ComputingScheme::BinarySerial, 4, 3, 9);
    }

    #[test]
    fn matches_fast_executor_ugemm_h() {
        assert_matches_fast(ComputingScheme::UGemmHybrid, 4, 3, 10);
        assert_matches_fast(ComputingScheme::UGemmHybrid, 3, 2, 11);
    }

    #[test]
    fn cycle_count_matches_timing_model() {
        // The measured cycles must agree with the analytic per-tile
        // formula `R' + M·mac + R' + C' − 2` within one cycle per tile.
        let (gemm, li, lw) = lowered_case(12);
        for scheme in [ComputingScheme::BinaryParallel, ComputingScheme::UnaryRate] {
            let cfg = SystolicConfig::new(4, 3, scheme, 8)
                .expect("valid")
                .with_acc_width(32);
            let (_, stats) =
                cycle_accurate_gemm(&cfg, &gemm, &li, &lw).expect("cycle path executes");
            let map = TileMapping::new(&gemm, 4, 3);
            let mut ideal = 0i64;
            for rf in 0..map.row_folds() {
                for cf in 0..map.col_folds() {
                    let r = map.rows_in_fold(rf) as i64;
                    let c = map.cols_in_fold(cf) as i64;
                    ideal += r + map.m() as i64 * cfg.mac_cycles() as i64 + r + c - 2;
                }
            }
            let diff = (stats.cycles as i64 - ideal).unsigned_abs();
            assert!(
                diff <= map.tiles() as u64,
                "{scheme}: measured {} vs ideal {ideal}",
                stats.cycles
            );
        }
    }

    #[test]
    fn busy_cycles_match_mac_work() {
        let (gemm, li, lw) = lowered_case(13);
        let cfg = SystolicConfig::new(4, 3, ComputingScheme::UnaryRate, 8)
            .expect("valid")
            .with_acc_width(32);
        let (_, stats) = cycle_accurate_gemm(&cfg, &gemm, &li, &lw).expect("cycle path executes");
        // Every (vector, weight) pair occupies one PE for mac_cycles.
        let expect = gemm.macs() * cfg.mac_cycles();
        assert_eq!(stats.busy_pe_cycles, expect);
    }

    #[test]
    fn packed_kernel_and_workers_are_bit_exact() {
        // The packed kernel and the parallel tile sweep must reproduce the
        // bit-serial single-thread machine exactly, over both uSystolic
        // schemes and the full EBT sweep.
        let (gemm, li, lw) = lowered_case(21);
        for (scheme, ebts) in [
            (ComputingScheme::UnaryRate, &[8u32, 7, 6, 5, 4][..]),
            (ComputingScheme::UnaryTemporal, &[8u32][..]),
            (ComputingScheme::UGemmHybrid, &[8u32][..]),
        ] {
            for &ebt in ebts {
                let cfg = SystolicConfig::new(4, 3, scheme, 8)
                    .expect("valid")
                    .with_effective_bitwidth(ebt)
                    .expect("valid EBT")
                    .with_acc_width(32);
                let (serial, serial_stats) =
                    cycle_accurate_gemm_with(&cfg, &gemm, &li, &lw, KernelMode::Serial, 1)
                        .expect("serial path executes");
                for workers in [1usize, 2, 4, 8] {
                    let (packed, packed_stats) = cycle_accurate_gemm_with(
                        &cfg,
                        &gemm,
                        &li,
                        &lw,
                        KernelMode::Packed,
                        workers,
                    )
                    .expect("packed path executes");
                    assert_eq!(serial, packed, "{scheme} EBT {ebt} workers {workers}");
                    assert_eq!(
                        serial_stats, packed_stats,
                        "{scheme} EBT {ebt} workers {workers}"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_stats_match_serial_stats() {
        // The packed path emits its statistics from the closed-form
        // schedule; they must equal the stepped machine's measurements,
        // saturation events included (narrow accumulator forces clamping).
        let (gemm, li, lw) = lowered_case(22);
        let cfg = SystolicConfig::new(4, 3, ComputingScheme::UnaryRate, 8)
            .expect("valid")
            .with_acc_width(4);
        let (serial, serial_stats) =
            cycle_accurate_gemm_with(&cfg, &gemm, &li, &lw, KernelMode::Serial, 1)
                .expect("serial path executes");
        let (packed, packed_stats) =
            cycle_accurate_gemm_with(&cfg, &gemm, &li, &lw, KernelMode::Packed, 1)
                .expect("packed path executes");
        assert!(serial_stats.saturation_events > 0, "case must saturate");
        assert_eq!(serial, packed);
        assert_eq!(serial_stats, packed_stats);
    }

    #[test]
    fn unpackable_schemes_fall_back_to_serial() {
        // KernelMode::Packed on the binary baselines — and on a uGEMM-H
        // configuration whose OREG is too narrow for the lump add — uses
        // the bit-serial reference: identical results, identical stats.
        // (The fallback is counted and warned about, not silent; see
        // `crate::kernel::tests::fallbacks_are_counted_not_silent`.)
        let (gemm, li, lw) = lowered_case(23);
        for (scheme, acc_width) in [
            (ComputingScheme::BinaryParallel, 32),
            (ComputingScheme::BinarySerial, 32),
            (ComputingScheme::UGemmHybrid, 9), // < bitwidth + 2
        ] {
            let cfg = SystolicConfig::new(4, 3, scheme, 8)
                .expect("valid")
                .with_acc_width(acc_width);
            assert_eq!(KernelMode::Packed.resolve(&cfg), KernelPath::Serial);
            let (serial, serial_stats) =
                cycle_accurate_gemm_with(&cfg, &gemm, &li, &lw, KernelMode::Serial, 1)
                    .expect("serial path executes");
            let (forced, forced_stats) =
                cycle_accurate_gemm_with(&cfg, &gemm, &li, &lw, KernelMode::Packed, 4)
                    .expect("fallback path executes");
            assert_eq!(serial, forced, "{scheme}");
            assert_eq!(serial_stats, forced_stats, "{scheme}");
        }
    }

    #[test]
    fn temporal_closed_form_matches_serial_across_bitwidths() {
        // The closed-form path (KernelMode::Auto on temporal coding) must
        // reproduce the stepped machine at every bitwidth — mul_cycles 8,
        // 64 and 128 put the window exactly below, at and above the u64
        // word boundary the packed kernel straddles.
        let (gemm, li, lw) = lowered_case(24);
        for bitwidth in [4u32, 7, 8] {
            let half = 1i64 << (bitwidth - 1);
            let clamp = |m: &Matrix<i64>| {
                let mut c = m.clone();
                for v in c.as_mut_slice() {
                    *v = (*v).clamp(-half, half);
                }
                c
            };
            let (li, lw) = (clamp(&li), clamp(&lw));
            let cfg = SystolicConfig::new(4, 3, ComputingScheme::UnaryTemporal, bitwidth)
                .expect("valid")
                .with_acc_width(32);
            assert_eq!(KernelMode::Auto.resolve(&cfg), KernelPath::ClosedForm);
            let (serial, serial_stats) =
                cycle_accurate_gemm_with(&cfg, &gemm, &li, &lw, KernelMode::Serial, 1)
                    .expect("serial path executes");
            for workers in [1usize, 2, 4, 8] {
                let (closed, closed_stats) =
                    cycle_accurate_gemm_with(&cfg, &gemm, &li, &lw, KernelMode::Auto, workers)
                        .expect("closed-form path executes");
                assert_eq!(serial, closed, "bitwidth {bitwidth} workers {workers}");
                assert_eq!(
                    serial_stats, closed_stats,
                    "bitwidth {bitwidth} workers {workers}"
                );
            }
        }
    }

    #[test]
    fn hybrid_packed_matches_serial_stats_under_saturation() {
        // At the narrowest OREG the packed hybrid path still accepts
        // (acc_width = bitwidth + 2), the M-end cascade genuinely clamps —
        // the packed path must reproduce results AND saturation counts.
        let (gemm, li, lw) = lowered_case(25);
        let cfg = SystolicConfig::new(4, 3, ComputingScheme::UGemmHybrid, 8)
            .expect("valid")
            .with_acc_width(10);
        assert_eq!(KernelMode::Auto.resolve(&cfg), KernelPath::Packed);
        let (serial, serial_stats) =
            cycle_accurate_gemm_with(&cfg, &gemm, &li, &lw, KernelMode::Serial, 1)
                .expect("serial path executes");
        assert!(
            serial_stats.saturation_events > 0,
            "case must saturate to be a meaningful pin"
        );
        for workers in [1usize, 2, 4, 8] {
            let (packed, packed_stats) =
                cycle_accurate_gemm_with(&cfg, &gemm, &li, &lw, KernelMode::Packed, workers)
                    .expect("packed path executes");
            assert_eq!(serial, packed, "workers {workers}");
            assert_eq!(serial_stats, packed_stats, "workers {workers}");
        }
    }

    #[test]
    fn rejects_bad_shapes() {
        let (gemm, li, _) = lowered_case(14);
        let cfg = SystolicConfig::new(4, 3, ComputingScheme::UnaryRate, 8).expect("valid");
        let bad = Matrix::<i64>::zeros(2, 2);
        assert!(cycle_accurate_gemm(&cfg, &gemm, &li, &bad).is_err());
    }
}
