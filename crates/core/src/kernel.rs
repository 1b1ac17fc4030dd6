//! Per-window MAC kernels of the tile sweep in [`crate::array2d`], and
//! the dispatch table that picks one per configuration.
//!
//! A uSystolic MAC window is fully determined by three comparator
//! sequences that restart from the same seed every window (Fig. 4/7): the
//! C-I comparator of the IFM source, and per column the C-W comparator of
//! the conditionally-advanced weight RNG. [`usystolic_unary::packed`]
//! evaluates those comparators 64 cycles per `u64` word; this module adds
//! the per-tile precomputation that makes whole GEMM tiles cheap:
//!
//! * the IFM and weight RNG sequences are drained **once per tile** (the
//!   sources reset at every window, so one sequence serves all `M × R'`
//!   windows);
//! * every PE's weight comparator stream is packed once
//!   ([`usystolic_unary::packed::PackedCbsg`]);
//! * a window's signed count collapses to one cached enable popcount plus
//!   one prefix popcount — `sign · #{ j < n_en : seq_w[j] < |W| }` —
//!   instead of `mul_cycles` scalar iterations.
//!
//! The lump-signed count is bit-exact against the cycle-by-cycle
//! accumulation because every increment of one window carries the same
//! sign (`ISIGN ⊕ WSIGN` is constant over a window) and the downstream
//! [`usystolic_unary::add::BinaryAccumulator`] clamps monotonically.
//! `crate::pe::tests::packed_path_matches_pipeline_and_fast` and
//! `crate::array2d::tests` pin the equivalence.

use crate::config::SystolicConfig;
use crate::scheme::ComputingScheme;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use usystolic_unary::coding::Coding;
use usystolic_unary::packed::{self, PackedCbsg};
use usystolic_unary::rng::SobolSource;
use usystolic_unary::sign::SignMagnitude;

use crate::pe::IfmSource;

/// Selects how the executors evaluate MAC windows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum KernelMode {
    /// Use the fastest legal path from the dispatch table for each
    /// scheme (closed-form for temporal coding, word-packed for the
    /// other unary schemes), the bit-serial reference everywhere else.
    #[default]
    Auto,
    /// Always step the bit-serial reference machine.
    Serial,
    /// Request the fast kernel; schemes whose table is serial-only (the
    /// binary baselines) still fall back to the bit-serial reference —
    /// visibly: the fallback records a `core.kernel.fallback` counter
    /// and warns once on stderr.
    Packed,
}

/// A concrete strategy for evaluating one scheme's MAC windows.
///
/// Together with [`kernel_paths`] this forms the dispatch table that
/// [`KernelMode::Auto`] consults: each scheme maps to the ordered list of
/// paths that are *legal* for it (bit-exact against the reference),
/// fastest first. `crates/analyze` re-derives the same table from the
/// schemes' window semantics and a tier-1 test pins the two in agreement,
/// so a new scheme cannot silently claim a packing it cannot express.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelPath {
    /// Closed-form window arithmetic: temporal streams are `magnitude`
    /// ones then zeros, so the enable popcount is a `min` and the weight
    /// prefix popcount a digit DP
    /// ([`usystolic_unary::packed::vdc_prefix_count`]) — no drained
    /// sequence, no comparator words, `O(bitwidth)` per window.
    ClosedForm,
    /// Word-packed popcount kernel: 64 window cycles per `u64` word.
    Packed,
    /// Cycle-by-cycle bit-serial reference machine.
    Serial,
}

impl KernelPath {
    /// The path's name, as telemetry labels it.
    pub(crate) fn label(self) -> &'static str {
        match self {
            KernelPath::ClosedForm => "closed-form",
            KernelPath::Packed => "packed",
            KernelPath::Serial => "serial",
        }
    }
}

impl core::fmt::Display for KernelPath {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// Legal kernel paths for `scheme`, fastest first.
///
/// The closed form additionally requires a *temporal* enable stream (a
/// counter comparator — prefix counts collapse to `min`). Packing
/// requires every window to reduce to prefix popcounts over restarting
/// comparator streams: the sign-magnitude rate/temporal codings qualify
/// directly (constant window sign `ISIGN ⊕ WSIGN`), and uGEMM-H's
/// bipolar windows split into the two constant-advance RNG phases
/// selected by the input bit ([`PackedHybridTileKernel`]). Binary
/// arithmetic has multi-bit products, not ±1 increments — serial only.
/// The serial reference machine is legal everywhere.
#[must_use]
pub fn kernel_paths(scheme: ComputingScheme) -> &'static [KernelPath] {
    const CLOSED_FIRST: &[KernelPath] = &[
        KernelPath::ClosedForm,
        KernelPath::Packed,
        KernelPath::Serial,
    ];
    const PACKED_FIRST: &[KernelPath] = &[KernelPath::Packed, KernelPath::Serial];
    const SERIAL_ONLY: &[KernelPath] = &[KernelPath::Serial];
    match scheme {
        ComputingScheme::UnaryTemporal => CLOSED_FIRST,
        ComputingScheme::UnaryRate | ComputingScheme::UGemmHybrid => PACKED_FIRST,
        ComputingScheme::BinaryParallel | ComputingScheme::BinarySerial => SERIAL_ONLY,
    }
}

/// Set once the first requested-but-denied fast path has been reported;
/// later fallbacks only count the metric (a long sweep would otherwise
/// spam stderr with one line per tile).
static FALLBACK_WARNED: AtomicBool = AtomicBool::new(false);

/// Records a requested-but-denied fast path: bumps the
/// `core.kernel.fallback` counter (labelled with the scheme and reason)
/// and warns on stderr the first time in the process.
fn record_fallback(scheme: ComputingScheme, reason: &'static str) {
    usystolic_obs::with(|o| {
        o.metrics.count_labeled(
            "core.kernel.fallback",
            &[("scheme", scheme.label()), ("reason", reason)],
            1,
        );
    });
    if !FALLBACK_WARNED.swap(true, Ordering::Relaxed) {
        eprintln!(
            "warning: kernel: requested fast path falls back to the bit-serial reference \
             for {scheme} ({reason}); counting further fallbacks silently \
             (obs counter core.kernel.fallback)"
        );
    }
}

impl KernelMode {
    /// The path this mode selects for `scheme`: the fastest legal path
    /// from the dispatch table, unless the mode forbids it.
    ///
    /// This is the *static* table lookup; [`resolve`](Self::resolve)
    /// additionally applies per-configuration legality guards and is
    /// what the executors consult.
    #[must_use]
    pub fn path(self, scheme: ComputingScheme) -> KernelPath {
        let legal = kernel_paths(scheme);
        match self {
            KernelMode::Serial => KernelPath::Serial,
            // `Packed` is a request, not an override: schemes whose table
            // entry lacks the packed path still run the reference machine.
            KernelMode::Auto | KernelMode::Packed => legal[0],
        }
    }

    /// The path this mode selects for `config`, after per-configuration
    /// guards — the resolver the executors actually dispatch on.
    ///
    /// Two demotions apply, and both are *visible* (metric + one-shot
    /// stderr warning) rather than silent:
    ///
    /// * [`KernelMode::Packed`] on a serial-only scheme (the binary
    ///   baselines) runs the reference machine;
    /// * uGEMM-H packing lumps each window's ±1 walk into one
    ///   accumulator add, which is bit-exact (sticky saturation flag
    ///   included) only when the OREG cannot clamp mid-window — capacity
    ///   `2^(acc_width−1)−1 ≥ 2^bitwidth` window cycles, i.e.
    ///   `acc_width ≥ bitwidth + 2`. Narrower OREGs step the reference
    ///   machine so transient mid-window clamping is reproduced exactly.
    #[must_use]
    pub fn resolve(self, config: &SystolicConfig) -> KernelPath {
        let scheme = config.scheme();
        let requested = self.path(scheme);
        if requested == KernelPath::Serial {
            if self == KernelMode::Packed && kernel_paths(scheme)[0] == KernelPath::Serial {
                record_fallback(scheme, "serial-only scheme");
            }
            return KernelPath::Serial;
        }
        if scheme == ComputingScheme::UGemmHybrid && config.acc_width() < config.bitwidth() + 2 {
            record_fallback(scheme, "narrow accumulator");
            return KernelPath::Serial;
        }
        requested
    }

    /// Whether this mode evaluates `scheme` off the bit-serial reference
    /// machine (packed or closed-form kernel).
    #[must_use]
    pub fn packs(self, scheme: ComputingScheme) -> bool {
        self.path(scheme) != KernelPath::Serial
    }
}

impl core::fmt::Display for KernelMode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            KernelMode::Auto => write!(f, "auto"),
            KernelMode::Serial => write!(f, "serial"),
            KernelMode::Packed => write!(f, "packed"),
        }
    }
}

/// Per-tile packed state: one drained IFM sequence, one packed weight
/// comparator stream per PE, and a cache of enable popcounts keyed by the
/// IFM magnitudes this tile has seen.
pub(crate) struct PackedTileKernel {
    seq_i: Vec<u64>,
    w_sm: Vec<SignMagnitude>,
    w_packed: Vec<PackedCbsg>,
    cols: usize,
    // BTreeMap rather than HashMap: the cache is only keyed lookups today,
    // but the determinism-taint lint bans hash-ordered containers in
    // result-affecting crates outright.
    enable_cache: BTreeMap<u64, u64>,
}

impl PackedTileKernel {
    /// Packs one tile's stationary weights (`w_sm[r][c]`, rows of equal
    /// length) for windows of `mul_cycles` multiply cycles under `coding`.
    ///
    /// # Panics
    ///
    /// Panics if the rows of `w_sm` have unequal lengths: the tile is
    /// flattened row-major, so a ragged tile would silently misindex
    /// every PE after the short row.
    pub(crate) fn new(
        bitwidth: u32,
        coding: Coding,
        mul_cycles: u64,
        w_sm: &[Vec<SignMagnitude>],
    ) -> Self {
        let mut ifm_src = IfmSource::for_coding(coding, bitwidth);
        let seq_i = packed::sequence(&mut ifm_src, mul_cycles);
        let mut w_rng = SobolSource::dimension(0, bitwidth - 1);
        let seq_w = packed::sequence(&mut w_rng, mul_cycles);
        let (flat, cols) = flatten_tile(w_sm);
        let w_packed = flat
            .iter()
            .map(|w| PackedCbsg::from_stream(packed::comparator_stream(&seq_w, w.magnitude)))
            .collect();
        Self {
            seq_i,
            w_sm: flat,
            w_packed,
            cols,
            enable_cache: BTreeMap::new(),
        }
    }

    /// Enable-bit popcount of a window processing an IFM of `magnitude`
    /// (cached: a tile revisits the same input levels every fold).
    pub(crate) fn enabled(&mut self, magnitude: u64) -> u64 {
        let seq_i = &self.seq_i;
        *self
            .enable_cache
            .entry(magnitude)
            .or_insert_with(|| seq_i.iter().filter(|&&v| v < magnitude).count() as u64)
    }

    /// The signed count PE `(r, c)` contributes for one MAC window on
    /// `ifm` — identical to what [`crate::pe::UnaryRow::run_fast`] would
    /// accumulate for that column.
    pub(crate) fn window_count(&mut self, r: usize, c: usize, ifm: SignMagnitude) -> i64 {
        let n_en = self.enabled(ifm.magnitude);
        let idx = r * self.cols + c;
        let ones = self.w_packed[idx].ones_given(n_en);
        ifm.product_increment(self.w_sm[idx]) * ones as i64
    }
}

/// Flattens a rows-of-columns tile row-major, validating that every row
/// has the same length.
///
/// # Panics
///
/// Panics with a clear message on a ragged tile — flattened indexing
/// (`r * cols + c`) would otherwise silently read the wrong PE's state.
fn flatten_tile<T: Copy>(tile: &[Vec<T>]) -> (Vec<T>, usize) {
    let cols = tile.first().map_or(0, Vec::len);
    for (r, row) in tile.iter().enumerate() {
        assert!(
            row.len() == cols,
            "ragged weight tile: row {r} has {} columns, row 0 has {cols}",
            row.len()
        );
    }
    (tile.iter().flatten().copied().collect(), cols)
}

/// Closed-form evaluation of temporal-coded MAC windows: `O(bitwidth)`
/// arithmetic per window, no drained sequences, no comparator words.
///
/// Temporal coding makes both comparator streams analytic (the
/// tuGEMM-style shortcut):
///
/// * the C-I enable stream comes from a wrapping counter, so its popcount
///   over `mul_cycles` is [`packed::counter_prefix_count`] — effectively
///   `min(mul_cycles, |I|)`;
/// * the conditionally-advanced weight RNG is the base-2 Sobol sequence,
///   whose prefix count below `|W|` is the digit DP
///   [`packed::vdc_prefix_count`].
///
/// `tests::closed_form_matches_packed_tile_kernel` pins the equivalence
/// against [`PackedTileKernel`] (itself pinned against the bit-serial
/// machine) across word boundaries.
pub(crate) struct ClosedFormTileKernel {
    /// Comparator width of both sources (`bitwidth − 1`).
    width: u32,
    mul_cycles: u64,
    w_sm: Vec<SignMagnitude>,
    cols: usize,
}

impl ClosedFormTileKernel {
    /// Prepares one tile's stationary weights (`w_sm[r][c]`, rows of
    /// equal length) for temporal windows of `mul_cycles` multiply
    /// cycles.
    ///
    /// # Panics
    ///
    /// Panics on a ragged tile (see [`PackedTileKernel::new`]) or if
    /// `mul_cycles` exceeds the weight RNG period `2^(bitwidth−1)` (the
    /// Sobol prefix count has no closed form past one period; temporal
    /// windows are at most one period by construction).
    pub(crate) fn new(bitwidth: u32, mul_cycles: u64, w_sm: &[Vec<SignMagnitude>]) -> Self {
        let width = bitwidth - 1;
        assert!(
            mul_cycles <= 1u64 << width,
            "temporal window of {mul_cycles} cycles exceeds the RNG period"
        );
        let (w_sm, cols) = flatten_tile(w_sm);
        Self {
            width,
            mul_cycles,
            w_sm,
            cols,
        }
    }

    /// The signed count PE `(r, c)` contributes for one MAC window on
    /// `ifm` — identical to [`PackedTileKernel::window_count`], without
    /// ever materialising a stream.
    pub(crate) fn window_count(&self, r: usize, c: usize, ifm: SignMagnitude) -> i64 {
        let n_en = packed::counter_prefix_count(self.width, self.mul_cycles, ifm.magnitude);
        let idx = r * self.cols + c;
        let w = self.w_sm[idx];
        let ones = packed::vdc_prefix_count(self.width, n_en, w.magnitude);
        ifm.product_increment(w) * ones as i64
    }
}

/// Word-packed evaluation of uGEMM-H's bipolar MAC windows.
///
/// A bipolar window mixes +1/−1 increments, so it cannot lump into one
/// signed popcount directly — but the mixing is *structured*: the input
/// bit selects which of two RNGs advances (ones-phase vs zeros-phase,
/// Fig. 4 of the uGEMM lineage), and each phase is a conditionally
/// advanced comparator exactly like the C-BSG. Splitting the window into
/// its two constant-sign enable masks therefore reduces it to two prefix
/// popcounts over packed comparator streams:
///
/// ```text
/// n1   = #{ t < len : seq_in[t] < T_in }          (input-high cycles)
/// pos  = #{ j < n1 : seq_ones[j] < T_w }          (+1s while input high)
///      + #{ j < len−n1 : seq_zeros[j] ≥ T_w }     (+1s while input low)
/// sum  = 2·pos − len
/// ```
///
/// The lump add into the OREG is bit-exact against the cycle-by-cycle
/// ±1 walk whenever the accumulator cannot clamp mid-window
/// (`acc_width ≥ bitwidth + 2`, enforced by [`KernelMode::resolve`]).
pub(crate) struct PackedHybridTileKernel {
    /// Window length `2^bitwidth` (bipolar streams carry one extra
    /// resolution bit).
    len: u64,
    seq_in: Vec<u64>,
    /// Per-PE `+1` popcount streams: ones-phase comparator `< T_w` and
    /// zeros-phase comparator `≥ T_w`, both packed.
    ones_lt: Vec<PackedCbsg>,
    zeros_ge: Vec<PackedCbsg>,
    cols: usize,
    // BTreeMap, not HashMap: determinism lint (see PackedTileKernel).
    in_cache: BTreeMap<u64, u64>,
}

impl PackedHybridTileKernel {
    /// Packs one tile's stationary bipolar weight thresholds
    /// (`w_thr[r][c] = clamp(W) + 2^(bitwidth−1)`, rows of equal length).
    ///
    /// # Panics
    ///
    /// Panics on a ragged tile (see [`PackedTileKernel::new`]).
    pub(crate) fn new(bitwidth: u32, w_thr: &[Vec<u64>]) -> Self {
        let len = 1u64 << bitwidth;
        let seq_in = packed::sequence(&mut SobolSource::dimension(1, bitwidth), len);
        let seq_ones = packed::sequence(&mut SobolSource::dimension(0, bitwidth), len);
        let seq_zeros = packed::sequence(&mut SobolSource::dimension(2, bitwidth), len);
        let (flat, cols) = flatten_tile(w_thr);
        let ones_lt = flat
            .iter()
            .map(|&thr| PackedCbsg::from_stream(packed::comparator_stream(&seq_ones, thr)))
            .collect();
        // The zeros-phase emits +1 on `rand >= T_w`; pack the complement
        // comparator directly so it is a plain prefix popcount too.
        let zeros_ge = flat
            .iter()
            .map(|&thr| {
                let lt = packed::comparator_stream(&seq_zeros, thr);
                PackedCbsg::from_stream(lt.not())
            })
            .collect();
        Self {
            len,
            seq_in,
            ones_lt,
            zeros_ge,
            cols,
            in_cache: BTreeMap::new(),
        }
    }

    /// Input-high cycle count of a window on `in_threshold` (cached: a
    /// tile revisits the same input levels every fold).
    fn input_high(&mut self, in_threshold: u64) -> u64 {
        let seq_in = &self.seq_in;
        *self
            .in_cache
            .entry(in_threshold)
            .or_insert_with(|| seq_in.iter().filter(|&&v| v < in_threshold).count() as u64)
    }

    /// The signed sum PE `(r, c)`'s ±1 walk reaches over one MAC window
    /// on an input of `in_threshold` — identical to the value the
    /// bit-serial machine's OREG holds at the window's end.
    pub(crate) fn window_sum(&mut self, r: usize, c: usize, in_threshold: u64) -> i64 {
        let n1 = self.input_high(in_threshold);
        let n0 = self.len - n1;
        let idx = r * self.cols + c;
        let pos = self.ones_lt[idx].ones_given(n1) + self.zeros_ge[idx].ones_given(n0);
        2 * pos as i64 - self.len as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pe::UnaryRow;
    use usystolic_unary::rng::NumberSource;

    #[test]
    fn mode_packs_all_unary_schemes() {
        // Every unary scheme — rate, temporal AND uGEMM-H — now declares a
        // non-serial fastest path; the binary baselines stay serial-only.
        for scheme in ComputingScheme::ALL {
            assert!(!KernelMode::Serial.packs(scheme));
            assert_eq!(KernelMode::Auto.packs(scheme), scheme.is_unary());
            assert_eq!(KernelMode::Packed.packs(scheme), scheme.is_unary());
        }
        assert_eq!(KernelMode::default(), KernelMode::Auto);
        assert_eq!(KernelMode::Packed.to_string(), "packed");
    }

    #[test]
    fn dispatch_table_is_ordered_and_complete() {
        for scheme in ComputingScheme::ALL {
            let paths = kernel_paths(scheme);
            // Every scheme can always fall back to the reference machine,
            // and the table is ordered fastest-first.
            assert_eq!(*paths.last().unwrap(), KernelPath::Serial);
            assert!(!paths.is_empty());
            assert_eq!(
                KernelMode::Auto.path(scheme),
                paths[0],
                "Auto must select the fastest legal path for {scheme:?}"
            );
            assert_eq!(KernelMode::Serial.path(scheme), KernelPath::Serial);
        }
        // The acceptance pins of ISSUE 10: temporal leads with the closed
        // form, uGEMM-H with the packed kernel.
        assert_eq!(
            kernel_paths(ComputingScheme::UnaryTemporal)[0],
            KernelPath::ClosedForm
        );
        assert_eq!(
            kernel_paths(ComputingScheme::UGemmHybrid)[0],
            KernelPath::Packed
        );
        assert_eq!(KernelPath::ClosedForm.to_string(), "closed-form");
        assert_eq!(KernelPath::Packed.to_string(), "packed");
        assert_eq!(KernelPath::Serial.to_string(), "serial");
    }

    #[test]
    fn resolve_applies_per_config_guards() {
        let cfg = |scheme, acc| {
            SystolicConfig::new(4, 4, scheme, 8)
                .expect("valid test configuration")
                .with_acc_width(acc)
        };
        // uGEMM-H packs at acc_width ≥ bitwidth + 2 and not below (the
        // lump add could clamp mid-window there).
        let ug = ComputingScheme::UGemmHybrid;
        assert_eq!(KernelMode::Auto.resolve(&cfg(ug, 10)), KernelPath::Packed);
        assert_eq!(KernelMode::Auto.resolve(&cfg(ug, 32)), KernelPath::Packed);
        assert_eq!(KernelMode::Auto.resolve(&cfg(ug, 9)), KernelPath::Serial);
        assert_eq!(KernelMode::Packed.resolve(&cfg(ug, 9)), KernelPath::Serial);
        // Temporal resolves to the closed form regardless of OREG width
        // (constant-sign windows clamp monotonically).
        let ut = ComputingScheme::UnaryTemporal;
        assert_eq!(
            KernelMode::Auto.resolve(&cfg(ut, 9)),
            KernelPath::ClosedForm
        );
        // A Packed request on a serial-only scheme is denied, not honoured.
        let bp = ComputingScheme::BinaryParallel;
        assert_eq!(KernelMode::Packed.resolve(&cfg(bp, 32)), KernelPath::Serial);
        assert_eq!(KernelMode::Serial.resolve(&cfg(ug, 32)), KernelPath::Serial);
    }

    #[test]
    fn fallbacks_are_counted_not_silent() {
        let previous = usystolic_obs::install(usystolic_obs::Session::new());
        let cfg = SystolicConfig::new(2, 2, ComputingScheme::BinarySerial, 8)
            .expect("valid test configuration");
        assert_eq!(KernelMode::Packed.resolve(&cfg), KernelPath::Serial);
        let narrow = SystolicConfig::new(2, 2, ComputingScheme::UGemmHybrid, 8)
            .expect("valid test configuration")
            .with_acc_width(8);
        assert_eq!(KernelMode::Auto.resolve(&narrow), KernelPath::Serial);
        let session = usystolic_obs::take().expect("session installed above");
        assert_eq!(
            session.metrics.counter_labeled(
                "core.kernel.fallback",
                &[("scheme", "BS"), ("reason", "serial-only scheme")],
            ),
            1
        );
        assert_eq!(
            session.metrics.counter_labeled(
                "core.kernel.fallback",
                &[("scheme", "UG"), ("reason", "narrow accumulator")],
            ),
            1
        );
        if let Some(prev) = previous {
            usystolic_obs::install(prev);
        }
    }

    #[test]
    #[should_panic(expected = "ragged weight tile: row 1 has 2 columns, row 0 has 3")]
    fn ragged_tiles_are_rejected_up_front() {
        let sm = |v: i64| SignMagnitude::from_signed(v, 8);
        let ragged = vec![vec![sm(1), sm(2), sm(3)], vec![sm(4), sm(5)]];
        let _ = PackedTileKernel::new(8, Coding::Rate, 16, &ragged);
    }

    #[test]
    fn closed_form_matches_packed_tile_kernel() {
        // The closed form must agree with the packed kernel (itself pinned
        // against the bit-serial machine) for every temporal window shape,
        // including word-boundary multiply counts. bitwidth 7 puts the full
        // window at 64 cycles, bitwidth 8 at 128.
        let sm = |v: i64, bw: u32| SignMagnitude::from_signed(v, bw);
        for bitwidth in [4u32, 7, 8] {
            let period = 1u64 << (bitwidth - 1);
            let half = period as i64;
            let w_sm = vec![
                vec![sm(half, bitwidth), sm(-3, bitwidth), sm(0, bitwidth)],
                vec![
                    sm(1 - half, bitwidth),
                    sm(1, bitwidth),
                    sm(half / 2, bitwidth),
                ],
            ];
            for mul in [1u64, period - 1, period] {
                let closed = ClosedFormTileKernel::new(bitwidth, mul, &w_sm);
                let mut packed = PackedTileKernel::new(bitwidth, Coding::Temporal, mul, &w_sm);
                for level in [0i64, 1, -1, half / 3, -half / 2, half, -half] {
                    let ifm = sm(level, bitwidth);
                    for r in 0..2 {
                        for c in 0..3 {
                            assert_eq!(
                                closed.window_count(r, c, ifm),
                                packed.window_count(r, c, ifm),
                                "bitwidth {bitwidth} mul {mul} level {level} pe ({r},{c})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn hybrid_kernel_matches_bipolar_bit_serial_walk() {
        // Scalar reference: the exact RowGen::Bipolar ± walk of the
        // cycle-accurate machine, reproduced inline.
        fn serial_window_sum(bitwidth: u32, in_thr: u64, w_thr: u64) -> i64 {
            let mut in_src = SobolSource::dimension(1, bitwidth);
            let mut rng_ones = SobolSource::dimension(0, bitwidth);
            let mut rng_zeros = SobolSource::dimension(2, bitwidth);
            let mut sum = 0i64;
            for _ in 0..(1u64 << bitwidth) {
                let in_bit = in_src.next() < in_thr;
                let r = if in_bit {
                    rng_ones.next()
                } else {
                    rng_zeros.next()
                };
                let bit = if in_bit { r < w_thr } else { r >= w_thr };
                sum += if bit { 1 } else { -1 };
            }
            sum
        }

        for bitwidth in [4u32, 6, 8] {
            let len = 1u64 << bitwidth;
            let w_thr = vec![vec![0u64, 1, len / 2], vec![len / 3, len - 1, len]];
            let mut kernel = PackedHybridTileKernel::new(bitwidth, &w_thr);
            for in_thr in [0u64, 1, len / 2 - 1, len / 2, len / 2 + 1, len - 1, len] {
                for (r, row) in w_thr.iter().enumerate() {
                    for (c, &thr) in row.iter().enumerate() {
                        assert_eq!(
                            kernel.window_sum(r, c, in_thr),
                            serial_window_sum(bitwidth, in_thr, thr),
                            "bitwidth {bitwidth} in_thr {in_thr} pe ({r},{c})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tile_kernel_matches_row_fast_path() {
        let sm = |v: i64| SignMagnitude::from_signed(v, 8);
        let w_sm = vec![vec![sm(100), sm(-3), sm(77)], vec![sm(0), sm(-128), sm(55)]];
        for coding in [Coding::Rate, Coding::Temporal] {
            for mul in [16u64, 128] {
                let mut kernel = PackedTileKernel::new(8, coding, mul, &w_sm);
                for ifm_level in [0i64, 1, -77, 111, 128, -128] {
                    for (r, row_w) in w_sm.iter().enumerate() {
                        let mut row = UnaryRow::new(8, sm(ifm_level), row_w.clone(), coding);
                        let reference = row.run_fast(mul).to_vec();
                        for (c, &expect) in reference.iter().enumerate() {
                            assert_eq!(
                                kernel.window_count(r, c, sm(ifm_level)),
                                expect,
                                "{coding:?} mul {mul} ifm {ifm_level} pe ({r},{c})"
                            );
                        }
                    }
                }
            }
        }
    }
}
