//! Folds one observability session into per-span-name totals.
//!
//! The benchmark wraps each public call it makes in a span of its own;
//! the crates add theirs (`gemm.execute`, per-tile spans). Nesting on the
//! wall-clock lane gives each span's self time: its duration minus the
//! part its child spans cover. A crate span folds under the benchmark
//! span that encloses it (`models.predict.rate8/core.tile`), so one
//! session attributes time per design point or scheme.
//!
//! Without an installed session, [`span`], [`now_us`] and [`counters`]
//! do nothing, so a workload's op carries its spans in both the timed and
//! the traced run.

use std::collections::BTreeMap;
use usystolic_obs::{Phase, Session, PID_WALL};

/// Wall-clock totals of one span key, in microseconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanTotals {
    pub total_us: f64,
    pub self_us: f64,
    pub count: u64,
}

/// Span totals by key, plus the session's counters summed over labels.
#[derive(Debug, Default)]
pub struct Fold {
    spans: BTreeMap<String, SpanTotals>,
    counters: BTreeMap<String, u64>,
}

impl Fold {
    /// The totals of a span key the session must hold.
    ///
    /// # Errors
    ///
    /// Fails if no span folded under `key`: a renamed or missing span
    /// would otherwise read as zero time.
    pub fn span(&self, key: &str) -> Result<SpanTotals, String> {
        self.spans
            .get(key)
            .copied()
            .ok_or_else(|| format!("trace holds no span {key}"))
    }

    /// A counter the program emits on every traced op.
    ///
    /// # Errors
    ///
    /// Fails if the session never recorded `name`.
    pub fn counter(&self, name: &str) -> Result<u64, String> {
        self.counters
            .get(name)
            .copied()
            .ok_or_else(|| format!("trace holds no counter {name}"))
    }
}

/// The key a crate span folds under: per-tile spans (`<kernel> tile
/// c{cf}r{rf}`) into `core.tile`, executor spans (`gemm.execute <scheme>`)
/// into `core.gemm.execute`; the benchmark's own spans keep their names.
fn key(name: &str) -> String {
    if name.contains(" tile c") {
        "core.tile".into()
    } else if name.starts_with("gemm.execute") {
        "core.gemm.execute".into()
    } else {
        name.to_owned()
    }
}

/// A fresh session holding at most `capacity` trace events.
///
/// The des engine samples `des.queue_depth{component}` into a windowed
/// series that auto-registers with 4096-cycle buckets, and growing a
/// series walks every empty bucket between two samples. Over the
/// simulated horizons here (10^10 to 10^11 cycles) that walk costs more
/// host time than the simulation itself, so the session pre-registers
/// both components' series with 2^30-cycle buckets: the trace then
/// attributes the program's own time, and `obs.trace_overhead_frac`
/// reports what tracing still costs.
pub fn session(capacity: usize) -> Session {
    let mut s = Session::with_capacity(capacity);
    for component in ["network", "fleet"] {
        s.metrics
            .register_series("des.queue_depth", &[("component", component)], 1 << 30, 64);
    }
    s
}

/// Records a benchmark span on the wall-clock lane of the installed
/// session, from `t0` (tracer microseconds) to now.
pub fn span(name: &'static str, cat: &'static str, t0: f64) {
    usystolic_obs::with(|o| {
        let t1 = o.tracer.now_us();
        o.tracer
            .complete(name, cat, PID_WALL, 0, t0, t1 - t0, Vec::new());
    });
}

/// Tracer microseconds now, or 0 without a session.
pub fn now_us() -> f64 {
    let mut t = 0.0;
    usystolic_obs::with(|o| t = o.tracer.now_us());
    t
}

/// The installed session's counters by name ([`counters_of`]), or none
/// without a session.
pub fn counters() -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    usystolic_obs::with(|o| out = counters_of(o));
    out
}

/// A session's counters by name. Unlabeled and labeled series of one name
/// are summed only once: a labeled series partitions its unlabeled total,
/// so the unlabeled value wins when both exist.
pub fn counters_of(session: &Session) -> BTreeMap<String, u64> {
    let mut unlabeled = BTreeMap::new();
    let mut labeled: BTreeMap<String, u64> = BTreeMap::new();
    for (k, v) in session.metrics.counters() {
        if k.labels().is_empty() {
            unlabeled.insert(k.name().to_owned(), v);
        } else {
            *labeled.entry(k.name().to_owned()).or_default() += v;
        }
    }
    labeled.extend(unlabeled);
    labeled
}

/// Folds a finished session.
///
/// # Errors
///
/// Fails if the tracer dropped events (the fold would undercount).
pub fn fold(session: &Session) -> Result<Fold, String> {
    let dropped = session.tracer.dropped();
    if dropped > 0 {
        return Err(format!("tracer dropped {dropped} events"));
    }
    let mut events: Vec<(f64, f64, String)> = session
        .tracer
        .events()
        .filter(|e| e.ph == Phase::Complete && e.pid == PID_WALL)
        .map(|e| (e.ts, e.dur, key(&e.name)))
        .collect();
    // Parents sort before the children they contain: earlier start, and
    // on a tie the longer span first.
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.total_cmp(&a.1)));
    let mut child_us = vec![0.0f64; events.len()];
    let mut root = vec![None; events.len()];
    let mut stack: Vec<usize> = Vec::new();
    for i in 0..events.len() {
        let ts = events[i].0;
        while let Some(&top) = stack.last() {
            if events[top].0 + events[top].1 <= ts {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&parent) = stack.last() {
            child_us[parent] += events[i].1;
            root[i] = Some(stack[0]);
        }
        stack.push(i);
    }
    let keys: Vec<String> = (0..events.len())
        .map(|i| match root[i] {
            Some(r) => format!("{}/{}", events[r].2, events[i].2),
            None => events[i].2.clone(),
        })
        .collect();
    let mut out = Fold::default();
    for (((_, dur, _), child), key) in events.into_iter().zip(child_us).zip(keys) {
        let t = out.spans.entry(key).or_default();
        t.total_us += dur;
        t.self_us += dur - child;
        t.count += 1;
    }
    out.counters = counters_of(session);
    Ok(out)
}
