//! Windowed time series: a ring of fixed-width cycle buckets per metric.
//!
//! Counters answer "how many in total"; an autoscaler needs "how many
//! *lately*". A [`TimeSeries`] aggregates samples into contiguous
//! fixed-width buckets on the simulated-cycle axis and retains only the
//! most recent `capacity` buckets, so the serve engine can expose
//! rolling arrival / rejection / queue-depth rates at O(capacity) memory
//! regardless of run length. Buckets are addressed by absolute index
//! (`cycle / bucket_width`), which makes two series over the same clock
//! mergeable bucket-for-bucket.
//!
//! Everything is integer bucket arithmetic — no wall clock, no rounding
//! modes — so the series is a pure function of the (cycle, value) sample
//! sequence.

use crate::json::{JsonValue, ToJson};
use std::collections::VecDeque;

/// Default bucket width in cycles when a series is recorded without
/// prior registration.
pub const DEFAULT_BUCKET_WIDTH: u64 = 4096;

/// Default number of retained buckets.
pub const DEFAULT_CAPACITY: usize = 64;

/// One aggregation bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SeriesBucket {
    /// Samples recorded in this bucket.
    pub count: u64,
    /// Sum of sample values.
    pub sum: f64,
}

impl SeriesBucket {
    /// Mean value of the bucket, or 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// A ring of fixed-width cycle buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    bucket_width: u64,
    capacity: usize,
    /// Absolute index (`cycle / bucket_width`) of `buckets[0]`.
    start: u64,
    buckets: VecDeque<SeriesBucket>,
    /// Samples that arrived for buckets already evicted from the window.
    late: u64,
}

impl Default for TimeSeries {
    fn default() -> Self {
        Self::new(DEFAULT_BUCKET_WIDTH, DEFAULT_CAPACITY)
    }
}

impl TimeSeries {
    /// Creates a series with the given bucket width (cycles) and retained
    /// bucket count. Zero arguments are clamped to 1.
    #[must_use]
    pub fn new(bucket_width: u64, capacity: usize) -> Self {
        Self {
            bucket_width: bucket_width.max(1),
            capacity: capacity.max(1),
            start: 0,
            buckets: VecDeque::new(),
            late: 0,
        }
    }

    /// Records a sample at the given cycle.
    pub fn record(&mut self, cycle: u64, value: f64) {
        self.add_bucket(cycle / self.bucket_width, 1, value);
    }

    /// Adds an aggregate directly into the bucket with the given
    /// absolute index.
    fn add_bucket(&mut self, idx: u64, count: u64, sum: f64) {
        if self.buckets.is_empty() {
            self.start = idx;
            self.buckets.push_back(SeriesBucket::default());
        }
        if idx < self.start {
            self.late += count;
            return;
        }
        // A window ending at `idx` that shares no bucket with the ring
        // holds only empty buckets before `idx`: reset straight to it
        // instead of walking the whole gap one bucket at a time.
        let last = self.start + self.buckets.len() as u64 - 1;
        let capacity = self.capacity as u64;
        if idx >= last + capacity {
            self.buckets.clear();
            self.buckets.resize(self.capacity, SeriesBucket::default());
            self.start = idx + 1 - capacity;
        }
        // Grow the window forward to cover `idx`, evicting from the back
        // of history when it exceeds capacity.
        while idx >= self.start + self.buckets.len() as u64 {
            if self.buckets.len() == self.capacity {
                self.buckets.pop_front();
                self.start += 1;
            }
            self.buckets.push_back(SeriesBucket::default());
        }
        let slot = (idx - self.start) as usize;
        let b = &mut self.buckets[slot];
        b.count += count;
        b.sum += sum;
    }

    /// Folds another series into this one bucket-for-bucket. Returns
    /// `false` (and changes nothing) when the bucket widths differ.
    pub fn merge(&mut self, other: &TimeSeries) -> bool {
        if other.bucket_width != self.bucket_width {
            return false;
        }
        self.late += other.late;
        for (i, b) in other.buckets.iter().enumerate() {
            if b.count > 0 {
                self.add_bucket(other.start + i as u64, b.count, b.sum);
            }
        }
        true
    }

    /// The bucket width in cycles.
    #[must_use]
    pub fn bucket_width(&self) -> u64 {
        self.bucket_width
    }

    /// The retained-bucket capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The first cycle covered by the retained window.
    #[must_use]
    pub fn start_cycle(&self) -> u64 {
        self.start * self.bucket_width
    }

    /// Number of buckets currently in the window.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// True when no samples were ever recorded in the current window.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Samples that fell before the retained window and were dropped.
    #[must_use]
    pub fn late_samples(&self) -> u64 {
        self.late
    }

    /// Total sample count across retained buckets.
    #[must_use]
    pub fn window_count(&self) -> u64 {
        self.buckets.iter().map(|b| b.count).sum()
    }

    /// Iterates `(bucket_start_cycle, bucket)` oldest first.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &SeriesBucket)> {
        self.buckets
            .iter()
            .enumerate()
            .map(move |(i, b)| ((self.start + i as u64) * self.bucket_width, b))
    }

    /// Mean event rate over the retained window, in events per cycle.
    #[must_use]
    pub fn window_rate_per_cycle(&self) -> f64 {
        if self.buckets.is_empty() {
            return 0.0;
        }
        self.window_count() as f64 / (self.buckets.len() as u64 * self.bucket_width) as f64
    }
}

impl ToJson for TimeSeries {
    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("bucket_width", self.bucket_width.to_json()),
            ("start_cycle", self.start_cycle().to_json()),
            ("late", self.late.to_json()),
            (
                "counts",
                JsonValue::Array(self.buckets.iter().map(|b| b.count.to_json()).collect()),
            ),
            (
                "sums",
                JsonValue::Array(self.buckets.iter().map(|b| b.sum.to_json()).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_land_in_width_buckets() {
        let mut s = TimeSeries::new(10, 8);
        s.record(0, 1.0);
        s.record(9, 2.0);
        s.record(10, 3.0);
        s.record(25, 4.0);
        assert_eq!(s.len(), 3);
        let buckets: Vec<(u64, u64, f64)> = s.iter().map(|(c, b)| (c, b.count, b.sum)).collect();
        assert_eq!(buckets, [(0, 2, 3.0), (10, 1, 3.0), (20, 1, 4.0)]);
        assert_eq!(s.window_count(), 4);
    }

    #[test]
    fn window_evicts_oldest_buckets() {
        let mut s = TimeSeries::new(1, 4);
        for c in 0..10 {
            s.record(c, 1.0);
        }
        assert_eq!(s.len(), 4);
        assert_eq!(s.start_cycle(), 6);
        assert_eq!(s.window_count(), 4);
    }

    #[test]
    fn late_samples_are_counted_not_folded() {
        let mut s = TimeSeries::new(1, 2);
        s.record(10, 1.0);
        s.record(11, 1.0);
        s.record(3, 1.0);
        assert_eq!(s.late_samples(), 1);
        assert_eq!(s.window_count(), 2);
    }

    #[test]
    fn sparse_gaps_create_empty_buckets() {
        let mut s = TimeSeries::new(5, 8);
        s.record(0, 1.0);
        s.record(20, 1.0);
        assert_eq!(s.len(), 5);
        let counts: Vec<u64> = s.iter().map(|(_, b)| b.count).collect();
        assert_eq!(counts, [1, 0, 0, 0, 1]);
    }

    #[test]
    fn long_gaps_reset_the_ring_like_the_bucket_walk() {
        // The same samples around a jump of 12 buckets (a dozen steps of
        // the one-bucket walk) and of 2^40 buckets: relative to the jump,
        // both rings must evict, retain and count late samples alike.
        for jump in [12u64, 1 << 40] {
            let mut s = TimeSeries::new(4, 8);
            for (bucket, value) in [(0, 1.0), (2, 2.0), (3, 3.0)] {
                s.record(bucket * 4, value);
            }
            for (bucket, value) in [(3, 4.0), (1, 5.0), (0, 6.0), (4, 7.0)] {
                s.record((jump + bucket) * 4 + 1, value);
            }
            s.record((jump - 4) * 4, 8.0);
            assert_eq!(s.start_cycle(), (jump - 3) * 4, "jump {jump}");
            assert_eq!(s.late_samples(), 1, "jump {jump}");
            let buckets: Vec<(u64, f64)> = s.iter().map(|(_, b)| (b.count, b.sum)).collect();
            assert_eq!(
                buckets,
                [
                    (0, 0.0),
                    (0, 0.0),
                    (0, 0.0),
                    (1, 6.0),
                    (1, 5.0),
                    (0, 0.0),
                    (1, 4.0),
                    (1, 7.0)
                ],
                "jump {jump}"
            );
        }
    }

    #[test]
    fn merge_adds_bucket_for_bucket() {
        let mut a = TimeSeries::new(10, 8);
        a.record(5, 1.0);
        a.record(15, 2.0);
        let mut b = TimeSeries::new(10, 8);
        b.record(15, 3.0);
        b.record(35, 4.0);
        assert!(a.merge(&b));
        let buckets: Vec<(u64, u64, f64)> = a.iter().map(|(c, x)| (c, x.count, x.sum)).collect();
        assert_eq!(
            buckets,
            [(0, 1, 1.0), (10, 2, 5.0), (20, 0, 0.0), (30, 1, 4.0)]
        );
    }

    #[test]
    fn merge_rejects_mismatched_widths() {
        let mut a = TimeSeries::new(10, 8);
        a.record(5, 1.0);
        let mut b = TimeSeries::new(20, 8);
        b.record(5, 1.0);
        assert!(!a.merge(&b));
        assert_eq!(a.window_count(), 1);
    }

    #[test]
    fn rate_over_window() {
        let mut s = TimeSeries::new(10, 8);
        for c in [0, 5, 12, 18, 25, 29] {
            s.record(c, 1.0);
        }
        // 6 events over 3 buckets of width 10.
        assert!((s.window_rate_per_cycle() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn json_shape() {
        let mut s = TimeSeries::new(10, 4);
        s.record(3, 2.0);
        s.record(14, 4.0);
        let j = s.to_json();
        assert_eq!(j.get("bucket_width").unwrap().as_u64(), Some(10));
        assert_eq!(j.get("counts").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(j.get("late").unwrap().as_u64(), Some(0));
    }
}
