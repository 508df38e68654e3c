//! # metrics — the uniform observability layer
//!
//! Every layer of the checker (the SAT/SMT core, the symbolic pipeline,
//! the explicit explorers, the portfolio driver) exposes its counters
//! through one [`Registry`] instead of hand-rolled struct printing. The
//! registry holds three metric kinds — monotone counters
//! ([`Registry::counter_add`]), point-in-time gauges
//! ([`Registry::gauge_set`]), and fixed-bucket histograms
//! ([`Registry::histogram_observe`]) — each keyed by a stable name plus
//! a sorted label set, and renders them in the Prometheus text
//! exposition format via [`Registry::render_prometheus`].
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** Two registries fed the same samples render
//!    byte-identical text (families and label sets are `BTreeMap`-sorted,
//!    floats use Rust's shortest-roundtrip `Display`). The exposition is
//!    snapshot-tested downstream.
//! 2. **No globals.** A registry is a plain value the caller owns; the
//!    portfolio driver builds one per report. Nothing here is
//!    thread-shared, locked, or process-wide.
//! 3. **Stable names.** Each crate owns the metric names for its own
//!    counters (e.g. `smt::Stats::record`), so a rename is a visible API
//!    change rather than format drift.
//!
//! Naming follows Prometheus conventions: `mcapi_` prefix, `_total`
//! suffix on counters, base units (seconds) in histogram names.

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The kind of a metric family (fixed at first registration).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Monotonically increasing count.
    Counter,
    /// Point-in-time value.
    Gauge,
    /// Fixed-bucket cumulative histogram.
    Histogram,
}

impl Kind {
    fn tag(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// A fixed-bucket cumulative histogram sample.
#[derive(Clone, Debug)]
pub struct Histogram {
    /// Upper bucket bounds (ascending; an implicit `+Inf` bucket follows).
    bounds: Vec<f64>,
    /// Observation counts per bucket (same length as `bounds`, plus the
    /// final `+Inf` slot).
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Histogram {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending: {bounds:?}"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
        }
    }

    fn observe(&mut self, value: f64) {
        let slot = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[slot] += 1;
        self.sum += value;
        self.count += 1;
    }

    /// Merge pre-bucketed observations: `counts` has one slot per bound
    /// plus the trailing `+Inf` slot, exactly as a producer that
    /// bucketed at source (e.g. the SAT core's introspection counters)
    /// holds them.
    fn add_bucketed(&mut self, counts: &[u64], sum: f64) {
        assert_eq!(
            counts.len(),
            self.bounds.len() + 1,
            "pre-bucketed counts must cover every bound plus +Inf"
        );
        for (slot, c) in self.counts.iter_mut().zip(counts) {
            *slot += c;
        }
        self.sum += sum;
        self.count += counts.iter().sum::<u64>();
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observed values.
    pub fn sum(&self) -> f64 {
        self.sum
    }
}

/// One sample's value.
#[derive(Clone, Debug)]
enum Value {
    Counter(u64),
    Gauge(f64),
    Histogram(Histogram),
}

/// A metric family: one name, one kind, one help line, many label sets.
#[derive(Clone, Debug)]
struct Family {
    kind: Kind,
    help: String,
    /// Samples keyed by the rendered label set (`{a="b",c="d"}` or `""`).
    samples: BTreeMap<String, Value>,
}

/// The metric registry; see the crate docs.
#[derive(Default, Clone, Debug)]
pub struct Registry {
    families: BTreeMap<String, Family>,
}

/// Render a label slice as the exposition's `{key="value",...}` form
/// (empty string for no labels). Labels are sorted by key so the same set
/// always renders identically; values are escaped per the format.
fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut sorted: Vec<_> = labels.to_vec();
    sorted.sort_unstable();
    let mut out = String::from("{");
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let escaped = v.replace('\\', "\\\\").replace('"', "\\\"");
        let _ = write!(out, "{k}=\"{escaped}\"");
    }
    out.push('}');
    out
}

/// Format an f64 the way the exposition expects (shortest roundtrip;
/// `Display` for f64 is deterministic in Rust).
fn fmt_f64(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".into()
    } else {
        format!("{v}")
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn family(&mut self, name: &str, kind: Kind, help: &str) -> &mut Family {
        let fam = self.families.entry(name.to_string()).or_insert(Family {
            kind,
            help: help.to_string(),
            samples: BTreeMap::new(),
        });
        assert_eq!(
            fam.kind, kind,
            "metric {name} registered as {:?} and used as {kind:?}",
            fam.kind
        );
        fam
    }

    /// Add `delta` to the counter `name{labels}` (created at zero on first
    /// use). Counters are monotone by contract; there is no `sub`.
    pub fn counter_add(&mut self, name: &str, help: &str, labels: &[(&str, &str)], delta: u64) {
        let key = render_labels(labels);
        let fam = self.family(name, Kind::Counter, help);
        match fam.samples.entry(key).or_insert(Value::Counter(0)) {
            Value::Counter(v) => *v += delta,
            _ => unreachable!("kind checked by family()"),
        }
    }

    /// Set the gauge `name{labels}` to `value` (last write wins).
    pub fn gauge_set(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        let key = render_labels(labels);
        let fam = self.family(name, Kind::Gauge, help);
        fam.samples.insert(key, Value::Gauge(value));
    }

    /// Observe `value` in the histogram `name{labels}` with the given
    /// upper bucket `bounds` (ascending; `+Inf` is implicit). The bounds
    /// of an existing sample are fixed by its first observation.
    pub fn histogram_observe(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
        value: f64,
    ) {
        let key = render_labels(labels);
        let fam = self.family(name, Kind::Histogram, help);
        match fam
            .samples
            .entry(key)
            .or_insert_with(|| Value::Histogram(Histogram::new(bounds)))
        {
            Value::Histogram(h) => h.observe(value),
            _ => unreachable!("kind checked by family()"),
        }
    }

    /// Merge pre-bucketed observations into the histogram
    /// `name{labels}`: `counts` carries one slot per bound plus the
    /// trailing `+Inf` slot (`counts.len() == bounds.len() + 1`). Used
    /// by producers that bucket at source — the SAT core's sampled
    /// introspection histograms accumulate counts inside the solve loop
    /// and are merged here per scenario, without replaying every
    /// observation.
    pub fn histogram_add_bucketed(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
        counts: &[u64],
        sum: f64,
    ) {
        let key = render_labels(labels);
        let fam = self.family(name, Kind::Histogram, help);
        match fam
            .samples
            .entry(key)
            .or_insert_with(|| Value::Histogram(Histogram::new(bounds)))
        {
            Value::Histogram(h) => h.add_bucketed(counts, sum),
            _ => unreachable!("kind checked by family()"),
        }
    }

    /// The current value of a counter sample, if it exists.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.families.get(name)?.samples.get(&render_labels(labels)) {
            Some(Value::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// The current value of a gauge sample, if it exists.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self.families.get(name)?.samples.get(&render_labels(labels)) {
            Some(Value::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// The histogram sample, if it exists.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Histogram> {
        match self.families.get(name)?.samples.get(&render_labels(labels)) {
            Some(Value::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Render the whole registry in Prometheus text exposition format.
    /// Output is deterministic: families sorted by name, samples by label
    /// set, `# HELP` and `# TYPE` preceding each family.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, fam) in &self.families {
            let _ = writeln!(out, "# HELP {name} {}", fam.help);
            let _ = writeln!(out, "# TYPE {name} {}", fam.kind.tag());
            for (labels, value) in &fam.samples {
                match value {
                    Value::Counter(v) => {
                        let _ = writeln!(out, "{name}{labels} {v}");
                    }
                    Value::Gauge(v) => {
                        let _ = writeln!(out, "{name}{labels} {}", fmt_f64(*v));
                    }
                    Value::Histogram(h) => {
                        // Cumulative buckets: each `le` bound counts every
                        // observation at or below it.
                        let mut cum = 0u64;
                        let inner = labels.strip_prefix('{').and_then(|l| l.strip_suffix('}'));
                        let with_le = |le: &str| match inner {
                            Some(inner) if !inner.is_empty() => {
                                format!("{{{inner},le=\"{le}\"}}")
                            }
                            _ => format!("{{le=\"{le}\"}}"),
                        };
                        for (i, bound) in h.bounds.iter().enumerate() {
                            cum += h.counts[i];
                            let _ =
                                writeln!(out, "{name}_bucket{} {cum}", with_le(&fmt_f64(*bound)));
                        }
                        cum += h.counts[h.bounds.len()];
                        let _ = writeln!(out, "{name}_bucket{} {cum}", with_le("+Inf"));
                        let _ = writeln!(out, "{name}_sum{labels} {}", fmt_f64(h.sum));
                        let _ = writeln!(out, "{name}_count{labels} {}", h.count);
                    }
                }
            }
        }
        out
    }
}

/// Default wall-clock histogram buckets, in seconds (5ms .. 60s).
pub const TIME_BUCKETS_SECONDS: &[f64] = &[
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_label_set() {
        let mut r = Registry::new();
        r.counter_add("x_total", "x", &[("engine", "a")], 2);
        r.counter_add("x_total", "x", &[("engine", "a")], 3);
        r.counter_add("x_total", "x", &[("engine", "b")], 7);
        assert_eq!(r.counter_value("x_total", &[("engine", "a")]), Some(5));
        assert_eq!(r.counter_value("x_total", &[("engine", "b")]), Some(7));
        assert_eq!(r.counter_value("x_total", &[]), None);
    }

    #[test]
    fn labels_render_sorted_regardless_of_insertion_order() {
        assert_eq!(
            render_labels(&[("b", "2"), ("a", "1")]),
            "{a=\"1\",b=\"2\"}"
        );
        assert_eq!(render_labels(&[]), "");
    }

    #[test]
    fn gauge_last_write_wins() {
        let mut r = Registry::new();
        r.gauge_set("g", "g", &[], 1.0);
        r.gauge_set("g", "g", &[], 2.5);
        assert_eq!(r.gauge_value("g", &[]), Some(2.5));
    }

    #[test]
    fn histogram_buckets_are_cumulative_in_the_exposition() {
        let mut r = Registry::new();
        for v in [0.003, 0.03, 0.3, 3.0] {
            r.histogram_observe("h_seconds", "h", &[], &[0.01, 0.1, 1.0], v);
        }
        let text = r.render_prometheus();
        assert!(text.contains("h_seconds_bucket{le=\"0.01\"} 1"), "{text}");
        assert!(text.contains("h_seconds_bucket{le=\"0.1\"} 2"), "{text}");
        assert!(text.contains("h_seconds_bucket{le=\"1\"} 3"), "{text}");
        assert!(text.contains("h_seconds_bucket{le=\"+Inf\"} 4"), "{text}");
        assert!(text.contains("h_seconds_count 4"), "{text}");
        let h = r.histogram("h_seconds", &[]).unwrap();
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 3.333).abs() < 1e-9);
    }

    #[test]
    fn histogram_labels_compose_with_le() {
        let mut r = Registry::new();
        r.histogram_observe("h", "h", &[("engine", "x")], &[1.0], 0.5);
        let text = r.render_prometheus();
        assert!(text.contains("h_bucket{engine=\"x\",le=\"1\"} 1"), "{text}");
        assert!(text.contains("h_sum{engine=\"x\"} 0.5"), "{text}");
    }

    #[test]
    fn exposition_is_deterministic_and_sorted() {
        let build = |order_flip: bool| {
            let mut r = Registry::new();
            let (first, second) = if order_flip { ("b", "a") } else { ("a", "b") };
            r.counter_add("zz_total", "last", &[("k", first)], 1);
            r.counter_add("zz_total", "last", &[("k", second)], 1);
            r.gauge_set("aa", "first", &[], 3.0);
            r.render_prometheus()
        };
        let text = build(false);
        assert_eq!(text, build(true), "insertion order must not matter");
        let aa = text.find("# HELP aa").unwrap();
        let zz = text.find("# HELP zz_total").unwrap();
        assert!(aa < zz, "families sorted by name:\n{text}");
    }

    #[test]
    #[should_panic(expected = "registered as Counter")]
    fn kind_conflicts_are_programming_errors() {
        let mut r = Registry::new();
        r.counter_add("m", "m", &[], 1);
        r.gauge_set("m", "m", &[], 1.0);
    }

    /// Regression guard for the exposition edge: observations strictly
    /// above the last finite bound must land in the implicit `+Inf`
    /// slot, never be dropped, and the rendered `le="+Inf"` bucket must
    /// therefore always equal `_count`.
    #[test]
    fn observations_above_last_bound_land_in_inf_and_match_count() {
        let mut r = Registry::new();
        for v in [0.5, 1.0, 99.0, 1e12, f64::MAX] {
            r.histogram_observe("h", "h", &[], &[1.0, 2.0], v);
        }
        let h = r.histogram("h", &[]).unwrap();
        assert_eq!(h.count(), 5, "no observation may be dropped");
        let text = r.render_prometheus();
        assert!(text.contains("h_bucket{le=\"2\"} 2"), "{text}");
        assert!(text.contains("h_bucket{le=\"+Inf\"} 5"), "{text}");
        assert!(text.contains("h_count 5"), "{text}");
    }

    /// The `+Inf` bucket equals `_count` for every sample in a
    /// multi-label family, whichever bucket the values hit.
    #[test]
    fn inf_bucket_always_equals_count() {
        let mut r = Registry::new();
        for (lbl, v) in [("a", 0.1), ("a", 5.0), ("b", 3.0), ("b", 0.2), ("b", 9.9)] {
            r.histogram_observe("h", "h", &[("k", lbl)], &[1.0], v);
        }
        let text = r.render_prometheus();
        for (lbl, n) in [("a", 2u64), ("b", 3u64)] {
            assert!(
                text.contains(&format!("h_bucket{{k=\"{lbl}\",le=\"+Inf\"}} {n}")),
                "{text}"
            );
            assert!(
                text.contains(&format!("h_count{{k=\"{lbl}\"}} {n}")),
                "{text}"
            );
        }
    }

    #[test]
    fn bucketed_merge_matches_equivalent_observes() {
        let bounds = &[1.0, 4.0];
        let mut by_observe = Registry::new();
        for v in [1.0, 3.0, 3.0, 8.0] {
            by_observe.histogram_observe("h", "h", &[], bounds, v);
        }
        let mut by_merge = Registry::new();
        // Same data pre-bucketed: one ≤1, two ≤4, one above the last
        // bound (the +Inf slot — it must not be dropped here either).
        by_merge.histogram_add_bucketed("h", "h", &[], bounds, &[1, 2, 1], 15.0);
        assert_eq!(by_observe.render_prometheus(), by_merge.render_prometheus());
    }

    #[test]
    #[should_panic(expected = "plus +Inf")]
    fn bucketed_merge_rejects_mismatched_slot_count() {
        let mut r = Registry::new();
        r.histogram_add_bucketed("h", "h", &[], &[1.0, 2.0], &[1, 2], 3.0);
    }
}
