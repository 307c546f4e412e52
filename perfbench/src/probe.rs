//! Reads what the program already records under its `telemetry` feature.
//!
//! Spans land in per-name histograms whose exact `sum` is the total
//! nanoseconds spent inside the span (summed over threads); counters are
//! plain totals. In a build without the feature every read is `0`.

use std::collections::BTreeMap;

use cloudalloc_telemetry::{self as telemetry, MetricValue};

/// A point-in-time copy of every registered metric.
#[derive(Debug, Default, Clone)]
pub struct Probe(BTreeMap<&'static str, MetricValue>);

impl Probe {
    /// Zeroes every registered metric, so the next [`Probe::take`] covers
    /// only what ran in between.
    pub fn reset() {
        telemetry::reset_metrics();
    }

    /// Snapshots every registered metric.
    pub fn take() -> Self {
        Self(telemetry::snapshot().into_iter().map(|m| (m.name, m.value)).collect())
    }

    /// A counter's total; `0` when it never fired.
    pub fn count(&self, name: &str) -> u64 {
        match self.0.get(name) {
            Some(MetricValue::Counter(n)) => *n,
            _ => 0,
        }
    }

    /// How many times the named span closed; `0` when it never opened.
    pub fn span_count(&self, name: &str) -> u64 {
        match self.0.get(name) {
            Some(MetricValue::Histogram(h)) => h.count,
            _ => 0,
        }
    }

    /// Seconds spent inside the named span, summed over every entry and
    /// thread; `0` when it never opened.
    pub fn span_s(&self, name: &str) -> f64 {
        match self.0.get(name) {
            Some(MetricValue::Histogram(h)) => h.sum as f64 * 1e-9,
            _ => 0.0,
        }
    }
}

/// Running sums of probe reads over the calls of a traced run.
#[derive(Debug, Default, Clone)]
pub struct Totals(BTreeMap<&'static str, f64>);

impl Totals {
    /// Adds `value` to the named total.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_default() += value;
    }

    /// The named total; `0` when nothing was added.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Adds the span seconds of each `(total, span)` pair.
    pub fn add_spans(&mut self, probe: &Probe, pairs: &[(&'static str, &str)]) {
        for &(total, span) in pairs {
            self.add(total, probe.span_s(span));
        }
    }

    /// Adds the counter values of each `(total, counter)` pair.
    pub fn add_counts(&mut self, probe: &Probe, pairs: &[(&'static str, &str)]) {
        for &(total, counter) in pairs {
            self.add(total, probe.count(counter) as f64);
        }
    }
}

/// Operator phases of `improve_scored`, as `(metric, span)` pairs.
pub const PHASES: &[(&str, &str)] = &[
    ("core.phase.shares_s", "solve.phase.shares"),
    ("core.phase.dispersion_s", "solve.phase.dispersion"),
    ("core.phase.turn_on_s", "solve.phase.turn_on"),
    ("core.phase.turn_off_s", "solve.phase.turn_off"),
    ("core.phase.reassign_s", "solve.phase.reassign"),
];

/// Search, reassignment and pool counters, as `(total, counter)` pairs.
pub const COUNTERS: &[(&str, &str)] = &[
    ("core.search.calls", "search.calls"),
    ("core.reassign.tried", "op.reassign.tried"),
    ("reassign.accepted", "op.reassign.accepted"),
    ("reassign.stale", "op.reassign.stale"),
    ("core.par.dispatches", "par.dispatches"),
    ("core.par.tasks", "par.tasks"),
];
