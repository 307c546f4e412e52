//! The metric catalogue and the result line.
//!
//! Every run prints, as its last stdout line, one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. A plain run
//! carries exactly the [`END_TO_END`] metrics, a traced run exactly the
//! [`PER_LAYER`] ones; [`Report::render`] refuses anything else.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::probe::Totals;
use crate::stats::ratio;

/// End-to-end metrics: what a user of `solve` or `serve` sees.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("calls_per_s", "1/s"),
    ("profit", "money/t"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics of the traced run. Layers a workload does not
/// exercise report `0`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("run.threads", "count"),
    ("run.nproc", "count"),
    ("run.calls", "count"),
    ("trace.p50_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_share", "ratio"),
    ("workload.generate_s", "s"),
    ("model.lower_s", "s"),
    ("model.evaluate_s", "s"),
    ("core.greedy_s", "s"),
    ("core.search.calls", "count"),
    ("core.local_search_s", "s"),
    ("core.phase.shares_s", "s"),
    ("core.phase.dispersion_s", "s"),
    ("core.phase.turn_on_s", "s"),
    ("core.phase.turn_off_s", "s"),
    ("core.phase.reassign_s", "s"),
    ("core.reassign.tried", "count"),
    ("core.reassign.accept_ratio", "ratio"),
    ("core.reassign.stale_ratio", "ratio"),
    ("core.rounds", "count"),
    ("core.converged_share", "ratio"),
    ("core.served_share", "ratio"),
    ("core.active_servers", "count"),
    ("core.hier.sketch_s", "s"),
    ("core.hier.extract_s", "s"),
    ("core.hier.group_solve_s", "s"),
    ("core.hier.stitch_s", "s"),
    ("core.hier.rescore_s", "s"),
    ("core.hier.groups", "count"),
    ("core.hier.waves", "count"),
    ("core.par.dispatches", "count"),
    ("core.par.tasks", "count"),
    ("core.coverage", "ratio"),
    ("server.decide_p50_ms", "ms"),
    ("server.decide_tail_ms", "ms"),
    ("server.decide_tail_pct", "%"),
    ("server.fold_p50_ms", "ms"),
    ("server.fold_max_ms", "ms"),
    ("server.query_p50_ms", "ms"),
    ("server.admit_accept_ratio", "ratio"),
    ("server.folds", "count"),
    ("server.shed", "count"),
    ("server.slo_miss_ratio", "ratio"),
    ("protocol.encode_us", "us"),
    ("protocol.decode_us", "us"),
    ("protocol.bytes_per_request", "B"),
    ("net.overhead_ms", "ms"),
    ("net.overhead.admit_ms", "ms"),
    ("net.overhead.depart_ms", "ms"),
    ("net.overhead.renegotiate_ms", "ms"),
    ("net.overhead.query_ms", "ms"),
];

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let first_ok = name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Outcome accounting plus the measured values of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (solve calls or requests).
    pub attempted: u64,
    /// Operations that failed: a panic or hard violation in a solve, an
    /// `Error` reply, socket error or missing reply in serve.
    pub failed: u64,
    /// Correctness findings; empty means every check passed.
    pub problems: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// A recorded value, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Records, for every not yet recorded [`PER_LAYER`] metric under
    /// one of `prefixes`, its total in `totals` divided by `calls`.
    pub fn set_per_call(&mut self, totals: &Totals, calls: f64, prefixes: &[&str]) {
        for &(name, _) in PER_LAYER {
            if prefixes.iter().any(|p| name.starts_with(p)) && self.get(name).is_none() {
                self.set(name, ratio(totals.get(name), calls));
            }
        }
    }

    /// Records `0` for every not yet recorded [`PER_LAYER`] metric under
    /// one of `prefixes`: layers the workload never enters.
    pub fn zero_unused(&mut self, prefixes: &[&str]) {
        self.set_per_call(&Totals::default(), 0.0, prefixes);
    }

    /// Records a correctness finding.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// Whether the run was correct: no findings, no failures.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The result line over `catalogue`.
    ///
    /// # Errors
    ///
    /// Names a catalogue metric that was not recorded, a recorded metric
    /// outside the catalogue, or a non-finite value.
    pub fn render(&self, catalogue: &[(&str, &str)]) -> Result<String, String> {
        if let Some(extra) = self.values.keys().find(|k| !catalogue.iter().any(|(n, _)| n == *k)) {
            return Err(format!("metric {extra} is not in the catalogue"));
        }
        let mut metrics = String::new();
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let value = self.get(name).ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            write!(metrics, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
                .expect("writing to a String");
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        ))
    }
}
