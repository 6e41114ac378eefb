//! The CI performance gate: tolerance-band comparison against a committed
//! baseline.
//!
//! CI machines are noisy, so the gate never compares raw numbers for
//! equality. Every metric in `BENCH_baseline.json` carries a *tolerance
//! band*: a throughput metric regresses only when it falls below
//! `baseline × (1 − tolerance)`, a wall-clock metric only when it rises above
//! `baseline × (1 + tolerance)`. The bands are committed alongside the
//! baseline values, so loosening one for a legitimately noisy metric is an
//! explicit, reviewable change.
//!
//! `perf_gate --write-baseline` writes the baseline file as one line of
//! compact JSON, like `BENCH_results.json`, and the gate reads it back with
//! the engine's JSON codec ([`drhw_engine::json`]), so any valid JSON
//! layout of it parses — an indented, hand-edited file as well:
//!
//! ```json
//! {"schema_version":8,"default_tolerance":0.5,"tolerance":{"wall_clock_ms.cross_policy":1.0},"iterations_per_sec":{"hybrid":123456.0},"kernel_ns":{"executor":850.0},"wall_clock_ms":{"cross_policy":42.0}}
//! ```
//!
//! Refreshing the baseline is `cargo run --release --bin perf_gate --
//! --write-baseline` on the reference machine (see EXPERIMENTS.md).

use std::collections::BTreeMap;
use std::fmt;

use drhw_engine::json::{self, JsonError, JsonValue};

use crate::report::{object, SCHEMA_VERSION};

/// Tolerance applied when a metric has no per-metric override.
pub const DEFAULT_TOLERANCE: f64 = 0.5;

/// Standing per-metric tolerance overrides, as `(name prefix, tolerance)`
/// pairs. The first matching prefix wins.
///
/// These encode which metric families are structurally noisy on shared CI
/// runners — sub-microsecond kernel calls, one-shot submit latencies,
/// individual pipeline-stage wall clocks — rather than per-machine tuning.
/// [`render_baseline_json`] expands them into concrete `tolerance` entries
/// for every measured metric they match, so a regenerated baseline keeps
/// the bands without hand-editing (which earlier baselines required).
pub const TOLERANCE_OVERRIDES: &[(&str, f64)] = &[
    ("kernel_ns.", 2.0),
    ("plan_cache.", 3.0),
    ("serving.", 3.0),
    ("stage_ms.", 2.0),
    // The traffic scenario runs on a virtual clock — its latency and
    // utilization metrics are deterministic and keep the default band; only
    // the wall-clock event throughput of the driver is runner-noisy.
    ("traffic.events_per_sec", 3.0),
    ("wall_clock_ms.cross_policy", 3.0),
];

/// The standing tolerance override for a metric, when one of the
/// [`TOLERANCE_OVERRIDES`] prefixes matches it.
pub fn tolerance_override_for(metric: &str) -> Option<f64> {
    TOLERANCE_OVERRIDES
        .iter()
        .find(|(prefix, _)| metric.starts_with(prefix))
        .map(|&(_, tolerance)| tolerance)
}

/// Which direction of change counts as a regression for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricDirection {
    /// Throughput-style metric: smaller measured values are regressions.
    HigherIsBetter,
    /// Latency-style metric: larger measured values are regressions.
    LowerIsBetter,
}

/// One measured metric to gate, e.g. `iterations_per_sec.hybrid`.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Dotted metric name (`section.key` in the baseline file).
    pub name: String,
    /// The measured value (median over the gate's repeated runs).
    pub value: f64,
    /// Which direction regresses.
    pub direction: MetricDirection,
}

impl Measured {
    /// Convenience constructor for a throughput metric.
    pub fn higher_is_better(name: impl Into<String>, value: f64) -> Self {
        Measured {
            name: name.into(),
            value,
            direction: MetricDirection::HigherIsBetter,
        }
    }

    /// Convenience constructor for a wall-clock metric.
    pub fn lower_is_better(name: impl Into<String>, value: f64) -> Self {
        Measured {
            name: name.into(),
            value,
            direction: MetricDirection::LowerIsBetter,
        }
    }
}

/// The committed reference numbers plus their tolerance bands.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Baseline {
    /// Metric values keyed by dotted name (`iterations_per_sec.hybrid`).
    pub values: BTreeMap<String, f64>,
    /// Per-metric tolerance overrides, same keys.
    pub tolerance: BTreeMap<String, f64>,
    /// Tolerance for metrics without an override.
    pub default_tolerance: f64,
}

impl Baseline {
    /// The tolerance band applied to a metric.
    pub fn tolerance_for(&self, metric: &str) -> f64 {
        self.tolerance
            .get(metric)
            .copied()
            .unwrap_or(self.default_tolerance)
    }
}

/// Why the gate could not run at all (distinct from a regression).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GateError {
    /// The baseline file does not exist — commit one with `--write-baseline`.
    MissingBaseline {
        /// The path that was looked up.
        path: String,
    },
    /// The baseline file exists but cannot be understood.
    InvalidBaseline {
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for GateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateError::MissingBaseline { path } => write!(
                f,
                "no baseline at {path}; record one with `perf_gate --write-baseline` and commit it"
            ),
            GateError::InvalidBaseline { reason } => {
                write!(f, "baseline file is invalid: {reason}")
            }
        }
    }
}

impl std::error::Error for GateError {}

/// Parses a baseline file: one JSON object whose `tolerance` object holds
/// per-metric bands, whose other objects hold `section.key` metric values,
/// and whose remaining numbers are undotted metrics — apart from
/// `default_tolerance` and the informational `schema_version`.
///
/// # Errors
///
/// Returns [`GateError::InvalidBaseline`] when the text is not a JSON
/// object, carries no metric values, or holds a value that is not a number.
pub fn parse_baseline(text: &str) -> Result<Baseline, GateError> {
    let root = json::parse(text).map_err(|err| GateError::InvalidBaseline {
        reason: json_error_reason(text, &err),
    })?;
    let entries = root.entries().ok_or_else(|| GateError::InvalidBaseline {
        reason: "the top level is not a JSON object".to_string(),
    })?;
    let mut baseline = Baseline {
        default_tolerance: DEFAULT_TOLERANCE,
        ..Baseline::default()
    };
    for (key, value) in entries {
        match (key.as_str(), value.entries()) {
            ("tolerance", Some(bands)) => {
                for (metric, band) in bands {
                    baseline
                        .tolerance
                        .insert(metric.clone(), number(metric, band)?);
                }
            }
            (section, Some(metrics)) => {
                for (metric, value) in metrics {
                    baseline
                        .values
                        .insert(format!("{section}.{metric}"), number(metric, value)?);
                }
            }
            ("default_tolerance", None) => baseline.default_tolerance = number(key, value)?,
            // Informational; any version parses the same today.
            ("schema_version", None) => {
                number(key, value)?;
            }
            (_, None) => {
                baseline.values.insert(key.clone(), number(key, value)?);
            }
        }
    }
    if baseline.values.is_empty() {
        return Err(GateError::InvalidBaseline {
            reason: "no metric values found".to_string(),
        });
    }
    Ok(baseline)
}

fn number(key: &str, value: &JsonValue) -> Result<f64, GateError> {
    value.as_f64().ok_or_else(|| GateError::InvalidBaseline {
        reason: format!("value of {key:?} is not a number: {}", value.to_json()),
    })
}

/// A parse error plus the line of the file it points into, so a broken
/// baseline names the offending entry.
fn json_error_reason(text: &str, err: &JsonError) -> String {
    let before = &text.as_bytes()[..err.offset.min(text.len())];
    let line_number = before.iter().filter(|&&byte| byte == b'\n').count() + 1;
    let line = text.lines().nth(line_number - 1).unwrap_or_default().trim();
    format!("{err} (line {line_number}: {line})")
}

/// Loads and parses the baseline file at `path`.
///
/// # Errors
///
/// Returns [`GateError::MissingBaseline`] when the file does not exist and
/// [`GateError::InvalidBaseline`] when it cannot be parsed.
pub fn load_baseline(path: &str) -> Result<Baseline, GateError> {
    match std::fs::read_to_string(path) {
        Ok(text) => parse_baseline(&text),
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => Err(GateError::MissingBaseline {
            path: path.to_string(),
        }),
        Err(err) => Err(GateError::InvalidBaseline {
            reason: format!("cannot read {path}: {err}"),
        }),
    }
}

/// Renders measured metrics as a committable baseline file, with the given
/// default tolerance. Metrics matched by [`TOLERANCE_OVERRIDES`] get a
/// concrete `tolerance` entry; anything else needing a wider band is added
/// by hand. The file is one line of compact JSON from [`drhw_engine::json`]
/// plus a newline, values at full precision.
pub fn render_baseline_json(measured: &[Measured], default_tolerance: f64) -> String {
    let mut doc = vec![
        ("schema_version", JsonValue::UInt(u64::from(SCHEMA_VERSION))),
        ("default_tolerance", JsonValue::Float(default_tolerance)),
    ];
    let mut sections: BTreeMap<&str, Vec<(&str, JsonValue)>> = BTreeMap::new();
    let mut overrides = Vec::new();
    for m in measured {
        // Dotted names become "section": { "key": … } objects; undotted names
        // stay top-level scalars — both round-trip through parse_baseline to
        // exactly the original metric name.
        let value = JsonValue::Float(m.value);
        match m.name.split_once('.') {
            Some((section, key)) => sections.entry(section).or_default().push((key, value)),
            None => doc.push((&m.name, value)),
        }
        if let Some(tolerance) = tolerance_override_for(&m.name) {
            overrides.push((m.name.as_str(), JsonValue::Float(tolerance)));
        }
    }
    doc.push(("tolerance", object(overrides)));
    doc.extend(
        sections
            .into_iter()
            .map(|(name, entries)| (name, object(entries))),
    );
    format!("{}\n", object(doc).to_json())
}

/// How one metric fared against the baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateStatus {
    /// Within the tolerance band.
    Pass,
    /// Outside the band, in the bad direction.
    Regressed,
    /// The baseline has no entry for this metric (reported, never fatal —
    /// refresh the baseline to start gating it).
    NoBaseline,
}

impl fmt::Display for GateStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateStatus::Pass => write!(f, "ok"),
            GateStatus::Regressed => write!(f, "REGRESSED"),
            GateStatus::NoBaseline => write!(f, "no-baseline"),
        }
    }
}

/// One row of the delta table.
#[derive(Debug, Clone, PartialEq)]
pub struct GateRow {
    /// Dotted metric name.
    pub metric: String,
    /// Measured value.
    pub measured: f64,
    /// Baseline value, when present.
    pub baseline: Option<f64>,
    /// The tolerance band applied.
    pub tolerance: f64,
    /// `measured / baseline − 1`, in percent, when a baseline exists.
    pub delta_percent: Option<f64>,
    /// The verdict.
    pub status: GateStatus,
}

/// The gate's overall verdict plus its per-metric rows.
#[derive(Debug, Clone, PartialEq)]
pub struct GateReport {
    /// One row per measured metric, in input order.
    pub rows: Vec<GateRow>,
}

impl GateReport {
    /// `true` when any metric regressed beyond its band.
    pub fn regressed(&self) -> bool {
        self.rows.iter().any(|r| r.status == GateStatus::Regressed)
    }

    /// Renders the human-readable delta table the gate prints and uploads.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "metric                                    measured      baseline    delta      band  verdict\n",
        );
        for row in &self.rows {
            let baseline = row
                .baseline
                .map(|b| format!("{b:>12.2}"))
                .unwrap_or_else(|| format!("{:>12}", "-"));
            let delta = row
                .delta_percent
                .map(|d| format!("{d:>+8.1}%"))
                .unwrap_or_else(|| format!("{:>9}", "-"));
            out.push_str(&format!(
                "{:<40} {:>12.2} {baseline} {delta}  {:>7.0}%  {}\n",
                row.metric,
                row.measured,
                row.tolerance * 100.0,
                row.status
            ));
        }
        out
    }
}

/// Compares every measured metric against the baseline under its tolerance
/// band.
pub fn evaluate_gate(measured: &[Measured], baseline: &Baseline) -> GateReport {
    let rows = measured
        .iter()
        .map(|m| {
            let reference = baseline.values.get(&m.name).copied();
            let tolerance = baseline.tolerance_for(&m.name);
            let (status, delta_percent) = match reference {
                None => (GateStatus::NoBaseline, None),
                Some(reference) => {
                    let delta = if reference != 0.0 {
                        Some((m.value / reference - 1.0) * 100.0)
                    } else {
                        None
                    };
                    let regressed = match m.direction {
                        MetricDirection::HigherIsBetter => m.value < reference * (1.0 - tolerance),
                        MetricDirection::LowerIsBetter => m.value > reference * (1.0 + tolerance),
                    };
                    (
                        if regressed {
                            GateStatus::Regressed
                        } else {
                            GateStatus::Pass
                        },
                        delta,
                    )
                }
            };
            GateRow {
                metric: m.name.clone(),
                measured: m.value,
                baseline: reference,
                tolerance,
                delta_percent,
                status,
            }
        })
        .collect();
    GateReport { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline_with(entries: &[(&str, f64)]) -> Baseline {
        Baseline {
            values: entries.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            tolerance: BTreeMap::new(),
            default_tolerance: 0.2,
        }
    }

    #[test]
    fn metrics_within_the_band_pass() {
        let baseline = baseline_with(&[
            ("iterations_per_sec.hybrid", 1000.0),
            ("wall_clock_ms.cross_policy", 100.0),
        ]);
        let measured = [
            // 10 % slower throughput: inside the 20 % band.
            Measured::higher_is_better("iterations_per_sec.hybrid", 900.0),
            // 15 % more wall clock: inside the band.
            Measured::lower_is_better("wall_clock_ms.cross_policy", 115.0),
        ];
        let report = evaluate_gate(&measured, &baseline);
        assert!(!report.regressed());
        assert!(report.rows.iter().all(|r| r.status == GateStatus::Pass));
        // Improvements always pass, no matter how large.
        let improved = [
            Measured::higher_is_better("iterations_per_sec.hybrid", 5000.0),
            Measured::lower_is_better("wall_clock_ms.cross_policy", 1.0),
        ];
        assert!(!evaluate_gate(&improved, &baseline).regressed());
    }

    #[test]
    fn metrics_outside_the_band_fail() {
        let baseline = baseline_with(&[
            ("iterations_per_sec.hybrid", 1000.0),
            ("wall_clock_ms.cross_policy", 100.0),
        ]);
        // 25 % slower throughput: outside the 20 % band.
        let slow = [Measured::higher_is_better(
            "iterations_per_sec.hybrid",
            750.0,
        )];
        let report = evaluate_gate(&slow, &baseline);
        assert!(report.regressed());
        assert_eq!(report.rows[0].status, GateStatus::Regressed);
        assert!((report.rows[0].delta_percent.unwrap() + 25.0).abs() < 1e-9);
        // 30 % more wall clock: outside the band.
        let slow = [Measured::lower_is_better(
            "wall_clock_ms.cross_policy",
            130.0,
        )];
        assert!(evaluate_gate(&slow, &baseline).regressed());
        // The rendered table names the verdicts.
        let table = evaluate_gate(&slow, &baseline).render_table();
        assert!(table.contains("REGRESSED"));
        assert!(table.contains("wall_clock_ms.cross_policy"));
    }

    #[test]
    fn per_metric_tolerance_overrides_the_default() {
        let mut baseline = baseline_with(&[("iterations_per_sec.hybrid", 1000.0)]);
        baseline
            .tolerance
            .insert("iterations_per_sec.hybrid".to_string(), 0.5);
        // 40 % slower: would fail the 20 % default, passes the 50 % override.
        let measured = [Measured::higher_is_better(
            "iterations_per_sec.hybrid",
            600.0,
        )];
        assert!(!evaluate_gate(&measured, &baseline).regressed());
        assert!((baseline.tolerance_for("iterations_per_sec.hybrid") - 0.5).abs() < 1e-12);
        assert!((baseline.tolerance_for("unknown") - 0.2).abs() < 1e-12);
    }

    #[test]
    fn unknown_metrics_are_reported_but_never_fatal() {
        let baseline = baseline_with(&[("iterations_per_sec.hybrid", 1000.0)]);
        let measured = [Measured::higher_is_better("iterations_per_sec.new", 1.0)];
        let report = evaluate_gate(&measured, &baseline);
        assert!(!report.regressed());
        assert_eq!(report.rows[0].status, GateStatus::NoBaseline);
        assert!(report.render_table().contains("no-baseline"));
    }

    #[test]
    fn missing_baseline_file_is_a_distinct_error() {
        let err = load_baseline("/nonexistent/BENCH_baseline.json").unwrap_err();
        assert!(matches!(err, GateError::MissingBaseline { .. }));
        assert!(err.to_string().contains("--write-baseline"));
    }

    #[test]
    fn baseline_round_trips_through_render_and_parse() {
        let measured = [
            Measured::higher_is_better("iterations_per_sec.hybrid", 1234.5),
            Measured::higher_is_better("iterations_per_sec.no-prefetch", 999.25),
            Measured::lower_is_better("wall_clock_ms.cross_policy", 42.125),
            // Undotted names must survive as top-level scalars, not get filed
            // under a synthetic section that renames them on the way back.
            Measured::lower_is_better("plain_metric", 7.5),
        ];
        let text = render_baseline_json(&measured, 0.4);
        let baseline = parse_baseline(&text).unwrap();
        assert!((baseline.default_tolerance - 0.4).abs() < 1e-12);
        // The baseline carries the results file's schema version.
        assert_eq!(
            json::parse(&text)
                .unwrap()
                .get("schema_version")
                .and_then(JsonValue::as_u64),
            Some(u64::from(SCHEMA_VERSION))
        );
        assert!(
            (baseline.values["iterations_per_sec.hybrid"] - 1234.5).abs() < 1e-9,
            "{baseline:?}"
        );
        assert!((baseline.values["wall_clock_ms.cross_policy"] - 42.125).abs() < 1e-9);
        assert!(
            (baseline.values["plain_metric"] - 7.5).abs() < 1e-9,
            "undotted metric names must round-trip: {baseline:?}"
        );
        assert!(!evaluate_gate(&measured, &baseline).regressed());
        // The standing overrides materialise as concrete tolerance entries
        // for exactly the measured metrics they match.
        assert_eq!(baseline.tolerance.len(), 1, "{baseline:?}");
        assert!((baseline.tolerance["wall_clock_ms.cross_policy"] - 3.0).abs() < 1e-12);
        // Undotted-only metrics must still render valid JSON (no trailing
        // comma before the final closing brace).
        let flat_only = [Measured::lower_is_better("plain_metric", 7.5)];
        let flat_text = render_baseline_json(&flat_only, 0.5);
        assert!(!flat_text.contains(",\n}"), "{flat_text}");
        assert!(!flat_text.contains(",\n  }"), "{flat_text}");
        let flat = parse_baseline(&flat_text).unwrap();
        assert!((flat.values["plain_metric"] - 7.5).abs() < 1e-9);
        // Balanced braces, no trailing comma before a closing brace.
        assert_eq!(text.matches('{').count(), text.matches('}').count());
        assert!(!text.contains(",\n  }"));
        assert!(!text.contains(",\n}"));
    }

    #[test]
    fn standing_overrides_match_by_prefix() {
        assert_eq!(tolerance_override_for("kernel_ns.executor"), Some(2.0));
        assert_eq!(tolerance_override_for("stage_ms.branch_bound"), Some(2.0));
        assert_eq!(tolerance_override_for("stage_ms.critical_set"), Some(2.0));
        assert_eq!(
            tolerance_override_for("plan_cache.disk_warm_submit_ms"),
            Some(3.0)
        );
        assert_eq!(tolerance_override_for("serving.p99_ms"), Some(3.0));
        assert_eq!(tolerance_override_for("serving.jobs_per_sec"), Some(3.0));
        assert_eq!(tolerance_override_for("iterations_per_sec.hybrid"), None);
    }

    #[test]
    fn invalid_baselines_are_rejected_with_a_reason() {
        assert!(matches!(
            parse_baseline("{\n}\n").unwrap_err(),
            GateError::InvalidBaseline { .. }
        ));
        let err = parse_baseline("{\n  \"iterations_per_sec\": {\n    \"hybrid\": oops\n  }\n}\n")
            .unwrap_err();
        assert!(err.to_string().contains("hybrid"));
    }

    #[test]
    fn the_committed_baseline_parses_in_any_json_layout() {
        let text = include_str!("../../../BENCH_baseline.json");
        let committed = parse_baseline(text).unwrap();
        assert!(!committed.values.is_empty());
        assert!(!committed.tolerance.is_empty());
        let one_line = json::parse(text).unwrap().to_json();
        assert!(!one_line.contains('\n'));
        assert_eq!(parse_baseline(&one_line).unwrap(), committed);
    }

    #[test]
    fn invalid_json_is_an_invalid_baseline() {
        for text in [
            "",
            "{\"iterations_per_sec\": {\"hybrid\": 1.0}",
            "{\"iterations_per_sec\": {\"hybrid\": 1.0}} trailing",
            "{\"iterations_per_sec\": {\"hybrid\": 1.0,}}",
            "[1.0]",
        ] {
            assert!(
                matches!(parse_baseline(text), Err(GateError::InvalidBaseline { .. })),
                "{text:?}"
            );
        }
        // The reason points at the broken line.
        let err =
            parse_baseline("{\n  \"schema_version\": 8,\n  \"plain\": 1.0.0\n}\n").unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
    }

    #[test]
    fn tolerance_section_feeds_overrides_not_values() {
        let text = "{\n  \"schema_version\": 3,\n  \"default_tolerance\": 0.3000,\n  \"tolerance\": {\n    \"wall_clock_ms.cross_policy\": 1.0000\n  },\n  \"wall_clock_ms\": {\n    \"cross_policy\": 50.0000\n  }\n}\n";
        let baseline = parse_baseline(text).unwrap();
        assert!((baseline.tolerance["wall_clock_ms.cross_policy"] - 1.0).abs() < 1e-12);
        assert!((baseline.values["wall_clock_ms.cross_policy"] - 50.0).abs() < 1e-12);
        assert!(!baseline
            .values
            .contains_key("tolerance.wall_clock_ms.cross_policy"));
        // A doubled wall clock is inside the 100 % override band.
        let measured = [Measured::lower_is_better(
            "wall_clock_ms.cross_policy",
            99.0,
        )];
        assert!(!evaluate_gate(&measured, &baseline).regressed());
    }
}
