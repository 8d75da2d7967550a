//! `compare A.json B.json`: is B no worse than A, metric by metric?
//!
//! Every (workload, end-to-end metric) pair gets its own row and its own
//! verdict; there is no combined score. A median that worsened by more
//! than the metric's bound is `regressed`. Where the run-to-run spread
//! is wider than the bound the pair is `unresolved` rather than
//! unchanged — unless every repeat of B reads better than every repeat
//! of A (`ok`) or every repeat reads worse (`regressed`). Deterministic
//! counts and `sim_digest` are compared exactly, and only at equal
//! seeds.

use crate::result::{ResultSet, RunResult};
use crate::spec::{self, Better, Bound, MetricDef};
use crate::stats::Summary;
use std::fmt::Write as _;

/// Outcome for one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound allows.
    Ok,
    /// Worse than the bound allows.
    Regressed,
    /// The spread is wider than the bound and the runs overlap, or the
    /// seeds differ on an exact metric: nothing can be claimed.
    Unresolved,
}

impl Verdict {
    /// The spelling printed in the table.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One line of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name (`sim_digest` and `correct` appear as rows too).
    pub metric: String,
    /// Rendered baseline: median and quartiles.
    pub base: String,
    /// Rendered candidate: median and quartiles.
    pub new: String,
    /// Change of the median as a share of the baseline, signed so that
    /// positive is worse; `None` for identities.
    pub worsening: Option<f64>,
    /// The bound, rendered.
    pub bound: String,
    /// The verdict.
    pub verdict: Verdict,
}

/// How much worse `new` is than `base`, in the metric's unit (negative
/// when it is better).
fn worsening(better: Better, base: f64, new: f64) -> f64 {
    match better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    }
}

/// Judge one metric. `same_seed` gates exact comparison: counts made on
/// different inputs are not comparable.
pub fn judge(def: &MetricDef, base: &Summary, new: &Summary, same_seed: bool) -> Verdict {
    let worsening = worsening(def.better, base.median, new.median);
    match def.bound {
        Bound::Unbounded => Verdict::Ok,
        Bound::Exact if !same_seed => Verdict::Unresolved,
        Bound::Exact if worsening > 0.0 => Verdict::Regressed,
        Bound::Exact => Verdict::Ok,
        Bound::Relative { share, floor } => {
            let allowed = (share * base.median.abs()).max(floor);
            if base.iqr() <= allowed && new.iqr() <= allowed {
                return if worsening > allowed { Verdict::Regressed } else { Verdict::Ok };
            }
            let (all_better, all_worse) = match def.better {
                Better::Lower => (new.max < base.min, new.min > base.max),
                Better::Higher => (new.min > base.max, new.max < base.min),
            };
            if all_better {
                Verdict::Ok
            } else if all_worse && worsening > allowed {
                Verdict::Regressed
            } else {
                Verdict::Unresolved
            }
        }
    }
}

fn show(s: &Summary) -> String {
    if s.raw.len() == 1 {
        format!("{:.6}", s.median)
    } else {
        format!("{:.6} [{:.6} .. {:.6}] n={}", s.median, s.q1, s.q3, s.raw.len())
    }
}

fn show_bound(bound: Bound) -> String {
    match bound {
        Bound::Relative { share, floor } if floor > 0.0 => {
            format!("max({:.0}%, {floor})", share * 100.0)
        }
        Bound::Relative { share, .. } => format!("{:.0}%", share * 100.0),
        Bound::Exact => "exact".into(),
        Bound::Unbounded => "-".into(),
    }
}

/// A row for a value that is not a measurement: equal or not.
fn identity_row(workload: &str, metric: &str, base: String, new: String, verdict: Verdict) -> Row {
    Row {
        workload: workload.into(),
        metric: metric.into(),
        base,
        new,
        worsening: None,
        bound: "exact".into(),
        verdict,
    }
}

fn compare_run(base: &RunResult, new: &RunResult, rows: &mut Vec<Row>) -> Result<(), String> {
    let same_seed = base.seed == new.seed && base.scale == new.scale;
    for def in &spec::END_TO_END {
        let Some(b) = base.metric(def.name) else { continue };
        let n = new.metric(def.name).ok_or_else(|| {
            format!("{}: the candidate does not report `{}`", base.workload, def.name)
        })?;
        let worsening = worsening(def.better, b.value(), n.value());
        rows.push(Row {
            workload: base.workload.clone(),
            metric: def.name.into(),
            base: show(&b.summary),
            new: show(&n.summary),
            worsening: (b.value() != 0.0).then(|| worsening / b.value().abs()),
            bound: show_bound(def.bound),
            verdict: judge(def, &b.summary, &n.summary, same_seed),
        });
    }
    if let (Some(b), Some(n)) = (base.sim_digest, new.sim_digest) {
        let verdict = match (same_seed, b == n) {
            (false, _) => Verdict::Unresolved,
            (true, true) => Verdict::Ok,
            (true, false) => Verdict::Regressed,
        };
        let hex = |d: u64| format!("{d:016x}");
        rows.push(identity_row(&base.workload, "sim_digest", hex(b), hex(n), verdict));
    }
    // An incorrect candidate is a regression whatever its speed.
    let word = |ok: bool| String::from(if ok { "correct" } else { "incorrect" });
    let verdict = if new.correct { Verdict::Ok } else { Verdict::Regressed };
    rows.push(identity_row(
        &base.workload,
        "correct",
        word(base.correct),
        word(new.correct),
        verdict,
    ));
    Ok(())
}

/// Compare the untraced run of every workload in `base` with the same
/// workload in `new`. A workload missing from `new` is an error: an
/// absent run cannot be shown to be no worse.
pub fn compare(base: &ResultSet, new: &ResultSet) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for run in base.runs.iter().filter(|r| !r.traced) {
        let other = new
            .untraced(&run.workload)
            .ok_or_else(|| format!("the candidate has no untraced run of `{}`", run.workload))?;
        compare_run(run, other, &mut rows)?;
    }
    if rows.is_empty() {
        return Err("the baseline holds no untraced runs".into());
    }
    Ok(rows)
}

/// Whether any row regressed.
pub fn any_regressed(rows: &[Row]) -> bool {
    rows.iter().any(|r| r.verdict == Verdict::Regressed)
}

/// Render the rows as an aligned table.
pub fn render(rows: &[Row]) -> String {
    let titles = [
        "workload",
        "metric",
        "A median [q1 .. q3]",
        "B median [q1 .. q3]",
        "worse by",
        "bound",
        "verdict",
    ]
    .map(String::from);
    let mut table = vec![titles];
    table.extend(rows.iter().map(|r| {
        [
            r.workload.clone(),
            r.metric.clone(),
            r.base.clone(),
            r.new.clone(),
            r.worsening.map_or("-".into(), |w| format!("{:+.2}%", w * 100.0)),
            r.bound.clone(),
            r.verdict.name().into(),
        ]
    }));
    let widths: Vec<usize> =
        (0..7).map(|col| table.iter().map(|row| row[col].len()).max().unwrap_or(0)).collect();
    let mut out = String::new();
    for row in &table {
        let mut line = String::new();
        for (cell, width) in row.iter().zip(&widths) {
            let _ = write!(line, "{cell:<width$}  ");
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::tests::sample_run;
    use crate::result::MetricValue;

    fn ops() -> &'static MetricDef {
        spec::end_to_end("ops_per_s").unwrap()
    }

    fn s(values: &[f64]) -> Summary {
        Summary::of(values.to_vec())
    }

    #[test]
    fn tight_runs_within_the_bound_are_ok_and_beyond_it_regressed() {
        let base = s(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        assert_eq!(judge(ops(), &base, &s(&[85.0, 86.0, 84.0, 85.5, 84.5]), true), Verdict::Ok);
        assert_eq!(
            judge(ops(), &base, &s(&[70.0, 71.0, 69.0, 70.5, 69.5]), true),
            Verdict::Regressed
        );
        // Higher is better for ops/s: a faster candidate is never a regression.
        assert_eq!(judge(ops(), &base, &s(&[150.0, 151.0, 149.0]), true), Verdict::Ok);
    }

    #[test]
    fn wide_overlapping_runs_are_unresolved_not_unchanged() {
        let base = s(&[100.0, 60.0, 140.0, 80.0, 120.0]);
        let same = s(&[101.0, 61.0, 139.0, 82.0, 118.0]);
        assert_eq!(judge(ops(), &base, &same, true), Verdict::Unresolved);
        // Wide, but every candidate repeat beats every baseline repeat.
        assert_eq!(judge(ops(), &base, &s(&[150.0, 190.0, 240.0]), true), Verdict::Ok);
        // Wide, and every candidate repeat loses to every baseline repeat.
        assert_eq!(judge(ops(), &base, &s(&[20.0, 50.0, 35.0]), true), Verdict::Regressed);
    }

    #[test]
    fn exact_metrics_compare_exactly_and_only_at_equal_seeds() {
        let def = spec::end_to_end("sim_events_per_op").unwrap();
        let base = Summary::single(3.22);
        assert_eq!(judge(def, &base, &Summary::single(3.22), true), Verdict::Ok);
        assert_eq!(judge(def, &base, &Summary::single(3.23), true), Verdict::Regressed);
        assert_eq!(judge(def, &base, &Summary::single(3.0), true), Verdict::Ok);
        assert_eq!(judge(def, &base, &Summary::single(3.22), false), Verdict::Unresolved);
    }

    #[test]
    fn setup_floor_forgives_small_absolute_changes() {
        let def = spec::end_to_end("setup_s").unwrap();
        // +100% of 2 ms is under the 50 ms floor.
        assert_eq!(judge(def, &s(&[0.002]), &s(&[0.004]), true), Verdict::Ok);
        // +50% of 1 s is not.
        assert_eq!(judge(def, &s(&[1.0]), &s(&[1.5]), true), Verdict::Regressed);
    }

    #[test]
    fn sets_compare_row_by_row_and_flag_digest_and_correctness() {
        let base = ResultSet { runs: vec![sample_run("simserve_query", &[100.0, 101.0, 99.0])] };
        let rows = compare(&base, &base).unwrap();
        assert!(!any_regressed(&rows));
        let metrics: Vec<&str> = rows.iter().map(|r| r.metric.as_str()).collect();
        assert_eq!(metrics, ["ops_per_s", "peak_rss_mb", "sim_digest", "correct"]);

        let mut slow = base.clone();
        slow.runs[0].metrics[0] = MetricValue {
            name: "ops_per_s".into(),
            unit: "op/s".into(),
            summary: s(&[70.0, 71.0, 69.0]),
        };
        slow.runs[0].sim_digest = Some(1);
        slow.runs[0].correct = false;
        let rows = compare(&base, &slow).unwrap();
        let verdict = |m: &str| rows.iter().find(|r| r.metric == m).unwrap().verdict;
        assert_eq!(verdict("ops_per_s"), Verdict::Regressed);
        assert_eq!(verdict("peak_rss_mb"), Verdict::Ok);
        assert_eq!(verdict("sim_digest"), Verdict::Regressed);
        assert_eq!(verdict("correct"), Verdict::Regressed);
        assert!(any_regressed(&rows));
        let table = render(&rows);
        assert!(table.contains("regressed") && !table.contains("-30.00%"));
        assert!(table.contains("+30.00%"), "{table}");

        // A different seed: the digest cannot be compared.
        let mut reseeded = base.clone();
        reseeded.runs[0].seed = 1511;
        let rows = compare(&base, &reseeded).unwrap();
        assert_eq!(
            rows.iter().find(|r| r.metric == "sim_digest").unwrap().verdict,
            Verdict::Unresolved
        );
        assert!(!any_regressed(&rows));

        // A missing workload is an error, not a silent pass.
        assert!(compare(&base, &ResultSet::default()).unwrap_err().contains("simserve_query"));
        assert!(compare(&ResultSet::default(), &base).is_err());
    }
}
