//! What a run prints: every metric by name and unit for people, and the
//! one-line JSON object the benchmark contract asks for last.

use crate::json::Json;
use crate::result::RunResult;
use crate::spec;
use std::fmt::Write as _;

/// Human-readable report of one run: every metric with its unit, median
/// and — where it was measured per repeat — quartiles, extremes and the
/// repeat count; for a traced run, each ladder rung's share of an
/// operation.
pub fn render(run: &RunResult) -> String {
    let mut out = String::new();
    let e = &run.env;
    let _ = writeln!(
        out,
        "== {} | seed {} | scale {} | {} | {} repeat(s), {} set-up(s), {} thread(s) of {} ==",
        run.workload,
        run.seed,
        run.scale,
        if run.traced { "traced" } else { "untraced" },
        run.repeats,
        run.setups,
        run.threads,
        e.nproc,
    );
    let _ = writeln!(out, "   {} | {} | commit {}", e.cpu_model, e.rustc, e.git_commit);
    if let Some(w) = spec::workload(&run.workload) {
        let _ = writeln!(out, "   op = {}", w.op);
    }
    let width = run.metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
    for m in &run.metrics {
        let s = &m.summary;
        let _ = write!(out, "{:<width$}  {:>16.4} {:<6}", m.name, s.median, m.unit);
        if s.raw.len() > 1 {
            let _ = write!(
                out,
                "  min {:.4}  q1 {:.4}  q3 {:.4}  max {:.4}  n={}",
                s.min,
                s.q1,
                s.q3,
                s.max,
                s.raw.len()
            );
        }
        out.push('\n');
    }
    if !run.rungs.is_empty() {
        let _ = writeln!(out, "-- ladder: share of one operation's untraced CPU time --");
        let width = run.rungs.iter().map(|r| r.name.len()).max().unwrap_or(0);
        for r in &run.rungs {
            let _ = writeln!(
                out,
                "{:<width$}  {:>12.1} ns/call x {:>9.4} calls/op = {:>6.2}%",
                r.name,
                r.ns_per_call,
                r.calls_per_op,
                r.share * 100.0
            );
        }
        let explained: f64 = run.rungs.iter().map(|r| r.share).sum();
        let _ = writeln!(out, "{:<width$}  {:>6.2}%", "(unattributed)", (1.0 - explained) * 100.0);
    }
    if let Some(d) = run.sim_digest {
        let _ = writeln!(out, "sim_digest {d:016x} (identical on every repeat)");
    }
    let _ = writeln!(
        out,
        "attempted {}  failed {}  {}",
        run.attempted,
        run.failed,
        if run.correct { "outputs correct" } else { "OUTPUTS INCORRECT" }
    );
    out
}

/// The last line of standard output: `correct`, `attempted`, `failed`
/// and the `metrics` `BENCHMARK.json` lists for this kind of run — the
/// end-to-end metrics defined everywhere for an untraced run, the
/// per-layer list for a traced one (0 where a workload lacks a metric).
pub fn contract_line(run: &RunResult) -> String {
    let names: Vec<&str> = if run.traced {
        spec::PER_LAYER.iter().map(|m| m.name).chain(spec::ELSEWHERE).collect()
    } else {
        spec::EVERYWHERE.to_vec()
    };
    let metrics = names.into_iter().map(|name| {
        let unit = spec::metric(name).map_or("", |d| d.unit);
        let value = run.metric(name).map_or(0.0, |m| m.value());
        (name, Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]))
    });
    Json::obj([
        ("correct", Json::Bool(run.correct)),
        ("attempted", Json::Num(run.attempted as f64)),
        ("failed", Json::Num(run.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .compact()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::result::tests::sample_run;

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_the_listed_metrics() {
        let run = sample_run("simserve_query", &[100.0, 110.0, 90.0]);
        let line = contract_line(&run);
        assert!(!line.contains('\n'));
        let doc = json::parse(&line).unwrap();
        let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = doc.get("metrics").unwrap().as_obj().unwrap();
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, spec::EVERYWHERE);
        let ops = doc.get("metrics").unwrap().get("ops_per_s").unwrap();
        assert_eq!(ops.get("value").and_then(Json::as_f64), Some(100.0));
        assert_eq!(ops.get("unit").and_then(Json::as_str), Some("op/s"));

        let mut traced = run;
        traced.traced = true;
        let doc = json::parse(&contract_line(&traced)).unwrap();
        let metrics = doc.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), spec::PER_LAYER.len() + spec::ELSEWHERE.len());
        assert!(metrics.iter().all(|(_, m)| m.get("value").and_then(Json::as_f64).is_some()));
    }

    #[test]
    fn report_names_every_metric_with_its_unit() {
        let mut run = sample_run("simserve_query", &[100.0, 110.0, 90.0]);
        run.traced = true;
        let text = render(&run);
        assert!(text.contains("ops_per_s") && text.contains("op/s") && text.contains("n=3"));
        assert!(text.contains("serve.proto.encode") && text.contains("(unattributed)"));
        assert!(text.contains("sim_digest feedf00ddeadbeef"));
        assert!(text.contains("outputs correct"));
    }
}
