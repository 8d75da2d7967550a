//! The one result schema: what a run measured, on what, and how.
//!
//! A [`RunResult`] is one process's run of one workload; a
//! [`ResultSet`] is a file of them (`run --all --out`, the committed
//! baselines, the inputs of `compare`). Every metric carries its unit
//! and its per-repeat raw values, so medians and quartiles can be
//! recomputed by whoever reads the file.

use crate::env::Environment;
use crate::json::{self, Json};
use crate::stats::Summary;

/// Version of the result layout.
pub const SCHEMA: f64 = 1.0;

/// One metric of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricValue {
    /// Final metric name (see [`crate::spec`]).
    pub name: String,
    /// Unit as printed.
    pub unit: String,
    /// Median, quartiles, extremes and raw per-repeat values.
    pub summary: Summary,
}

impl MetricValue {
    /// The reported value: the median over repeats.
    pub fn value(&self) -> f64 {
        self.summary.median
    }
}

/// One rung of the traced ladder: what a layer costs per call and how
/// much of an operation that explains.
#[derive(Debug, Clone, PartialEq)]
pub struct Rung {
    /// Layer span name.
    pub name: String,
    /// Median batch time per call.
    pub ns_per_call: f64,
    /// Calls into the layer per operation of the workload.
    pub calls_per_op: f64,
    /// `ns_per_call * calls_per_op` over the untraced CPU ns/op.
    pub share: f64,
}

/// One run of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Seed the inputs were generated from.
    pub seed: u64,
    /// `full` or `smoke`.
    pub scale: String,
    /// Whether this is the traced (per-layer) run.
    pub traced: bool,
    /// Threads doing work during a repeat.
    pub threads: usize,
    /// Timed repeats.
    pub repeats: usize,
    /// Set-ups timed for `setup_s`.
    pub setups: usize,
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted over all timed repeats.
    pub attempted: u64,
    /// Operations that failed over all timed repeats.
    pub failed: u64,
    /// Identity of the deterministic output; equal across repeats, and
    /// across commits when a change is perf-only.
    pub sim_digest: Option<u64>,
    /// Where the run was measured.
    pub env: Environment,
    /// Metrics in print order.
    pub metrics: Vec<MetricValue>,
    /// Traced run only: each ladder rung's share of an operation.
    pub rungs: Vec<Rung>,
}

impl RunResult {
    /// Metric `name`, if the run reported it.
    pub fn metric(&self, name: &str) -> Option<&MetricValue> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Render for a result file.
    pub fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|m| {
            let s = &m.summary;
            Json::obj([
                ("name", Json::str(&m.name)),
                ("unit", Json::str(&m.unit)),
                ("median", Json::Num(s.median)),
                ("min", Json::Num(s.min)),
                ("q1", Json::Num(s.q1)),
                ("q3", Json::Num(s.q3)),
                ("max", Json::Num(s.max)),
                ("raw", Json::nums(&s.raw)),
            ])
        });
        let rungs = self.rungs.iter().map(|r| {
            Json::obj([
                ("name", Json::str(&r.name)),
                ("ns_per_call", Json::Num(r.ns_per_call)),
                ("calls_per_op", Json::Num(r.calls_per_op)),
                ("share", Json::Num(r.share)),
            ])
        });
        Json::obj([
            ("workload", Json::str(&self.workload)),
            ("seed", Json::str(self.seed.to_string())),
            ("scale", Json::str(&self.scale)),
            ("traced", Json::Bool(self.traced)),
            ("threads", Json::Num(self.threads as f64)),
            ("repeats", Json::Num(self.repeats as f64)),
            ("setups", Json::Num(self.setups as f64)),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::str(self.attempted.to_string())),
            ("failed", Json::str(self.failed.to_string())),
            ("sim_digest", self.sim_digest.map_or(Json::Null, |d| Json::str(format!("{d:016x}")))),
            ("environment", self.env.to_json()),
            ("metrics", Json::Arr(metrics.collect())),
            ("rungs", Json::Arr(rungs.collect())),
        ])
    }

    /// Read back what [`to_json`](Self::to_json) wrote. Quartiles are
    /// recomputed from the raw values rather than trusted.
    pub fn from_json(doc: &Json) -> Result<RunResult, String> {
        let text = |name: &str| {
            doc.get(name).and_then(Json::as_str).ok_or_else(|| format!("run: missing `{name}`"))
        };
        let num = |name: &str| {
            doc.get(name).and_then(Json::as_f64).ok_or_else(|| format!("run: missing `{name}`"))
        };
        let flag = |name: &str| {
            doc.get(name).and_then(Json::as_bool).ok_or_else(|| format!("run: missing `{name}`"))
        };
        let count = |name: &str| {
            text(name)?.parse::<u64>().map_err(|e| format!("run: `{name}` is not a count: {e}"))
        };
        let list = |name: &str| {
            doc.get(name).and_then(Json::as_arr).ok_or_else(|| format!("run: missing `{name}`"))
        };
        let sim_digest = match doc.get("sim_digest") {
            None | Some(Json::Null) => None,
            Some(d) => Some(
                d.as_str()
                    .and_then(|h| u64::from_str_radix(h, 16).ok())
                    .ok_or("run: `sim_digest` is not a hex string")?,
            ),
        };
        let mut metrics = Vec::new();
        for m in list("metrics")? {
            let field = |name: &str| {
                m.get(name)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("metric: missing `{name}`"))
            };
            let raw: Vec<f64> = m
                .get("raw")
                .and_then(Json::as_arr)
                .ok_or("metric: missing `raw`")?
                .iter()
                .map(|v| v.as_f64().ok_or("metric: `raw` holds a non-number"))
                .collect::<Result<_, _>>()?;
            if raw.is_empty() {
                return Err(format!("metric `{}` has no values", field("name")?));
            }
            metrics.push(MetricValue {
                name: field("name")?.to_string(),
                unit: field("unit")?.to_string(),
                summary: Summary::of(raw),
            });
        }
        let mut rungs = Vec::new();
        for r in list("rungs")? {
            let value = |name: &str| {
                r.get(name).and_then(Json::as_f64).ok_or_else(|| format!("rung: missing `{name}`"))
            };
            rungs.push(Rung {
                name: r.get("name").and_then(Json::as_str).ok_or("rung: missing `name`")?.into(),
                ns_per_call: value("ns_per_call")?,
                calls_per_op: value("calls_per_op")?,
                share: value("share")?,
            });
        }
        Ok(RunResult {
            workload: text("workload")?.to_string(),
            seed: count("seed")?,
            scale: text("scale")?.to_string(),
            traced: flag("traced")?,
            threads: num("threads")? as usize,
            repeats: num("repeats")? as usize,
            setups: num("setups")? as usize,
            correct: flag("correct")?,
            attempted: count("attempted")?,
            failed: count("failed")?,
            sim_digest,
            env: Environment::from_json(doc.get("environment").ok_or("run: missing environment")?)?,
            metrics,
            rungs,
        })
    }
}

/// A file of runs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResultSet {
    /// The runs, in the order they were made.
    pub runs: Vec<RunResult>,
}

impl ResultSet {
    /// Render the file.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::Num(SCHEMA)),
            ("runs", Json::Arr(self.runs.iter().map(RunResult::to_json).collect())),
        ])
    }

    /// Parse a file written by [`to_json`](Self::to_json).
    pub fn parse(text: &str) -> Result<ResultSet, String> {
        let doc = json::parse(text)?;
        if doc.get("schema").and_then(Json::as_f64) != Some(SCHEMA) {
            return Err("result file: unknown schema".into());
        }
        let runs = doc
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or("result file: missing `runs`")?
            .iter()
            .map(RunResult::from_json)
            .collect::<Result<_, _>>()?;
        Ok(ResultSet { runs })
    }

    /// Read and parse `path`.
    pub fn read(path: &std::path::Path) -> Result<ResultSet, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        ResultSet::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// The untraced run of `workload`, if the file has one.
    pub fn untraced(&self, workload: &str) -> Option<&RunResult> {
        self.runs.iter().find(|r| r.workload == workload && !r.traced)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn sample_env() -> Environment {
        Environment {
            nproc: 2,
            cpu_model: "Test CPU @ 2.10GHz".into(),
            git_commit: "0123abcd".into(),
            rustc: "rustc 1.95.0".into(),
        }
    }

    pub(crate) fn sample_run(workload: &str, ops: &[f64]) -> RunResult {
        RunResult {
            workload: workload.into(),
            seed: 7,
            scale: "full".into(),
            traced: false,
            threads: 1,
            repeats: ops.len(),
            setups: 3,
            correct: true,
            attempted: 1000,
            failed: 0,
            sim_digest: Some(0xfeed_f00d_dead_beef),
            env: sample_env(),
            metrics: vec![
                MetricValue {
                    name: "ops_per_s".into(),
                    unit: "op/s".into(),
                    summary: Summary::of(ops.to_vec()),
                },
                MetricValue {
                    name: "peak_rss_mb".into(),
                    unit: "MiB".into(),
                    summary: Summary::single(41.5),
                },
            ],
            rungs: vec![Rung {
                name: "serve.proto.encode".into(),
                ns_per_call: 31.5,
                calls_per_op: 2.0,
                share: 0.0125,
            }],
        }
    }

    #[test]
    fn result_set_round_trips_through_json() {
        let mut traced = sample_run("sweep_dense", &[5.0, 6.0, 7.0]);
        traced.traced = true;
        traced.sim_digest = None;
        let set = ResultSet {
            runs: vec![sample_run("simserve_query", &[100.0, 90.0, 110.0, 95.0, 105.0]), traced],
        };
        let text = set.to_json().pretty();
        assert_eq!(ResultSet::parse(&text).unwrap(), set);
        assert_eq!(ResultSet::parse(&set.to_json().compact()).unwrap(), set);
        assert!(set.untraced("simserve_query").is_some());
        assert!(set.untraced("sweep_dense").is_none(), "only a traced run of it exists");
        // u64 identities survive exactly (they would not as f64).
        assert!(text.contains("\"sim_digest\": \"feedf00ddeadbeef\""));
    }

    #[test]
    fn malformed_files_are_rejected_with_a_reason() {
        assert!(ResultSet::parse("{}").unwrap_err().contains("schema"));
        assert!(ResultSet::parse("{\"schema\": 1}").unwrap_err().contains("runs"));
        let mut doc = sample_run("w", &[1.0]).to_json();
        if let Json::Obj(fields) = &mut doc {
            fields.retain(|(k, _)| k != "seed");
        }
        assert!(RunResult::from_json(&doc).unwrap_err().contains("seed"));
    }
}
