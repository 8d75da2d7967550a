//! `BENCHMARK.json` at the repo root and `spec.rs` say the same thing,
//! and the binary honours the command-line contract.

use beware_benchmark::json::{self, Json};
use beware_benchmark::spec::{self, Bound};
use std::path::Path;
use std::process::Command;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json exists")).unwrap()
}

fn names(list: &Json) -> Vec<&str> {
    list.as_arr().unwrap().iter().map(|m| m.get("name").unwrap().as_str().unwrap()).collect()
}

#[test]
fn benchmark_json_mirrors_the_spec() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);
    assert_eq!(doc.get("paths").unwrap(), &Json::Arr(vec![Json::str("crates/benchmark")]));

    let workloads = doc.get("workloads").unwrap();
    assert_eq!(names(workloads), spec::WORKLOADS.map(|w| w.name));
    for (listed, def) in workloads.as_arr().unwrap().iter().zip(&spec::WORKLOADS) {
        assert_eq!(listed.get("why").and_then(Json::as_str), Some(def.why));
    }

    let end_to_end = doc.get("end_to_end").unwrap();
    assert_eq!(names(end_to_end), spec::EVERYWHERE);
    for listed in end_to_end.as_arr().unwrap() {
        let def = spec::end_to_end(listed.get("name").unwrap().as_str().unwrap()).unwrap();
        assert_eq!(listed.get("unit").and_then(Json::as_str), Some(def.unit));
        assert_eq!(listed.get("better").and_then(Json::as_str), Some(def.better.name()));
        let Bound::Relative { share, .. } = def.bound else { panic!("{} is relative", def.name) };
        assert_eq!(listed.get("bound").and_then(Json::as_f64), Some(share));
    }

    let per_layer = doc.get("per_layer").unwrap();
    let expected: Vec<&str> =
        spec::PER_LAYER.iter().map(|m| m.name).chain(spec::ELSEWHERE).collect();
    assert_eq!(names(per_layer), expected);
    for listed in per_layer.as_arr().unwrap() {
        let name = listed.get("name").unwrap().as_str().unwrap();
        let def = spec::metric(name).unwrap();
        assert_eq!(listed.get("unit").and_then(Json::as_str), Some(def.unit));
        assert_eq!(listed.get("better").and_then(Json::as_str), Some(def.better.name()));
        assert_eq!(listed.as_obj().unwrap().len(), 3, "{name}: name, unit, better and no bound");
    }
}

#[test]
fn readme_glossary_names_every_workload_and_metric() {
    let readme = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("README.md"))
        .expect("README.md exists");
    for name in spec::WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(spec::END_TO_END.iter().map(|m| m.name))
        .chain(spec::PER_LAYER.iter().map(|m| m.name))
    {
        assert!(readme.contains(&format!("`{name}`")), "README does not explain `{name}`");
    }
}

fn bench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_beware-benchmark")).args(args).output().expect("binary runs")
}

#[test]
fn run_prints_the_contract_line_last_and_compare_judges_files() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("contract-cli");
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("a.json");
    let ran = bench(&[
        "run",
        "--workload",
        "sweep_dense",
        "--seed",
        "3",
        "--seconds",
        "0.05",
        "--trace",
        "0",
        "--scale",
        "smoke",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert!(ran.status.success(), "{}", String::from_utf8_lossy(&ran.stderr));
    let stdout = String::from_utf8(ran.stdout).unwrap();
    let last = json::parse(stdout.lines().last().unwrap()).unwrap();
    let keys: Vec<&str> = last.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
    assert!(stdout.contains("ops_per_s") && stdout.contains("op/s"));

    // A file compared with itself has no regression; exit code says so.
    let same = bench(&["compare", out.to_str().unwrap(), out.to_str().unwrap()]);
    assert_eq!(same.status.code(), Some(0), "{}", String::from_utf8_lossy(&same.stdout));
    assert!(String::from_utf8_lossy(&same.stdout).contains("no regression"));
    let missing =
        bench(&["compare", out.to_str().unwrap(), dir.join("none.json").to_str().unwrap()]);
    assert_eq!(missing.status.code(), Some(1));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn usage_errors_exit_2_without_a_result() {
    for args in [
        &["run"][..],
        &["run", "--workload", "nope"],
        &["run", "--workload", "sweep_dense", "--all"],
        &["run", "--workload", "sweep_dense", "--trace", "2"],
        &["run", "--workload", "sweep_dense", "--seconds", "0"],
        &["compare", "only-one.json"],
        &["frobnicate"],
        &[],
    ] {
        let out = bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
