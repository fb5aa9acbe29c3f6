//! Seconds-scale runs of every workload through the real binary: the
//! last output line is the contract's result object, every reply was
//! correct, and the metric names are exactly the ones `BENCHMARK.json`
//! declares (end-to-end untraced, per-layer traced).
//!
//! The daemon is the repository's `qpp` binary: `PERFBENCH_QPP` names
//! it, or the test builds it with the same `CARGO_TARGET_DIR`.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use serde_json::Value;

fn qpp() -> &'static Path {
    static QPP: OnceLock<PathBuf> = OnceLock::new();
    QPP.get_or_init(|| {
        if let Ok(p) = std::env::var("PERFBENCH_QPP") {
            return PathBuf::from(p);
        }
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
        let status = Command::new(cargo)
            .args([
                "build",
                "--release",
                "--offline",
                "--quiet",
                "--bin",
                "qpp",
                "--manifest-path",
            ])
            .arg(root.join("Cargo.toml"))
            .status()
            .expect("running cargo");
        assert!(status.success(), "building qpp failed");
        let target = std::env::var("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|_| root.join("target"));
        target.join("release").join("qpp")
    })
}

fn declared(section: &str) -> Vec<(String, String)> {
    let text =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .unwrap();
    let v = serde_json::parse(&text).unwrap();
    let Value::Array(list) = &v.as_object().unwrap()[section] else {
        panic!("{section} is not a list")
    };
    list.iter()
        .map(|m| {
            let m = m.as_object().unwrap();
            (
                m["name"].as_str().unwrap().to_string(),
                m["unit"].as_str().unwrap().to_string(),
            )
        })
        .collect()
}

fn run(workload: &str, trace: u8) -> Value {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}"));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            &trace.to_string(),
        ])
        .arg("--qpp")
        .arg(qpp())
        .arg("--out")
        .arg(&out_dir)
        .output()
        .expect("running perfbench");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    serde_json::parse(stdout.lines().last().expect("a result line")).unwrap()
}

fn smoke(workload: &str) {
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let r = run(workload, trace);
        let r = r.as_object().unwrap();
        assert_eq!(
            r.keys().cloned().collect::<Vec<_>>(),
            ["attempted", "correct", "failed", "metrics"]
        );
        assert_eq!(
            r["correct"],
            Value::Bool(true),
            "{workload} trace {trace}: {r:?}"
        );
        assert_eq!(r["failed"].as_f64(), Some(0.0));
        assert!(r["attempted"].as_f64().unwrap() >= 1.0);
        let metrics = r["metrics"].as_object().unwrap();
        let mut got: Vec<(String, String)> = metrics
            .iter()
            .map(|(k, v)| {
                let v = v.as_object().unwrap();
                assert!(v["value"].as_f64().unwrap().is_finite());
                (k.clone(), v["unit"].as_str().unwrap().to_string())
            })
            .collect();
        let mut want = declared(section);
        got.sort();
        want.sort();
        assert_eq!(
            got, want,
            "{workload} trace {trace}: metrics differ from BENCHMARK.json {section}"
        );
    }
}

#[test]
fn serve_zipf_smoke() {
    smoke("serve_zipf");
}

#[test]
fn serve_sessions_smoke() {
    smoke("serve_sessions");
}
