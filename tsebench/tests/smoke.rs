//! Tiny-scale smoke run of every workload in both modes: each finishes,
//! reports zero failed operations (which covers the traced run's count
//! reconciliations: records decoded equal the trace's records, cache
//! hits equal hit probes, cached + simulated equal the grid's cells),
//! and prints exactly the metrics `BENCHMARK.json` names.

use serde_json::Value;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use tsebench::bench::UNATTRIBUTED_TOLERANCE;
use tsebench::{Options, WORKLOADS};

const MANIFEST_DIR: &str = env!("CARGO_MANIFEST_DIR");

/// The `sweepd` binary next to this test's target directory, built on
/// demand.
fn sweepd() -> PathBuf {
    let exe = std::env::current_exe().expect("test binary path");
    // <target>/<profile>/deps/<test binary>
    let target = exe.ancestors().nth(3).expect("target dir").to_path_buf();
    let bin = target.join("release").join("sweepd");
    if !bin.exists() {
        let root = Path::new(MANIFEST_DIR).parent().expect("repository root");
        let status = Command::new("cargo")
            .args([
                "build",
                "--release",
                "--offline",
                "--quiet",
                "-p",
                "tse-sweepd",
                "--bin",
                "sweepd",
            ])
            .arg("--manifest-path")
            .arg(root.join("Cargo.toml"))
            .env("CARGO_TARGET_DIR", &target)
            .status()
            .expect("run cargo");
        assert!(status.success(), "building sweepd failed");
    }
    bin
}

fn names(benchmark: &Value, key: &str) -> BTreeSet<String> {
    benchmark
        .get(key)
        .and_then(Value::as_array)
        .expect("BENCHMARK.json lists")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("named")
                .to_string()
        })
        .collect()
}

#[test]
fn every_workload_reports_every_named_metric_at_tiny_scale() {
    let root = Path::new(MANIFEST_DIR).parent().expect("repository root");
    let text = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let benchmark: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let declared: BTreeSet<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    assert_eq!(names(&benchmark, "workloads"), declared);

    let work = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{}", std::process::id()));
    let bin = sweepd();
    for spec in WORKLOADS {
        for trace in [false, true] {
            let opts = Options {
                workload: spec.name.to_string(),
                seed: 7,
                seconds: 0.1,
                trace,
                sweepd: bin.clone(),
                work: work.join(format!("{}-{trace}", spec.name)),
                spans_out: work.join("traces"),
                scale: 0.02,
                expected: None,
            };
            let out =
                tsebench::run(&opts).unwrap_or_else(|e| panic!("{} trace={trace}: {e}", spec.name));
            assert!(
                out.correct(),
                "{} trace={trace}: {:?}",
                spec.name,
                out.problems
            );
            assert!(out.attempted > 0);
            let got: BTreeSet<String> = out.metrics.iter().map(|m| m.name.clone()).collect();
            let want = names(&benchmark, if trace { "per_layer" } else { "end_to_end" });
            assert_eq!(got, want, "{} trace={trace}", spec.name);
            assert!(
                out.metrics.iter().all(|m| m.value.is_finite()),
                "{} trace={trace}: {:?}",
                spec.name,
                out.metrics
            );
            let line: Value = serde_json::from_str(&out.json_line()).expect("result line parses");
            assert_eq!(line.get("failed").and_then(Value::as_u64), Some(0));
            if trace {
                let metric = |n: &str| out.metrics.iter().find(|m| m.name == n).expect(n).value;
                assert!(metric("trace.unattributed_share") <= UNATTRIBUTED_TOLERANCE);
                assert_eq!(metric("cache.hit_ratio_warm"), 1.0);
                assert_eq!(metric("cache.miss_ratio_cold"), 1.0);
                let spans = work
                    .join("traces")
                    .join(format!("{}-s7.spans.jsonl", spec.name));
                assert!(spans.exists(), "spans written to {}", spans.display());
            }
        }
    }
    let _ = std::fs::remove_dir_all(&work);
}
