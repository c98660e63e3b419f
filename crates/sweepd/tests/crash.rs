//! Crash-loop harness over the real `sweepd` binary: for every
//! registered fault point, run submit → kill (via `TSE_CRASH_POINT`)
//! → restart `--resume`, and assert the durability contract — the
//! corpus and cache manifests are either old or new but never torn,
//! and the resumed merge is byte-identical to an uninterrupted run.

#![cfg(unix)]

mod common;

use common::ScratchDir;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use tse_sim::shard::{self, ShardJob, ShardMode, ShardPlan, TraceRef};
use tse_sim::{EngineKind, RunConfig};
use tse_sweepd::net::{self, Endpoint};
use tse_sweepd::proto::{Request, Response};
use tse_sweepd::service::JobState;
use tse_trace::corpus::{Corpus, CorpusWriter};
use tse_trace::{fsio, interleave};
use tse_workloads::workload_by_name;

const SCALE: f64 = 0.02;
const SEED: u64 = 7;

fn build_corpus(dir: &Path) -> Corpus {
    let wl = workload_by_name("em3d", SCALE).unwrap();
    let per_node = wl.generate(SEED);
    let mut w = CorpusWriter::create(dir).unwrap();
    w.add_trace(
        wl.name(),
        SCALE,
        SEED,
        u16::try_from(wl.nodes()).unwrap(),
        interleave(per_node.into_iter().map(Vec::into_iter).collect()),
    )
    .unwrap();
    w.finish().unwrap();
    Corpus::open(dir).unwrap()
}

/// Two real cells (baseline vs stride) over the test trace.
fn test_plan() -> ShardPlan {
    let jobs: Vec<ShardJob> = [EngineKind::Baseline, EngineKind::paper_stride()]
        .into_iter()
        .enumerate()
        .map(|(cell, engine)| ShardJob {
            figure: "figC".into(),
            cell: cell as u64,
            mode: ShardMode::Trace,
            trace: TraceRef {
                workload: "em3d".into(),
                scale: SCALE,
                seed: SEED,
                digest: None,
            },
            config: RunConfig {
                engine,
                ..RunConfig::default()
            },
        })
        .collect();
    ShardPlan::split(jobs, 1).unwrap()
}

/// A spawned `sweepd serve` child that is killed on drop so a failing
/// assertion never leaks daemons.
struct DaemonProc {
    child: Child,
    endpoint: Endpoint,
}

impl DaemonProc {
    fn spawn(corpus: &Path, cache: &Path, sock: &Path, crash_point: Option<&str>) -> DaemonProc {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_sweepd"));
        cmd.arg("serve")
            .arg("--corpus")
            .arg(corpus)
            .arg("--cache")
            .arg(cache)
            .arg("--listen")
            .arg(sock)
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        if crash_point.is_some() {
            // Crash runs start fresh; recovery runs resume the journal.
        } else {
            cmd.arg("--resume");
        }
        if let Some(point) = crash_point {
            cmd.env("TSE_CRASH_POINT", point);
        }
        let child = cmd.spawn().expect("spawn sweepd");
        let endpoint = Endpoint::parse(&sock.display().to_string());
        DaemonProc { child, endpoint }
    }

    /// Waits until the socket answers ping, or the child dies first
    /// (a crash point that fires during startup). Returns whether the
    /// daemon came up.
    fn wait_ready(&mut self) -> bool {
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return false;
            }
            if net::request(&self.endpoint, &Request::new("ping")).is_ok() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        panic!("daemon neither answered ping nor exited");
    }

    fn send(&self, request: &Request) -> std::io::Result<Response> {
        net::request(&self.endpoint, request)
    }

    /// Polls until job 0 reaches a terminal state or the child dies.
    /// Returns `Some(state)` if a terminal state was observed.
    fn wait_job_or_death(&mut self) -> Option<JobState> {
        let deadline = Instant::now() + Duration::from_secs(120);
        let mut status = Request::new("status");
        status.job = Some(0);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return None;
            }
            if let Ok(response) = self.send(&status) {
                if let Some(state @ (JobState::Done | JobState::Failed)) =
                    response.status.map(|s| s.state)
                {
                    return Some(state);
                }
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        panic!("job 0 neither finished nor crashed within the deadline");
    }

    /// Graceful stop; tolerates a daemon that already crashed.
    fn shutdown(&mut self) {
        let _ = self.send(&Request::new("shutdown"));
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for DaemonProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A manifest on disk must always be absent or valid JSON — a torn
/// intermediate state is a durability-contract violation.
fn assert_never_torn(path: &Path, what: &str, point: &str) {
    if let Ok(text) = std::fs::read_to_string(path) {
        serde_json::from_str::<serde_json::Value>(&text)
            .unwrap_or_else(|e| panic!("{what} is torn after crash at `{point}`: {e}\n{text}"));
    }
}

/// The resumed daemon's merged grid for job 0, re-submitting the plan
/// when the crash predated the journaled submit.
fn merged_after_resume(daemon: &mut DaemonProc) -> String {
    let mut status = Request::new("status");
    status.job = Some(0);
    let known = daemon.send(&status).map(|r| r.ok).unwrap_or(false);
    if !known {
        let mut submit = Request::new("submit");
        submit.plan = Some(test_plan());
        submit.wait = true;
        let response = daemon.send(&submit).expect("submit after resume");
        assert!(response.ok, "{:?}", response.error);
        return serde_json::to_string_pretty(&response.merged.unwrap()).unwrap();
    }
    match daemon.wait_job_or_death() {
        Some(JobState::Done) => {}
        other => panic!("resumed job 0 did not finish cleanly: {other:?}"),
    }
    let mut result = Request::new("result");
    result.job = Some(0);
    let response = daemon.send(&result).expect("result after resume");
    assert!(response.ok, "{:?}", response.error);
    serde_json::to_string_pretty(&response.merged.unwrap()).unwrap()
}

#[test]
fn every_crash_point_recovers_to_the_reference_merge() {
    let scratch = ScratchDir::new("crash");
    let corpus_dir = scratch.0.join("traces");
    let corpus = build_corpus(&corpus_dir);

    // The uninterrupted reference: pin, execute the one shard, merge.
    let mut reference_plan = test_plan();
    reference_plan.pin_digests(&corpus).unwrap();
    let bundle = shard::execute_shard(&reference_plan, 0, &corpus).unwrap();
    let reference = shard::merge(&reference_plan, &[bundle]).unwrap();
    let reference_json = serde_json::to_string_pretty(&reference).unwrap();

    let mut crashed_at: Vec<String> = Vec::new();
    for (i, point) in fsio::registered_crash_points().into_iter().enumerate() {
        let cache_dir = scratch.0.join(format!("cache-{i}"));
        // Unix socket paths are length-limited; keep them in /tmp.
        let sock: PathBuf =
            std::env::temp_dir().join(format!("tse-crash-{}-{i}.sock", std::process::id()));
        let _ = std::fs::remove_file(&sock);

        // Run 1: serve with the crash point armed, submit, and wait for
        // either a crash or (if the point never fires on this path) a
        // completed job.
        let mut daemon = DaemonProc::spawn(&corpus_dir, &cache_dir, &sock, Some(&point));
        let mut died = !daemon.wait_ready();
        if !died {
            let mut submit = Request::new("submit");
            submit.plan = Some(test_plan());
            // wait=false: the abort may sever the connection mid-reply.
            let _ = daemon.send(&submit);
            died = daemon.wait_job_or_death().is_none();
        }
        if died {
            crashed_at.push(point.clone());
        } else {
            daemon.shutdown();
        }
        drop(daemon);

        // Invariant 1: whatever the kill timing, durable state is
        // never torn.
        assert_never_torn(&corpus_dir.join("corpus.json"), "corpus manifest", &point);
        assert_never_torn(&cache_dir.join("cache.json"), "cache manifest", &point);

        // Run 2: restart with --resume and no fault schedule; the
        // merged grid must match the uninterrupted reference exactly.
        let mut daemon = DaemonProc::spawn(&corpus_dir, &cache_dir, &sock, None);
        assert!(daemon.wait_ready(), "resumed daemon must come up");
        let merged = merged_after_resume(&mut daemon);
        assert_eq!(
            merged, reference_json,
            "resumed merge diverged from the reference after crash at `{point}`"
        );
        daemon.shutdown();
        let _ = std::fs::remove_file(&sock);
    }

    // The loop is not vacuous: points on the daemon's hot path must
    // actually have killed it.
    for must_fire in [
        "journal-compact.pre-rename",
        "journal.pre-append",
        "journal.post-append",
        "cache-entry.pre-rename",
        "cache-manifest.pre-rename",
    ] {
        assert!(
            crashed_at.iter().any(|p| p == must_fire),
            "crash point `{must_fire}` never fired; crashed at: {crashed_at:?}"
        );
    }
}

#[test]
fn crash_point_listing_survives_a_closed_pipe() {
    // `sweepd crash-points | head -1`, with `head` already gone.
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_sweepd"))
        .arg("crash-points")
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
