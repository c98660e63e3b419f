//! End-to-end corpus sync contract, over real sockets.
//!
//! What must hold: a cold corpus pulls exactly the entries it is
//! missing (verified on receipt), an interrupted transfer resumes from
//! its partial file, spec drift is refused on both directions, the two
//! protocols (job + sync) coexist on one listening socket, and a cold
//! worker daemon with an *empty* corpus completes a multi-shard sweep
//! by syncing traces on demand — merging byte-identically to the
//! in-process reference.

#![cfg(unix)]

mod common;

use common::ScratchDir;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;
use tse_sim::shard::{self, ShardJob, ShardMode, ShardPlan, TraceRef};
use tse_sim::{EngineKind, RunConfig};
use tse_sweepd::net::{self, Endpoint};
use tse_sweepd::proto::Request;
use tse_sweepd::service::{CorpusRunner, JobState, ServiceConfig, SweepService};
use tse_sweepd::sync::{self, SyncError, SyncingRunner};
use tse_sweepd::ResultCache;
use tse_trace::corpus::{Corpus, CorpusWriter};
use tse_trace::interleave;
use tse_workloads::workload_by_name;

const SCALE: f64 = 0.02;
const SEED: u64 = 7;

/// Two small traces, so diffing has something to be partial about.
fn build_corpus(dir: &Path) -> Corpus {
    let mut w = CorpusWriter::create(dir).unwrap();
    for name in ["em3d", "moldyn"] {
        let wl = workload_by_name(name, SCALE).unwrap();
        let per_node = wl.generate(SEED);
        w.add_trace(
            wl.name(),
            SCALE,
            SEED,
            u16::try_from(wl.nodes()).unwrap(),
            interleave(per_node.into_iter().map(Vec::into_iter).collect()),
        )
        .unwrap();
    }
    w.finish().unwrap();
    Corpus::open(dir).unwrap()
}

struct Daemon {
    endpoint: Endpoint,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    fn start(service: SweepService, socket: &Path) -> Daemon {
        let service = Arc::new(service);
        // Bound before serving, so requests queue until accepted.
        let server = net::bind(&Endpoint::parse(&socket.display().to_string())).unwrap();
        let endpoint = server.local_endpoint().clone();
        let thread = std::thread::spawn(move || server.serve(&service));
        Daemon {
            endpoint,
            thread: Some(thread),
        }
    }

    /// A daemon serving `corpus_dir` over both protocols.
    fn serving(scratch: &ScratchDir, corpus_dir: &Path, tag: &str) -> Daemon {
        let corpus = Corpus::open(corpus_dir).unwrap();
        let cache = ResultCache::open(scratch.0.join(format!("cache-{tag}"))).unwrap();
        let service = SweepService::new(
            Arc::new(CorpusRunner::new(corpus)),
            cache,
            ServiceConfig {
                workers: 2,
                retries: 2,
                timeout: Duration::from_secs(60),
            },
        )
        .with_corpus_sync(corpus_dir);
        Daemon::start(service, &scratch.0.join(format!("{tag}.sock")))
    }

    fn stop(mut self) {
        let _ = net::request(&self.endpoint, &Request::new("shutdown"));
        self.thread
            .take()
            .unwrap()
            .join()
            .unwrap()
            .expect("serve exits cleanly");
    }
}

#[test]
fn pull_into_empty_corpus_transfers_everything_and_verifies() {
    let scratch = ScratchDir::new("sync-pull");
    let source_dir = scratch.0.join("source");
    build_corpus(&source_dir);
    let daemon = Daemon::serving(&scratch, &source_dir, "src");

    // Manifest over the wire matches the daemon's corpus.
    let manifest = sync::fetch_manifest(&daemon.endpoint).unwrap();
    assert_eq!(manifest.entries.len(), 2);

    // Cold pull: both entries transfer; the result fully verifies.
    let cold_dir = scratch.0.join("cold");
    let report = sync::pull(&daemon.endpoint, &cold_dir).unwrap();
    assert_eq!((report.fetched, report.skipped, report.resumed), (2, 0, 0));
    assert!(report.bytes > 0);
    let cold = Corpus::open(&cold_dir).unwrap();
    assert_eq!(cold.entries().len(), 2);
    assert!(cold.verify().is_empty(), "synced corpus must fully verify");

    // Byte-identical files, not just matching digests.
    let source = Corpus::open(&source_dir).unwrap();
    for entry in source.entries() {
        let a = std::fs::read(source.path_of(entry)).unwrap();
        let b = std::fs::read(cold.path_of(entry)).unwrap();
        assert_eq!(a, b, "{}", entry.path);
    }

    // Re-pull is a no-op: digests already match.
    let again = sync::pull(&daemon.endpoint, &cold_dir).unwrap();
    assert_eq!((again.fetched, again.skipped), (0, 2));
    assert_eq!(again.bytes, 0);

    // Pulling into a corpus that holds the same spec under a different
    // digest is drift, refused before any transfer.
    let drift_dir = scratch.0.join("drifted");
    let mut w = CorpusWriter::create(&drift_dir).unwrap();
    w.add_trace(
        "em3d",
        SCALE,
        SEED,
        2,
        (0..100u64).map(|i| {
            tse_trace::AccessRecord::read(
                tse_types::NodeId::new((i % 2) as u16),
                i,
                tse_types::Line::new(i),
            )
        }),
    )
    .unwrap();
    w.finish().unwrap();
    match sync::pull(&daemon.endpoint, &drift_dir) {
        Err(SyncError::Drift(m)) => assert!(m.contains("refusing"), "{m}"),
        other => panic!("expected drift, got {other:?}"),
    }

    daemon.stop();
}

#[test]
fn interrupted_pull_resumes_from_partial_and_rejects_damaged_partials() {
    let scratch = ScratchDir::new("sync-resume");
    let source_dir = scratch.0.join("source");
    let source = build_corpus(&source_dir);
    let daemon = Daemon::serving(&scratch, &source_dir, "src");

    let entry = source.entries()[0].clone();
    let bytes = std::fs::read(source.path_of(&entry)).unwrap();
    assert!(bytes.len() > 100, "trace must be big enough to split");

    // Simulate an interrupted transfer: a correct prefix is already on
    // disk as `<path>.partial`. The pull must resume (one `resumed`
    // transfer) and move only the remaining bytes for that entry.
    let target_dir = scratch.0.join("resume");
    std::fs::create_dir_all(&target_dir).unwrap();
    let cut = bytes.len() / 3;
    std::fs::write(
        target_dir.join(format!("{}.partial", entry.path)),
        &bytes[..cut],
    )
    .unwrap();
    let report = sync::pull(&daemon.endpoint, &target_dir).unwrap();
    assert_eq!((report.fetched, report.resumed), (2, 1));
    let other_len = {
        let src = Corpus::open(&source_dir).unwrap();
        std::fs::metadata(src.path_of(&src.entries()[1]))
            .unwrap()
            .len()
    };
    assert_eq!(
        report.bytes,
        (bytes.len() - cut) as u64 + other_len,
        "resume transfers only the missing suffix"
    );
    let target = Corpus::open(&target_dir).unwrap();
    assert!(target.verify().is_empty());
    assert!(
        !target_dir.join(format!("{}.partial", entry.path)).exists(),
        "partials are cleaned up after landing"
    );

    // A *damaged* partial: the whole-file digest check trips, the
    // partial is discarded, and the next pull fetches clean.
    let damaged_dir = scratch.0.join("damaged");
    std::fs::create_dir_all(&damaged_dir).unwrap();
    let mut prefix = bytes[..cut].to_vec();
    prefix[cut / 2] ^= 0x08;
    let partial = damaged_dir.join(format!("{}.partial", entry.path));
    std::fs::write(&partial, &prefix).unwrap();
    match sync::pull(&daemon.endpoint, &damaged_dir) {
        Err(SyncError::Protocol(m)) => {
            assert!(m.contains("digest mismatch"), "{m}");
        }
        other => panic!("expected a digest failure, got {other:?}"),
    }
    assert!(!partial.exists(), "damaged partial must be discarded");
    let report = sync::pull(&daemon.endpoint, &damaged_dir).unwrap();
    assert!(report.fetched >= 1);
    assert!(Corpus::open(&damaged_dir).unwrap().verify().is_empty());

    daemon.stop();
}

#[test]
fn push_transfers_missing_entries_and_peer_refuses_drift() {
    let scratch = ScratchDir::new("sync-push");
    let source_dir = scratch.0.join("source");
    build_corpus(&source_dir);

    // The peer starts with an empty (but manifested) corpus.
    let peer_dir = scratch.0.join("peer");
    CorpusWriter::create(&peer_dir).unwrap().finish().unwrap();
    let daemon = Daemon::serving(&scratch, &peer_dir, "peer");

    let report = sync::push(&daemon.endpoint, &source_dir).unwrap();
    assert_eq!((report.pushed, report.skipped), (2, 0));
    let peer = Corpus::open(&peer_dir).unwrap();
    assert_eq!(peer.entries().len(), 2);
    assert!(peer.verify().is_empty(), "pushed corpus must fully verify");

    // Idempotent re-push.
    let again = sync::push(&daemon.endpoint, &source_dir).unwrap();
    assert_eq!((again.pushed, again.skipped), (0, 2));

    // A drifted source (same spec, different bytes): the peer refuses.
    let drift_dir = scratch.0.join("drift-src");
    let mut w = CorpusWriter::create(&drift_dir).unwrap();
    w.add_trace(
        "em3d",
        SCALE,
        SEED,
        2,
        (0..100u64).map(|i| {
            tse_trace::AccessRecord::read(
                tse_types::NodeId::new((i % 2) as u16),
                i,
                tse_types::Line::new(i),
            )
        }),
    )
    .unwrap();
    w.finish().unwrap();
    match sync::push(&daemon.endpoint, &drift_dir) {
        Err(SyncError::Drift(m)) => assert!(m.contains("refusing"), "{m}"),
        other => panic!("expected drift, got {other:?}"),
    }

    daemon.stop();
}

#[test]
fn sync_disabled_daemon_refuses_and_job_protocol_still_works() {
    let scratch = ScratchDir::new("sync-off");
    let source_dir = scratch.0.join("source");
    let corpus = build_corpus(&source_dir);
    // No .with_corpus_sync: sync ops must be refused, jobs still served.
    let cache = ResultCache::open(scratch.0.join("cache")).unwrap();
    let service = SweepService::new(
        Arc::new(CorpusRunner::new(corpus)),
        cache,
        ServiceConfig::default(),
    );
    let daemon = Daemon::start(service, &scratch.0.join("plain.sock"));

    match sync::fetch_manifest(&daemon.endpoint) {
        Err(SyncError::Protocol(m)) => assert!(m.contains("--corpus-serve"), "{m}"),
        other => panic!("expected refusal, got {other:?}"),
    }
    assert!(
        net::request(&daemon.endpoint, &Request::new("ping"))
            .unwrap()
            .ok
    );

    daemon.stop();
}

/// The acceptance scenario: a *cold worker* daemon whose corpus
/// directory starts empty completes a 3-shard sweep by pulling the
/// traces from its upstream over the sync protocol, and its merged
/// grid is byte-identical to the in-process reference over the
/// upstream corpus.
#[test]
fn cold_worker_completes_sweep_by_syncing_traces_on_demand() {
    let scratch = ScratchDir::new("sync-cold");
    let source_dir = scratch.0.join("source");
    let corpus = build_corpus(&source_dir);
    let upstream = Daemon::serving(&scratch, &source_dir, "upstream");

    // A 3-shard plan mixing both traces and both modes.
    let jobs: Vec<ShardJob> = (0..6u64)
        .map(|cell| ShardJob {
            figure: "figS".into(),
            cell,
            mode: if cell % 2 == 0 {
                ShardMode::Trace
            } else {
                ShardMode::Timing
            },
            trace: TraceRef {
                workload: if cell < 3 { "em3d" } else { "moldyn" }.into(),
                scale: SCALE,
                seed: SEED,
                digest: None,
            },
            config: RunConfig {
                // Timing mode supports Baseline and Tse only; Trace
                // mode additionally exercises the stride prefetcher.
                engine: match cell % 3 {
                    0 => EngineKind::Baseline,
                    1 if cell % 2 == 0 => EngineKind::paper_stride(),
                    _ => EngineKind::Tse(tse_types::TseConfig::default()),
                },
                ..RunConfig::default()
            },
        })
        .collect();
    let plan = ShardPlan::split(jobs, 3).unwrap();

    // The in-process reference over the upstream corpus.
    let mut reference_plan = plan.clone();
    reference_plan.pin_digests(&corpus).unwrap();
    let bundles: Vec<_> = (0..3)
        .map(|s| shard::execute_shard(&reference_plan, s, &corpus).unwrap())
        .collect();
    let reference = shard::merge(&reference_plan, &bundles).unwrap();
    let reference_json = serde_json::to_string_pretty(&reference).unwrap();

    // The cold worker: empty corpus directory, runner syncs on demand.
    let worker_dir = scratch.0.join("worker-corpus");
    let runner = SyncingRunner::new(&worker_dir, upstream.endpoint.clone()).unwrap();
    let cache = ResultCache::open(scratch.0.join("worker-cache")).unwrap();
    let service = SweepService::new(
        Arc::new(runner),
        cache,
        ServiceConfig {
            workers: 3,
            retries: 2,
            timeout: Duration::from_secs(60),
        },
    );
    let worker = Daemon::start(service, &scratch.0.join("worker.sock"));

    let mut request = Request::new("submit");
    request.plan = Some(plan);
    request.wait = true;
    let response = net::request(&worker.endpoint, &request).unwrap();
    assert!(response.ok, "{:?}", response.error);
    let status = response.status.clone().unwrap();
    assert_eq!(status.state, JobState::Done);
    assert_eq!(status.simulated, 6, "cold worker simulates every cell");
    let merged_json = serde_json::to_string_pretty(&response.merged.unwrap()).unwrap();
    assert_eq!(
        merged_json, reference_json,
        "cold-worker merge must be byte-identical to the in-process reference"
    );

    // The worker's corpus now holds verified copies of both traces.
    let synced = Corpus::open(&worker_dir).unwrap();
    assert_eq!(synced.entries().len(), 2);
    assert!(synced.verify().is_empty());

    worker.stop();
    upstream.stop();
}
