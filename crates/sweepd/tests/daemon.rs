//! End-to-end daemon contract, over a real corpus, real simulation and
//! a real Unix socket: a cold submit simulates and caches, a warm
//! submit of the same plan simulates **zero** cells, and both merged
//! grids serialize byte-identically to the in-process
//! `execute_shard` + `merge` reference. Also the accept loop itself:
//! `serve` returns promptly after `shutdown` over either transport,
//! drains a waited submit still running at shutdown, is not held up by
//! a stalled client, and answers idle pings without polling latency.

#![cfg(unix)]

mod common;

use common::ScratchDir;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use tse_sim::shard::{self, ShardError, ShardJob, ShardMode, ShardPlan, ShardResult, TraceRef};
use tse_sim::{EngineKind, RunConfig};
use tse_sweepd::net::{self, Endpoint, REQUEST_READ_TIMEOUT};
use tse_sweepd::proto::{Request, Response, PROTO_VERSION};
use tse_sweepd::service::{CorpusRunner, JobState, ServiceConfig, ShardRunner, SweepService};
use tse_sweepd::ResultCache;
use tse_trace::corpus::{Corpus, CorpusWriter};
use tse_trace::interleave;
use tse_workloads::workload_by_name;

const SCALE: f64 = 0.02;
const SEED: u64 = 7;

/// How long `serve` may take to return once `shutdown` is answered and
/// nothing is left to drain; with a lost wake it never returns.
const PROMPT: Duration = Duration::from_secs(2);

/// One tiny em3d trace is enough to exercise the full wire.
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

/// A two-cell plan (baseline vs stride) over the test trace, digests
/// deliberately unpinned — the daemon pins them against its corpus.
fn test_plan() -> ShardPlan {
    let jobs: Vec<ShardJob> = [EngineKind::Baseline, EngineKind::paper_stride()]
        .into_iter()
        .enumerate()
        .map(|(cell, engine)| ShardJob {
            figure: "figT".into(),
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

/// The in-process reference grid for [`test_plan`], serialized as the
/// CLIs write it.
fn reference_json(corpus: &Corpus) -> String {
    let mut plan = test_plan();
    plan.pin_digests(corpus).unwrap();
    let bundle = shard::execute_shard(&plan, 0, corpus).unwrap();
    serde_json::to_string_pretty(&shard::merge(&plan, &[bundle]).unwrap()).unwrap()
}

fn service(scratch: &ScratchDir, runner: Arc<dyn ShardRunner>) -> Arc<SweepService> {
    let cache = ResultCache::open(scratch.0.join("cache")).unwrap();
    Arc::new(SweepService::new(
        runner,
        cache,
        ServiceConfig {
            workers: 2,
            retries: 2,
            timeout: Duration::from_secs(60),
        },
    ))
}

struct Daemon {
    endpoint: Endpoint,
    done: mpsc::Receiver<std::io::Result<()>>,
}

impl Daemon {
    /// Serves a corpus + cache on a Unix socket inside `scratch`.
    fn start(scratch: &ScratchDir, corpus: Corpus) -> Daemon {
        let spec = scratch.0.join("sweepd.sock").display().to_string();
        Daemon::serve(service(scratch, Arc::new(CorpusRunner::new(corpus))), &spec)
    }

    /// Binds `spec` and serves `service` on a background thread. The
    /// socket is bound before this returns, so requests queue until the
    /// accept loop takes them — no start-up polling.
    fn serve(service: Arc<SweepService>, spec: &str) -> Daemon {
        let server = net::bind(&Endpoint::parse(spec)).unwrap();
        let endpoint = server.local_endpoint().clone();
        let (tx, done) = mpsc::channel();
        std::thread::spawn(move || tx.send(server.serve(&service)));
        Daemon { endpoint, done }
    }

    fn send(&self, request: &Request) -> Response {
        net::request(&self.endpoint, request).unwrap()
    }

    fn submit_wait(&self, plan: ShardPlan) -> Response {
        let mut request = Request::new("submit");
        request.plan = Some(plan);
        request.wait = true;
        self.send(&request)
    }

    /// Waits up to `limit` for `serve` to return, which it must do
    /// cleanly.
    fn join(&self, limit: Duration) {
        self.done
            .recv_timeout(limit)
            .expect("serve returns in time")
            .expect("serve exits cleanly");
    }

    /// Sends `shutdown` and requires `serve` to return promptly.
    fn stop(self) {
        assert!(self.send(&Request::new("shutdown")).ok);
        self.join(PROMPT);
    }
}

/// A corpus runner that holds every shard at a gate until the test
/// opens it, announcing each arrival.
struct GatedRunner {
    inner: CorpusRunner,
    entered: mpsc::Sender<()>,
    open: Mutex<bool>,
    opened: Condvar,
}

impl GatedRunner {
    fn release(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }
}

impl ShardRunner for GatedRunner {
    fn run_shard(&self, plan: &ShardPlan, shard: u32) -> Result<ShardResult, ShardError> {
        let _ = self.entered.send(());
        drop(
            self.opened
                .wait_while(self.open.lock().unwrap(), |open| !*open)
                .unwrap(),
        );
        self.inner.run_shard(plan, shard)
    }

    fn pin_digests(&self, plan: &mut ShardPlan) -> Result<(), ShardError> {
        self.inner.pin_digests(plan)
    }

    fn corpus_digests(&self) -> Option<Vec<String>> {
        self.inner.corpus_digests()
    }
}

/// One job-protocol exchange on a raw socket, returning the reply's
/// exact bytes.
fn raw_exchange(endpoint: &Endpoint, request: &Request) -> String {
    let Endpoint::Unix(path) = endpoint else {
        panic!("raw exchanges use the Unix socket");
    };
    let mut conn = UnixStream::connect(path).unwrap();
    conn.write_all(serde_json::to_string_pretty(request).unwrap().as_bytes())
        .unwrap();
    conn.shutdown(std::net::Shutdown::Write).unwrap();
    let mut reply = String::new();
    conn.read_to_string(&mut reply).unwrap();
    reply
}

/// Asserts `reply` is one compact JSON line and returns it parsed.
fn single_line(reply: &str) -> Response {
    assert!(reply.ends_with('\n'), "a reply ends with a newline");
    assert_eq!(reply.matches('\n').count(), 1, "a reply is one line");
    serde_json::from_str(reply).unwrap()
}

#[test]
fn warm_submit_simulates_zero_cells_and_is_byte_identical() {
    let scratch = ScratchDir::new("daemon");
    let corpus = build_corpus(&scratch.0.join("traces"));

    let reference_json = reference_json(&corpus);
    let daemon = Daemon::start(&scratch, corpus);
    assert!(single_line(&raw_exchange(&daemon.endpoint, &Request::new("ping"))).ok);

    // Cold: everything simulates, nothing is cached yet.
    let cold = daemon.submit_wait(test_plan());
    assert!(cold.ok, "{:?}", cold.error);
    let cold_status = cold.status.clone().unwrap();
    assert_eq!(cold_status.state, JobState::Done);
    assert_eq!((cold_status.cached, cold_status.simulated), (0, 2));
    let cold_json = serde_json::to_string_pretty(&cold.merged.unwrap()).unwrap();
    assert_eq!(
        cold_json, reference_json,
        "daemon-merged grid must serialize byte-identically to the reference"
    );

    // Cache entries are written as single compact lines.
    for entry in std::fs::read_dir(scratch.0.join("cache")).unwrap() {
        let path = entry.unwrap().path();
        if path.file_name().unwrap() != tse_sweepd::cache::CACHE_MANIFEST_NAME {
            let text = std::fs::read_to_string(&path).unwrap();
            assert_eq!(text.matches('\n').count(), 1, "{}", path.display());
        }
    }

    // Warm: the same plan is served wholly from the cache, as a single
    // compact reply line.
    let mut warm_request = Request::new("submit");
    warm_request.plan = Some(test_plan());
    warm_request.wait = true;
    let warm = single_line(&raw_exchange(&daemon.endpoint, &warm_request));
    let warm_status = warm.status.clone().unwrap();
    assert_eq!(
        (warm_status.cached, warm_status.simulated),
        (2, 0),
        "a warm submit must simulate zero cells"
    );
    let warm_json = serde_json::to_string_pretty(&warm.merged.unwrap()).unwrap();
    assert_eq!(
        warm_json, reference_json,
        "cache-served output is identical"
    );

    // Counters over the socket agree.
    let stats = daemon.send(&Request::new("cache-stats"));
    let cache = stats.cache.unwrap();
    assert_eq!(stats.cache_entries, Some(2));
    assert_eq!(cache.hits, 2);
    assert_eq!(cache.inserts, 2);

    // Everything cached is backed by a live corpus trace: gc drops none.
    let gc = daemon.send(&Request::new("cache-gc"));
    let report = gc.gc.unwrap();
    assert_eq!((report.kept, report.dropped), (2, 0));

    // Job bookkeeping: both jobs listed, result re-fetchable by id.
    let status = daemon.send(&Request::new("status"));
    assert_eq!(status.jobs.as_ref().map(Vec::len), Some(2));
    let mut by_id = Request::new("result");
    by_id.job = Some(0);
    let refetched = daemon.send(&by_id);
    assert_eq!(
        serde_json::to_string_pretty(&refetched.merged.unwrap()).unwrap(),
        reference_json
    );

    daemon.stop();

    // The daemon is gone (socket file removed) but the cache persists:
    // a fresh daemon over the same directories starts warm.
    let corpus = Corpus::open(scratch.0.join("traces")).unwrap();
    let daemon = Daemon::start(&scratch, corpus);
    let restarted = daemon.submit_wait(test_plan());
    let status = restarted.status.clone().unwrap();
    assert_eq!((status.cached, status.simulated), (2, 0));
    assert_eq!(
        serde_json::to_string_pretty(&restarted.merged.unwrap()).unwrap(),
        reference_json
    );
    daemon.stop();
}

#[test]
fn protocol_rejects_what_it_cannot_serve() {
    let scratch = ScratchDir::new("proto");
    let corpus = build_corpus(&scratch.0.join("traces"));
    let daemon = Daemon::start(&scratch, corpus);

    let bad_cmd = daemon.send(&Request::new("frobnicate"));
    assert!(!bad_cmd.ok);
    assert!(bad_cmd.error.unwrap().contains("unknown command"));

    let mut future = Request::new("ping");
    future.v = PROTO_VERSION + 1;
    let bad_version = daemon.send(&future);
    assert!(!bad_version.ok);
    assert!(bad_version.error.unwrap().contains("protocol version"));

    let no_plan = daemon.send(&Request::new("submit"));
    assert!(!no_plan.ok);

    let mut unknown_job = Request::new("status");
    unknown_job.job = Some(99);
    let missing = daemon.send(&unknown_job);
    assert!(!missing.ok);
    assert!(missing.error.unwrap().contains("unknown job 99"));

    // A plan referencing a trace the corpus lacks is refused at submit.
    let mut foreign = test_plan();
    for job in &mut foreign.jobs {
        job.trace.workload = "ocean".into();
    }
    let mut request = Request::new("submit");
    request.plan = Some(foreign);
    request.wait = true;
    let refused = daemon.send(&request);
    assert!(!refused.ok);
    assert!(refused.error.unwrap().contains("no entry"), "corpus miss");

    daemon.stop();
}

#[test]
fn serve_returns_promptly_after_shutdown_on_a_unix_socket() {
    let scratch = ScratchDir::new("unix-stop");
    let daemon = Daemon::start(&scratch, build_corpus(&scratch.0.join("traces")));
    assert!(daemon.send(&Request::new("ping")).ok);
    let Endpoint::Unix(path) = daemon.endpoint.clone() else {
        unreachable!("started on a socket path");
    };
    daemon.stop();
    assert!(!path.exists(), "the socket file is removed");
}

#[test]
fn serve_returns_promptly_over_tcp_on_an_ephemeral_port() {
    let scratch = ScratchDir::new("tcp-stop");
    let corpus = build_corpus(&scratch.0.join("traces"));
    for spec in ["127.0.0.1:0", "0.0.0.0:0"] {
        let runner = Arc::new(CorpusRunner::new(corpus.clone()));
        let daemon = Daemon::serve(service(&scratch, runner), spec);
        // The wake connect must target the bound port, not the spec.
        let Endpoint::Tcp(addr) = &daemon.endpoint else {
            unreachable!("a TCP spec binds TCP");
        };
        assert!(
            addr.starts_with("127.0.0.1:") && !addr.ends_with(":0"),
            "{addr}"
        );
        assert!(daemon.send(&Request::new("ping")).ok);
        daemon.stop();
    }
}

#[test]
fn a_waited_submit_running_at_shutdown_still_gets_its_grid() {
    let scratch = ScratchDir::new("drain");
    let corpus = build_corpus(&scratch.0.join("traces"));
    let reference_json = reference_json(&corpus);
    let (entered_tx, entered) = mpsc::channel();
    let runner = Arc::new(GatedRunner {
        inner: CorpusRunner::new(corpus),
        entered: entered_tx,
        open: Mutex::new(false),
        opened: Condvar::new(),
    });
    let spec = scratch.0.join("sweepd.sock").display().to_string();
    let daemon = Daemon::serve(service(&scratch, runner.clone()), &spec);

    let endpoint = daemon.endpoint.clone();
    let submit = std::thread::spawn(move || {
        let mut request = Request::new("submit");
        request.plan = Some(test_plan());
        request.wait = true;
        net::request(&endpoint, &request).unwrap()
    });
    entered
        .recv_timeout(Duration::from_secs(30))
        .expect("the job reached the runner");
    assert!(daemon.send(&Request::new("shutdown")).ok);
    assert!(
        daemon
            .done
            .recv_timeout(Duration::from_millis(200))
            .is_err(),
        "serve must drain the running submit before returning"
    );

    runner.release();
    let response = submit.join().unwrap();
    assert!(response.ok, "{:?}", response.error);
    assert_eq!(response.status.unwrap().state, JobState::Done);
    assert_eq!(
        serde_json::to_string_pretty(&response.merged.unwrap()).unwrap(),
        reference_json
    );
    daemon.join(PROMPT);
}

#[test]
fn a_stalled_client_neither_blocks_ping_nor_holds_up_shutdown() {
    let scratch = ScratchDir::new("stalled");
    let daemon = Daemon::start(&scratch, build_corpus(&scratch.0.join("traces")));
    let Endpoint::Unix(path) = daemon.endpoint.clone() else {
        unreachable!("started on a socket path");
    };
    // One client sends nothing; another stops after the job protocol's
    // opening line.
    let mut silent = UnixStream::connect(&path).unwrap();
    let mut partial = UnixStream::connect(&path).unwrap();
    partial.write_all(b"{\n").unwrap();

    assert!(daemon.send(&Request::new("ping")).ok);
    assert!(daemon.send(&Request::new("shutdown")).ok);
    daemon.join(REQUEST_READ_TIMEOUT + PROMPT);

    for conn in [&mut silent, &mut partial] {
        let mut reply = String::new();
        conn.read_to_string(&mut reply).unwrap();
        let response = single_line(&reply);
        assert!(!response.ok);
        assert!(
            response.error.unwrap().contains("cannot read request"),
            "a stalled client is told why"
        );
    }
}

#[test]
fn idle_pings_are_answered_without_polling_delay() {
    let scratch = ScratchDir::new("ping");
    let daemon = Daemon::start(&scratch, build_corpus(&scratch.0.join("traces")));
    let mut ms: Vec<f64> = (0..50)
        .map(|_| {
            let t0 = Instant::now();
            assert!(daemon.send(&Request::new("ping")).ok);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    let median = ms[ms.len() / 2];
    assert!(median < 5.0, "median idle ping {median:.2} ms");
    daemon.stop();
}
