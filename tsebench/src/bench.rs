//! The workloads, their set-up, the measured rounds and the traced
//! per-layer probes.
//!
//! Every workload runs the same pipeline on its own inputs, the way a
//! researcher uses the simulator:
//!
//! 1. replay one corpus trace through the mapped path: sequentially
//!    (`run_trace_mapped`), epoch-parallel at `nproc` threads
//!    (`run_trace_mapped_par`) and through the timing model
//!    (`run_timing_mapped`), each from a fresh mapping as one
//!    `tracectl replay` invocation would;
//! 2. sweep the fig08 lookahead axis over the workload's corpus three
//!    ways: in-process (`grid::run_cells`), through a real `sweepd`
//!    child with an empty cache (cold) and again (warm), while one
//!    closed-loop client pings the daemon during the cold leg.
//!
//! Rounds repeat until the run's time is spent; timings are medians
//! over rounds, those of the replays and of the in-process and cold
//! legs at the reference host speed (see [`probed`]). The workloads
//! differ in what dominates: scientific replay (decode- and
//! probe-heavy, twice the records) with its own small sweep, and OLTP
//! replay (engine-heavy) with the full seven-trace fig08 grid (pool,
//! shard, cache, journal and daemon).

use crate::daemon::{Daemon, Pinger};
use crate::probes;
use crate::spans::{self, Tracer};
use crate::stats::{self, median, percentile, HostProbe, Machine};
use serde_json::Value;
use std::fs::{self, File};
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tse_experiments::{grid, tse_config_for, ExperimentCtx};
use tse_sim::shard::{CellOutput, MergedGrid, ShardJob, ShardMode, ShardPlan};
use tse_sim::{
    run_parallel, run_timing_mapped, run_timing_stored_reference, run_trace_mapped,
    run_trace_mapped_par, run_trace_stored_reference, EngineKind, RunConfig, RunResult,
    StoredTrace, SweepPool, TimingResult,
};
use tse_sweepd::service::JobStatus;
use tse_trace::corpus::{Corpus, CorpusWriter};
use tse_trace::interleave;
use tse_trace::store::MappedTrace;
use tse_types::Parallelism;
use tse_workloads::{workload_by_name, SUITE_ORDER};

/// One benchmark workload: the trace it replays and the corpus it
/// sweeps.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Workload name (`--workload`).
    pub name: &'static str,
    /// Replay target: suite workload name and scale.
    pub replay: (&'static str, f64),
    /// Suite workloads whose fig08 lookahead cells form the sweep, and
    /// the scale of their corpus traces.
    pub sweep: (&'static [&'static str], f64),
}

/// The benchmark's workloads (why each is there: `README.md`).
pub const WORKLOADS: [Spec; 2] = [
    Spec {
        name: "replay_sci",
        replay: ("em3d", 1.0),
        sweep: (&["em3d"], 0.5),
    },
    Spec {
        name: "sweep_fig08",
        replay: ("DB2", 2.0),
        sweep: (&SUITE_ORDER, 0.25),
    },
];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Think time of the closed-loop pinger between a reply and its next
/// ping.
pub(crate) const PING_THINK: Duration = Duration::from_millis(2);

/// The benchmark's settings for one run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Input seed: every trace is generated from it.
    pub seed: u64,
    /// Measurement budget in seconds (rounds repeat until it is spent).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// The `sweepd` binary to serve the sweeps.
    pub sweepd: PathBuf,
    /// Scratch directory for this run (removed at the end).
    pub work: PathBuf,
    /// Where the traced run writes its spans.
    pub spans_out: PathBuf,
    /// Multiplies every workload scale (1 for the benchmark).
    pub scale: f64,
    /// Expected simulated fingerprints (`expected.json`), if present.
    pub expected: Option<PathBuf>,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output was wrong or that failed.
    pub failed: u64,
    /// What went wrong, one line per distinct failed check.
    pub problems: Vec<String>,
    /// Metrics by name.
    pub metrics: Vec<Metric>,
    /// Human-readable report lines.
    pub notes: Vec<String>,
}

impl Outcome {
    pub(crate) fn op(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                let line = format!("{what}: {p}");
                if !self.problems.contains(&line) {
                    self.problems.push(line);
                }
            }
        }
    }

    pub(crate) fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Whether every operation produced the expected output.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The final result line.
    pub fn json_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Value::Object(vec![
                        ("value".to_string(), Value::from(m.value)),
                        ("unit".to_string(), Value::String(m.unit.to_string())),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct())),
            ("attempted".to_string(), Value::from(self.attempted)),
            ("failed".to_string(), Value::from(self.failed)),
            ("metrics".to_string(), Value::Object(metrics)),
        ])
        .to_string()
    }
}

/// FNV-1a 64 of a result's canonical JSON: the simulated fingerprint.
pub fn fingerprint<T: serde::Serialize + ?Sized>(value: &T) -> String {
    let json = serde_json::to_string(value).expect("results serialize");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in json.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The fingerprints a workload's simulated outputs must reproduce.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    /// `RunResult` of the TSE replay.
    pub trace: String,
    /// `TimingResult` of the TSE timing replay.
    pub timing: String,
    /// The merged fig08 grid as serialized.
    pub grid: String,
}

fn load_expected(path: Option<&Path>, workload: &str, seed: u64) -> Option<Expected> {
    let text = fs::read_to_string(path?).ok()?;
    let doc: Value = serde_json::from_str(&text).ok()?;
    let e = doc.get(workload)?.get(&seed.to_string())?;
    Some(Expected {
        trace: e.get("trace")?.as_str()?.to_string(),
        timing: e.get("timing")?.as_str()?.to_string(),
        grid: e.get("grid")?.as_str()?.to_string(),
    })
}

/// The replay configuration: the paper's TSE operating point for the
/// workload (Table 3 lookahead) on the Table 1 machine.
pub(crate) fn replay_cfg(workload: &str, seed: u64) -> RunConfig {
    RunConfig {
        engine: EngineKind::Tse(tse_config_for(workload)),
        seed,
        ..RunConfig::default()
    }
}

/// An experiment context resolving traces from `corpus_dir` at `scale`.
pub(crate) fn context(scale: f64, corpus_dir: &Path) -> ExperimentCtx {
    let mut ctx = ExperimentCtx::from_env();
    ctx.scale = scale;
    ctx.corpus_dir = Some(corpus_dir.to_path_buf());
    ctx
}

/// The fig08 cells of `names` at `scale`, renumbered, with every trace
/// and config at `seed`.
pub(crate) fn sweep_jobs(
    names: &[&str],
    scale: f64,
    seed: u64,
    corpus_dir: &Path,
) -> Vec<ShardJob> {
    let ctx = context(scale, corpus_dir);
    let mut jobs: Vec<ShardJob> = grid::figure_jobs(&ctx, "fig08")
        .expect("fig08 is a grid")
        .into_iter()
        .filter(|j| {
            names
                .iter()
                .any(|n| n.eq_ignore_ascii_case(&j.trace.workload))
        })
        .collect();
    for (i, job) in jobs.iter_mut().enumerate() {
        job.cell = i as u64;
        job.trace.seed = seed;
        job.config.seed = seed;
    }
    jobs
}

/// Everything one set-up leaves for the rounds.
pub(crate) struct Env {
    pub(crate) dir: PathBuf,
    pub(crate) corpus_dir: PathBuf,
    pub(crate) replay_name: &'static str,
    pub(crate) replay_path: PathBuf,
    pub(crate) records: u64,
    pub(crate) jobs: Vec<ShardJob>,
    pub(crate) sweep_scale: f64,
    pub(crate) daemon: Daemon,
}

impl Env {
    fn teardown(self) -> Result<(), String> {
        let stopped = self.daemon.stop().map_err(|e| e.to_string());
        let _ = fs::remove_dir_all(&self.dir);
        stopped
    }
}

pub(crate) fn err<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Generates the workload's corpus, writes it as TSB1 with a manifest
/// and starts a `sweepd` over it.
fn setup(opts: &Options, spec: &Spec, rep: usize, tracer: &Arc<Tracer>) -> Result<Env, String> {
    let dir = opts.work.join(format!("setup-{rep}"));
    let _ = fs::remove_dir_all(&dir);
    let corpus_dir = dir.join("corpus");
    fs::create_dir_all(&corpus_dir).map_err(err("create work dir"))?;
    let replay_scale = spec.replay.1 * opts.scale;
    let sweep_scale = spec.sweep.1 * opts.scale;
    let mut traces: Vec<(String, f64)> = spec
        .sweep
        .0
        .iter()
        .map(|n| (n.to_string(), sweep_scale))
        .collect();
    if !traces.contains(&(spec.replay.0.to_string(), replay_scale)) {
        traces.push((spec.replay.0.to_string(), replay_scale));
    }
    let seed = opts.seed;
    let (t, cdir) = (Arc::clone(tracer), corpus_dir.clone());
    let written = run_parallel(traces, 0, move |(name, scale)| {
        let wl = workload_by_name(&name, scale).ok_or(format!("unknown workload {name}"))?;
        let nodes = u16::try_from(wl.nodes()).map_err(err("node count"))?;
        let (per_node, _) = t.span("workloads.generate", || wl.generate(seed));
        let records = interleave(per_node.into_iter().map(Vec::into_iter).collect());
        t.span("corpus.write", || {
            CorpusWriter::write_trace_file(&cdir, wl.name(), scale, seed, nodes, records)
        })
        .0
        .map_err(err("write trace"))
    });
    let mut writer = CorpusWriter::create(&corpus_dir).map_err(err("corpus"))?;
    for entry in written {
        writer.insert(entry?).map_err(err("corpus insert"))?;
    }
    tracer
        .span("corpus.manifest", || writer.finish())
        .0
        .map_err(err("corpus manifest"))?;
    let corpus = Corpus::open(&corpus_dir).map_err(err("corpus open"))?;
    let wl =
        workload_by_name(spec.replay.0, replay_scale).expect("replay target is a suite workload");
    let entry = corpus
        .find(wl.name(), replay_scale, seed)
        .ok_or("replay trace missing from corpus")?;
    let (jobs, _) = tracer.span("grid.plan", || {
        sweep_jobs(spec.sweep.0, sweep_scale, seed, &corpus_dir)
    });
    let (daemon, _) = tracer.span("daemon.start", || {
        Daemon::start(
            &opts.sweepd,
            &corpus_dir,
            &dir.join("cache"),
            &dir.join("sweepd.sock"),
            SweepPool::global().threads(),
            &dir.join("sweepd.log"),
        )
    });
    Ok(Env {
        replay_name: wl.name(),
        replay_path: corpus.path_of(entry),
        records: entry.records,
        jobs,
        sweep_scale,
        daemon: daemon.map_err(err("sweepd start"))?,
        corpus_dir,
        dir,
    })
}

/// Fingerprints from the record-at-a-time reference interpreter: the
/// replay, its timing run and every fig08 cell, merged as `sweepd`
/// merges them. Used by `--bless` and for a seed `expected.json` does
/// not list.
fn reference(env: &Env, seed: u64) -> Result<Expected, String> {
    let file = File::open(&env.replay_path).map_err(err("open trace"))?;
    let stored =
        StoredTrace::load_tsb1(env.replay_name, BufReader::new(file)).map_err(err("load trace"))?;
    let cfg = replay_cfg(env.replay_name, seed);
    let trace = run_trace_stored_reference(&stored, &cfg).map_err(err("reference replay"))?;
    let timing = run_timing_stored_reference(&stored, &cfg.sys, &cfg.engine, cfg.warm_fraction)
        .map_err(err("reference timing"))?;
    drop(stored);
    let ctx = context(env.sweep_scale, &env.corpus_dir);
    let cells = run_parallel(env.jobs.clone(), 0, move |job| {
        let wl = workload_by_name(&job.trace.workload, job.trace.scale)
            .ok_or(format!("unknown workload {}", job.trace.workload))?;
        let trace = ctx.trace_for(wl.as_ref(), job.trace.seed);
        let c = &job.config;
        match job.mode {
            ShardMode::Trace => run_trace_stored_reference(&trace, c).map(CellOutput::Trace),
            ShardMode::Timing => {
                run_timing_stored_reference(&trace, &c.sys, &c.engine, c.warm_fraction)
                    .map(CellOutput::Timing)
            }
        }
        .map_err(err("reference cell"))
    });
    let outputs = cells.into_iter().collect::<Result<Vec<_>, String>>()?;
    let grid = serde_json::to_string_pretty(&MergedGrid::from_outputs("fig08", outputs))
        .expect("grids serialize");
    Ok(Expected {
        trace: fingerprint(&trace),
        timing: fingerprint(&timing),
        grid: fingerprint(grid.as_str()),
    })
}

pub(crate) fn open_mapped(tracer: &Tracer, path: &Path) -> Result<Arc<MappedTrace>, String> {
    tracer
        .span("store.open", || MappedTrace::open(path))
        .0
        .map(Arc::new)
        .map_err(err("map trace"))
}

pub(crate) fn check(problems: &mut Vec<String>, ok: bool, what: impl FnOnce() -> String) {
    if !ok {
        problems.push(what());
    }
}

/// Seconds of each replay operation per round: replays shorter than
/// this repeat within a round so that they, too, are timed over many
/// samples.
const REPLAY_BUDGET: f64 = 1.0;

/// Seconds of warm legs per round (each is tens of milliseconds).
const WARM_BUDGET: f64 = 0.3;

/// Fractional part of the golden ratio: multiples of it, modulo 1,
/// cover the unit interval evenly for any count.
const GOLDEN_FRACTION: f64 = 0.618_033_988_749_894_9;

/// Largest share of a traced round's wall time that the layers' spans
/// may leave unattributed.
pub const UNATTRIBUTED_TOLERANCE: f64 = 0.01;

/// Upper bound on repetitions of one operation within a round.
const MAX_OP_REPS: usize = 30;

/// Timings of one round, seconds.
#[derive(Debug)]
pub(crate) struct Round {
    pub(crate) seq: Vec<f64>,
    pub(crate) par: Vec<f64>,
    pub(crate) timing: Vec<f64>,
    pub(crate) inproc: f64,
    pub(crate) cold: f64,
    /// The same timings at the reference host speed (see [`probed`]).
    pub(crate) at_ref: AtRef,
    pub(crate) warm: Vec<f64>,
    pub(crate) pings: Vec<f64>,
    pub(crate) wall: f64,
    /// Peak RSS (MiB) of this process and of the daemon during the round.
    pub(crate) rss: (f64, f64),
    /// The in-process grid as serialized.
    pub(crate) grid: String,
    pub(crate) outputs: Vec<CellOutput>,
}

/// A round's replay and sweep timings scaled to the reference host
/// speed, seconds.
#[derive(Debug)]
pub(crate) struct AtRef {
    pub(crate) seq: Vec<f64>,
    pub(crate) par: Vec<f64>,
    pub(crate) timing: Vec<f64>,
    pub(crate) inproc: f64,
    pub(crate) cold: f64,
    /// Host-probe seconds around each sample, for the report.
    pub(crate) probes: Vec<f64>,
}

/// Seconds [`HostProbe::seconds`] takes on the reference host.
const REF_PROBE_S: f64 = 0.020;

/// Times `op` (which returns its output and duration) between two host
/// probes. Returns the output, the duration and the duration scaled
/// to the reference host speed: the duration times [`REF_PROBE_S`] over
/// the mean of the two probes.
fn probed<T>(
    probe: &HostProbe,
    tracer: &Tracer,
    probes: &mut Vec<f64>,
    op: impl FnOnce() -> Result<(T, f64), String>,
) -> Result<(T, f64, f64), String> {
    let before = tracer.span("host.probe", || probe.seconds()).0;
    let (output, secs) = op()?;
    let after = tracer.span("host.probe", || probe.seconds()).0;
    let host = (before + after) / 2.0;
    probes.push(host);
    Ok((output, secs, secs * REF_PROBE_S / host))
}

/// What one round's operations returned, checked once the round's wall
/// clock has stopped so that checking is not part of it.
struct Produced {
    replays: Vec<(&'static str, RunResult)>,
    timings: Vec<TimingResult>,
    cold: (JobStatus, MergedGrid),
    warm: Vec<(JobStatus, MergedGrid)>,
    ping_errors: usize,
}

/// One pass of the pipeline. Every operation's simulated output is
/// checked; mismatches count as failed operations.
fn round(
    env: &Env,
    seed: u64,
    probe: &HostProbe,
    expect: &Expected,
    tracer: &Arc<Tracer>,
    out: &mut Outcome,
) -> Result<Round, String> {
    let me = std::process::id();
    let daemon = env.daemon.pid().unwrap_or(me);
    stats::reset_peak_rss(me);
    stats::reset_peak_rss(daemon);
    let t0 = Instant::now();
    let (inner, _) = tracer.span("bench.round", || round_inner(env, seed, probe, tracer));
    let wall = t0.elapsed().as_secs_f64();
    let rss = |pid| stats::peak_rss_mb(pid).unwrap_or(f64::NAN);
    let (mut r, produced) = inner?;
    r.wall = wall;
    r.rss = (rss(me), rss(daemon));
    r.grid = verify(env, expect, &r, produced, out);
    Ok(r)
}

/// Checks a round's outputs against the expected fingerprints and the
/// in-process grid; each wrong output is a failed operation. Returns the
/// in-process grid as serialized.
fn verify(env: &Env, expect: &Expected, r: &Round, p: Produced, out: &mut Outcome) -> String {
    for (what, result) in &p.replays {
        out.op(what, matches(result, &expect.trace, "RunResult"));
    }
    for result in &p.timings {
        out.op("timing", matches(result, &expect.timing, "TimingResult"));
    }
    let grid = serde_json::to_string_pretty(&MergedGrid::from_outputs("fig08", r.outputs.clone()))
        .expect("grids serialize");
    out.op(
        "sweep.inproc",
        matches(&grid.as_str(), &expect.grid, "merged grid"),
    );
    let n = env.jobs.len() as u64;
    let legs = std::iter::once(("sweep.cold", (0, n), p.cold))
        .chain(p.warm.into_iter().map(|leg| ("sweep.warm", (n, 0), leg)));
    for (what, want, (status, merged)) in legs {
        let mut problems = Vec::new();
        check(
            &mut problems,
            (status.cached, status.simulated) == want,
            || {
                format!(
                    "{} cached + {} simulated, want {} + {}",
                    status.cached, status.simulated, want.0, want.1
                )
            },
        );
        let json = serde_json::to_string_pretty(&merged).expect("grids serialize");
        check(&mut problems, json == grid, || {
            "grid differs from the in-process grid".to_string()
        });
        out.op(what, problems);
    }
    for _ in &r.pings {
        out.op("ping", Vec::new());
    }
    for _ in 0..p.ping_errors {
        out.op("ping", vec!["ping failed".to_string()]);
    }
    grid
}

/// Runs `op` (which returns its output and duration) once, then again
/// while one more run is expected to fit in `budget` seconds, at most
/// [`MAX_OP_REPS`] times; returns every duration and output.
fn repeat<T>(
    budget: f64,
    mut op: impl FnMut() -> Result<(T, f64), String>,
) -> Result<(Vec<f64>, Vec<T>), String> {
    let (mut times, mut outputs) = (Vec::new(), Vec::new());
    let fits = |t: &[f64]| {
        let spent: f64 = t.iter().sum();
        spent + spent / t.len() as f64 <= budget && t.len() < MAX_OP_REPS
    };
    while times.is_empty() || fits(&times) {
        let (output, secs) = op()?;
        outputs.push(output);
        times.push(secs);
    }
    Ok((times, outputs))
}

/// Durations of repeated runs, the same at the reference host speed,
/// and the runs' outputs.
type ProbedRuns<T> = (Vec<f64>, Vec<f64>, Vec<T>);

/// [`repeat`] over [`REPLAY_BUDGET`] with every run [`probed`].
fn repeat_probed<T>(
    probe: &HostProbe,
    tracer: &Tracer,
    probes: &mut Vec<f64>,
    mut op: impl FnMut() -> Result<(T, f64), String>,
) -> Result<ProbedRuns<T>, String> {
    let (secs, runs) = repeat(REPLAY_BUDGET, || {
        let (output, secs, at_ref) = probed(probe, tracer, probes, &mut op)?;
        Ok(((output, at_ref), secs))
    })?;
    let (outputs, at_ref) = runs.into_iter().unzip();
    Ok((secs, at_ref, outputs))
}

/// A failed check unless `value`'s fingerprint is `want`.
fn matches<T: serde::Serialize>(value: &T, want: &str, what: &str) -> Vec<String> {
    let got = fingerprint(value);
    if got == want {
        Vec::new()
    } else {
        vec![format!("{what} fingerprint {got} != expected {want}")]
    }
}

/// A timed call's output with its duration, or its error.
fn timed<T>((result, secs): (Result<T, String>, f64)) -> Result<(T, f64), String> {
    result.map(|r| (r, secs))
}

fn round_inner(
    env: &Env,
    seed: u64,
    probe: &HostProbe,
    tracer: &Arc<Tracer>,
) -> Result<(Round, Produced), String> {
    let cfg = replay_cfg(env.replay_name, seed);
    let name = env.replay_name;
    let path = &env.replay_path;
    let threads = Parallelism::new(SweepPool::global().threads());
    let mut probes = Vec::new();
    let (seq, seq_ref, seq_runs) = repeat_probed(probe, tracer, &mut probes, || {
        timed(tracer.span("kernel.replay_mapped", || {
            run_trace_mapped(name, open_mapped(tracer, path)?, &cfg).map_err(err("replay"))
        }))
    })?;
    let (par, par_ref, par_runs) = repeat_probed(probe, tracer, &mut probes, || {
        timed(tracer.span("parallel.replay_mapped_par", || {
            run_trace_mapped_par(name, open_mapped(tracer, path)?, &cfg, threads)
                .map_err(err("parallel replay"))
        }))
    })?;
    let (timing, timing_ref, timings) = repeat_probed(probe, tracer, &mut probes, || {
        timed(tracer.span("timing.replay_mapped", || {
            run_timing_mapped(
                name,
                open_mapped(tracer, path)?,
                &cfg.sys,
                &cfg.engine,
                cfg.warm_fraction,
            )
            .map_err(err("timing replay"))
        }))
    })?;

    // In-process leg: a fresh context, so traces load from the corpus
    // as `sweepctl local` would load them.
    let ctx = context(env.sweep_scale, &env.corpus_dir);
    let (outputs, inproc, inproc_ref) = probed(probe, tracer, &mut probes, || {
        Ok(tracer.span("grid.run_cells", || grid::run_cells(&ctx, &env.jobs)))
    })?;

    let plan = ShardPlan::split(env.jobs.clone(), 1).map_err(err("plan"))?;
    let ((cold_result, pings, ping_errors), cold, cold_ref) =
        probed(probe, tracer, &mut probes, || {
            let pinger = Pinger::start(env.daemon.endpoint().clone(), PING_THINK);
            let (cold_result, cold) =
                tracer.span("sweepd.submit_cold", || env.daemon.submit(&plan));
            // Joining the pinger waits out its last round trip to the
            // daemon.
            let ((pings, ping_errors), _) = tracer.span("sweepd.last_ping", || pinger.finish());
            Ok(((cold_result, pings, ping_errors), cold))
        })?;
    let cold_result = cold_result.map_err(err("cold submit"))?;
    let at_ref = AtRef {
        seq: seq_ref,
        par: par_ref,
        timing: timing_ref,
        inproc: inproc_ref,
        cold: cold_ref,
        probes,
    };

    // Warm submits arrive after an untimed 0-24 ms pause. Back to back,
    // they would lock onto one phase of the daemon's 25 ms accept poll
    // and read either ~25 or ~50 ms depending on whether the previous
    // exchange crossed a poll period. The pauses follow a golden-ratio
    // sequence, which spreads any run of them evenly over the period, so
    // the median wait for the poll is the same in every round and for
    // every seed.
    let mut k = 0u32;
    let (warm, warm_results) = repeat(WARM_BUDGET, || {
        k += 1;
        let pause = (25.0 * (f64::from(k) * GOLDEN_FRACTION).fract()) as u64;
        tracer.span("pace.warm_gap", || {
            std::thread::sleep(Duration::from_millis(pause))
        });
        let (warm, secs) = tracer.span("sweepd.submit_warm", || env.daemon.submit(&plan));
        Ok((warm.map_err(err("warm submit"))?, secs))
    })?;

    tracer
        .span("sweepd.cache_gc", || env.daemon.clear_cache())
        .0
        .map_err(err("cache gc"))?;
    let replays = seq_runs
        .into_iter()
        .map(|r| ("replay.seq", r))
        .chain(par_runs.into_iter().map(|r| ("replay.par", r)))
        .collect();
    let round = Round {
        seq,
        par,
        timing,
        inproc,
        cold,
        at_ref,
        warm,
        pings,
        wall: 0.0,
        rss: (0.0, 0.0),
        grid: String::new(),
        outputs,
    };
    let produced = Produced {
        replays,
        timings,
        cold: cold_result,
        warm: warm_results,
        ping_errors,
    };
    Ok((round, produced))
}

/// Runs one workload and reports its metrics.
///
/// # Errors
///
/// A description of the first set-up or transport failure; wrong
/// simulated outputs are not errors but failed operations.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let spec = WORKLOADS
        .iter()
        .find(|w| w.name == opts.workload)
        .ok_or_else(|| format!("unknown workload `{}`", opts.workload))?;
    let machine = Machine::probe();
    let probe = HostProbe::new();
    let tracer = Arc::new(Tracer::new(false));
    let mut out = Outcome::default();
    out.notes.push(format!(
        "machine: nproc {} | cpu {} | {} | commit {} | seed {}",
        machine.nproc, machine.cpu, machine.rustc, machine.commit, opts.seed
    ));

    let reps = if opts.trace { 1 } else { SETUP_REPS };
    let mut setups = Vec::new();
    let mut env = None;
    for rep in 0..reps {
        if let Some(old) = env.take() {
            Env::teardown(old)?;
        }
        tracer.set_enabled(opts.trace);
        let t0 = Instant::now();
        env = Some(setup(opts, spec, rep, &tracer)?);
        setups.push(t0.elapsed().as_secs_f64());
        tracer.set_enabled(false);
    }
    let env = env.expect("at least one set-up");
    out.notes.push(format!(
        "workload {}: replay {} ({} records, {:.1} MB TSB1), sweep {} fig08 cells at scale {}",
        spec.name,
        env.replay_name,
        env.records,
        stats::file_len(&env.replay_path) as f64 / 1e6,
        env.jobs.len(),
        env.sweep_scale
    ));

    let expect = match load_expected(opts.expected.as_deref(), spec.name, opts.seed) {
        Some(e) => e,
        None => {
            out.notes.push(format!(
                "seed {} not in expected.json: checking against the reference interpreter",
                opts.seed
            ));
            reference(&env, opts.seed)?
        }
    };

    let result = if opts.trace {
        traced(opts, &env, &probe, &expect, &tracer, &mut out)
    } else {
        untraced(opts, &env, &probe, &expect, &setups, &tracer, &mut out)
    };
    let stopped = Env::teardown(env);
    result?;
    stopped?;
    if opts.trace {
        let path = opts
            .spans_out
            .join(format!("{}-s{}.spans.jsonl", spec.name, opts.seed));
        tracer.write_jsonl(&path).map_err(err("write spans"))?;
        out.notes.push(format!("spans: {}", path.display()));
    }
    Ok(out)
}

fn untraced(
    opts: &Options,
    env: &Env,
    probe: &HostProbe,
    expect: &Expected,
    setups: &[f64],
    tracer: &Arc<Tracer>,
    out: &mut Outcome,
) -> Result<(), String> {
    let t0 = Instant::now();
    let mut rounds = Vec::new();
    // Stop at the round boundary nearest the budget.
    loop {
        let r = round(env, opts.seed, probe, expect, tracer, out)?;
        let half = r.wall / 2.0;
        rounds.push(r);
        if t0.elapsed().as_secs_f64() + half > opts.seconds {
            break;
        }
    }
    let col = |f: fn(&Round) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };
    let all = |f: fn(&Round) -> &Vec<f64>| -> Vec<f64> {
        rounds.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let pings: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.pings.iter().copied())
        .collect();
    let records = env.records as f64;
    out.notes.push(format!(
        "{} rounds in {:.1} s; {} pings during cold legs, {} beyond p90",
        rounds.len(),
        t0.elapsed().as_secs_f64(),
        pings.len(),
        stats::beyond(&pings, 90.0)
    ));
    let at_ref = |f: fn(&AtRef) -> &Vec<f64>| -> Vec<f64> {
        rounds
            .iter()
            .flat_map(|r| f(&r.at_ref).iter().copied())
            .collect()
    };
    let at_ref_col =
        |f: fn(&AtRef) -> f64| -> Vec<f64> { rounds.iter().map(|r| f(&r.at_ref)).collect() };
    for (what, unit, v) in [
        ("replay.seq", "s", all(|r| &r.seq)),
        ("replay.par", "s", all(|r| &r.par)),
        ("timing", "s", all(|r| &r.timing)),
        ("sweep.inproc", "s", col(|r| r.inproc)),
        ("sweep.cold", "s", col(|r| r.cold)),
        ("sweep.warm", "s", all(|r| &r.warm)),
        ("ping", "ms", pings.clone()),
        ("rss", "MiB", col(|r| r.rss.0)),
        ("daemon rss", "MiB", col(|r| r.rss.1)),
        ("setup", "s", setups.to_vec()),
        ("probe", "s", at_ref(|r| &r.probes)),
    ] {
        out.notes
            .push(format!("  host {}", stats::describe(what, unit, &v)));
    }
    let (seq, par, timing) = (
        at_ref(|r| &r.seq),
        at_ref(|r| &r.par),
        at_ref(|r| &r.timing),
    );
    let (inproc, cold) = (at_ref_col(|r| r.inproc), at_ref_col(|r| r.cold));
    for (what, v) in [
        ("replay.seq", &seq),
        ("replay.par", &par),
        ("timing", &timing),
        ("sweep.inproc", &inproc),
        ("sweep.cold", &cold),
    ] {
        out.notes.push(format!(
            "  at reference speed {}",
            stats::describe(what, "s", v)
        ));
    }
    out.metric("replay_rps", records / median(&seq), "rec/s");
    out.metric("replay_par_rps", records / median(&par), "rec/s");
    out.metric("timing_rps", records / median(&timing), "rec/s");
    out.metric("sweep_inproc_s", median(&inproc), "s");
    out.metric("sweep_cold_s", median(&cold), "s");
    out.metric("sweep_warm_s", median(&all(|r| &r.warm)), "s");
    out.metric("ping_p50_ms", percentile(&pings, 50.0), "ms");
    out.metric("ping_p90_ms", percentile(&pings, 90.0), "ms");
    out.metric("setup_s", median(setups), "s");
    Ok(())
}

/// The traced run: untraced and traced rounds, then probes that time
/// each layer's public functions on the same inputs.
fn traced(
    opts: &Options,
    env: &Env,
    probe: &HostProbe,
    expect: &Expected,
    tracer: &Arc<Tracer>,
    out: &mut Outcome,
) -> Result<(), String> {
    let setup_spans = tracer.spans();
    // Untraced and traced rounds alternate until the run's time is
    // spent; the ratio of their median walls is the tracing overhead.
    let t0 = Instant::now();
    let (mut base, mut walls, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let traced = loop {
        tracer.set_enabled(false);
        let r = round(env, opts.seed, probe, expect, tracer, out)?;
        base.push(r.wall);
        rss.push(r.rss);
        tracer.set_enabled(true);
        let r = round(env, opts.seed, probe, expect, tracer, out)?;
        walls.push(r.wall);
        rss.push(r.rss);
        if t0.elapsed().as_secs_f64() + r.wall > opts.seconds {
            break r;
        }
    };
    let (base, overhead) = (median(&base), median(&walls) / median(&base));
    let spans = tracer.spans();
    let root = spans
        .iter()
        .rev()
        .find(|s| s.name == "bench.round")
        .expect("traced round recorded")
        .id;
    let mut layers = spans::layer_self_times(&spans, root);
    // The benchmark's own work inside the round (the root's uncovered
    // time, spent between the layers' calls) is time no layer accounts
    // for. It is measured
    // against the round's wall clock, not against the spans' sum.
    layers.remove("bench");
    let attributed: f64 = layers.values().sum();
    let unattributed = (traced.wall - attributed) / traced.wall;
    out.notes.push(format!(
        "{} traced rounds, median {:.3} s (untraced {base:.3} s); last traced round {:.3} s, layer self times:",
        walls.len(),
        median(&walls),
        traced.wall
    ));
    for (layer, secs) in &layers {
        out.notes.push(format!(
            "  {layer:<10} {secs:>9.4} s  {:>5.1}%",
            100.0 * secs / traced.wall
        ));
    }
    out.notes.push(format!(
        "  unattributed {:>7.4} s  {:>5.1}% of the round's wall time (tolerance {:.0}%)",
        traced.wall - attributed,
        100.0 * unattributed,
        100.0 * UNATTRIBUTED_TOLERANCE
    ));
    let mut p = Vec::new();
    check(&mut p, unattributed <= UNATTRIBUTED_TOLERANCE, || {
        format!(
            "layers leave {:.2}% of the round's wall time unattributed",
            100.0 * unattributed
        )
    });
    out.op("trace.reconcile", p);
    out.metric("trace.overhead", overhead, "x");
    // Memory is reported here rather than end to end: the heap a process
    // retains after set-up differs between processes, which moves these
    // peaks by 20-30% from run to run.
    let (mine, daemon): (Vec<f64>, Vec<f64>) = rss.into_iter().unzip();
    out.metric("mem.peak_rss_mb", median(&mine), "MiB");
    out.metric("mem.daemon_peak_rss_mb", median(&daemon), "MiB");
    out.metric("trace.unattributed_share", unattributed, "ratio");

    let corpus = Corpus::open(&env.corpus_dir).map_err(err("corpus"))?;
    probes::setup_layers(&setup_spans, out);
    probes::store(env, &spans, tracer, out)?;
    probes::kernel(env, opts.seed, expect, &traced, tracer, out)?;
    probes::pool(env, &traced, tracer, out)?;
    let plan = probes::shard(env, opts.seed, &corpus, &traced, tracer, out)?;
    probes::cache(env, &plan, &traced, tracer, out)?;
    probes::journal(env, tracer, out)?;
    probes::service(env, &corpus, &traced, tracer, out)?;
    probes::net(env, &traced, tracer, out)
}

/// Computes expected fingerprints for `seeds` with the reference
/// interpreter, for `expected.json`.
///
/// # Errors
///
/// As [`run`].
pub fn bless(opts: &Options, seeds: &[u64]) -> Result<Value, String> {
    let spec = WORKLOADS
        .iter()
        .find(|w| w.name == opts.workload)
        .ok_or_else(|| format!("unknown workload `{}`", opts.workload))?;
    let tracer = Arc::new(Tracer::new(false));
    let mut entries = Vec::new();
    for &seed in seeds {
        let o = Options {
            seed,
            ..opts.clone()
        };
        let env = setup(&o, spec, 0, &tracer)?;
        let e = reference(&env, seed)?;
        env.teardown()?;
        entries.push((
            seed.to_string(),
            Value::Object(vec![
                ("trace".to_string(), Value::String(e.trace)),
                ("timing".to_string(), Value::String(e.timing)),
                ("grid".to_string(), Value::String(e.grid)),
            ]),
        ));
    }
    Ok(Value::Object(entries))
}
