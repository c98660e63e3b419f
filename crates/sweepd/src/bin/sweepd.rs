//! `sweepd` — the persistent sweep daemon and its control client.
//!
//! One process serves a trace corpus and a content-addressed result
//! cache over a socket; any number of clients submit shard plans and
//! collect merged grids:
//!
//! ```text
//! sweepd serve --corpus traces --cache cache --listen /tmp/sweepd.sock &
//! sweepctl plan --figure fig08 --shards 1 --corpus traces --out plan.json
//! sweepd submit --plan plan.json --wait --out merged.json --via /tmp/sweepd.sock
//! sweepd cache stats --via /tmp/sweepd.sock
//! sweepd shutdown --via /tmp/sweepd.sock
//! ```
//!
//! A cell simulated once is never simulated again: results are cached
//! by `(config digest, trace digest)` and a warm submit reports
//! `simulated 0`. Exit codes: `2` usage, `3` I/O or daemon-reported
//! failure, `4` verification failure.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
use tse_sweepd::cli::{self, CliError};
use tse_sweepd::net::{self, Endpoint};
use tse_sweepd::proto::{Request, Response};
use tse_sweepd::service::{CorpusRunner, ServiceConfig, SweepService};
use tse_sweepd::sync::SyncingRunner;
use tse_sweepd::{Journal, ResultCache};
use tse_trace::corpus::Corpus;
use tse_trace::fsio;

const USAGE: &str = "sweepd — persistent sweep service with a content-addressed result cache

USAGE:
  sweepd serve --corpus <dir> --cache <dir> --listen <endpoint>
               [--workers <n>] [--retries <n>] [--timeout-secs <s>]
               [--corpus-serve] [--sync-from <endpoint>] [--resume]
      run the daemon: accept plans, serve cached cells, simulate the
      rest with per-shard retry/timeout, cache fresh results. Every
      submitted plan is journaled (fsync'd WAL in the cache dir);
      --resume replays the journal after a crash and re-runs the
      interrupted jobs — already-cached cells are served, only the
      unfinished cell set is re-dispatched, and the resumed merge is
      byte-identical to an uninterrupted run. Without --resume the
      journal starts fresh. --corpus-serve additionally answers
      corpus-sync requests (manifest/fetch/push) from the corpus
      directory; --sync-from makes this daemon a self-provisioning
      worker that pulls any trace a submitted plan needs from the
      upstream daemon before executing (the corpus directory may
      start empty)
  sweepd ping --via <endpoint>
      liveness check
  sweepd submit --plan <plan.json> --via <endpoint> [--wait --out <merged.json>]
      submit a plan; --wait blocks for the merged grid and writes it
  sweepd status --via <endpoint> [--job <id>]
      one job's status, or all jobs
  sweepd result --job <id> --out <merged.json> --via <endpoint>
      block until a job finishes and write its merged grid
  sweepd cache stats --via <endpoint>
      hit/miss/insert/eviction counters and entry count
  sweepd cache gc --via <endpoint> [--max-bytes <n>] [--max-age-days <d>]
      drop cached results whose trace left the daemon's corpus; with a
      budget, additionally evict least-recently-used entries until the
      cache fits in <n> bytes and nothing is idler than <d> days
  sweepd shutdown --via <endpoint>
      stop the daemon (drains in-flight work first)
  sweepd crash-points
      list every registered fault-injection crash point (one per
      line), for the crash-loop harness

An <endpoint> containing a `/` is a Unix socket path; anything else is
a TCP address such as 127.0.0.1:7070.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("ping") => cmd_simple(&args[1..], "ping"),
        Some("submit") => cmd_submit(&args[1..]),
        Some("status") => cmd_status(&args[1..]),
        Some("result") => cmd_result(&args[1..]),
        Some("cache") => match args.get(1).map(String::as_str) {
            Some("stats") => cmd_cache_stats(&args[2..]),
            Some("gc") => cmd_cache_gc(&args[2..]),
            _ => Err(CliError::usage(format!(
                "cache needs `stats` or `gc`\n\n{USAGE}"
            ))),
        },
        Some("shutdown") => cmd_simple(&args[1..], "shutdown"),
        Some("crash-points") => {
            for point in fsio::registered_crash_points() {
                cli::outln!("{point}");
            }
            return ExitCode::SUCCESS;
        }
        Some("--help" | "-h") | None => {
            cli::out!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(CliError::usage(format!(
            "unknown command `{other}`\n\n{USAGE}"
        ))),
    };
    cli::exit("sweepd", result)
}

fn endpoint(args: &[String]) -> Result<Endpoint, CliError> {
    let spec = cli::opt(args, "--via")?
        .ok_or_else(|| CliError::usage(format!("needs --via <endpoint>\n\n{USAGE}")))?;
    Ok(Endpoint::parse(spec))
}

/// Sends one request and surfaces a daemon-reported failure as an I/O
/// error (exit 3) carrying the daemon's message.
fn exchange(ep: &Endpoint, request: &Request) -> Result<Response, CliError> {
    let response = net::request(ep, request).map_err(|e| CliError::io(format!("{ep}: {e}")))?;
    if response.ok {
        Ok(response)
    } else {
        Err(CliError::io(
            response
                .error
                .unwrap_or_else(|| "daemon reported failure".to_string()),
        ))
    }
}

/// Writes a merged grid atomically (write-temp + fsync + rename), so
/// an interrupted client never leaves a torn output file behind.
fn write_json<T: serde::Serialize>(path: &str, value: &T) -> Result<(), CliError> {
    let text = serde_json::to_string_pretty(value).map_err(CliError::io)?;
    fsio::atomic_write(
        "merged-grid",
        std::path::Path::new(path),
        (text + "\n").as_bytes(),
    )
    .map_err(|e| CliError::io(format!("cannot write {path}: {e}")))
}

fn print_status(status: &tse_sweepd::service::JobStatus) {
    cli::outln!(
        "job {} {}: {:?} — {} cells ({} cached, {} simulated, {} outstanding), {} rounds",
        status.id,
        status.figure,
        status.state,
        status.cells,
        status.cached,
        status.simulated,
        status.outstanding,
        status.rounds,
    );
}

fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let corpus_dir = cli::opt(args, "--corpus")?
        .ok_or_else(|| CliError::usage(format!("serve needs --corpus\n\n{USAGE}")))?;
    let cache_dir = cli::opt(args, "--cache")?
        .ok_or_else(|| CliError::usage(format!("serve needs --cache\n\n{USAGE}")))?;
    let listen = cli::opt(args, "--listen")?
        .ok_or_else(|| CliError::usage(format!("serve needs --listen\n\n{USAGE}")))?;
    let mut cfg = ServiceConfig::default();
    if let Some(v) = cli::opt(args, "--workers")? {
        cfg.workers = cli::parse(v, "--workers")?;
        if cfg.workers == 0 {
            return Err(CliError::usage("--workers must be at least 1"));
        }
    }
    if let Some(v) = cli::opt(args, "--retries")? {
        cfg.retries = cli::parse(v, "--retries")?;
    }
    if let Some(v) = cli::opt(args, "--timeout-secs")? {
        cfg.timeout = Duration::from_secs(cli::parse(v, "--timeout-secs")?);
    }
    let runner: Arc<dyn tse_sweepd::ShardRunner> = match cli::opt(args, "--sync-from")? {
        Some(upstream) => Arc::new(
            SyncingRunner::new(corpus_dir, Endpoint::parse(upstream)).map_err(CliError::io)?,
        ),
        None => Arc::new(CorpusRunner::new(
            Corpus::open(corpus_dir).map_err(CliError::io)?,
        )),
    };
    std::fs::create_dir_all(cache_dir)
        .map_err(|e| CliError::io(format!("cannot create {cache_dir}: {e}")))?;
    let cache = ResultCache::open(cache_dir).map_err(CliError::io)?;
    let ep = Endpoint::parse(listen);
    let mut service = SweepService::new(runner, cache, cfg);
    if cli::flag(args, "--corpus-serve") {
        service = service.with_corpus_sync(corpus_dir);
    }

    // The journal lives next to the cache index. --resume replays and
    // compacts it, restoring the job table; otherwise it starts fresh
    // (old job ids would collide with the new table's).
    let journal = Journal::open(cache_dir)
        .map_err(|e| CliError::io(format!("cannot open journal in {cache_dir}: {e}")))?;
    let resume = cli::flag(args, "--resume");
    let pending = if resume {
        let replay = journal
            .replay()
            .map_err(|e| CliError::io(format!("cannot replay journal: {e}")))?;
        journal
            .compact(&replay.jobs)
            .map_err(|e| CliError::io(format!("cannot compact journal: {e}")))?;
        let pending = service.restore(replay.jobs);
        cli::outln!(
            "sweepd: resumed {} journaled jobs ({} to re-run{})",
            service.statuses().len(),
            pending.len(),
            if replay.skipped > 0 {
                format!(", {} torn/stale journal lines ignored", replay.skipped)
            } else {
                String::new()
            }
        );
        pending
    } else {
        journal
            .reset()
            .map_err(|e| CliError::io(format!("cannot reset journal: {e}")))?;
        Vec::new()
    };
    let service = Arc::new(service.with_journal(journal));
    if !pending.is_empty() {
        // Re-run interrupted jobs in the background while the daemon
        // accepts connections; clients blocked in `result` wake as
        // each finishes.
        let svc = Arc::clone(&service);
        std::thread::spawn(move || {
            for id in pending {
                svc.run(id);
            }
        });
    }
    let server = net::bind(&ep).map_err(|e| CliError::io(format!("cannot listen on {ep}: {e}")))?;
    cli::outln!(
        "sweepd: serving corpus {corpus_dir} with cache {cache_dir} ({} entries) on {}",
        service.cache_stats().1,
        server.local_endpoint()
    );
    server.serve(&service).map_err(CliError::io)
}

fn cmd_simple(args: &[String], cmd: &str) -> Result<(), CliError> {
    let ep = endpoint(args)?;
    exchange(&ep, &Request::new(cmd))?;
    cli::outln!("{cmd}: ok");
    Ok(())
}

fn cmd_submit(args: &[String]) -> Result<(), CliError> {
    let ep = endpoint(args)?;
    let plan_path = cli::opt(args, "--plan")?
        .ok_or_else(|| CliError::usage(format!("submit needs --plan\n\n{USAGE}")))?;
    let wait = cli::flag(args, "--wait");
    let text = std::fs::read_to_string(plan_path)
        .map_err(|e| CliError::io(format!("cannot read {plan_path}: {e}")))?;
    let plan =
        serde_json::from_str(&text).map_err(|e| CliError::io(format!("{plan_path}: {e}")))?;
    let mut request = Request::new("submit");
    request.plan = Some(plan);
    request.wait = wait;
    let response = exchange(&ep, &request)?;
    if let Some(status) = &response.status {
        print_status(status);
    }
    if wait {
        let merged = response
            .merged
            .ok_or_else(|| CliError::io("daemon returned no merged grid"))?;
        if let Some(out) = cli::opt(args, "--out")? {
            write_json(out, &merged)?;
            cli::outln!("{}: {} cells -> {out}", merged.figure, merged.cells.len());
        }
    } else if let Some(id) = response.job {
        cli::outln!("submitted as job {id}");
    }
    Ok(())
}

fn cmd_status(args: &[String]) -> Result<(), CliError> {
    let ep = endpoint(args)?;
    let mut request = Request::new("status");
    if let Some(v) = cli::opt(args, "--job")? {
        request.job = Some(cli::parse(v, "--job")?);
    }
    let response = exchange(&ep, &request)?;
    if let Some(status) = &response.status {
        print_status(status);
    }
    if let Some(jobs) = &response.jobs {
        if jobs.is_empty() {
            cli::outln!("no jobs");
        }
        for status in jobs {
            print_status(status);
        }
    }
    Ok(())
}

fn cmd_result(args: &[String]) -> Result<(), CliError> {
    let ep = endpoint(args)?;
    let job: u64 = match cli::opt(args, "--job")? {
        Some(v) => cli::parse(v, "--job")?,
        None => return Err(CliError::usage(format!("result needs --job\n\n{USAGE}"))),
    };
    let out = cli::opt(args, "--out")?
        .ok_or_else(|| CliError::usage(format!("result needs --out\n\n{USAGE}")))?;
    let mut request = Request::new("result");
    request.job = Some(job);
    let response = exchange(&ep, &request)?;
    if let Some(status) = &response.status {
        print_status(status);
    }
    let merged = response
        .merged
        .ok_or_else(|| CliError::io("daemon returned no merged grid"))?;
    write_json(out, &merged)?;
    cli::outln!("{}: {} cells -> {out}", merged.figure, merged.cells.len());
    Ok(())
}

fn cmd_cache_stats(args: &[String]) -> Result<(), CliError> {
    let ep = endpoint(args)?;
    let response = exchange(&ep, &Request::new("cache-stats"))?;
    let stats = response
        .cache
        .ok_or_else(|| CliError::io("daemon returned no cache stats"))?;
    cli::outln!(
        "cache: {} entries — {} hits, {} misses, {} inserts, {} evictions",
        response.cache_entries.unwrap_or(0),
        stats.hits,
        stats.misses,
        stats.inserts,
        stats.evictions,
    );
    Ok(())
}

fn cmd_cache_gc(args: &[String]) -> Result<(), CliError> {
    let ep = endpoint(args)?;
    let mut request = Request::new("cache-gc");
    if let Some(v) = cli::opt(args, "--max-bytes")? {
        request.max_bytes = Some(cli::parse(v, "--max-bytes")?);
    }
    if let Some(v) = cli::opt(args, "--max-age-days")? {
        request.max_age_days = Some(cli::parse(v, "--max-age-days")?);
    }
    let response = exchange(&ep, &request)?;
    let report = response
        .gc
        .ok_or_else(|| CliError::io("daemon returned no gc report"))?;
    cli::outln!("cache gc: {report}");
    Ok(())
}
