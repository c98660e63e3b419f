//! The traced run's per-layer probes. Each times calls to one layer's
//! public functions on the workload's own inputs, checks their outputs
//! (a wrong one is a failed operation) and reports that layer's
//! metrics.

use crate::bench::{
    check, context, err, fingerprint, open_mapped, replay_cfg, sweep_jobs, Env, Expected, Outcome,
    Round, PING_THINK,
};
use crate::daemon::ping;
use crate::spans::{self, Span, Tracer};
use crate::stats::{self, median, percentile};
use std::fs::{self, File};
use std::io::BufReader;
use std::sync::Arc;
use std::time::Instant;
use tse_sim::shard::{self, ShardCell, ShardJob, ShardPlan, ShardResult};
use tse_sim::{
    run_parallel, run_trace_mapped, run_trace_mapped_par, run_trace_stored, EngineKind, RunConfig,
    StoredTrace, SweepPool,
};
use tse_sweepd::journal::{Journal, JournalRecord};
use tse_sweepd::service::{CorpusRunner, ServiceConfig, ShardRunner, SweepService};
use tse_sweepd::ResultCache;
use tse_trace::corpus::Corpus;
use tse_trace::store::{LoweredBlock, RecordBatch};
use tse_types::Parallelism;
use tse_workloads::workload_by_name;

fn ns_per(secs: f64, records: u64) -> f64 {
    secs * 1e9 / records as f64
}

fn threads() -> usize {
    SweepPool::global().threads()
}

/// `tse-workloads` and `trace::corpus` as set-up used them.
pub(crate) fn setup_layers(setup: &[Span], out: &mut Outcome) {
    out.metric(
        "workloads.generate_s",
        spans::total(setup, "workloads.generate"),
        "s",
    );
    out.metric("corpus.write_s", spans::total(setup, "corpus.write"), "s");
}

/// `trace::store`: a fresh mapping pays each block's CRC on first
/// access; a second pass decodes and lowers every block.
pub(crate) fn store(
    env: &Env,
    traced: &[Span],
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let records = env.records;
    let mapped = open_mapped(tracer, &env.replay_path)?;
    let blocks = mapped.blocks() as usize;
    let (crc, crc_s) = tracer.span("store.crc_pass", || -> Result<(), String> {
        for i in 0..blocks {
            mapped.block(i).map_err(err("block"))?;
        }
        Ok(())
    });
    crc?;
    let mut batch = RecordBatch::new();
    let mut lowered = LoweredBlock::new();
    let (mut decode_s, mut lower_s, mut decoded, mut lowered_n) = (0.0, 0.0, 0u64, 0u64);
    let (pass, _) = tracer.span("store.decode_lower_pass", || -> Result<(), String> {
        for i in 0..blocks {
            let slice = mapped.block(i).map_err(err("block"))?;
            let t0 = Instant::now();
            slice.decode_into(&mut batch).map_err(err("decode"))?;
            let t1 = Instant::now();
            lowered.lower_batch(&batch);
            lower_s += t1.elapsed().as_secs_f64();
            decode_s += (t1 - t0).as_secs_f64();
            decoded += batch.len() as u64;
            lowered_n += lowered.len() as u64;
        }
        Ok(())
    });
    pass?;
    let mut p = Vec::new();
    check(&mut p, decoded == records && lowered_n == records, || {
        format!("decoded {decoded} / lowered {lowered_n} records, trace holds {records}")
    });
    out.op("store.decode_count", p);
    out.metric(
        "store.open_us",
        median(&spans::durations(traced, "store.open")) * 1e6,
        "us",
    );
    out.metric("store.crc_ns_per_rec", ns_per(crc_s, records), "ns/rec");
    out.metric(
        "store.decode_ns_per_rec",
        ns_per(decode_s, records),
        "ns/rec",
    );
    out.metric("store.lower_ns_per_rec", ns_per(lower_s, records), "ns/rec");
    out.metric(
        "store.bytes_per_rec",
        stats::file_len(&env.replay_path) as f64 / records as f64,
        "B/rec",
    );
    Ok(())
}

/// The `sim` kernel, the `core` engine, `sim::parallel` and
/// `sim::timing`: owned records (no decode) against the mapped path,
/// TSE against Baseline, parallel against sequential.
pub(crate) fn kernel(
    env: &Env,
    seed: u64,
    expect: &Expected,
    traced: &Round,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let (records, name, path) = (env.records, env.replay_name, &env.replay_path);
    let cfg = replay_cfg(name, seed);
    let base_cfg = RunConfig {
        engine: EngineKind::Baseline,
        ..cfg.clone()
    };
    let (stored, _) = tracer.span("store.load", || {
        File::open(path)
            .map_err(err("open"))
            .and_then(|f| StoredTrace::load_tsb1(name, BufReader::new(f)).map_err(err("load")))
    });
    let stored = stored?;
    let (base, stored_base) = tracer.span("kernel.stored_base", || {
        run_trace_stored(&stored, &base_cfg)
    });
    base.map_err(err("stored baseline"))?;
    let (tse, stored_tse) = tracer.span("engine.stored_tse", || run_trace_stored(&stored, &cfg));
    let tse = tse.map_err(err("stored TSE"))?;
    let mut p = Vec::new();
    check(&mut p, fingerprint(&tse) == expect.trace, || {
        "stored TSE replay fingerprint mismatch".to_string()
    });
    out.op("replay.stored", p);
    drop(stored);
    let (mapped, mapped_base) = tracer.span("kernel.mapped_base", || {
        run_trace_mapped(name, open_mapped(tracer, path)?, &base_cfg)
            .map_err(err("mapped baseline"))
    });
    let mapped = mapped?;
    let (par, par_base) = tracer.span("parallel.replay_base_par", || {
        run_trace_mapped_par(
            name,
            open_mapped(tracer, path)?,
            &base_cfg,
            Parallelism::new(threads()),
        )
        .map_err(err("parallel baseline"))
    });
    let mut p = Vec::new();
    check(&mut p, fingerprint(&par?) == fingerprint(&mapped), || {
        "parallel baseline differs from sequential".to_string()
    });
    out.op("replay.base_par", p);

    let speedup = median(&traced.seq) / median(&traced.par);
    out.metric(
        "kernel.stored_base_ns_per_rec",
        ns_per(stored_base, records),
        "ns/rec",
    );
    out.metric(
        "kernel.mapped_base_ns_per_rec",
        ns_per(mapped_base, records),
        "ns/rec",
    );
    out.metric(
        "kernel.decode_exposed_ns_per_rec",
        ns_per(mapped_base - stored_base, records),
        "ns/rec",
    );
    out.metric(
        "engine.tse_ns_per_rec",
        ns_per(stored_tse - stored_base, records),
        "ns/rec",
    );
    out.metric("engine.coverage", tse.coverage(), "ratio");
    out.metric("engine.discard_rate", tse.discard_rate(), "ratio");
    out.metric("parallel.speedup", speedup, "x");
    out.metric("parallel.efficiency", speedup / threads() as f64, "ratio");
    out.metric("parallel.base_speedup", mapped_base / par_base, "x");
    out.metric(
        "timing.ns_per_rec",
        ns_per(median(&traced.timing), records),
        "ns/rec",
    );
    Ok(())
}

/// `sim::runner` / `experiments::grid`: the in-process leg replayed on
/// the pool with every cell a span.
pub(crate) fn pool(
    env: &Env,
    traced: &Round,
    tracer: &Arc<Tracer>,
    out: &mut Outcome,
) -> Result<(), String> {
    let ctx = context(env.sweep_scale, &env.corpus_dir);
    let (cells, _) = tracer.span("corpus.load", || {
        env.jobs
            .iter()
            .map(|job| {
                let wl =
                    workload_by_name(&job.trace.workload, job.trace.scale).expect("suite workload");
                (job.clone(), ctx.trace_for(wl.as_ref(), job.trace.seed))
            })
            .collect::<Vec<(ShardJob, Arc<StoredTrace>)>>()
    });
    let t = Arc::clone(tracer);
    let (cells, wall) = tracer.span("pool.run", || {
        run_parallel(cells, 0, move |(job, trace)| {
            t.span("pool.cell", || {
                run_trace_stored(&trace, &job.config).map(|r| fingerprint(&r))
            })
        })
    });
    let mut p = Vec::new();
    for ((result, _), output) in cells.iter().zip(&traced.outputs) {
        let want = output.as_trace().map(fingerprint);
        check(&mut p, result.as_ref().ok() == want.as_ref(), || {
            "pool cell differs from run_cells".to_string()
        });
    }
    out.op("pool.replica", p);
    let cell_ms: Vec<f64> = cells.iter().map(|(_, s)| s * 1e3).collect();
    out.metric("pool.cell_p50_ms", percentile(&cell_ms, 50.0), "ms");
    out.metric("pool.cell_p90_ms", percentile(&cell_ms, 90.0), "ms");
    out.metric(
        "pool.busy_frac",
        cell_ms.iter().sum::<f64>() / 1e3 / (wall * threads() as f64),
        "ratio",
    );
    out.metric("grid.run_cells_s", traced.inproc, "s");
    Ok(())
}

/// `sim::shard` (plan, pin, merge of bundles rebuilt from the in-process
/// outputs, so merge is timed without re-simulating) and
/// `Corpus::verify_entry` over every trace the plan references — what
/// each shard pays before replaying. Returns the pinned plan.
pub(crate) fn shard(
    env: &Env,
    seed: u64,
    corpus: &Corpus,
    traced: &Round,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<ShardPlan, String> {
    let names: Vec<&str> = env.jobs.iter().map(|j| j.trace.workload.as_str()).collect();
    let (plan, plan_s) = tracer.span("shard.plan", || -> Result<ShardPlan, String> {
        let jobs = sweep_jobs(&names, env.sweep_scale, seed, &env.corpus_dir);
        let mut plan = ShardPlan::split(jobs, threads() as u32).map_err(err("split"))?;
        plan.pin_digests(corpus).map_err(err("pin"))?;
        Ok(plan)
    });
    let plan = plan?;
    let bundles: Vec<ShardResult> = (0..plan.shards)
        .map(|s| ShardResult {
            version: shard::SHARD_FORMAT_VERSION,
            figure: plan.figure.clone(),
            shards: plan.shards,
            shard: s,
            cells: plan
                .jobs_for(s)
                .into_iter()
                .map(|j| ShardCell {
                    cell: j.cell,
                    output: traced.outputs[j.cell as usize].clone(),
                })
                .collect(),
        })
        .collect();
    let (merged, merge_s) = tracer.span("shard.merge", || shard::merge(&plan, &bundles));
    let merged = merged.map(|m| serde_json::to_string_pretty(&m).expect("grids serialize"));
    let mut p = Vec::new();
    check(&mut p, merged.as_ref().ok() == Some(&traced.grid), || {
        "merged bundles differ from the grid".to_string()
    });
    out.op("shard.merge", p);

    let mut verify_s = 0.0;
    let mut digests: Vec<&str> = plan
        .jobs
        .iter()
        .filter_map(|j| j.trace.digest.as_deref())
        .collect();
    digests.sort_unstable();
    digests.dedup();
    for digest in digests {
        let entry = corpus
            .entries()
            .iter()
            .find(|e| e.digest == digest)
            .ok_or("pinned digest missing from corpus")?;
        let (ok, s) = tracer.span("corpus.verify", || corpus.verify_entry(entry));
        verify_s += s;
        out.op("corpus.verify", ok.err().into_iter().collect());
    }
    out.metric("shard.plan_ms", plan_s * 1e3, "ms");
    out.metric("shard.merge_ms", merge_s * 1e3, "ms");
    out.metric("corpus.verify_ms", verify_s * 1e3, "ms");
    Ok(plan)
}

/// `sweepd::cache`: a probe cache filled with the pinned plan's cells
/// (miss lookup, then insert), saved, then probed again (hits).
pub(crate) fn cache(
    env: &Env,
    plan: &ShardPlan,
    traced: &Round,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut cache = ResultCache::open(env.dir.join("cache-probe")).map_err(err("probe cache"))?;
    let (mut miss_us, mut insert_ms, mut hit_us) = (Vec::new(), Vec::new(), Vec::new());
    for (job, output) in plan.jobs.iter().zip(&traced.outputs) {
        let (hit, s) = tracer.span("cache.lookup_miss", || cache.lookup(job));
        miss_us.push(s * 1e6);
        let mut p = Vec::new();
        check(&mut p, hit.is_none(), || {
            "lookup hit in an empty cache".to_string()
        });
        let (inserted, s) = tracer.span("cache.insert", || cache.insert(job, output));
        insert_ms.push(s * 1e3);
        check(&mut p, inserted.is_ok(), || "insert failed".to_string());
        out.op("cache.fill", p);
    }
    let (saved, save_s) = tracer.span("cache.save", || cache.save());
    saved.map_err(err("cache save"))?;
    for (job, output) in plan.jobs.iter().zip(&traced.outputs) {
        let (hit, s) = tracer.span("cache.lookup_hit", || cache.lookup(job));
        hit_us.push(s * 1e6);
        let mut p = Vec::new();
        check(&mut p, hit.as_ref() == Some(output), || {
            "cached output differs".to_string()
        });
        out.op("cache.hit", p);
    }
    let n = plan.jobs.len() as u64;
    let counters = cache.stats();
    let mut p = Vec::new();
    check(
        &mut p,
        counters.hits == n && counters.misses == n && counters.inserts == n,
        || format!("cache counters {counters:?} do not match {n} probes each way"),
    );
    out.op("cache.counters", p);
    out.metric("cache.lookup_hit_us_p50", percentile(&hit_us, 50.0), "us");
    out.metric("cache.lookup_hit_us_p90", percentile(&hit_us, 90.0), "us");
    out.metric("cache.lookup_miss_us_p50", percentile(&miss_us, 50.0), "us");
    out.metric("cache.insert_ms_p50", percentile(&insert_ms, 50.0), "ms");
    out.metric("cache.insert_ms_p90", percentile(&insert_ms, 90.0), "ms");
    out.metric("cache.save_ms", save_s * 1e3, "ms");
    Ok(())
}

/// `sweepd::journal`: fsync'd appends of one round's cell list, as the
/// service journals rounds.
pub(crate) fn journal(env: &Env, tracer: &Tracer, out: &mut Outcome) -> Result<(), String> {
    let dir = env.dir.join("journal-probe");
    fs::create_dir_all(&dir).map_err(err("journal dir"))?;
    let journal = Journal::open(&dir).map_err(err("journal"))?;
    journal.reset().map_err(err("journal reset"))?;
    let cells: Vec<u64> = (0..env.jobs.len() as u64).collect();
    let mut append_ms = Vec::new();
    for id in 0..16 {
        let record = JournalRecord::cells(id, cells.clone());
        let (ok, s) = tracer.span("journal.append", || journal.append(&record));
        append_ms.push(s * 1e3);
        out.op(
            "journal.append",
            ok.err().map(|e| e.to_string()).into_iter().collect(),
        );
    }
    out.metric("journal.append_ms_p50", percentile(&append_ms, 50.0), "ms");
    Ok(())
}

/// Wraps the production runner so each shard's `execute_shard` is a
/// span.
struct TracingRunner {
    inner: CorpusRunner,
    tracer: Arc<Tracer>,
}

impl ShardRunner for TracingRunner {
    fn run_shard(&self, plan: &ShardPlan, shard: u32) -> Result<ShardResult, shard::ShardError> {
        self.tracer
            .span("shard.execute", || self.inner.run_shard(plan, shard))
            .0
    }

    fn pin_digests(&self, plan: &mut ShardPlan) -> Result<(), shard::ShardError> {
        self.inner.pin_digests(plan)
    }

    fn corpus_digests(&self) -> Option<Vec<String>> {
        self.inner.corpus_digests()
    }
}

/// `sweepd::service`: the daemon's scheduler in-process over the same
/// corpus, cold then warm, with `execute_shard` wrapped.
pub(crate) fn service(
    env: &Env,
    corpus: &Corpus,
    traced: &Round,
    tracer: &Arc<Tracer>,
    out: &mut Outcome,
) -> Result<(), String> {
    let dir = env.dir.join("svc-cache");
    fs::create_dir_all(&dir).map_err(err("service dir"))?;
    let journal = Journal::open(&dir).map_err(err("service journal"))?;
    journal.reset().map_err(err("service journal reset"))?;
    let runner = TracingRunner {
        inner: CorpusRunner::new(corpus.clone()),
        tracer: Arc::clone(tracer),
    };
    let service = SweepService::new(
        Arc::new(runner),
        ResultCache::open(&dir).map_err(err("service cache"))?,
        ServiceConfig {
            workers: threads() as u32,
            ..ServiceConfig::default()
        },
    )
    .with_journal(journal);
    let plan = ShardPlan::split(env.jobs.clone(), 1).map_err(err("plan"))?;
    let mut legs = Vec::new();
    for leg in ["service.cold_run", "service.warm_run"] {
        let (status, secs) = tracer.span(leg, || {
            let id = service.submit(plan.clone()).map_err(err("submit"))?;
            service.run(id).ok_or("job vanished".to_string())
        });
        let status = status?;
        let grid = service
            .result(status.id)
            .map(|g| serde_json::to_string_pretty(&g).expect("grids serialize"));
        let mut p = Vec::new();
        check(&mut p, grid.as_ref() == Some(&traced.grid), || {
            format!("{leg} grid differs")
        });
        out.op(leg, p);
        legs.push((status, secs));
    }
    let n = env.jobs.len() as u64;
    let ((cold, cold_s), (warm, warm_s)) = (&legs[0], &legs[1]);
    let mut p = Vec::new();
    check(
        &mut p,
        cold.cached + cold.simulated == n && warm.cached + warm.simulated == n,
        || "cached + simulated != cells".to_string(),
    );
    check(&mut p, cold.cached == 0 && warm.simulated == 0, || {
        "cold leg hit or warm leg simulated".to_string()
    });
    out.op("service.counters", p);
    out.metric(
        "shard.execute_s",
        spans::total(&tracer.spans(), "shard.execute"),
        "s",
    );
    out.metric(
        "cache.miss_ratio_cold",
        (n - cold.cached) as f64 / n as f64,
        "ratio",
    );
    out.metric(
        "cache.hit_ratio_warm",
        warm.cached as f64 / n as f64,
        "ratio",
    );
    out.metric("service.cold_run_s", *cold_s, "s");
    out.metric("service.warm_run_s", *warm_s, "s");
    out.metric("service.cached", warm.cached as f64, "count");
    out.metric("service.simulated", cold.simulated as f64, "count");
    out.metric("service.rounds", f64::from(cold.rounds), "count");
    Ok(())
}

/// `sweepd::net`: idle round trips to the real daemon, and what the
/// traced round's warm submits cost and carried.
pub(crate) fn net(
    env: &Env,
    traced: &Round,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut idle = Vec::new();
    for _ in 0..30 {
        let (rtt, _) = tracer.span("net.ping_idle", || ping(env.daemon.endpoint()));
        idle.push(rtt.map_err(err("ping"))? * 1e3);
        std::thread::sleep(PING_THINK);
    }
    out.metric("net.ping_idle_p50_ms", percentile(&idle, 50.0), "ms");
    out.metric("net.submit_warm_ms", median(&traced.warm) * 1e3, "ms");
    out.metric("net.result_bytes", traced.grid.len() as f64, "B");
    Ok(())
}
