//! `tsebench` — runs one benchmark workload and prints its metrics.
//!
//! ```text
//! tsebench --workload <name> --sweepd <bin> [--seed 42] [--seconds 10] [--trace 0|1]
//!          [--work .bench_work]
//!          [--expected tsebench/expected.json] [--bless <seed,seed,...>]
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end metrics, or per-layer ones with
//! `--trace 1`). `--bless` instead prints the expected-fingerprint
//! entries for the listed seeds. Exit code 1 on any set-up failure or
//! usage error; a run whose outputs are wrong still exits 0 and reports
//! `"correct": false`.

use std::path::PathBuf;
use std::process::ExitCode;
use tsebench::{bench, Options};

fn opt<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match opt(args, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value for {name}: {v}")),
    }
}

fn options(args: &[String]) -> Result<Options, String> {
    let workload = opt(args, "--workload")
        .ok_or("needs --workload")?
        .to_string();
    let sweepd = PathBuf::from(opt(args, "--sweepd").ok_or("needs --sweepd <path to sweepd>")?);
    let work = PathBuf::from(opt(args, "--work").unwrap_or(".bench_work"));
    let seconds: f64 = parse(args, "--seconds", 10.0)?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Options {
        seed: parse(args, "--seed", 42)?,
        seconds,
        trace: parse::<u8>(args, "--trace", 0)? != 0,
        sweepd,
        spans_out: work.join("traces"),
        work: work.join(format!("{workload}-{}", std::process::id())),
        workload,
        scale: 1.0,
        expected: opt(args, "--expected").map(PathBuf::from),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match options(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("tsebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(seeds) = opt(&args, "--bless") {
        let seeds: Result<Vec<u64>, _> = seeds.split(',').map(str::parse).collect();
        let result = seeds
            .map_err(|e| format!("bad --bless list: {e}"))
            .and_then(|s| bench::bless(&opts, &s));
        let _ = std::fs::remove_dir_all(&opts.work);
        return match result {
            Ok(v) => {
                println!("{v}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("tsebench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let result = tsebench::run(&opts);
    let _ = std::fs::remove_dir_all(&opts.work);
    match result {
        Ok(out) => {
            for line in &out.notes {
                println!("{line}");
            }
            for p in &out.problems {
                println!("FAILED {p}");
            }
            println!("{}", out.json_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("tsebench: {e}");
            ExitCode::FAILURE
        }
    }
}
