//! CLI front end for the sweep orchestrator.
//!
//! ```text
//! cargo run --release -p th-sweep --bin sweep -- <preset> [options]
//!
//!   <preset>            fig8 | fig9 | fig10 | dtm | dtm-smoke | selftest
//!   --dir <path>        run directory (default: sweeps/<preset>)
//!   --budget <insts>    per-core instruction budget, at least 1 (default: 60000)
//!   --rows <n>          fig10 thermal grid resolution, at least 1 (default: 16)
//!   --attempts <n>      attempts per shard before degrading (default: 3)
//!   --timeout-s <secs>  per-attempt wall-clock limit, finite and positive (default: none)
//!   --quiet             suppress per-shard progress on stderr
//! ```
//!
//! Rerunning with the same directory resumes: shards already
//! checkpointed as done are loaded, everything else (including shards
//! previously recorded degraded) is recomputed. `TH_SWEEP_FAULT` injects
//! failures (see the th-sweep crate docs), `TH_THREADS` sets the lane
//! count.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use th_sweep::{presets, run_sweep, ShardStatus, SweepOptions};

fn usage() -> ExitCode {
    eprintln!(
        "usage: sweep <preset> [--dir <path>] [--budget <insts>] [--rows <n>] \
         [--attempts <n>] [--timeout-s <secs>] [--quiet]\n       presets: {}",
        presets::names().join(", ")
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut preset = None;
    let mut dir = None;
    let mut budget = presets::DEFAULT_BUDGET;
    let mut rows = presets::DEFAULT_ROWS;
    let mut opts = SweepOptions::from_env();
    opts.verbose = true;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next().map(String::as_str).ok_or_else(|| eprintln!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--dir" => match value("--dir") {
                Ok(v) => dir = Some(PathBuf::from(v)),
                Err(()) => return usage(),
            },
            "--budget" => match value("--budget").map(str::parse) {
                Ok(Ok(v)) if v >= 1 => budget = v,
                _ => return usage(),
            },
            "--rows" => match value("--rows").map(str::parse) {
                Ok(Ok(v)) if v >= 1 => rows = v,
                _ => return usage(),
            },
            "--attempts" => match value("--attempts").map(str::parse) {
                Ok(Ok(v)) if v >= 1 => opts.max_attempts = v,
                _ => return usage(),
            },
            "--timeout-s" => match value("--timeout-s").map(str::parse::<f64>) {
                // A finite, positive limit that a `Duration` holds and
                // that does not round down to zero.
                Ok(Ok(v)) if v.is_finite() => match Duration::try_from_secs_f64(v) {
                    Ok(limit) if !limit.is_zero() => opts.timeout = Some(limit),
                    _ => return usage(),
                },
                _ => return usage(),
            },
            "--quiet" => opts.verbose = false,
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            name if preset.is_none() && !name.starts_with('-') => {
                preset = Some(name.to_string());
            }
            other => {
                eprintln!("unknown argument {other:?}");
                return usage();
            }
        }
    }

    let Some(preset) = preset else {
        return usage();
    };
    let Some(spec) = presets::by_name(&preset, budget, rows) else {
        eprintln!("unknown preset {preset:?}");
        return usage();
    };
    let dir = dir.unwrap_or_else(|| PathBuf::from("sweeps").join(&preset));

    let pool = th_exec::Pool::new(th_exec::threads_from_env().max(1));
    let outcome = match run_sweep(&spec, &dir, &opts, &pool) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("sweep failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "sweep {}: {} shard(s) — {} done, {} degraded ({} resumed, {} computed)",
        outcome.sweep,
        outcome.records.len(),
        outcome.done(),
        outcome.degraded(),
        outcome.resumed,
        outcome.executed,
    );
    for r in &outcome.records {
        let metrics: Vec<String> =
            r.metrics.iter().map(|(k, v)| format!("{k}={v:.4}")).collect();
        match r.status {
            ShardStatus::Done => {
                println!("  {:<28} {}", r.id, metrics.join(" "));
            }
            ShardStatus::Degraded => {
                println!(
                    "  {:<28} DEGRADED after {} attempt(s): {}",
                    r.id,
                    r.attempts,
                    r.error.as_deref().unwrap_or("unknown error")
                );
            }
        }
    }
    println!("run directory: {}", outcome.dir.display());
    ExitCode::SUCCESS
}
