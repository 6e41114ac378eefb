//! Sweep orchestrator CLI: run an [`ExperimentSpec`] of thousands of
//! parameter sets through the shared job engine, resumably.
//!
//! ```text
//! sweep <spec.json> --out <dir> [--stop-after N] [--window N] [--expand-only]
//! ```
//!
//! The session directory is `<dir>/<experiment>`; re-running the same spec
//! against the same directory resumes where the previous run stopped (kill
//! it at any point — completed sets are never recomputed). `--expand-only`
//! prints the expansion size and the session `spec_hash` without running
//! anything; `--stop-after N` completes exactly N new sets then exits
//! cleanly (exit code 3, "more work remains").
//!
//! Environment knobs match `engine_serve`: `DRHW_SIM_THREADS`,
//! `DRHW_ENGINE_CACHE`, `DRHW_PLAN_CACHE_DIR`.
//!
//! Exit status: `0` sweep finished (summary written), `1` usage or spec
//! error, `2` session/I-O error, `3` stopped early with sets remaining.
//! Per-set simulation failures do not change the exit status — they are
//! recorded as `sweep_error` result lines and reported by the summary.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use drhw_engine::json::parse;
use drhw_engine::sweep::{run_sweep, SweepOptions};
use drhw_engine::{Engine, ExperimentSpec};

struct Args {
    spec_path: PathBuf,
    out_dir: PathBuf,
    options: SweepOptions,
    expand_only: bool,
}

fn usage() -> ! {
    eprintln!("usage: sweep <spec.json> --out <dir> [--stop-after N] [--window N] [--expand-only]");
    std::process::exit(1);
}

fn parse_args() -> Args {
    let mut spec_path = None;
    let mut out_dir = None;
    let mut options = SweepOptions::default();
    let mut expand_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_dir = Some(PathBuf::from(args.next().unwrap_or_else(|| usage()))),
            "--stop-after" => {
                options.stop_after = args.next().and_then(|v| v.parse().ok()).or_else(|| usage())
            }
            "--window" => {
                options.window = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--expand-only" => expand_only = true,
            "--help" | "-h" => usage(),
            other if spec_path.is_none() && !other.starts_with('-') => {
                spec_path = Some(PathBuf::from(other))
            }
            _ => usage(),
        }
    }
    let Some(spec_path) = spec_path else { usage() };
    let out_dir = match out_dir {
        Some(dir) => dir,
        // `--expand-only` never touches the output directory.
        None if expand_only => PathBuf::new(),
        None => usage(),
    };
    Args {
        spec_path,
        out_dir,
        options,
        expand_only,
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    let text = match std::fs::read_to_string(&args.spec_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: reading {}: {e}", args.spec_path.display());
            return ExitCode::from(2);
        }
    };
    let spec = match parse(&text)
        .map_err(|e| e.to_string())
        .and_then(|value| ExperimentSpec::from_json(&value).map_err(|e| e.to_string()))
    {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("error: {}: {e}", args.spec_path.display());
            return ExitCode::from(1);
        }
    };

    let cache_capacity = std::env::var("DRHW_ENGINE_CACHE")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(drhw_engine::DEFAULT_CACHE_CAPACITY);
    let mut builder = Engine::builder().cache_capacity(cache_capacity);
    if let Some(dir) = std::env::var_os("DRHW_PLAN_CACHE_DIR").filter(|v| !v.is_empty()) {
        builder = builder.cache_dir(PathBuf::from(dir));
    }
    let engine = builder.build();

    if args.expand_only {
        return match spec.expand(engine.registry()) {
            Ok(expansion) => {
                println!(
                    "experiment {}: {} sets ({} duplicates dropped), spec_hash {:016x}",
                    spec.experiment,
                    expansion.sets.len(),
                    expansion.duplicates,
                    expansion.spec_hash
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(1)
            }
        };
    }

    let started = std::time::Instant::now();
    let mut log = std::io::stdout();
    match run_sweep(&engine, &spec, &args.out_dir, &args.options, &mut log) {
        Ok(outcome) => {
            let stats = engine.cache_stats();
            let _ = writeln!(
                log,
                "{} new set(s) in {:.1}s ({} resumed, {} error line(s)); plan cache: \
                 {} hit(s), {} miss(es), {} restored from disk, {} derived from another \
                 tile count",
                outcome.completed,
                started.elapsed().as_secs_f64(),
                outcome.resumed,
                outcome.errors,
                stats.hits,
                stats.misses,
                stats.disk_hits,
                stats.derived
            );
            if outcome.finished {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(3)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
