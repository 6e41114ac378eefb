//! JSON-lines serving front-end over the job engine.
//!
//! Reads one request JSON object per stdin line and writes
//! result/progress/error JSON lines to stdout (protocol:
//! [`drhw_engine::serve`](mod@drhw_engine::serve)). A session's output is byte-for-byte
//! reproducible, which is how CI diffs it against the two golden
//! transcripts (v1 and v2).
//!
//! Requests come in two envelope versions — the flat v1 form (a
//! [`JobSpec`](drhw_engine::JobSpec) with the `id`/`priority`/`progress`
//! framing fields mixed in, implicit `v:1`) and the versioned v2 form
//! wrapping the same spec — plus the introspection commands
//! `{"cmd":"list_workloads"}` and `{"cmd":"describe_spec"}`:
//!
//! ```text
//! printf '%s\n%s\n' \
//!   '{"workload":"multimedia","tiles":8,"iterations":100}' \
//!   '{"v":2,"id":7,"spec":{"workload":"multimedia","tiles":8,"iterations":100}}' \
//!   | cargo run --release -p drhw-engine --bin engine_serve
//! ```
//!
//! Environment knobs: `DRHW_SIM_THREADS` sizes the worker pool (default:
//! available parallelism); `DRHW_ENGINE_CACHE` sizes the plan cache
//! (default 8, `0` disables caching); `DRHW_PLAN_CACHE_DIR` names a
//! directory for the persistent on-disk plan cache, so design-time search
//! artifacts survive process restarts (unset disables persistence).
//!
//! Exit status: `0` when every request succeeded, `1` when any line failed,
//! `2` on an I/O error.

use std::io::{BufWriter, Write};

use drhw_engine::Engine;

fn main() {
    let cache_capacity = std::env::var("DRHW_ENGINE_CACHE")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(drhw_engine::DEFAULT_CACHE_CAPACITY);
    let mut builder = Engine::builder().cache_capacity(cache_capacity);
    if let Some(dir) = std::env::var_os("DRHW_PLAN_CACHE_DIR").filter(|v| !v.is_empty()) {
        builder = builder.cache_dir(std::path::PathBuf::from(dir));
    }
    let engine = builder.build();

    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut writer = BufWriter::new(stdout.lock());
    let summary = match drhw_engine::serve(&engine, stdin.lock(), &mut writer) {
        Ok(summary) => summary,
        Err(err) => {
            eprintln!("error: serving failed: {err}");
            std::process::exit(2);
        }
    };
    if writer.flush().is_err() {
        std::process::exit(2);
    }
    let stats = engine.cache_stats();
    eprintln!(
        "served {} job(s), {} error(s); plan cache: {} hit(s), {} miss(es), \
         {} restored from disk, {} derived from another tile count",
        summary.completed, summary.failed, stats.hits, stats.misses, stats.disk_hits, stats.derived
    );
    if summary.failed > 0 {
        std::process::exit(1);
    }
}
