//! `engine_net` — the TCP serving front-end.
//!
//! Boots a shared [`Engine`], binds a listener and
//! serves JSON-lines sessions until it drains: on SIGTERM/SIGINT or the
//! wire `{"cmd":"shutdown"}` command it stops accepting, refuses late
//! connections with a structured reason, finishes every accepted job,
//! flushes every session and exits 0.
//!
//! Configuration is by environment (the binary takes no arguments):
//!
//! | variable                    | default       | meaning                             |
//! |-----------------------------|---------------|-------------------------------------|
//! | `DRHW_NET_ADDR`             | `127.0.0.1:0` | bind address (port 0 = pick free)   |
//! | `DRHW_NET_THREADS`          | auto          | engine worker threads               |
//! | `DRHW_NET_MAX_CONNECTIONS`  | 4096          | simultaneous sessions               |
//! | `DRHW_NET_PER_CLIENT_QUOTA` | 8             | in-flight jobs per session          |
//! | `DRHW_NET_MAX_PENDING_JOBS` | 2048          | in-flight jobs server-wide          |
//! | `DRHW_NET_MAX_LINE_BYTES`   | 1048576       | longest accepted request line       |
//!
//! Stdout carries exactly two JSON lines: `{"type":"listening","addr":…}`
//! once the port is bound (how harnesses discover a port-0 bind) and
//! `{"type":"stats",…}` after the drain completes.

use std::io::Write;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use drhw_engine::json::JsonValue;
use drhw_engine::Engine;
use drhw_net::{Server, ServerConfig, ServerStats};

static SIGNALLED: AtomicBool = AtomicBool::new(false);

/// How often the main thread looks at the flag the signal handler sets (a
/// handler can do nothing else safely) and at a wire-initiated drain.
const SIGNAL_POLL: Duration = Duration::from_millis(20);

#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" fn on_signal(_signum: i32) {
        SIGNALLED.store(true, Ordering::SeqCst);
    }
    // std already links libc; declaring `signal` directly avoids a
    // dependency the offline container cannot fetch. 2 = SIGINT, 15 = SIGTERM.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    // SAFETY: `signal` is declared with its C signature, and the handler
    // only stores an atomic, which is async-signal-safe.
    unsafe {
        signal(2, on_signal as *const () as usize);
        signal(15, on_signal as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn env_usize(name: &str, default: usize) -> Result<usize, String> {
    match std::env::var(name) {
        Err(_) => Ok(default),
        Ok(raw) => raw
            .parse()
            .map_err(|_| format!("{name}: expected an unsigned integer, got {raw:?}")),
    }
}

fn config_from_env() -> Result<(ServerConfig, usize), String> {
    let defaults = ServerConfig::default();
    let config = ServerConfig {
        addr: std::env::var("DRHW_NET_ADDR").unwrap_or(defaults.addr),
        max_connections: env_usize("DRHW_NET_MAX_CONNECTIONS", defaults.max_connections)?,
        per_client_quota: env_usize("DRHW_NET_PER_CLIENT_QUOTA", defaults.per_client_quota)?,
        max_pending_jobs: env_usize("DRHW_NET_MAX_PENDING_JOBS", defaults.max_pending_jobs)?,
        max_line_bytes: env_usize("DRHW_NET_MAX_LINE_BYTES", defaults.max_line_bytes)?,
        ..defaults
    };
    config.validate()?;
    let threads = env_usize("DRHW_NET_THREADS", 0)?;
    Ok((config, threads))
}

fn status_line(kind: &str, entries: Vec<(String, JsonValue)>) -> String {
    let mut object = vec![("type".to_string(), JsonValue::String(kind.to_string()))];
    object.extend(entries);
    JsonValue::Object(object).to_json()
}

fn stats_entries(stats: &ServerStats) -> Vec<(String, JsonValue)> {
    vec![
        (
            "connections_served".to_string(),
            JsonValue::UInt(stats.connections_served),
        ),
        (
            "connections_refused".to_string(),
            JsonValue::UInt(stats.connections_refused),
        ),
        (
            "jobs_completed".to_string(),
            JsonValue::UInt(stats.jobs_completed),
        ),
        (
            "jobs_failed".to_string(),
            JsonValue::UInt(stats.jobs_failed),
        ),
        (
            "jobs_rejected".to_string(),
            JsonValue::UInt(stats.jobs_rejected),
        ),
    ]
}

fn main() -> ExitCode {
    install_signal_handlers();
    let (config, threads) = match config_from_env() {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("engine_net: {message}");
            return ExitCode::from(2);
        }
    };
    let mut builder = Engine::builder();
    if threads > 0 {
        builder = builder.threads(threads);
    }
    let engine = Arc::new(builder.build());
    let server = match Server::start(engine, config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("engine_net: failed to start: {e}");
            return ExitCode::from(2);
        }
    };
    let handle = server.handle();
    {
        let mut stdout = std::io::stdout().lock();
        let line = status_line(
            "listening",
            vec![(
                "addr".to_string(),
                JsonValue::String(server.local_addr().to_string()),
            )],
        );
        if writeln!(stdout, "{line}")
            .and_then(|()| stdout.flush())
            .is_err()
        {
            return ExitCode::from(2);
        }
    }
    loop {
        if SIGNALLED.load(Ordering::SeqCst) {
            handle.shutdown();
            break;
        }
        if handle.is_draining() {
            // Wire-initiated shutdown; fall through to join.
            break;
        }
        thread::sleep(SIGNAL_POLL);
    }
    let stats = server.join();
    println!("{}", status_line("stats", stats_entries(&stats)));
    ExitCode::SUCCESS
}
