//! The listener: accepts connections, enforces the connection limit,
//! orchestrates graceful drain, and owns the counters behind
//! [`ServerStats`].

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use drhw_engine::Engine;

use crate::config::ServerConfig;
use crate::session::{self, SESSION_STACK_BYTES};
use crate::wire::{line_bytes, refused_json};

// The whole design hangs on sharing one Engine across session threads.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
};

/// How long the accept loop backs off after a failed `accept` (descriptor
/// exhaustion, an aborted handshake) before it tries again.
const ACCEPT_RETRY: Duration = Duration::from_millis(20);

/// Counters a server accumulates over its lifetime; returned by
/// [`Server::join`] and sampled live by [`Server::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted and served as sessions.
    pub connections_served: u64,
    /// Connections refused (connection limit or drain) with a structured
    /// `rejected` line.
    pub connections_refused: u64,
    /// Jobs that produced a `result` line.
    pub jobs_completed: u64,
    /// Jobs/lines that produced an `error` line (or whose client vanished).
    pub jobs_failed: u64,
    /// Submits refused by admission control with a `rejected` line.
    pub jobs_rejected: u64,
    /// Jobs currently queued or executing — the live backpressure gauge
    /// (always 0 after [`Server::join`]). A job leaves this gauge only
    /// after its terminal line *and* its quota slot release, so observing
    /// 0 means the next submit cannot race a finished job's bookkeeping.
    pub jobs_pending: usize,
}

#[derive(Default)]
pub(crate) struct Stats {
    pub(crate) connections_served: AtomicU64,
    pub(crate) connections_refused: AtomicU64,
    pub(crate) jobs_completed: AtomicU64,
    pub(crate) jobs_failed: AtomicU64,
    pub(crate) jobs_rejected: AtomicU64,
}

/// What the accept loop, the sessions and the handles coordinate through,
/// behind one lock.
#[derive(Default)]
struct ServerState {
    /// Set by the first [`Shared::begin_drain`]; never cleared.
    draining: bool,
    /// The client address of the connection that tells the accept loop the
    /// drain is complete, once it is made.
    wake_up: Option<SocketAddr>,
    /// Jobs pending or executing across all sessions — the backpressure gauge.
    pending: usize,
    /// A handle on each live session's socket, by session number, so the
    /// drain can shut its read half.
    sessions: HashMap<u64, TcpStream>,
    /// The number the next session gets.
    next_session: u64,
}

/// State shared by the accept loop, every session, and every handle.
pub(crate) struct Shared {
    pub(crate) engine: Arc<Engine>,
    pub(crate) config: ServerConfig,
    /// The listener's address, which the drain's wake-up connection dials.
    addr: SocketAddr,
    state: Mutex<ServerState>,
    pub(crate) stats: Stats,
}

impl Shared {
    /// The server state. Poison is ignored: no update can leave it half
    /// done, and [`begin_drain`](Self::begin_drain), which `Server::drop`
    /// calls, must not panic.
    fn state(&self) -> MutexGuard<'_, ServerState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn stats_snapshot(&self) -> ServerStats {
        ServerStats {
            connections_served: self.stats.connections_served.load(Ordering::Relaxed),
            connections_refused: self.stats.connections_refused.load(Ordering::Relaxed),
            jobs_completed: self.stats.jobs_completed.load(Ordering::Relaxed),
            jobs_failed: self.stats.jobs_failed.load(Ordering::Relaxed),
            jobs_rejected: self.stats.jobs_rejected.load(Ordering::Relaxed),
            jobs_pending: self.state().pending,
        }
    }

    /// Whether a drain has begun.
    pub(crate) fn is_draining(&self) -> bool {
        self.state().draining
    }

    /// Flips the server into drain mode (idempotent). Every session's read
    /// half is shut, so a reader blocked in `read` returns at once and
    /// closes its session once its accepted jobs are answered.
    pub(crate) fn begin_drain(&self) {
        let mut state = self.state();
        if state.draining {
            return;
        }
        state.draining = true;
        for session in state.sessions.values() {
            let _ = session.shutdown(Shutdown::Read);
        }
        if state.sessions.is_empty() {
            self.wake_accept_loop(&mut state);
        }
    }

    /// Deregisters a finished session; the last one to close in a drain
    /// wakes the accept loop.
    fn session_finished(&self, key: u64) {
        let mut state = self.state();
        state.sessions.remove(&key);
        if state.draining && state.sessions.is_empty() {
            self.wake_accept_loop(&mut state);
        }
    }

    /// Wakes the accept loop, blocked in `accept`, with one loopback
    /// connection that is neither answered nor counted. The caller holds
    /// the state, so the loop reads the address only once it is recorded.
    fn wake_accept_loop(&self, state: &mut ServerState) {
        let mut target = self.addr;
        if target.ip().is_unspecified() {
            target.set_ip(match target {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        if let Ok(stream) = TcpStream::connect(target) {
            state.wake_up = stream.local_addr().ok();
        }
    }

    /// Claims one unit of the server-wide pending bound, failing when the
    /// bound is already saturated.
    pub(crate) fn try_acquire_pending(&self) -> bool {
        let mut state = self.state();
        if state.pending >= self.config.max_pending_jobs {
            return false;
        }
        state.pending += 1;
        true
    }

    /// Returns one unit of the pending bound after a job's terminal line.
    pub(crate) fn release_pending(&self) {
        self.state().pending -= 1;
    }
}

/// Deregisters its session even if the session thread panics, so drain
/// never waits on a ghost.
struct SessionGuard(Arc<Shared>, u64);

impl Drop for SessionGuard {
    fn drop(&mut self) {
        self.0.session_finished(self.1);
    }
}

/// A cloneable controller for a running [`Server`]: triggers and observes
/// the drain from any thread (the `engine_net` binary's SIGTERM handler
/// path, tests, the wire shutdown command).
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Starts a graceful drain: the listener stops admitting sessions
    /// (late connections get a structured refusal), every accepted job
    /// still receives exactly one terminal line, then the accept loop
    /// exits and [`Server::join`] returns.
    pub fn shutdown(&self) {
        self.shared.begin_drain();
    }

    /// Whether a drain has been initiated (by this handle, another clone,
    /// the wire command, or a signal).
    pub fn is_draining(&self) -> bool {
        self.shared.is_draining()
    }

    /// A live snapshot of the server's counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats_snapshot()
    }
}

/// A running TCP serving tier: one listener, a session per connection, all
/// sessions multiplexed onto one shared [`Engine`].
///
/// Start with [`Server::start`], stop with [`ServerHandle::shutdown`]
/// followed by [`Server::join`]. Dropping a server without joining also
/// initiates a drain (detached), so an early test return cannot leak a
/// listener that accepts forever.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `config.addr` and starts accepting sessions on `engine`.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidInput`] for a config that fails
    /// [`ServerConfig::validate`], otherwise any bind/listen error.
    pub fn start(engine: Arc<Engine>, config: ServerConfig) -> io::Result<Server> {
        config
            .validate()
            .map_err(|message| io::Error::new(io::ErrorKind::InvalidInput, message))?;
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            engine,
            config,
            addr,
            state: Mutex::default(),
            stats: Stats::default(),
        });
        let accept_thread = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("drhw-accept".to_string())
                .spawn(move || accept_loop(&shared, listener))?
        };
        Ok(Server {
            shared,
            addr,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A cloneable controller for this server.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// A live snapshot of the server's counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats_snapshot()
    }

    /// Waits for the drain to complete — every session flushed and closed,
    /// the listener shut — and returns the final counters. Call
    /// [`ServerHandle::shutdown`] first (or send the wire command), or this
    /// blocks until someone does.
    pub fn join(mut self) -> ServerStats {
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
        self.shared.stats_snapshot()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.shared.begin_drain();
        }
    }
}

/// Blocks in `accept` throughout. Once a drain has begun it refuses late
/// connections, and it returns when it is woken while no session is left:
/// the wake-up connection is made just then.
fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    loop {
        let Ok((stream, peer)) = listener.accept() else {
            thread::sleep(ACCEPT_RETRY);
            continue;
        };
        let mut state = shared.state();
        if state.draining {
            let drained = state.sessions.is_empty();
            let wake_up = state.wake_up == Some(peer);
            drop(state);
            if !wake_up {
                refuse(
                    shared,
                    stream,
                    "draining",
                    "server is draining and no longer accepts connections",
                );
            }
            if drained {
                return;
            }
        } else if state.sessions.len() >= shared.config.max_connections {
            drop(state);
            refuse(
                shared,
                stream,
                "connection-limit",
                &format!(
                    "server is at its connection limit ({}); retry shortly",
                    shared.config.max_connections
                ),
            );
        } else if let Ok(handle) = stream.try_clone() {
            let key = state.next_session;
            state.next_session += 1;
            state.sessions.insert(key, handle);
            drop(state);
            shared
                .stats
                .connections_served
                .fetch_add(1, Ordering::Relaxed);
            spawn_session(shared, stream, peer, key);
        } else {
            // No descriptor left for the drain's handle: drop the connection.
            shared
                .stats
                .connections_refused
                .fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn spawn_session(shared: &Arc<Shared>, stream: TcpStream, peer: SocketAddr, key: u64) {
    let session_shared = Arc::clone(shared);
    let spawned = thread::Builder::new()
        .name(format!("drhw-session-{peer}"))
        .stack_size(SESSION_STACK_BYTES)
        .spawn(move || {
            let _guard = SessionGuard(Arc::clone(&session_shared), key);
            let _ = session::serve_connection(&session_shared, stream, peer);
        });
    if spawned.is_err() {
        // Thread exhaustion: undo the admission and drop the connection.
        shared.session_finished(key);
        shared
            .stats
            .connections_refused
            .fetch_add(1, Ordering::Relaxed);
    }
}

/// Writes the structured refusal line and closes the connection.
fn refuse(shared: &Shared, mut stream: TcpStream, reason: &str, message: &str) {
    shared
        .stats
        .connections_refused
        .fetch_add(1, Ordering::Relaxed);
    let _ = stream.write_all(&line_bytes(&refused_json(reason, message)));
    let _ = stream.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::time::{Duration, Instant};

    fn test_engine() -> Arc<Engine> {
        Arc::new(Engine::builder().threads(2).build())
    }

    fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(addr).expect("connect");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        (stream, reader)
    }

    #[test]
    fn serves_a_session_and_drains_cleanly() {
        let server = Server::start(test_engine(), ServerConfig::default()).expect("bind");
        let (mut stream, mut reader) = connect(server.local_addr());
        writeln!(
            stream,
            r#"{{"id":1,"workload":"multimedia","tiles":8,"iterations":10,"policies":["hybrid"]}}"#
        )
        .unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains(r#""type":"result""#), "{line}");
        assert!(line.contains(r#""id":1"#), "{line}");
        drop(stream);
        server.handle().shutdown();
        let stats = server.join();
        assert_eq!(stats.connections_served, 1);
        assert_eq!(stats.jobs_completed, 1);
        assert_eq!(stats.jobs_failed, 0);
    }

    #[test]
    fn priorities_reorder_a_queued_batch() {
        // One engine worker and a held slot would be needed to observe
        // strict ordering; instead assert the transcript invariant: all
        // submitted ids get exactly one terminal line.
        let server = Server::start(test_engine(), ServerConfig::default()).expect("bind");
        let (mut stream, mut reader) = connect(server.local_addr());
        for (id, priority) in [(1, 0), (2, 5), (3, -3)] {
            writeln!(
                stream,
                r#"{{"id":{id},"priority":{priority},"workload":"multimedia","tiles":8,"iterations":5,"policies":["no-prefetch"]}}"#
            )
            .unwrap();
        }
        stream.shutdown(Shutdown::Write).unwrap();
        let mut ids = Vec::new();
        let mut line = String::new();
        while reader.read_line(&mut line).unwrap() > 0 {
            assert!(line.contains(r#""type":"result""#), "{line}");
            for id in 1..=3u64 {
                if line.contains(&format!(r#""id":{id},"#)) {
                    ids.push(id);
                }
            }
            line.clear();
        }
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3]);
        server.handle().shutdown();
        server.join();
    }

    #[test]
    fn refuses_connections_over_the_limit() {
        let config = ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        };
        let server = Server::start(test_engine(), config).expect("bind");
        let (_held, _held_reader) = connect(server.local_addr());
        // The first session occupies the only slot; the second connection
        // must be refused with a structured line.
        let (_stream, mut reader) = connect(server.local_addr());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains(r#""type":"rejected""#), "{line}");
        assert!(line.contains(r#""scope":"connection""#), "{line}");
        assert!(line.contains(r#""reason":"connection-limit""#), "{line}");
        server.handle().shutdown();
        server.join();
    }

    #[test]
    fn the_drain_closes_an_idle_session_at_once() {
        let server = Server::start(test_engine(), ServerConfig::default()).expect("bind");
        let (_stream, mut reader) = connect(server.local_addr());
        // The session is registered before the drain begins.
        while server.stats().connections_served == 0 {
            thread::sleep(Duration::from_millis(1));
        }
        let started = Instant::now();
        server.handle().shutdown();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains(r#""reason":"draining""#), "{line}");
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "{line}");
        let stats = server.join();
        let waited = started.elapsed();
        assert!(waited < Duration::from_secs(1), "drained after {waited:?}");
        // The drain's wake-up connection is neither served nor refused.
        assert_eq!(stats.connections_served, 1);
        assert_eq!(stats.connections_refused, 0);
    }

    #[test]
    fn wire_shutdown_command_drains_the_server() {
        let server = Server::start(test_engine(), ServerConfig::default()).expect("bind");
        let handle = server.handle();
        let (mut stream, mut reader) = connect(server.local_addr());
        writeln!(stream, r#"{{"cmd":"shutdown"}}"#).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains(r#""type":"shutdown""#), "{line}");
        assert!(handle.is_draining());
        let stats = server.join();
        assert_eq!(stats.connections_served, 1);
    }
}
