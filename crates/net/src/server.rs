//! The listener: accepts connections, enforces the connection limit,
//! orchestrates graceful drain, and owns the counters behind
//! [`ServerStats`].

use std::io::{self, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::{self, JoinHandle};

use drhw_engine::Engine;

use crate::config::ServerConfig;
use crate::session;
use crate::wire::refused_json;

// The whole design hangs on sharing one Engine across session threads.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
};

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

pub(crate) struct Stats {
    pub(crate) connections_served: AtomicU64,
    pub(crate) connections_refused: AtomicU64,
    pub(crate) jobs_completed: AtomicU64,
    pub(crate) jobs_failed: AtomicU64,
    pub(crate) jobs_rejected: AtomicU64,
}

impl Shared {
    fn stats_snapshot(&self) -> ServerStats {
        ServerStats {
            connections_served: self.stats.connections_served.load(Ordering::Relaxed),
            connections_refused: self.stats.connections_refused.load(Ordering::Relaxed),
            jobs_completed: self.stats.jobs_completed.load(Ordering::Relaxed),
            jobs_failed: self.stats.jobs_failed.load(Ordering::Relaxed),
            jobs_rejected: self.stats.jobs_rejected.load(Ordering::Relaxed),
            jobs_pending: self.pending.load(Ordering::SeqCst),
        }
    }
}

/// State shared by the accept loop, every session, and every handle.
pub(crate) struct Shared {
    pub(crate) engine: Arc<Engine>,
    pub(crate) config: ServerConfig,
    pub(crate) draining: AtomicBool,
    /// The listener's address, which [`begin_drain`](Self::begin_drain)
    /// connects to.
    addr: SocketAddr,
    /// The client address of the connection that woke the accept loop for
    /// a drain, once it is made. Held while it is being made, so the loop
    /// can tell it from a late client.
    wake_up: Mutex<Option<SocketAddr>>,
    /// Jobs pending or executing across all sessions — the backpressure gauge.
    pending: AtomicUsize,
    active: Mutex<usize>,
    active_cond: Condvar,
    pub(crate) stats: Stats,
}

impl Shared {
    /// Flips the server into drain mode (idempotent). The first call wakes
    /// the accept loop, blocked in `accept`, with one loopback connection
    /// that is neither answered nor counted.
    pub(crate) fn begin_drain(&self) {
        // `Server::drop` calls this, so it must not panic; the address is
        // valid whatever a panicking holder left.
        let mut wake_up = self.wake_up.lock().unwrap_or_else(PoisonError::into_inner);
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        let mut target = self.addr;
        if target.ip().is_unspecified() {
            target.set_ip(match target {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        if let Ok(stream) = TcpStream::connect(target) {
            *wake_up = stream.local_addr().ok();
        }
    }

    /// Whether `peer` is the connection [`begin_drain`](Self::begin_drain)
    /// woke the accept loop with.
    fn is_wake_up(&self, peer: SocketAddr) -> bool {
        *self.wake_up.lock().unwrap_or_else(PoisonError::into_inner) == Some(peer)
    }

    /// Claims one unit of the server-wide pending bound, failing when the
    /// bound is already saturated.
    pub(crate) fn try_acquire_pending(&self) -> bool {
        let max = self.config.max_pending_jobs;
        let mut current = self.pending.load(Ordering::SeqCst);
        loop {
            if current >= max {
                return false;
            }
            match self.pending.compare_exchange(
                current,
                current + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return true,
                Err(observed) => current = observed,
            }
        }
    }

    /// Returns one unit of the pending bound after a job's terminal line.
    pub(crate) fn release_pending(&self) {
        self.pending.fetch_sub(1, Ordering::SeqCst);
    }

    fn session_finished(&self) {
        let mut active = self.active.lock().unwrap();
        *active -= 1;
        drop(active);
        self.active_cond.notify_all();
    }
}

/// Decrements the active-session count even if a session thread panics, so
/// drain never waits on a ghost.
struct ActiveGuard(Arc<Shared>);

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        self.0.session_finished();
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
        self.shared.draining.load(Ordering::SeqCst)
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
            draining: AtomicBool::new(false),
            addr,
            wake_up: Mutex::new(None),
            pending: AtomicUsize::new(0),
            active: Mutex::new(0),
            active_cond: Condvar::new(),
            stats: Stats {
                connections_served: AtomicU64::new(0),
                connections_refused: AtomicU64::new(0),
                jobs_completed: AtomicU64::new(0),
                jobs_failed: AtomicU64::new(0),
                jobs_rejected: AtomicU64::new(0),
            },
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

/// Blocks in `accept` until a drain begins; from then on it polls every
/// `poll_interval`, so it notices the last session closing.
fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    let mut polling = false;
    loop {
        if !polling && shared.draining.load(Ordering::SeqCst) {
            polling = listener.set_nonblocking(true).is_ok();
        }
        match listener.accept() {
            Ok((stream, peer)) => {
                if shared.draining.load(Ordering::SeqCst) {
                    if !shared.is_wake_up(peer) {
                        refuse(
                            shared,
                            stream,
                            "draining",
                            "server is draining and no longer accepts connections",
                        );
                    }
                } else if !try_admit_connection(shared) {
                    refuse(
                        shared,
                        stream,
                        "connection-limit",
                        &format!(
                            "server is at its connection limit ({}); retry shortly",
                            shared.config.max_connections
                        ),
                    );
                } else {
                    shared
                        .stats
                        .connections_served
                        .fetch_add(1, Ordering::Relaxed);
                    spawn_session(shared, stream, peer);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if drained(shared) {
                    return;
                }
                thread::sleep(shared.config.poll_interval);
            }
            Err(_) => {
                // Transient accept errors (ECONNABORTED, EMFILE pressure):
                // back off and keep serving.
                if drained(shared) {
                    return;
                }
                thread::sleep(shared.config.poll_interval);
            }
        }
        if drained(shared) {
            return;
        }
    }
}

/// Drain is complete once it was requested and the last session closed.
fn drained(shared: &Shared) -> bool {
    shared.draining.load(Ordering::SeqCst) && *shared.active.lock().unwrap() == 0
}

fn try_admit_connection(shared: &Shared) -> bool {
    let mut active = shared.active.lock().unwrap();
    if *active >= shared.config.max_connections {
        return false;
    }
    *active += 1;
    true
}

fn spawn_session(shared: &Arc<Shared>, stream: TcpStream, peer: SocketAddr) {
    let session_shared = Arc::clone(shared);
    let spawned = thread::Builder::new()
        .name(format!("drhw-session-{peer}"))
        .stack_size(shared.config.session_stack_bytes)
        .spawn(move || {
            let _guard = ActiveGuard(Arc::clone(&session_shared));
            session::serve_connection(&session_shared, stream, peer);
        });
    if spawned.is_err() {
        // Thread exhaustion: undo the admission and drop the connection.
        shared.session_finished();
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
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(shared.config.poll_interval));
    let line = refused_json(reason, message).to_json();
    let _ = stream.write_all(line.as_bytes());
    let _ = stream.write_all(b"\n");
    let _ = stream.flush();
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
    fn a_client_is_answered_without_waiting_out_the_poll_interval() {
        let config = ServerConfig {
            poll_interval: Duration::from_secs(5),
            ..ServerConfig::default()
        };
        let server = Server::start(test_engine(), config).expect("bind");
        thread::sleep(Duration::from_millis(50));
        let started = Instant::now();
        let (mut stream, mut reader) = connect(server.local_addr());
        writeln!(
            stream,
            r#"{{"id":1,"workload":"multimedia","tiles":8,"iterations":1,"policies":["no-prefetch"]}}"#
        )
        .unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let waited = started.elapsed();
        assert!(line.contains(r#""type":"result""#), "{line}");
        assert!(waited < Duration::from_secs(1), "answered after {waited:?}");
        // Close the session before draining, so the drain need not wait a
        // poll interval for it.
        stream.shutdown(Shutdown::Write).unwrap();
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "{line}");
        server.handle().shutdown();
        let stats = server.join();
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
