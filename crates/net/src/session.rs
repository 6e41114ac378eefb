//! One TCP connection = one session: a reader thread that frames lines and
//! admits jobs, an executor thread that drains the session's priority queue
//! through the shared [`Engine`](drhw_engine::Engine).
//!
//! Transcript ordering contract: error lines and introspection replies
//! travel *through* the queue as items at the default priority, so a
//! session that never sets `priority` gets responses in exact submission
//! order — byte-identical to the stdin/stdout `engine_serve` front-end.
//! Only admission-control `rejected` lines, the shutdown acknowledgement
//! and the drain notice are written immediately by the reader (that
//! immediacy is their point).

use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;

use drhw_engine::json::JsonValue;
use drhw_engine::{classify, respond, Line};

use crate::server::Shared;
use crate::wire::{line_bytes, refused_json, rejected_json, shutdown_ack_json, RejectScope};

/// Stack size of a session's reader and executor threads. Sessions are
/// shallow (parse, submit, render), so thousands of connections stay cheap.
pub(crate) const SESSION_STACK_BYTES: usize = 256 * 1024;

/// Extra queued non-job items tolerated beyond the job quota before the
/// reader stops queueing them and answers inline — bounds memory against a
/// client flooding garbage or commands without reading responses.
const ERROR_QUEUE_SLACK: usize = 32;

struct QueueEntry {
    priority: i64,
    seq: u64,
    line_no: u64,
    /// A job, an introspection reply, an error, or a shutdown command this
    /// server does not honour.
    line: Line,
}

impl PartialEq for QueueEntry {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}

impl Eq for QueueEntry {}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

impl Ord for QueueEntry {
    // Max-heap: highest priority first, submission order (lowest seq) on ties.
    fn cmp(&self, other: &Self) -> CmpOrdering {
        self.priority
            .cmp(&other.priority)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

#[derive(Default)]
struct QueueState {
    heap: BinaryHeap<QueueEntry>,
    /// Jobs in the heap (excludes queued non-job items).
    jobs_queued: usize,
    /// Jobs popped but not yet terminally answered.
    executing: usize,
    reader_done: bool,
}

#[derive(Default)]
struct SessionQueue {
    state: Mutex<QueueState>,
    cond: Condvar,
}

impl SessionQueue {
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state
            .lock()
            .expect("session queue lock is never poisoned")
    }
}

/// Serves one accepted connection to completion. Runs on the per-session
/// thread; spawns the session's executor thread internally. The caller
/// deregisters the session when this returns.
pub(crate) fn serve_connection(
    shared: &Arc<Shared>,
    stream: TcpStream,
    peer: SocketAddr,
) -> io::Result<()> {
    let reader = stream.try_clone()?;
    let writer = Arc::new(Mutex::new(stream));
    let queue = Arc::new(SessionQueue::default());

    let executor = {
        let shared = Arc::clone(shared);
        let queue = Arc::clone(&queue);
        let writer = Arc::clone(&writer);
        thread::Builder::new()
            .name(format!("drhw-exec-{peer}"))
            .stack_size(SESSION_STACK_BYTES)
            .spawn(move || executor_loop(&shared, &queue, &writer))?
    };

    let outcome = reader_loop(shared, reader, &writer, &queue, &peer.to_string());
    {
        let mut state = queue.lock();
        state.reader_done = true;
        queue.cond.notify_all();
    }
    // Accepted jobs finish and get their terminal lines before the socket
    // closes — the drain contract.
    let _ = executor.join();
    if let Ok(guard) = writer.lock() {
        let _ = guard.shutdown(Shutdown::Both);
    }
    outcome
}

/// Writes one complete response line with one `write_all` under the
/// session's writer lock, so lines never interleave and the newline never
/// waits in a TCP segment of its own.
fn write_line(writer: &Mutex<TcpStream>, value: &JsonValue) -> io::Result<()> {
    let line = line_bytes(value);
    writer
        .lock()
        .expect("session writer lock is never poisoned")
        .write_all(&line)
}

/// Answers one line on the session's socket — exactly as the stdin
/// front-end would — and counts it.
fn answer(shared: &Shared, writer: &Mutex<TcpStream>, line: Line, line_no: u64) -> io::Result<()> {
    let answered = respond(&shared.engine, line, line_no, |value| {
        write_line(writer, value)
    });
    let counter = match answered {
        Ok(true) => &shared.stats.jobs_completed,
        _ => &shared.stats.jobs_failed,
    };
    counter.fetch_add(1, Ordering::Relaxed);
    answered.map(drop)
}

fn executor_loop(shared: &Shared, queue: &SessionQueue, writer: &Mutex<TcpStream>) {
    // Once a write fails the client is gone: remaining queued items are
    // drained without touching the engine so their admission permits free up.
    let mut dead = false;
    loop {
        let entry = {
            let mut state = queue.lock();
            loop {
                if let Some(entry) = state.heap.pop() {
                    if matches!(entry.line, Line::Job(_)) {
                        state.jobs_queued -= 1;
                        state.executing += 1;
                    }
                    break Some(entry);
                }
                if state.reader_done {
                    break None;
                }
                state = queue
                    .cond
                    .wait(state)
                    .expect("session queue lock is never poisoned");
            }
        };
        let Some(entry) = entry else { break };
        let is_job = matches!(entry.line, Line::Job(_));
        if dead {
            shared.stats.jobs_failed.fetch_add(1, Ordering::Relaxed);
        } else if answer(shared, writer, entry.line, entry.line_no).is_err() {
            dead = true;
        }
        if is_job {
            queue.lock().executing -= 1;
            shared.release_pending();
        }
    }
}

fn reader_loop(
    shared: &Shared,
    mut stream: TcpStream,
    writer: &Mutex<TcpStream>,
    queue: &SessionQueue,
    peer: &str,
) -> io::Result<()> {
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 8192];
    let mut line_no: u64 = 0;
    let mut seq: u64 = 0;
    loop {
        if shared.is_draining() {
            // Stop taking input; in-flight jobs still get their terminal
            // lines before the connection closes.
            let _ = write_line(
                writer,
                &refused_json(
                    "draining",
                    "server is draining; closing after in-flight jobs complete",
                ),
            );
            return Ok(());
        }
        let read = match stream.read(&mut chunk) {
            // The drain shuts every session's read half, so a blocked read
            // returns here; the check above closes the session.
            Ok(0) if shared.is_draining() => continue,
            Ok(0) => {
                // EOF: a trailing unterminated line still counts, matching
                // the stdin front-end's `lines()` behaviour.
                if !buf.is_empty() {
                    let line = String::from_utf8_lossy(&buf).into_owned();
                    line_no += 1;
                    let _ = process_line(shared, writer, queue, peer, &line, line_no, &mut seq);
                }
                return Ok(());
            }
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        buf.extend_from_slice(&chunk[..read]);
        while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&buf[..pos]).into_owned();
            buf.drain(..=pos);
            line_no += 1;
            if line.len() > shared.config.max_line_bytes {
                return queue_oversized_error(shared, writer, queue, &mut seq, line_no);
            }
            process_line(shared, writer, queue, peer, &line, line_no, &mut seq)?;
        }
        if buf.len() > shared.config.max_line_bytes {
            // Mid-line overflow: the session cannot resynchronise, so the
            // error closes the connection (after queued jobs finish).
            line_no += 1;
            return queue_oversized_error(shared, writer, queue, &mut seq, line_no);
        }
    }
}

fn queue_oversized_error(
    shared: &Shared,
    writer: &Mutex<TcpStream>,
    queue: &SessionQueue,
    seq: &mut u64,
    line_no: u64,
) -> io::Result<()> {
    let message = format!(
        "request line exceeds max_line_bytes ({}); closing connection",
        shared.config.max_line_bytes
    );
    let line = Line::Error { id: None, message };
    queue_item(shared, writer, queue, line, line_no, seq)
}

fn next_seq(seq: &mut u64) -> u64 {
    let value = *seq;
    *seq += 1;
    value
}

fn process_line(
    shared: &Shared,
    writer: &Mutex<TcpStream>,
    queue: &SessionQueue,
    peer: &str,
    line: &str,
    line_no: u64,
    seq: &mut u64,
) -> io::Result<()> {
    let request = match classify(&shared.engine, line) {
        None => return Ok(()),
        Some(Line::Job(request)) => request,
        Some(Line::Shutdown) if shared.config.allow_shutdown_command => {
            // The next reader iteration observes the drain and closes.
            shared.begin_drain();
            return write_line(writer, &shutdown_ack_json());
        }
        Some(other) => return queue_item(shared, writer, queue, other, line_no, seq),
    };

    // Admission control: per-client quota first, then the server-wide bound.
    // The session's queue lock is held across both, so it is taken before
    // the server's, never after.
    let quota = shared.config.per_client_quota;
    let mut state = queue.lock();
    let refusal = if state.jobs_queued + state.executing >= quota {
        Some((RejectScope::Client, quota))
    } else if !shared.try_acquire_pending() {
        Some((RejectScope::Server, shared.config.max_pending_jobs))
    } else {
        None
    };
    if let Some((scope, limit)) = refusal {
        drop(state);
        shared.stats.jobs_rejected.fetch_add(1, Ordering::Relaxed);
        let id = request.id.as_ref();
        return write_line(writer, &rejected_json(scope, id, line_no, peer, limit));
    }
    state.jobs_queued += 1;
    state.heap.push(QueueEntry {
        priority: request.priority,
        seq: next_seq(seq),
        line_no,
        line: Line::Job(request),
    });
    drop(state);
    queue.cond.notify_all();
    Ok(())
}

/// Queues a non-job line (reply, error, refused shutdown) at the default
/// priority, so an all-default session is answered in submission order.
fn queue_item(
    shared: &Shared,
    writer: &Mutex<TcpStream>,
    queue: &SessionQueue,
    line: Line,
    line_no: u64,
    seq: &mut u64,
) -> io::Result<()> {
    let mut state = queue.lock();
    if state.heap.len() >= shared.config.per_client_quota + ERROR_QUEUE_SLACK {
        // A flood past the queue bound is answered inline (order be
        // damned) so queue memory stays bounded.
        drop(state);
        return answer(shared, writer, line, line_no);
    }
    state.heap.push(QueueEntry {
        priority: 0,
        seq: next_seq(seq),
        line_no,
        line,
    });
    drop(state);
    queue.cond.notify_all();
    Ok(())
}
