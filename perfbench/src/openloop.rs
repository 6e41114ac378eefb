//! The open-loop client: persistent connections, requests written on a
//! fixed schedule whatever the server's pace.
//!
//! Requests are pipelined: the dispatcher writes each line when it falls
//! due, without waiting for earlier answers, so a slow server builds a
//! queue instead of slowing the offered load. A connection is one server
//! session and a session answers in order, so job `j` goes to connection
//! `j % n` and each connection's reader knows how many answers it is owed.
//! Latency is taken from the due instant, not the actual write, so a late
//! dispatcher counts against the result; its lateness is reported as well.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use drhw_engine::json::{parse, JsonValue};

use crate::workload::Job;

/// How long a blocked read waits before its reader checks the deadline.
const READ_POLL: Duration = Duration::from_millis(100);
/// Lead time between starting the readers and the open loop's clock.
const LEAD: Duration = Duration::from_millis(20);

/// Persistent connections to one server.
pub struct Clients {
    streams: Vec<TcpStream>,
}

impl Clients {
    /// Opens `count` connections to `addr` and round-trips the request line
    /// `probe` on each, so every session is accepted and serving before any
    /// clock starts.
    pub fn connect(addr: SocketAddr, count: usize, probe: &str) -> Result<Clients, String> {
        let mut streams = Vec::with_capacity(count);
        for _ in 0..count {
            let mut stream =
                TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            stream
                .set_nodelay(true)
                .map_err(|e| format!("set_nodelay: {e}"))?;
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .map_err(|e| format!("set_read_timeout: {e}"))?;
            stream
                .write_all(probe.as_bytes())
                .map_err(|e| format!("probe: {e}"))?;
            let mut answer = String::new();
            BufReader::new(&stream)
                .read_line(&mut answer)
                .map_err(|e| format!("probe answer: {e}"))?;
            if !answer.contains(r#""type":"result""#) {
                return Err(format!("probe answered {:?}", answer.trim_end()));
            }
            streams.push(stream);
        }
        Ok(Clients { streams })
    }
}

impl Drop for Clients {
    fn drop(&mut self) {
        for stream in &self.streams {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

/// An answer line and the instant it was read.
pub struct Answer {
    pub at: Instant,
    pub line: String,
}

/// What one open loop observed.
pub struct Outcome {
    /// The instant the jobs' `due` offsets count from.
    pub start: Instant,
    /// Each job's answer, by job index; `None` when none came in time.
    pub answers: Vec<Option<Answer>>,
    /// How late the dispatcher wrote each job, in milliseconds.
    pub lateness_ms: Vec<f64>,
}

/// Writes `jobs` on their schedule and collects an answer for each, waiting
/// at most `drain` past the last due instant.
pub fn run(clients: &Clients, jobs: &[Job], drain: Duration) -> Result<Outcome, String> {
    let n = clients.streams.len();
    let clone = |stream: &TcpStream| stream.try_clone().map_err(|e| format!("clone socket: {e}"));
    let mut writers = clients
        .streams
        .iter()
        .map(clone)
        .collect::<Result<Vec<_>, _>>()?;
    let readers = clients
        .streams
        .iter()
        .map(clone)
        .collect::<Result<Vec<_>, _>>()?;
    let start = Instant::now() + LEAD;
    let deadline = start + jobs.last().map_or(Duration::ZERO, |job| job.due) + drain;
    let mut answers: Vec<Option<Answer>> = jobs.iter().map(|_| None).collect();
    let mut lateness_ms = Vec::with_capacity(jobs.len());
    thread::scope(|scope| {
        let handles: Vec<_> = readers
            .into_iter()
            .enumerate()
            .map(|(connection, stream)| {
                let owed = (connection..jobs.len()).step_by(n).count();
                scope.spawn(move || read_answers(stream, owed, deadline))
            })
            .collect();
        let sent = dispatch(&mut writers, jobs, start, &mut lateness_ms);
        if sent.is_err() {
            // Unblock the readers instead of waiting out the deadline.
            for writer in &writers {
                let _ = writer.shutdown(Shutdown::Both);
            }
        }
        for handle in handles {
            for (id, answer) in handle.join().expect("answer readers do not panic") {
                let slot = id
                    .checked_sub(1)
                    .and_then(|index| usize::try_from(index).ok())
                    .and_then(|index| answers.get_mut(index));
                if let Some(slot) = slot {
                    if slot.is_none() {
                        *slot = Some(answer);
                    }
                }
            }
        }
        sent
    })?;
    Ok(Outcome {
        start,
        answers,
        lateness_ms,
    })
}

/// Writes every job to its connection when it falls due.
fn dispatch(
    writers: &mut [TcpStream],
    jobs: &[Job],
    start: Instant,
    lateness_ms: &mut Vec<f64>,
) -> Result<(), String> {
    let n = writers.len();
    for (index, job) in jobs.iter().enumerate() {
        let due = start + job.due;
        let now = Instant::now();
        if due > now {
            thread::sleep(due - now);
        }
        lateness_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        writers[index % n]
            .write_all(job.line.as_bytes())
            .map_err(|e| format!("sending request {}: {e}", index + 1))?;
    }
    Ok(())
}

/// Reads answer lines off one connection until `owed` have arrived, the
/// server closes it, or `deadline` passes; returns them with their ids.
fn read_answers(stream: TcpStream, owed: usize, deadline: Instant) -> Vec<(u64, Answer)> {
    let mut got = Vec::with_capacity(owed);
    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return got;
    }
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    while got.len() < owed && Instant::now() < deadline {
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if line.ends_with('\n') => {
                let at = Instant::now();
                let id = parse(line.trim_end())
                    .ok()
                    .and_then(|value| value.get("id").and_then(JsonValue::as_u64));
                match id {
                    Some(id) => got.push((
                        id,
                        Answer {
                            at,
                            line: std::mem::take(&mut line),
                        },
                    )),
                    None => line.clear(),
                }
            }
            // A timed-out read keeps the bytes it got; the next one appends.
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(_) => break,
        }
    }
    got
}
