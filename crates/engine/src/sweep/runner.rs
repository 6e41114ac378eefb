//! The resumable sweep session: streams an expansion through the engine,
//! appending one result line per completed set.
//!
//! A session owns a directory (`<out>/<experiment>/`) with three files:
//!
//! * **`SWEEP_manifest.json`** — written once, before any result: the
//!   experiment name, set count and the expansion's `spec_hash`. A restart
//!   re-expands the spec and refuses to touch a directory whose manifest
//!   disagrees — resuming "almost the same" sweep silently would corrupt
//!   the result log.
//! * **`results.jsonl`** — one line per completed set, appended strictly in
//!   expansion order and flushed per line. A set that fails becomes a
//!   `sweep_error` line and **counts as completed** (resume must not retry
//!   a deterministically failing set forever). Lines carry no timing and no
//!   cache hit/miss markers, so a killed-and-resumed session's log is
//!   byte-identical to an uninterrupted run's.
//! * **`SWEEP_summary.json`** — written (atomically) only when every set is
//!   done; see [`super::summary`].
//!
//! Resume is a prefix check: because lines are written in expansion order,
//! the completed work is exactly the first `n` valid lines, each of which
//! must name the [`ParamSetId`](super::ParamSetId) the expansion puts at
//! that position. A trailing torn line (the process died mid-write) is
//! truncated away; any earlier corruption is a hard error.

use std::collections::VecDeque;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, Write};
use std::path::{Path, PathBuf};

use crate::engine::Engine;
use crate::error::EngineError;
use crate::json::{parse, JsonValue};
use crate::serve::report_json;
use crate::JobHandle;

use super::experiment::{Expansion, ExperimentSpec, ParamSet};
use super::summary::{render_table, summarize, SetRecord};

/// File name of the session manifest.
pub const MANIFEST_FILE: &str = "SWEEP_manifest.json";
/// File name of the per-set result log.
pub const RESULTS_FILE: &str = "results.jsonl";
/// File name of the end-of-sweep summary.
pub const SUMMARY_FILE: &str = "SWEEP_summary.json";

/// Runner knobs. `Default` runs the whole sweep with a 4-job window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepOptions {
    /// Stop cleanly after this many *newly* completed sets (used by the
    /// kill/resume tests and the `--stop-after` CLI flag). `None` runs to
    /// the end.
    pub stop_after: Option<usize>,
    /// How many jobs to keep submitted ahead of the result writer. The
    /// engine executes them on its worker pool while earlier sets are
    /// being waited on and written out.
    pub window: usize,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            stop_after: None,
            window: 4,
        }
    }
}

/// What one [`run_sweep`] call did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepOutcome {
    /// Total parameter sets in the expansion.
    pub total: usize,
    /// Sets already complete when this run started (resumed work).
    pub resumed: usize,
    /// Sets newly completed by this run.
    pub completed: usize,
    /// `sweep_error` lines across the whole session (resumed + new).
    pub errors: usize,
    /// Whether every set is done (and the summary was written).
    pub finished: bool,
    /// The session directory (`<out>/<experiment>`).
    pub session_dir: PathBuf,
}

fn sweep_err(context: impl Into<String>, reason: impl Into<String>) -> EngineError {
    EngineError::Sweep {
        context: context.into(),
        reason: reason.into(),
    }
}

fn io_err(path: &Path, action: &str, e: std::io::Error) -> EngineError {
    sweep_err(path.display().to_string(), format!("{action}: {e}"))
}

/// Writes `payload` to `path` atomically (temporary file + rename), so a
/// concurrent reader or a crash never observes a torn file.
fn write_atomic(path: &Path, payload: &str) -> Result<(), EngineError> {
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    fs::write(&tmp, payload).map_err(|e| io_err(&tmp, "writing", e))?;
    fs::rename(&tmp, path).map_err(|e| {
        let _ = fs::remove_file(&tmp);
        io_err(path, "renaming into place", e)
    })
}

fn manifest_json(spec: &ExperimentSpec, expansion: &Expansion) -> JsonValue {
    JsonValue::Object(vec![
        (
            "format".to_string(),
            JsonValue::String("drhw-sweep".to_string()),
        ),
        ("version".to_string(), JsonValue::UInt(1)),
        (
            "experiment".to_string(),
            JsonValue::String(spec.experiment.clone()),
        ),
        (
            "sets".to_string(),
            JsonValue::UInt(expansion.sets.len() as u64),
        ),
        (
            "duplicates".to_string(),
            JsonValue::UInt(expansion.duplicates as u64),
        ),
        (
            "spec_hash".to_string(),
            JsonValue::String(format!("{:016x}", expansion.spec_hash)),
        ),
    ])
}

/// Verifies an existing manifest against this run's expansion, or writes a
/// fresh one when the session is new.
fn check_or_write_manifest(
    session_dir: &Path,
    spec: &ExperimentSpec,
    expansion: &Expansion,
) -> Result<(), EngineError> {
    let path = session_dir.join(MANIFEST_FILE);
    let expected = manifest_json(spec, expansion).to_json();
    match fs::read_to_string(&path) {
        Ok(existing) => {
            if existing.trim_end() == expected {
                return Ok(());
            }
            let found_hash = parse(existing.trim_end())
                .ok()
                .and_then(|v| {
                    v.get("spec_hash")
                        .and_then(|h| h.as_str().map(String::from))
                })
                .unwrap_or_else(|| "<unreadable>".to_string());
            Err(sweep_err(
                path.display().to_string(),
                format!(
                    "this directory belongs to a different sweep (manifest spec_hash \
                     {found_hash}, this spec expands to {:016x}); refusing to mix sessions",
                    expansion.spec_hash
                ),
            ))
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            let results = session_dir.join(RESULTS_FILE);
            if results.exists() {
                return Err(sweep_err(
                    results.display().to_string(),
                    "found a result log without a manifest; refusing to resume an \
                     unidentifiable session",
                ));
            }
            write_atomic(&path, &format!("{expected}\n"))
        }
        Err(e) => Err(io_err(&path, "reading", e)),
    }
}

/// Scans an existing result log against the expansion: validates that the
/// complete lines are exactly the expansion prefix, truncates a trailing
/// torn line, and returns (completed set count, error-line count).
fn scan_results(path: &Path, expansion: &Expansion) -> Result<(usize, usize), EngineError> {
    let mut file = match File::options().read(true).write(true).open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((0, 0)),
        Err(e) => return Err(io_err(path, "opening", e)),
    };
    let mut text = String::new();
    file.read_to_string(&mut text)
        .map_err(|e| io_err(path, "reading", e))?;

    // A torn tail (killed mid-write) is the one corruption resume forgives:
    // drop everything after the last newline and rewrite that set.
    let complete_len = text.rfind('\n').map_or(0, |i| i + 1);
    if complete_len < text.len() {
        file.set_len(complete_len as u64)
            .map_err(|e| io_err(path, "truncating torn tail", e))?;
        file.seek(std::io::SeekFrom::End(0))
            .map_err(|e| io_err(path, "seeking", e))?;
        text.truncate(complete_len);
    }

    let mut completed = 0usize;
    let mut errors = 0usize;
    for (number, line) in text.lines().enumerate() {
        let expected = expansion.sets.get(number).ok_or_else(|| {
            sweep_err(
                path.display().to_string(),
                format!(
                    "has {} result lines but the expansion only has {} sets",
                    number + 1,
                    expansion.sets.len()
                ),
            )
        })?;
        let value = parse(line).map_err(|e| {
            sweep_err(
                path.display().to_string(),
                format!("line {} is corrupt ({e}); refusing to resume", number + 1),
            )
        })?;
        let id = value.get("set").and_then(|v| v.as_str()).unwrap_or("");
        if id != expected.id.to_string() {
            return Err(sweep_err(
                path.display().to_string(),
                format!(
                    "line {} records set {id:?} but the expansion puts {} there; \
                     the log and the spec disagree",
                    number + 1,
                    expected.id
                ),
            ));
        }
        if value.get("type").and_then(|v| v.as_str()) == Some("sweep_error") {
            errors += 1;
        }
        completed += 1;
    }
    Ok((completed, errors))
}

/// Renders one completed set as its result line.
fn result_line(
    set: &ParamSet,
    outcome: &Result<Vec<drhw_sim::SimulationReport>, EngineError>,
) -> String {
    let mut entries = Vec::with_capacity(5);
    match outcome {
        Ok(reports) => {
            entries.push((
                "type".to_string(),
                JsonValue::String("sweep_result".to_string()),
            ));
            entries.push(("set".to_string(), JsonValue::String(set.id.to_string())));
            entries.push(("index".to_string(), JsonValue::UInt(set.index as u64)));
            entries.push(("spec".to_string(), set.spec.to_json()));
            entries.push((
                "reports".to_string(),
                JsonValue::Array(reports.iter().map(report_json).collect()),
            ));
        }
        Err(e) => {
            entries.push((
                "type".to_string(),
                JsonValue::String("sweep_error".to_string()),
            ));
            entries.push(("set".to_string(), JsonValue::String(set.id.to_string())));
            entries.push(("index".to_string(), JsonValue::UInt(set.index as u64)));
            entries.push(("spec".to_string(), set.spec.to_json()));
            entries.push(("message".to_string(), JsonValue::String(e.to_string())));
        }
    }
    JsonValue::Object(entries).to_json()
}

/// Runs (or resumes) a sweep session under `out_dir`, writing progress
/// notes to `log` (one short line per completed set plus the final summary
/// table — human-facing, never machine-parsed).
///
/// The session directory is `out_dir/<experiment>`; running the same spec
/// against the same directory again continues where the last run stopped,
/// and is a no-op (beyond re-verifying the log) once the sweep finished.
///
/// # Errors
///
/// [`EngineError::Sweep`] for session-level failures (foreign session
/// directory, corrupt result log, I/O), or whatever expansion rejects.
/// Per-set simulation errors do **not** fail the sweep — they become
/// `sweep_error` result lines.
pub fn run_sweep(
    engine: &Engine,
    spec: &ExperimentSpec,
    out_dir: &Path,
    options: &SweepOptions,
    log: &mut dyn Write,
) -> Result<SweepOutcome, EngineError> {
    let expansion = spec.expand(engine.registry())?;
    let session_dir = out_dir.join(&spec.experiment);
    fs::create_dir_all(&session_dir).map_err(|e| io_err(&session_dir, "creating", e))?;
    check_or_write_manifest(&session_dir, spec, &expansion)?;

    let results_path = session_dir.join(RESULTS_FILE);
    let (resumed, mut errors) = scan_results(&results_path, &expansion)?;
    let total = expansion.sets.len();
    let _ = writeln!(
        log,
        "sweep {}: {total} sets ({} duplicates dropped), {resumed} already complete",
        spec.experiment, expansion.duplicates
    );

    let mut results = OpenOptions::new()
        .create(true)
        .append(true)
        .open(&results_path)
        .map_err(|e| io_err(&results_path, "opening for append", e))?;

    // Window pipelining: keep up to `window` jobs submitted ahead, write
    // strictly in expansion order. The engine's plan cache makes the
    // repeat (workload, tiles, point-selection) keys nearly free.
    let window = options.window.max(1);
    let budget = options.stop_after.unwrap_or(usize::MAX);
    let mut pending: VecDeque<(usize, Result<JobHandle, EngineError>)> = VecDeque::new();
    let mut next_submit = resumed;
    let mut completed = 0usize;
    while completed < budget && (next_submit < total || !pending.is_empty()) {
        while pending.len() < window && next_submit < total {
            // Only submit what this run is allowed to finish.
            if next_submit - resumed >= budget {
                break;
            }
            let mut handle = engine.submit(expansion.sets[next_submit].spec.clone());
            if let Ok(handle) = &mut handle {
                // Nobody reads a set's progress: closing the stream stops
                // the fold from building events.
                drop(handle.progress());
            }
            pending.push_back((next_submit, handle));
            next_submit += 1;
        }
        let Some((index, handle)) = pending.pop_front() else {
            break;
        };
        let set = &expansion.sets[index];
        let outcome = match handle {
            Ok(handle) => handle.wait(),
            Err(e) => Err(e),
        };
        if outcome.is_err() {
            errors += 1;
        }
        let line = result_line(set, &outcome);
        results
            .write_all(line.as_bytes())
            .and_then(|()| results.write_all(b"\n"))
            .and_then(|()| results.flush())
            .map_err(|e| io_err(&results_path, "appending", e))?;
        completed += 1;
        let _ = writeln!(
            log,
            "  [{}/{total}] {} {}",
            index + 1,
            set.id,
            match &outcome {
                Ok(_) => "ok",
                Err(_) => "error",
            }
        );
    }
    drop(results);

    let finished = resumed + completed == total;
    if finished {
        let records = read_records(&results_path, &expansion)?;
        let summary = summarize(&spec.experiment, total, expansion.duplicates, &records);
        write_atomic(
            &session_dir.join(SUMMARY_FILE),
            &format!("{}\n", summary.to_json()),
        )?;
        let _ = write!(log, "{}", render_table(&summary));
    } else {
        let _ = writeln!(
            log,
            "stopped after {completed} new sets; {} remain (re-run to resume)",
            total - resumed - completed
        );
    }
    Ok(SweepOutcome {
        total,
        resumed,
        completed,
        errors,
        finished,
        session_dir,
    })
}

/// Re-reads the full result log into summary records (only called once the
/// log is complete and prefix-validated).
fn read_records(path: &Path, expansion: &Expansion) -> Result<Vec<SetRecord>, EngineError> {
    let text = fs::read_to_string(path).map_err(|e| io_err(path, "reading", e))?;
    let mut records = Vec::with_capacity(expansion.sets.len());
    for (number, line) in text.lines().enumerate() {
        let value = parse(line).map_err(|e| {
            sweep_err(
                path.display().to_string(),
                format!("line {} is corrupt ({e})", number + 1),
            )
        })?;
        records.push(SetRecord::from_json(&value).map_err(|reason| {
            sweep_err(
                path.display().to_string(),
                format!("line {}: {reason}", number + 1),
            )
        })?);
    }
    Ok(records)
}
