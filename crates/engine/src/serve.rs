//! The JSON-lines serving protocol: the first serving-shaped scenario of the
//! roadmap.
//!
//! One request per input line, one or more response lines per request, all
//! compact JSON objects:
//!
//! * **Request** — a [`JobSpec`] object plus the envelope fields: `id` (any
//!   JSON value, echoed back verbatim), `progress` (boolean; `true` streams
//!   per-chunk progress lines before the result) and `priority` (integer,
//!   default 0; the stdin/stdout front-end validates it and runs strictly
//!   in order, the TCP serving tier's per-client queues run higher
//!   priorities first). Two envelope encodings are accepted (see
//!   [`Request`]): the legacy v1 flat line, and the versioned v2 envelope
//!   `{"v":2,"id":…,"priority":…,"spec":{…}}`.
//! * **Command** — `{"cmd":"list_workloads"}` / `{"cmd":"describe_spec"}`
//!   introspection lines, answered with one structured reply line, and
//!   `{"cmd":"shutdown"}`, which only the TCP tier may honour. Both front
//!   ends sort every input line with [`classify`], so they accept, answer
//!   and reject the same lines with the same bytes.
//! * **`{"type":"progress",…}`** — one per folded chunk, in deterministic
//!   (policy, chunk) order, carrying the partial overhead so far.
//! * **`{"type":"result",…}`** — the job's reports (one per policy) plus
//!   `"cache":"hit"|"miss"` telling whether the plan cache skipped the
//!   design-time work.
//! * **`{"type":"error",…}`** — a failed line, with the input line number,
//!   a message naming the offending workload/policy/field, and the line's
//!   `id` whenever the line parsed as JSON.
//!
//! Every response value is a pure function of the request line and its
//! position in the session (cache hits depend on what ran before), so a
//! whole session's output is byte-for-byte reproducible — which is how CI
//! pins the protocol with a golden transcript.

use std::io::{self, BufRead, Write};

use drhw_sim::SimulationReport;

use crate::engine::Engine;
use crate::job::ProgressEvent;
use crate::json::{parse, JsonValue};
use crate::spec::JobSpec;

/// What one serving session processed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Lines that produced a result.
    pub completed: usize,
    /// Lines that produced an error.
    pub failed: usize,
}

/// The envelope fields a **v1** request line may carry beside the flat
/// [`JobSpec`] fields.
pub const ENVELOPE_V1_FIELDS: [&str; 4] = ["v", "id", "progress", "priority"];

/// The fields of a **v2** request envelope: `{"v":2,"id":…,"priority":…,`
/// `"progress":…,"spec":{…}}`. The job spec lives under `spec`, so envelope
/// growth can never collide with spec fields again.
pub const ENVELOPE_V2_FIELDS: [&str; 5] = ["v", "id", "progress", "priority", "spec"];

/// One parsed request line: the job spec plus the protocol envelope fields.
///
/// This is the session-level unit both serving front-ends share: the
/// stdin/stdout [`serve`] loop and the TCP serving tier (`drhw-net`) get
/// `Request`s from [`classify`] and answer them with [`respond`], which is
/// what keeps their per-session transcripts byte-identical.
///
/// Two envelope versions are accepted, selected by the optional integer
/// field `v` (default 1):
///
/// * **v1** (legacy, still fully supported): the spec fields sit flat on
///   the line beside `id`/`progress`/`priority`.
/// * **v2**: the spec is wrapped — `{"v":2,"id":…,"priority":…,"spec":{…}}`
///   — so envelope and spec namespaces can grow independently.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The job to run.
    pub spec: JobSpec,
    /// The echoed `id` envelope field, when present.
    pub id: Option<JsonValue>,
    /// Whether the client asked for streamed per-chunk progress lines.
    pub progress: bool,
    /// Scheduling priority within a session's queue (envelope field
    /// `priority`, default 0). Higher runs earlier; ties run in submission
    /// order. The stdin/stdout front-end executes strictly in order and
    /// only validates the field; the TCP tier's per-client queues honour it.
    pub priority: i64,
    /// The envelope version the request arrived in (1 or 2). Responses do
    /// not depend on it — v1 and v2 encodings of the same job produce
    /// byte-identical result lines.
    pub version: u8,
}

impl Request {
    /// Parses one request line; `Err` carries the protocol error message.
    ///
    /// # Errors
    ///
    /// Returns the message of the `error` response line: invalid JSON, an
    /// invalid spec field, or a malformed envelope field.
    pub fn parse(line: &str) -> Result<Request, String> {
        let value = parse(line).map_err(|e| e.to_string())?;
        Request::from_value(&value)
    }

    /// Builds a request from an already-parsed JSON value (v1 or v2
    /// envelope).
    ///
    /// # Errors
    ///
    /// Returns the protocol error message, as [`parse`](Request::parse).
    pub fn from_value(value: &JsonValue) -> Result<Request, String> {
        let version = match value.get("v") {
            None => 1,
            Some(v) => match v.as_u64() {
                Some(1) => 1,
                Some(2) => 2,
                _ => {
                    return Err(format!(
                        "request envelope field `v`: unsupported version {v:?} (supported: 1, 2)"
                    ))
                }
            },
        };
        let spec = if version == 2 {
            let entries = value
                .entries()
                .ok_or_else(|| "each line must be a JSON object".to_string())?;
            crate::spec::check_object_fields(entries, "request envelope", &ENVELOPE_V2_FIELDS, &[])
                .map_err(|e| e.to_string())?;
            let spec_value = value.get("spec").ok_or_else(|| {
                "request envelope field `spec`: missing required field \
                 (a v2 envelope wraps the job spec in `spec`)"
                    .to_string()
            })?;
            JobSpec::from_json(spec_value).map_err(|e| e.to_string())?
        } else {
            JobSpec::from_json_with(value, &ENVELOPE_V1_FIELDS).map_err(|e| e.to_string())?
        };
        let priority = match value.get("priority") {
            None => 0,
            Some(v) => v.as_i64().ok_or_else(|| {
                format!("request envelope field `priority`: expected an integer, got {v:?}")
            })?,
        };
        let progress = match value.get("progress") {
            None => false,
            Some(v) => v.as_bool().ok_or_else(|| {
                format!("request envelope field `progress`: expected a boolean, got {v:?}")
            })?,
        };
        Ok(Request {
            spec,
            id: value.get("id").cloned(),
            progress,
            priority,
            version,
        })
    }
}

/// What one non-blank input line asks of a front end, as sorted by
/// [`classify`].
#[derive(Debug, Clone, PartialEq)]
pub enum Line {
    /// A job request, which [`respond`] runs on the engine.
    Job(Request),
    /// The structured reply of an introspection command
    /// (`{"cmd":"list_workloads"}`, `{"cmd":"describe_spec"}`). Replies are
    /// a pure function of the engine's registry, so both front ends answer
    /// byte-identically.
    Reply(JsonValue),
    /// `{"cmd":"shutdown"}`. The TCP tier drains and closes when its
    /// shutdown command is enabled; otherwise, and always on stdin (whose
    /// shutdown is EOF), the line fails with [`SHUTDOWN_DISABLED_MESSAGE`].
    Shutdown,
    /// A line that is not a valid request or command: the message of its
    /// `error` line, and the line's own `id` whenever it parsed as JSON.
    Error {
        /// The line's `id` field, echoed on the error line.
        id: Option<JsonValue>,
        /// What is wrong with the line.
        message: String,
    },
}

/// Sorts one input line, given without its `\n` (a trailing `\r` is
/// dropped too): `None` for a blank line, else a job, an introspection
/// reply, a shutdown command or an error. Both front ends call this, so
/// they accept, answer and reject the same lines with the same messages.
pub fn classify(engine: &Engine, line: &str) -> Option<Line> {
    let line = line.strip_suffix('\r').unwrap_or(line);
    if line.trim().is_empty() {
        return None;
    }
    let value = match parse(line) {
        Ok(value) => value,
        Err(e) => {
            return Some(Line::Error {
                id: None,
                message: e.to_string(),
            })
        }
    };
    let sorted = if value.get("cmd").is_some() {
        parse_command(&value).map(|command| match command {
            Command::ListWorkloads => Line::Reply(workloads_json(engine)),
            Command::DescribeSpec => Line::Reply(spec_schema_json()),
            Command::Shutdown => Line::Shutdown,
        })
    } else {
        Request::from_value(&value).map(Line::Job)
    };
    Some(sorted.unwrap_or_else(|message| Line::Error {
        id: value.get("id").cloned(),
        message,
    }))
}

/// A session-level command line: `{"cmd":"…"}` instead of a job spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Command {
    /// `{"cmd":"list_workloads"}` — enumerate the engine's registry
    /// (built-ins plus the parameterised name families) as one structured
    /// reply, so sweep specs can be authored against a live server.
    ListWorkloads,
    /// `{"cmd":"describe_spec"}` — the wire schema of the request envelope,
    /// the [`JobSpec`] fields and the `ExperimentSpec` fields, plus the
    /// valid policy/override names.
    DescribeSpec,
    /// `{"cmd":"shutdown"}` — drain and stop serving (TCP tier only).
    Shutdown,
}

/// The error message both front-ends give a `shutdown` command they will
/// not honour.
pub const SHUTDOWN_DISABLED_MESSAGE: &str = "the shutdown command is disabled on this server";

/// Parses a command line (an object with a `cmd` field) strictly; `Err`
/// carries the protocol error message: a non-string or unknown `cmd`, or
/// extra fields on the command object.
fn parse_command(value: &JsonValue) -> Result<Command, String> {
    if let Some(entries) = value.entries() {
        crate::spec::check_object_fields(entries, "command", &["cmd"], &[])
            .map_err(|e| e.to_string())?;
    }
    let cmd = value.get("cmd").ok_or("command lines need a `cmd` field")?;
    match cmd.as_str() {
        Some("list_workloads") => Ok(Command::ListWorkloads),
        Some("describe_spec") => Ok(Command::DescribeSpec),
        Some("shutdown") => Ok(Command::Shutdown),
        Some(other) => Err(format!(
            "unknown command {other:?} (supported: \"list_workloads\", \"describe_spec\", \
             \"shutdown\")"
        )),
        None => Err(format!(
            "command field `cmd`: expected a string, got {cmd:?}"
        )),
    }
}

/// The `{"type":"workloads",…}` reply of `list_workloads`: every registered
/// workload (name, description, tile sweep, fixed knobs) plus the
/// parameterised name families the registry resolves on demand.
fn workloads_json(engine: &Engine) -> JsonValue {
    let registry = engine.registry();
    let workloads = registry
        .iter()
        .map(|workload| {
            let sweep = workload.tile_sweep();
            JsonValue::Object(vec![
                (
                    "name".to_string(),
                    JsonValue::String(workload.name().to_string()),
                ),
                (
                    "description".to_string(),
                    JsonValue::String(workload.description().to_string()),
                ),
                (
                    "tiles_min".to_string(),
                    JsonValue::UInt(*sweep.start() as u64),
                ),
                (
                    "tiles_max".to_string(),
                    JsonValue::UInt(*sweep.end() as u64),
                ),
                (
                    "task_inclusion_probability".to_string(),
                    JsonValue::Float(workload.task_inclusion_probability()),
                ),
                (
                    "correlated_scenarios".to_string(),
                    JsonValue::Bool(workload.correlated_scenarios().is_some()),
                ),
            ])
        })
        .collect();
    let families = drhw_workloads::parameterised_families()
        .into_iter()
        .map(|family| {
            JsonValue::Object(vec![
                (
                    "pattern".to_string(),
                    JsonValue::String(family.pattern.to_string()),
                ),
                (
                    "description".to_string(),
                    JsonValue::String(family.description.to_string()),
                ),
                (
                    "members".to_string(),
                    JsonValue::Array(
                        family
                            .members
                            .iter()
                            .map(|m| JsonValue::String(m.to_string()))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    JsonValue::Object(vec![
        (
            "type".to_string(),
            JsonValue::String("workloads".to_string()),
        ),
        ("workloads".to_string(), JsonValue::Array(workloads)),
        ("families".to_string(), JsonValue::Array(families)),
    ])
}

fn field_rows(fields: &[crate::spec::SpecField]) -> JsonValue {
    JsonValue::Array(
        fields
            .iter()
            .map(|field| {
                JsonValue::Object(vec![
                    (
                        "name".to_string(),
                        JsonValue::String(field.name.to_string()),
                    ),
                    (
                        "type".to_string(),
                        JsonValue::String(field.kind.to_string()),
                    ),
                    ("required".to_string(), JsonValue::Bool(field.required)),
                    (
                        "description".to_string(),
                        JsonValue::String(field.description.to_string()),
                    ),
                ])
            })
            .collect(),
    )
}

fn string_array(names: &[&str]) -> JsonValue {
    JsonValue::Array(
        names
            .iter()
            .map(|n| JsonValue::String(n.to_string()))
            .collect(),
    )
}

/// The `{"type":"spec_schema",…}` reply of `describe_spec`: the envelope
/// versions, the [`JobSpec`] and `ExperimentSpec` field tables (the same
/// tables the strict parsers enforce), and every valid policy/override
/// name — enough to author job and sweep specs against a live server.
fn spec_schema_json() -> JsonValue {
    let policies: Vec<String> = drhw_prefetch::PolicyKind::ALL
        .iter()
        .map(|p| p.to_string())
        .collect();
    JsonValue::Object(vec![
        (
            "type".to_string(),
            JsonValue::String("spec_schema".to_string()),
        ),
        ("envelope_v1".to_string(), string_array(&ENVELOPE_V1_FIELDS)),
        ("envelope_v2".to_string(), string_array(&ENVELOPE_V2_FIELDS)),
        (
            "job_spec".to_string(),
            field_rows(&crate::spec::JOB_SPEC_FIELDS),
        ),
        (
            "experiment_spec".to_string(),
            field_rows(&crate::sweep::EXPERIMENT_SPEC_FIELDS),
        ),
        (
            "policies".to_string(),
            JsonValue::Array(policies.into_iter().map(JsonValue::String).collect()),
        ),
        (
            "replacement".to_string(),
            string_array(&["reuse-aware", "lru", "direct"]),
        ),
        (
            "point_selection".to_string(),
            string_array(&["fully-parallel", "fastest", "energy-aware"]),
        ),
    ])
}

/// Renders the `error` response line for a failed request: `type`, the
/// echoed `id` (when one was recoverable), the 1-based input `line` number
/// and the `message`.
fn error_json(id: Option<&JsonValue>, line_number: u64, message: &str) -> JsonValue {
    let mut entries = vec![("type".to_string(), JsonValue::String("error".to_string()))];
    if let Some(id) = id {
        entries.push(("id".to_string(), id.clone()));
    }
    entries.push(("line".to_string(), JsonValue::UInt(line_number)));
    entries.push((
        "message".to_string(),
        JsonValue::String(message.to_string()),
    ));
    JsonValue::Object(entries)
}

/// Runs the JSON-lines protocol: reads requests from `input` line by line,
/// executes them on `engine` in order, writes response lines to `output`.
/// Blank lines are skipped. Returns how many requests succeeded/failed.
///
/// # Errors
///
/// Returns I/O errors from the reader or writer; protocol-level failures
/// (bad JSON, unknown workloads, simulation errors) become `error` response
/// lines instead.
pub fn serve(
    engine: &Engine,
    input: impl BufRead,
    mut output: impl Write,
) -> io::Result<ServeSummary> {
    let mut summary = ServeSummary::default();
    for (index, line) in input.split(b'\n').enumerate() {
        // Decoded lossily, as over TCP: invalid UTF-8 fails its own line as
        // invalid JSON, and the session goes on.
        let Some(line) = classify(engine, &String::from_utf8_lossy(&line?)) else {
            continue;
        };
        let line_number = index as u64 + 1;
        if respond(engine, line, line_number, |value| {
            writeln!(output, "{}", value.to_json())
        })? {
            summary.completed += 1;
        } else {
            summary.failed += 1;
        }
    }
    output.flush()?;
    Ok(summary)
}

/// Answers one classified line through `sink`: runs a job, handing on its
/// progress (when requested) and `result` lines, hands on an introspection
/// reply, or renders the `error` line of a failed one at `line_number`. A
/// [`Line::Shutdown`] reaching this point is one the front end does not
/// honour, and fails with [`SHUTDOWN_DISABLED_MESSAGE`]. Returns whether the
/// line succeeded.
///
/// # Errors
///
/// Returns the first I/O error from `sink`.
pub fn respond(
    engine: &Engine,
    line: Line,
    line_number: u64,
    mut sink: impl FnMut(&JsonValue) -> io::Result<()>,
) -> io::Result<bool> {
    let (id, message) = match line {
        Line::Job(request) => match execute(engine, &request, &mut sink)? {
            Ok(()) => return Ok(true),
            Err(message) => (request.id, message),
        },
        Line::Reply(reply) => {
            sink(&reply)?;
            return Ok(true);
        }
        Line::Shutdown => (None, SHUTDOWN_DISABLED_MESSAGE.to_string()),
        Line::Error { id, message } => (id, message),
    };
    sink(&error_json(id.as_ref(), line_number, &message))?;
    Ok(false)
}

/// Executes one parsed request on `engine`, handing its progress (when
/// requested) and `result` lines to `sink` one at a time. A protocol-level
/// failure — submission rejected, simulation error — is returned as
/// `Err(message)` for the caller to render with [`error_json`] at the
/// session's line numbering.
///
/// # Errors
///
/// Returns the first I/O error from `sink`.
fn execute(
    engine: &Engine,
    request: &Request,
    mut sink: impl FnMut(&JsonValue) -> io::Result<()>,
) -> io::Result<Result<(), String>> {
    let id = request.id.as_ref();
    let mut handle = match engine.submit(request.spec.clone()) {
        Ok(handle) => handle,
        Err(e) => return Ok(Err(e.to_string())),
    };
    // Without `progress`, the stream is dropped here, so the job's fold
    // stops building events nobody reads.
    let receiver = handle.progress().filter(|_| request.progress);
    if let Some(receiver) = receiver {
        // The channel closes when the job resolves, so this drains the
        // complete, deterministically-ordered event stream.
        for event in receiver.iter() {
            sink(&progress_json(&event, id))?;
        }
    }
    match handle.wait() {
        Ok(reports) => {
            sink(&result_json(&handle, &reports, id))?;
            Ok(Ok(()))
        }
        Err(e) => Ok(Err(e.to_string())),
    }
}

fn progress_json(event: &ProgressEvent, id: Option<&JsonValue>) -> JsonValue {
    let mut entries = vec![(
        "type".to_string(),
        JsonValue::String("progress".to_string()),
    )];
    if let Some(id) = id {
        entries.push(("id".to_string(), id.clone()));
    }
    entries.extend([
        (
            "policy".to_string(),
            JsonValue::String(event.policy.to_string()),
        ),
        ("chunk".to_string(), JsonValue::UInt(event.chunk as u64)),
        (
            "chunks".to_string(),
            JsonValue::UInt(event.chunks_per_policy as u64),
        ),
        (
            "iterations_done".to_string(),
            JsonValue::UInt(event.iterations_done as u64),
        ),
        (
            "overhead_percent".to_string(),
            JsonValue::Float(event.partial_stats.overhead_percent()),
        ),
    ]);
    JsonValue::Object(entries)
}

fn result_json(
    handle: &crate::JobHandle,
    reports: &[SimulationReport],
    id: Option<&JsonValue>,
) -> JsonValue {
    let mut entries = vec![("type".to_string(), JsonValue::String("result".to_string()))];
    if let Some(id) = id {
        entries.push(("id".to_string(), id.clone()));
    }
    let first = reports.first();
    entries.extend([
        (
            "workload".to_string(),
            JsonValue::String(handle.spec().workload.clone()),
        ),
        (
            "tiles".to_string(),
            JsonValue::UInt(first.map_or(0, |r| r.tile_count()) as u64),
        ),
        (
            "iterations".to_string(),
            JsonValue::UInt(first.map_or(0, |r| r.iterations()) as u64),
        ),
        (
            "cache".to_string(),
            JsonValue::String(
                if handle.was_cache_hit() {
                    "hit"
                } else {
                    "miss"
                }
                .to_string(),
            ),
        ),
        (
            "reports".to_string(),
            JsonValue::Array(reports.iter().map(report_json).collect()),
        ),
    ]);
    JsonValue::Object(entries)
}

/// Renders one per-policy report as the wire object — the schema pinned by
/// `tests/schema_snapshot.rs`.
pub fn report_json(report: &SimulationReport) -> JsonValue {
    JsonValue::Object(vec![
        (
            "policy".to_string(),
            JsonValue::String(report.policy().to_string()),
        ),
        (
            "activations".to_string(),
            JsonValue::UInt(report.activations() as u64),
        ),
        (
            "ideal_us".to_string(),
            JsonValue::UInt(report.ideal_total().as_micros()),
        ),
        (
            "penalty_us".to_string(),
            JsonValue::UInt(report.penalty_total().as_micros()),
        ),
        (
            "overhead_percent".to_string(),
            JsonValue::Float(report.overhead_percent()),
        ),
        (
            "loads_performed".to_string(),
            JsonValue::UInt(report.loads_performed() as u64),
        ),
        (
            "loads_cancelled".to_string(),
            JsonValue::UInt(report.loads_cancelled() as u64),
        ),
        (
            "drhw_subtasks_executed".to_string(),
            JsonValue::UInt(report.drhw_subtasks_executed() as u64),
        ),
        (
            "reused_subtasks".to_string(),
            JsonValue::UInt(report.reused_subtasks() as u64),
        ),
        (
            "reuse_percent".to_string(),
            JsonValue::Float(report.reuse_percent()),
        ),
        (
            "reconfiguration_energy_mj".to_string(),
            JsonValue::Float(report.reconfiguration_energy_mj()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;

    fn serve_session(input: &str) -> (ServeSummary, String) {
        let engine = Engine::builder().threads(2).build();
        let mut out = Vec::new();
        let summary = serve(&engine, input.as_bytes(), &mut out).expect("in-memory I/O");
        (summary, String::from_utf8(out).expect("output is UTF-8"))
    }

    #[test]
    fn a_session_is_deterministic_and_marks_cache_hits() {
        let input = concat!(
            r#"{"id":1,"workload":"multimedia","tiles":8,"iterations":20,"policies":["hybrid"]}"#,
            "\n",
            r#"{"id":2,"workload":"multimedia","tiles":8,"iterations":20,"seed":77,"policies":["hybrid"]}"#,
            "\n",
        );
        let (summary, first) = serve_session(input);
        assert_eq!(
            summary,
            ServeSummary {
                completed: 2,
                failed: 0
            }
        );
        let (_, second) = serve_session(input);
        assert_eq!(first, second, "sessions must be byte-for-byte reproducible");
        let lines: Vec<&str> = first.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains(r#""cache":"miss""#), "{}", lines[0]);
        // Same workload/tiles, different seed: the plan is reused.
        assert!(lines[1].contains(r#""cache":"hit""#), "{}", lines[1]);
        assert!(lines[0].contains(r#""type":"result""#));
        assert!(lines[0].contains(r#""id":1"#));
    }

    #[test]
    fn progress_lines_precede_the_result_in_fold_order() {
        let input = concat!(
            r#"{"workload":"multimedia","tiles":8,"iterations":64,"chunk_size":16,"#,
            r#""policies":["no-prefetch"],"progress":true}"#,
            "\n"
        );
        let (summary, output) = serve_session(input);
        assert_eq!(summary.completed, 1);
        let lines: Vec<&str> = output.lines().collect();
        assert_eq!(lines.len(), 5, "4 chunks + 1 result: {output}");
        for (chunk, line) in lines[..4].iter().enumerate() {
            assert!(line.contains(r#""type":"progress""#), "{line}");
            assert!(line.contains(&format!(r#""chunk":{chunk}"#)), "{line}");
        }
        assert!(lines[4].contains(r#""type":"result""#));
    }

    #[test]
    fn request_parses_the_envelope_fields() {
        let request = Request::parse(
            r#"{"id":"a","workload":"multimedia","tiles":8,"progress":true,"priority":-2}"#,
        )
        .expect("request parses");
        assert_eq!(request.spec.workload, "multimedia");
        assert_eq!(request.id, Some(JsonValue::String("a".to_string())));
        assert!(request.progress);
        assert_eq!(request.priority, -2);

        let minimal = Request::parse(r#"{"workload":"multimedia"}"#).expect("request parses");
        assert_eq!(minimal.id, None);
        assert!(!minimal.progress);
        assert_eq!(minimal.priority, 0);

        let err = Request::parse(r#"{"workload":"multimedia","priority":"high"}"#).unwrap_err();
        assert!(err.contains("`priority`"), "{err}");
        assert!(Request::parse("not json")
            .unwrap_err()
            .contains("invalid JSON"));
    }

    #[test]
    fn error_json_matches_the_served_error_lines() {
        let id = JsonValue::UInt(9);
        let rendered = error_json(Some(&id), 3, "boom").to_json();
        assert_eq!(
            rendered,
            r#"{"type":"error","id":9,"line":3,"message":"boom"}"#
        );
        let rendered = error_json(None, 1, "boom").to_json();
        assert_eq!(rendered, r#"{"type":"error","line":1,"message":"boom"}"#);
    }

    #[test]
    fn classify_sorts_blank_lines_jobs_replies_and_shutdown() {
        let engine = Engine::builder().threads(1).build();
        assert_eq!(classify(&engine, ""), None);
        assert_eq!(classify(&engine, " \t"), None);
        let Some(Line::Job(request)) =
            classify(&engine, r#"{"id":3,"workload":"multimedia","tiles":8}"#)
        else {
            panic!("a job line classifies as a job");
        };
        assert_eq!(request.spec.workload, "multimedia");
        assert_eq!(request.id, Some(JsonValue::UInt(3)));
        assert_eq!(
            classify(&engine, r#"{"cmd":"list_workloads"}"#),
            Some(Line::Reply(workloads_json(&engine)))
        );
        assert_eq!(
            classify(&engine, r#"{"cmd":"describe_spec"}"#),
            Some(Line::Reply(spec_schema_json()))
        );
        assert_eq!(
            classify(&engine, r#"{"cmd":"shutdown"}"#),
            Some(Line::Shutdown)
        );
    }

    #[test]
    fn classify_echoes_the_id_of_any_line_that_parses_as_json() {
        let engine = Engine::builder().threads(1).build();
        let error = |line: &str| match classify(&engine, line) {
            Some(Line::Error { id, message }) => (id, message),
            other => panic!("{line} classified as {other:?}"),
        };
        let (id, message) = error(r#"{"cmd":"describe_spec","id":7}"#);
        assert_eq!(id, Some(JsonValue::UInt(7)));
        assert!(message.contains("`id`"), "{message}");
        let (id, message) = error("not json");
        assert_eq!(id, None);
        assert!(message.contains("invalid JSON"), "{message}");
    }

    #[test]
    fn invalid_utf8_fails_its_own_line_and_the_session_goes_on() {
        let engine = Engine::builder().threads(1).build();
        let input: &[u8] = b"\xff\xfe\r\n{\"cmd\":\"list_workloads\"}\r\n";
        let mut out = Vec::new();
        let summary = serve(&engine, input, &mut out).expect("in-memory I/O");
        assert_eq!(
            summary,
            ServeSummary {
                completed: 1,
                failed: 1
            }
        );
        let output = String::from_utf8(out).expect("output is UTF-8");
        let lines: Vec<&str> = output.lines().collect();
        assert!(lines[0].contains(r#""line":1"#), "{}", lines[0]);
        assert!(lines[0].contains("invalid JSON"), "{}", lines[0]);
        assert!(lines[1].contains(r#""type":"workloads""#), "{}", lines[1]);
    }

    #[test]
    fn bad_lines_become_error_lines_with_the_line_number() {
        let input = concat!(
            "this is not json\n",
            "\n",
            r#"{"id":"x","workload":"nope"}"#,
            "\n",
            r#"{"workload":"multimedia","tiles":8,"iterations":5,"policies":["hybrid"]}"#,
            "\n",
        );
        let (summary, output) = serve_session(input);
        assert_eq!(
            summary,
            ServeSummary {
                completed: 1,
                failed: 2
            }
        );
        let lines: Vec<&str> = output.lines().collect();
        assert!(lines[0].contains(r#""type":"error""#));
        assert!(lines[0].contains(r#""line":1"#));
        assert!(lines[0].contains("invalid JSON"));
        // The unknown-workload error names the offending input and echoes id.
        assert!(lines[1].contains(r#""line":3"#), "{}", lines[1]);
        assert!(lines[1].contains("nope"), "{}", lines[1]);
        assert!(lines[1].contains(r#""id":"x""#), "{}", lines[1]);
        assert!(lines[2].contains(r#""type":"result""#));
    }
}
