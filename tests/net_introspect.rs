//! Front-end parity for the v2 request envelope and the introspection
//! commands: `list_workloads` and `describe_spec` must be answered
//! byte-identically over stdin/stdout and over TCP, the shared
//! shutdown-disabled message must cross the wire verbatim, error lines
//! echo a line's `id` on both front ends, and a reply or error line
//! crosses the wire without waiting on the client's delayed ACK.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use drhw_engine::{serve, Engine, SHUTDOWN_DISABLED_MESSAGE};
use drhw_net::{Server, ServerConfig};

fn engine() -> Arc<Engine> {
    Arc::new(Engine::builder().threads(1).build())
}

/// Runs one stdin/stdout session and returns its response lines.
fn stdin_session(input: &str) -> Vec<String> {
    let mut out = Vec::new();
    serve(&engine(), input.as_bytes(), &mut out).expect("stdin session");
    String::from_utf8(out)
        .expect("responses are UTF-8")
        .lines()
        .map(str::to_owned)
        .collect()
}

/// Runs one TCP session against a fresh server and returns its response
/// lines. A fresh engine per session keeps cache markers (`hit`/`miss`)
/// identical to a fresh stdin session's.
fn tcp_session(config: ServerConfig, input: &str) -> Vec<String> {
    let server = Server::start(engine(), config).expect("server binds");
    let mut stream = TcpStream::connect(server.local_addr()).expect("client connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    stream.write_all(input.as_bytes()).expect("submit");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("server closes");
    server.handle().shutdown();
    server.join();
    String::from_utf8(raw)
        .expect("responses are UTF-8")
        .lines()
        .map(str::to_owned)
        .collect()
}

#[test]
fn introspection_replies_are_byte_identical_across_front_ends() {
    for (command, reply_type) in [
        ("{\"cmd\":\"list_workloads\"}\n", "\"type\":\"workloads\""),
        ("{\"cmd\":\"describe_spec\"}\n", "\"type\":\"spec_schema\""),
    ] {
        let stdin = stdin_session(command);
        let tcp = tcp_session(ServerConfig::default(), command);
        assert_eq!(stdin.len(), 1, "{stdin:?}");
        assert!(stdin[0].contains(reply_type), "{}", stdin[0]);
        assert_eq!(
            stdin, tcp,
            "both front-ends must answer {command:?} identically"
        );
    }
}

#[test]
fn the_v2_envelope_is_accepted_identically_on_both_front_ends() {
    let v2 = "{\"v\":2,\"id\":11,\"spec\":{\"workload\":\"multimedia\",\"tiles\":4,\
              \"iterations\":3,\"policies\":[\"no-prefetch\"]}}\n";
    let stdin = stdin_session(v2);
    let tcp = tcp_session(ServerConfig::default(), v2);
    assert_eq!(stdin.len(), 1, "{stdin:?}");
    assert!(stdin[0].contains("\"type\":\"result\""), "{}", stdin[0]);
    assert!(stdin[0].contains("\"id\":11"), "{}", stdin[0]);
    assert_eq!(stdin, tcp);

    // The equivalent v1 flat request produces the same result line.
    let v1 = "{\"id\":11,\"workload\":\"multimedia\",\"tiles\":4,\
              \"iterations\":3,\"policies\":[\"no-prefetch\"]}\n";
    assert_eq!(stdin_session(v1), stdin);
}

#[test]
fn unsupported_envelope_versions_fail_identically_on_both_front_ends() {
    let v3 = "{\"v\":3,\"id\":4,\"spec\":{\"workload\":\"multimedia\"}}\n";
    let stdin = stdin_session(v3);
    let tcp = tcp_session(ServerConfig::default(), v3);
    assert_eq!(stdin.len(), 1, "{stdin:?}");
    assert!(stdin[0].contains("\"type\":\"error\""), "{}", stdin[0]);
    assert!(stdin[0].contains("unsupported version"), "{}", stdin[0]);
    assert_eq!(stdin, tcp);
}

#[test]
fn a_disabled_shutdown_command_reports_the_shared_message_and_keeps_serving() {
    let config = ServerConfig {
        allow_shutdown_command: false,
        ..ServerConfig::default()
    };
    // The refused shutdown must not take the session down: the job that
    // follows it on the same connection still completes.
    let input = "{\"cmd\":\"shutdown\"}\n{\"id\":1,\"workload\":\"multimedia\",\"tiles\":4,\
                 \"iterations\":2,\"policies\":[\"no-prefetch\"]}\n";
    let lines = tcp_session(config, input);
    assert_eq!(lines.len(), 2, "{lines:?}");
    assert!(lines[0].contains("\"type\":\"error\""), "{}", lines[0]);
    assert!(lines[0].contains(SHUTDOWN_DISABLED_MESSAGE), "{}", lines[0]);
    assert!(lines[1].contains("\"type\":\"result\""), "{}", lines[1]);

    // The stdin front-end (where shutdown is always EOF) uses the same
    // message for the same command.
    let stdin = stdin_session("{\"cmd\":\"shutdown\"}\n");
    assert_eq!(stdin.len(), 1, "{stdin:?}");
    assert!(stdin[0].contains(SHUTDOWN_DISABLED_MESSAGE), "{}", stdin[0]);
}

#[test]
fn malformed_commands_echo_their_id_identically_on_both_front_ends() {
    let input = "{\"cmd\":\"describe_spec\",\"id\":7}\n\
                 {\"cmd\":\"shutdown\",\"id\":8}\n\
                 {\"cmd\":5,\"id\":9}\n";
    let stdin = stdin_session(input);
    let tcp = tcp_session(ServerConfig::default(), input);
    assert_eq!(stdin.len(), 3, "{stdin:?}");
    for (line, id) in stdin.iter().zip(7..) {
        assert!(line.contains("\"type\":\"error\""), "{line}");
        assert!(line.contains(&format!("\"id\":{id},")), "{line}");
    }
    assert_eq!(stdin, tcp);
}

#[test]
fn a_unicode_escape_with_a_sign_is_invalid_json_on_both_front_ends() {
    // `\u` takes exactly four hex digits; a signed `\u+041` once read as
    // `A` and was answered as a valid `describe_spec` with `"id":"A"`.
    let input = concat!(r#"{"cmd":"describe_spec","id":"\u+041"}"#, "\n");
    let stdin = stdin_session(input);
    let tcp = tcp_session(ServerConfig::default(), input);
    assert_eq!(
        stdin,
        [r#"{"type":"error","line":1,"message":"invalid JSON at byte 30: invalid \\u escape"}"#]
    );
    assert_eq!(stdin, tcp);
}

/// Times 20 sequential round trips of `line` on one connection whose
/// client sends without delay; every answer must contain `reply_type`.
fn time_round_trips(line: &str, reply_type: &str) -> Duration {
    let server = Server::start(engine(), ServerConfig::default()).expect("server binds");
    let stream = TcpStream::connect(server.local_addr()).expect("client connects");
    stream.set_nodelay(true).expect("no delay");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let started = Instant::now();
    for _ in 0..20 {
        writer.write_all(line.as_bytes()).expect("submit");
        let mut answer = String::new();
        reader.read_line(&mut answer).expect("answer");
        assert!(answer.contains(reply_type), "{answer}");
    }
    let elapsed = started.elapsed();
    drop(writer);
    drop(reader);
    server.handle().shutdown();
    server.join();
    elapsed
}

#[test]
fn error_lines_and_replies_are_answered_without_waiting_for_an_ack() {
    // A line written in two parts holds its newline back until the client
    // acknowledges the first part, which a delayed ACK puts off by tens of
    // milliseconds per line.
    for (line, reply_type) in [
        (
            "{\"id\":1,\"workload\":\"multimedia\",\"chunk_sizes\":16}\n",
            "\"type\":\"error\"",
        ),
        ("{\"cmd\":\"list_workloads\"}\n", "\"type\":\"workloads\""),
    ] {
        let elapsed = time_round_trips(line, reply_type);
        assert!(
            elapsed < Duration::from_millis(400),
            "20 round trips of {line:?} took {elapsed:?}"
        );
    }
}
