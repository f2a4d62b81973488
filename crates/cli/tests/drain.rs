//! Process-level graceful-drain audit: `dagscope serve` under SIGTERM
//! must finish the request in flight, report `draining`, close the
//! connection, and exit 0 — the contract the CI `fault-smoke` job and
//! any process supervisor (systemd, k8s) rely on.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn dagscope() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dagscope"))
}

/// Send `signal` to `child` via the portable shell utility (std has no
/// kill API and this crate links no signal library).
fn send_signal(child: &Child, signal: &str) {
    let status = Command::new("kill")
        .arg(format!("-{signal}"))
        .arg(child.id().to_string())
        .status()
        .expect("spawn kill");
    assert!(status.success(), "kill -{signal} failed");
}

/// Write a snapshot to a fresh temp dir and return its path.
fn make_snapshot(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dagscope_drain_{tag}_{}", std::process::id()));
    let out = dagscope()
        .args([
            "snapshot", "--jobs", "200", "--sample", "16", "--seed", "3", "--out",
        ])
        .arg(&dir)
        .output()
        .expect("spawn snapshot");
    assert!(
        out.status.success(),
        "snapshot: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    dir
}

/// Start `dagscope serve` on an ephemeral port with `extra` flags and
/// return the child plus the bound address from the liveness line.
fn start_serve(dir: &std::path::Path, extra: &[&str]) -> (Child, String) {
    let mut child = dagscope()
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "2",
            "--snapshot",
        ])
        .arg(dir)
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let mut stderr = BufReader::new(child.stderr.take().expect("child stderr"));
    let mut line = String::new();
    stderr.read_line(&mut line).expect("liveness line");
    let addr = line
        .split("http://")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in liveness line {line:?}"))
        .to_string();
    (child, addr)
}

#[test]
fn sigterm_mid_request_drains_and_exits_zero() {
    let dir = make_snapshot("midreq");
    let (mut child, addr) = start_serve(&dir, &[]);

    // Open a request and stall it half-written…
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream.write_all(b"GET /health").expect("partial request");
    std::thread::sleep(Duration::from_millis(150));

    // …then ask the process to terminate while the request is in flight.
    send_signal(&child, "TERM");
    std::thread::sleep(Duration::from_millis(150));

    // The in-flight request still completes — answered as draining, then
    // the connection closes.
    stream
        .write_all(b"z HTTP/1.1\r\n\r\n")
        .expect("finish request");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("read until close");
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    assert!(response.contains("\"status\":\"draining\""), "{response}");
    assert!(response.contains("connection: close"), "{response}");

    // And the process exits 0 once the drain completes.
    let status = child.wait().expect("wait");
    assert!(status.success(), "serve must exit 0 after SIGTERM drain");
    let mut stdout = String::new();
    child
        .stdout
        .take()
        .expect("child stdout")
        .read_to_string(&mut stdout)
        .expect("read stdout");
    assert!(stdout.contains("drained"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

/// SIGTERM with a crowd of idle keep-alive connections parked on the
/// reactor: the drain must close every idle session immediately (no
/// waiting out idle timeouts) and exit 0 promptly.
#[test]
fn sigterm_with_many_idle_connections_drains_promptly() {
    let dir = make_snapshot("idle");
    // Exercise the reactor's connection cap while we're here.
    let (mut child, addr) = start_serve(&dir, &["--max-conns", "256"]);

    // Park 64 idle keep-alive sessions: one completed request each, then
    // the sockets just sit there.
    let mut idle: Vec<TcpStream> = (0..64)
        .map(|i| {
            let mut stream = TcpStream::connect(&addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("read timeout");
            stream
                .write_all(b"GET /healthz HTTP/1.1\r\n\r\n")
                .expect("request");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut line = String::new();
            reader.read_line(&mut line).expect("status line");
            assert!(line.starts_with("HTTP/1.1 200"), "session {i}: {line}");
            let mut content_length = 0usize;
            loop {
                let mut header = String::new();
                reader.read_line(&mut header).expect("header");
                let header = header.trim_end();
                if header.is_empty() {
                    break;
                }
                if let Some(v) = header.to_ascii_lowercase().strip_prefix("content-length:") {
                    content_length = v.trim().parse().expect("length");
                }
            }
            let mut body = vec![0u8; content_length];
            reader.read_exact(&mut body).expect("body");
            stream
        })
        .collect();

    // Terminate with the whole crowd still connected. The drain closes
    // idle sessions outright rather than waiting for any timeout.
    let started = std::time::Instant::now();
    send_signal(&child, "TERM");
    let status = child.wait().expect("wait");
    assert!(status.success(), "serve must exit 0 after SIGTERM drain");
    assert!(
        started.elapsed() < Duration::from_secs(8),
        "drain with idle connections took {:?}",
        started.elapsed()
    );

    // Every parked socket got a clean close (EOF), not a stall.
    for (i, stream) in idle.iter_mut().enumerate() {
        let mut rest = Vec::new();
        let n = stream.read_to_end(&mut rest).unwrap_or(0);
        assert_eq!(n, 0, "idle session {i} received unexpected bytes");
    }

    let mut stdout = String::new();
    child
        .stdout
        .take()
        .expect("child stdout")
        .read_to_string(&mut stdout)
        .expect("read stdout");
    assert!(stdout.contains("drained"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}
