//! The `sider loadgen` binary against a live in-process server.

use sider::server::{Server, ServerConfig};
use std::process::{Command, Stdio};

#[test]
fn report_to_a_closed_stdout_ends_quietly() {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        max_sessions: 8,
        threads: Some(1),
        stripes: 1,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().to_string();
    let handle = server.shutdown_handle();
    let joiner = std::thread::spawn(move || server.run());

    let mut child = Command::new(env!("CARGO_BIN_EXE_sider"))
        .args(["loadgen", "--addr", &addr, "--sessions", "2"])
        .args(["--requests", "6", "--rps", "200", "--workers", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sider loadgen");
    // Close the read end before the report is written, as `| head` does
    // once it has read its lines.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for sider loadgen");
    handle.shutdown();
    joiner.join().unwrap().unwrap();

    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    let status = out.status;
    assert!(status.success(), "exit {status:?}, stderr: {stderr}");
}
