//! The HTTP side of a run: server processes and the load clients.

use crate::stats::response_hash;
use crate::workload::{affinity, Arrival, Req};
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A `sider_server` running in a child process (this executable's
/// `serve` subcommand). Killed and reaped on drop.
#[derive(Debug)]
pub struct ServerProc {
    child: Child,
    /// HTTP address.
    pub addr: SocketAddr,
    /// Replication listener of a leader.
    pub ship: Option<SocketAddr>,
    /// When the process was spawned.
    pub spawned: Instant,
}

/// How to start a server.
#[derive(Debug, Clone)]
pub struct ServeArgs<'a> {
    /// Stripes (one single-thread pool each).
    pub stripes: usize,
    /// Session capacity.
    pub max_sessions: usize,
    /// Durable data dir (`fsync = always`).
    pub data_dir: Option<&'a Path>,
    /// Lead: open a replication listener.
    pub ship: bool,
    /// Follow this leader's replication listener.
    pub follow: Option<SocketAddr>,
}

impl ServerProc {
    /// Spawn a server and wait until it has bound (and, on a data dir,
    /// recovered). The child exits by itself when this process's end of
    /// its stdin closes, so no server outlives the benchmark.
    pub fn start(args: &ServeArgs<'_>) -> Result<ServerProc, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        // A follower runs at the lowest CPU priority: on a host this small
        // it stands in for a replica on its own machine, so the leader's
        // numbers measure its write path, not CPU shared with the replica.
        let mut cmd = if args.follow.is_some() {
            let mut nice = Command::new("nice");
            nice.args(["-n", "19"]).arg(exe);
            nice
        } else {
            Command::new(exe)
        };
        cmd.arg("serve")
            .args(["--stripes", &args.stripes.to_string()])
            .args(["--max-sessions", &args.max_sessions.to_string()]);
        if let Some(dir) = args.data_dir {
            cmd.arg("--data-dir").arg(dir);
        }
        if args.ship {
            cmd.arg("--ship");
        }
        if let Some(leader) = args.follow {
            cmd.args(["--follow", &leader.to_string()]);
        }
        let spawned = Instant::now();
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("piped stdout");
        let read = BufReader::new(stdout).read_line(&mut line);
        let mut proc = ServerProc {
            child,
            addr: "127.0.0.1:0".parse().expect("literal address"),
            ship: None,
            spawned,
        };
        read.map_err(|e| format!("server banner: {e}"))?;
        let mut words = line.split_whitespace();
        proc.addr = words
            .next()
            .and_then(|w| w.parse().ok())
            .ok_or_else(|| format!("server did not start: {line:?}"))?;
        proc.ship = words.next().and_then(|w| w.parse().ok());
        Ok(proc)
    }

    /// Kill the server (no graceful shutdown: a durable server must
    /// survive this) and reap it.
    pub fn kill(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.reap();
    }
}

/// One HTTP exchange: status and body, or a transport error.
pub fn exchange(addr: SocketAddr, req: &Req) -> Result<(u16, Vec<u8>), String> {
    let (status, raw) = sider_loadgen::http_exchange(addr, req.method, &req.path, &req.body)?;
    let body = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| raw[p + 4..].to_vec())
        .ok_or("response without a header terminator")?;
    Ok((status, body))
}

/// `GET path` as parsed JSON.
pub fn get_json(addr: SocketAddr, path: &str) -> Result<sider_json::Json, String> {
    let req = Req {
        kind: crate::workload::Kind::Snapshot,
        session: 0,
        method: "GET",
        path: path.into(),
        body: String::new(),
        due: Duration::ZERO,
    };
    let (status, body) = exchange(addr, &req)?;
    if status != 200 {
        return Err(format!("GET {path}: status {status}"));
    }
    let text = std::str::from_utf8(&body).map_err(|e| e.to_string())?;
    sider_json::Json::parse(text)
}

/// One measured request.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    /// Response digest (of the error text on a transport failure).
    pub hash: u64,
    /// Whether the request succeeded (2xx).
    pub ok: bool,
    /// Completion minus due time (closed loop: minus send time), ms.
    pub latency_ms: f64,
    /// Completion minus send time, ms.
    pub service_ms: f64,
    /// Send minus due time (closed loop: minus the previous completion), ms.
    pub late_ms: f64,
    /// Completion, seconds since the phase start.
    pub done_s: f64,
}

/// Send `reqs` from `threads` clients with session affinity, each client
/// sending its sessions' requests in schedule order. Never stops early:
/// a failed request is recorded and the client goes on. Returns samples
/// by request index and the phase wall time (start to last completion).
pub fn run_phase(
    addr: SocketAddr,
    reqs: &[Req],
    arrival: Arrival,
    threads: usize,
) -> (Vec<Sample>, f64) {
    let parts = affinity(reqs, threads);
    let start = Instant::now();
    let results: Vec<Vec<(usize, Sample)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = parts
            .iter()
            .map(|part| {
                scope.spawn(move || {
                    let mut prev_done = start;
                    part.iter()
                        .map(|&i| {
                            let req = &reqs[i];
                            let due = match arrival {
                                Arrival::Open => {
                                    let due = start + req.due;
                                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                                        std::thread::sleep(wait);
                                    }
                                    due
                                }
                                Arrival::Saturate => start,
                                Arrival::Closed => prev_done,
                            };
                            let sent = Instant::now();
                            let outcome = exchange(addr, req);
                            let done = Instant::now();
                            prev_done = done;
                            let (hash, ok) = match &outcome {
                                Ok((status, body)) => {
                                    (response_hash(*status, body), (200..300).contains(status))
                                }
                                Err(e) => (crate::stats::fnv1a(0, e.as_bytes()), false),
                            };
                            let ms = |d: Duration| d.as_secs_f64() * 1e3;
                            let sample = Sample {
                                hash,
                                ok,
                                latency_ms: ms(done
                                    - if arrival == Arrival::Closed {
                                        sent
                                    } else {
                                        due
                                    }),
                                service_ms: ms(done - sent),
                                late_ms: ms(sent.saturating_duration_since(due)),
                                done_s: (done - start).as_secs_f64(),
                            };
                            (i, sample)
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut samples = vec![Sample::default(); reqs.len()];
    for (i, s) in results.into_iter().flatten() {
        samples[i] = s;
    }
    let wall = samples.iter().map(|s| s.done_s).fold(0.0, f64::max);
    (samples, wall)
}

/// Poll `/health` of `addr` until `ready` accepts it or `timeout` passes;
/// returns the time it took.
pub fn wait_health(
    addr: SocketAddr,
    timeout: Duration,
    poll: Duration,
    ready: impl Fn(&sider_json::Json) -> bool,
) -> Result<Duration, String> {
    let start = Instant::now();
    loop {
        if let Ok(health) = get_json(addr, "/health") {
            if ready(&health) {
                return Ok(start.elapsed());
            }
        }
        if start.elapsed() > timeout {
            return Err(format!("{addr}: /health not ready after {timeout:?}"));
        }
        std::thread::sleep(poll);
    }
}

/// Numbers of a JSON array field (`replication.shipped`, …).
pub fn nums(json: &sider_json::Json, path: &str) -> Vec<u64> {
    json.path(path)
        .and_then(|v| v.as_arr())
        .map(|a| {
            a.iter()
                .filter_map(|x| x.as_num())
                .map(|x| x as u64)
                .collect()
        })
        .unwrap_or_default()
}

/// Drain a reader to the end, discarding it.
pub fn drain(mut r: impl Read) {
    let mut sink = [0u8; 4096];
    while matches!(r.read(&mut sink), Ok(n) if n > 0) {}
}
