//! Run one benchmark workload and print its metrics.
//!
//! ```text
//! perfbench --workload small-mixed|paper-rounds|durable-follow \
//!           --seed N --seconds S --trace 0|1 [--seed2 M]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end set, with `--trace 1` the per-layer set.
//! Lines before it give the host, per-phase and per-endpoint counts and
//! every metric the workload measures, by name and unit. `--seed2`
//! repeats the whole run on a second seed (printed before the result);
//! the result is correct only if both runs are.
//!
//! `perfbench serve …` is the server child the benchmark starts.

use perfbench::net::{self, ServeArgs, ServerProc};
use perfbench::probes;
use perfbench::replay::{self, ManagerSpec};
use perfbench::stats::{self, Summary};
use perfbench::trace::{self, Span};
use perfbench::workload::{self, Arrival, Kind, Plan, Req, Workload};
use sider_json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The end-to-end metrics every workload reports (`BENCHMARK.json`).
/// These are the ones whose run-to-run spread stays within the bound on
/// a shared 2-vCPU host; the others are printed on `metric` lines.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("knowledge_p50_ms", "ms"),
    ("view_p50_ms", "ms"),
    ("max_rps", "1/s"),
];

/// The per-layer metrics every workload reports (`BENCHMARK.json`);
/// a layer a workload does not reach reads 0.
const PER_LAYER: [(&str, &str); 50] = [
    ("client.late_ms.p50", "ms"),
    ("client.late_ms.max", "ms"),
    ("server.parse_us", "us"),
    ("server.body_json_us", "us"),
    ("server.serialise_us", "us"),
    ("server.response_bytes", "bytes"),
    ("server.edge_us.knowledge", "us"),
    ("server.edge_us.update", "us"),
    ("server.edge_us.view", "us"),
    ("server.edge_us.snapshot", "us"),
    ("server.edge_us.suggest", "us"),
    ("server.lock_wait_us.p50", "us"),
    ("server.lock_wait_us.p99", "us"),
    ("core.knowledge_us", "us"),
    ("core.update_us", "us"),
    ("core.view_us", "us"),
    ("maxent.sweeps", "count"),
    ("maxent.nonconverged", "count"),
    ("maxent.eigen_recomputed", "count"),
    ("maxent.classes", "count"),
    ("maxent.sample_us", "us"),
    ("maxent.sample_us.pool1", "us"),
    ("maxent.sample.gflops", "GFLOP/s"),
    ("maxent.whiten_us", "us"),
    ("maxent.whiten_us.pool1", "us"),
    ("maxent.whiten.gflops", "GFLOP/s"),
    ("maxent.moment_us", "us"),
    ("maxent.moment_us.pool1", "us"),
    ("maxent.moment.gflops", "GFLOP/s"),
    ("linalg.eigen_us", "us"),
    ("projection.pca_us", "us"),
    ("projection.pca_us.pool1", "us"),
    ("projection.fastica_us", "us"),
    ("projection.fastica_us.pool1", "us"),
    ("projection.fastica_iters", "count"),
    ("projection.fastica_converged", "count"),
    ("suggest.recommend_us", "us"),
    ("suggest.candidates", "count"),
    ("store.append_us.p50", "us"),
    ("store.append_us.p99", "us"),
    ("store.appends", "count"),
    ("store.wal_bytes", "bytes"),
    ("store.checkpoints", "count"),
    ("store.recover_us", "us"),
    ("store.replayed_ops", "count"),
    ("replication.ship_bytes", "bytes"),
    ("replication.shipped_records", "count"),
    ("replication.lag_max", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
];

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seed2: Option<u64>,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        map.insert(key.to_string(), value.clone());
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing --{k}"));
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("--{k}: not a whole number"))
    };
    let workload = Workload::parse(get("workload")?)
        .ok_or_else(|| format!("unknown workload {:?}", map["workload"]))?;
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let seed2 = map
        .contains_key("seed2")
        .then(|| num("seed2"))
        .transpose()?;
    for k in map.keys() {
        if !["workload", "seed", "seed2", "seconds", "trace"].contains(&k.as_str()) {
            return Err(format!("unknown flag --{k}"));
        }
    }
    Ok(Args {
        workload,
        seed: num("seed")?,
        seed2,
        seconds: num("seconds")?.max(1),
        trace,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve") {
        if let Err(e) = serve(&argv[1..]) {
            eprintln!("perfbench serve: {e}");
            std::process::exit(2);
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("host {}", host_json(nproc, &args).dump());
    let mut seeds = vec![args.seed];
    seeds.extend(args.seed2);
    let mut results = Vec::new();
    for &seed in &seeds {
        match run(args.workload, seed, args.seconds, args.trace, nproc) {
            Ok(r) => results.push(r),
            Err(e) => {
                eprintln!("perfbench: {} seed {seed}: {e}", args.workload.as_str());
                std::process::exit(1);
            }
        }
    }
    let correct = results.iter().all(|r| r.correct);
    for (r, seed) in results.iter().zip(&seeds).skip(1) {
        println!("result seed {seed} {}", r.to_json(args.trace).dump());
    }
    let mut first = results.swap_remove(0);
    first.correct = correct;
    println!("{}", first.to_json(args.trace).dump());
    if !correct {
        std::process::exit(1);
    }
}

/// The host every result is recorded with.
fn host_json(nproc: usize, args: &Args) -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .and_then(|r| r.split(':').nth(1))
        })
        .map_or("unknown", str::trim)
        .to_string();
    let processors = cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count();
    let mut caches = Vec::new();
    for k in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{k}");
        let read =
            |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).map(|s| s.trim().to_string());
        if let (Ok(level), Ok(kind), Ok(size)) = (read("level"), read("type"), read("size")) {
            caches.push(Json::from(format!("L{level} {kind} {size}")));
        }
    }
    Json::obj([
        ("nproc", Json::from(processors.max(1))),
        ("available_parallelism", Json::from(nproc)),
        ("cpu_model", Json::from(model)),
        ("caches", Json::Arr(caches)),
        ("client_threads", Json::from(nproc)),
        ("server_stripes", Json::from(nproc)),
        ("workload", Json::from(args.workload.as_str())),
        ("seed", Json::from(args.seed)),
        ("seed2", args.seed2.map_or(Json::Null, Json::from)),
        ("seconds", Json::from(args.seconds)),
        ("trace", Json::from(args.trace)),
    ])
}

/// `perfbench serve`: bind a `sider_server` on an ephemeral port, print
/// `<addr> <ship-addr|->`, and serve until stdin closes.
fn serve(argv: &[String]) -> Result<(), String> {
    let mut config = sider_server::ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: Some(1),
        ..Default::default()
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--stripes" => config.stripes = value()?.parse().map_err(|_| "--stripes")?,
            "--max-sessions" => {
                config.max_sessions = value()?.parse().map_err(|_| "--max-sessions")?
            }
            "--data-dir" => config.store = Some(replay::store_config(Path::new(&value()?))),
            "--follow" => config.follow = Some(value()?),
            "--ship" => config.ship_addr = Some("127.0.0.1:0".into()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let server = sider_server::Server::bind(config).map_err(|e| format!("bind: {e}"))?;
    let ship = server
        .ship_addr()
        .map_or("-".to_string(), |a| a.to_string());
    println!("{} {ship}", server.local_addr());
    // The parent holds our stdin; when it goes away, so do we.
    std::thread::spawn(|| {
        net::drain(std::io::stdin());
        std::process::exit(0);
    });
    server.run().map_err(|e| format!("run: {e}"))
}

/// Everything one run measured.
#[derive(Debug)]
struct RunResult {
    correct: bool,
    attempted: usize,
    failed: usize,
    /// Metrics by name: value and unit.
    metrics: BTreeMap<String, (f64, &'static str)>,
}

impl RunResult {
    fn to_json(&self, trace: bool) -> Json {
        let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let metrics = names
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(*name).map_or(0.0, |m| m.0);
                let value = if value.is_finite() { value } else { -1.0 };
                (
                    name.to_string(),
                    Json::obj([("value", Json::from(value)), ("unit", Json::from(*unit))]),
                )
            })
            .collect();
        Json::obj([
            ("correct", Json::from(self.correct)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

/// One measured phase over HTTP.
struct PhaseRun<'a> {
    name: &'a str,
    arrival: Arrival,
    reqs: &'a [Req],
    samples: Vec<net::Sample>,
    wall_s: f64,
}

/// The servers of one set-up.
struct Servers {
    leader: ServerProc,
    follower: Option<ServerProc>,
}

fn start_servers(
    w: Workload,
    nproc: usize,
    plan: &Plan,
    dirs: Option<(&Path, &Path)>,
) -> Result<Servers, String> {
    let base = ServeArgs {
        stripes: nproc,
        max_sessions: plan.sessions + 8,
        data_dir: None,
        ship: false,
        follow: None,
    };
    if !w.durable() {
        return Ok(Servers {
            leader: ServerProc::start(&base)?,
            follower: None,
        });
    }
    let (leader_dir, follower_dir) = dirs.expect("durable workloads have data dirs");
    let leader = ServerProc::start(&ServeArgs {
        data_dir: Some(leader_dir),
        ship: true,
        ..base.clone()
    })?;
    let follower = ServerProc::start(&ServeArgs {
        data_dir: Some(follower_dir),
        follow: leader.ship,
        ..base
    })?;
    Ok(Servers {
        leader,
        follower: Some(follower),
    })
}

fn run(
    w: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    nproc: usize,
) -> Result<RunResult, String> {
    let plan = workload::plan(w, seed, seconds);
    let work = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".perfbench_work")
        .join(format!("{}-{}-{seed}", std::process::id(), w.as_str()));
    let result = run_in(w, seed, trace, nproc, &plan, &work);
    let _ = std::fs::remove_dir_all(&work);
    if let Some(parent) = work.parent() {
        let _ = std::fs::remove_dir(parent); // only when no other run uses it
    }
    result
}

fn run_in(
    w: Workload,
    seed: u64,
    trace: bool,
    nproc: usize,
    plan: &Plan,
    work: &Path,
) -> Result<RunResult, String> {
    let dir = |name: &str| -> Result<PathBuf, String> {
        replay::fresh_dir(&work.join(name)).map_err(|e| format!("{name}: {e}"))
    };
    let mut metrics: BTreeMap<String, (f64, &'static str)> = BTreeMap::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        metrics.insert(name.to_string(), (value, unit));
    };
    let mut attempted = 0usize;
    let mut failed = 0usize;
    let mut problems: Vec<String> = Vec::new();

    // ---- HTTP run: set-up (repeated), then the measured phases --------
    let mut setup_times = Vec::new();
    let mut setup_hashes: Option<Vec<u64>> = None;
    let mut servers = None;
    let setup_reqs: Vec<Req> = plan.creates.iter().chain(&plan.warmup).cloned().collect();
    let mut setup_counts = Counts::new();
    for rep in 0..SETUP_REPS {
        drop(servers.take());
        let dirs = if w.durable() {
            Some((dir("leader")?, dir("follower")?))
        } else {
            None
        };
        let s = start_servers(
            w,
            nproc,
            plan,
            dirs.as_ref().map(|(a, b)| (a.as_path(), b.as_path())),
        )?;
        let addr = s.leader.addr;
        let (created, _) = net::run_phase(addr, &plan.creates, Arrival::Closed, 1);
        let (warmed, _) = net::run_phase(addr, &plan.warmup, Arrival::Closed, nproc);
        setup_times.push(s.leader.spawned.elapsed().as_secs_f64());
        let samples: Vec<_> = created.into_iter().chain(warmed).collect();
        tally(&mut setup_counts, &samples, &setup_reqs);
        attempted += samples.len();
        failed += samples.iter().filter(|s| !s.ok).count();
        let hashes: Vec<u64> = samples.iter().map(|s| s.hash).collect();
        match &setup_hashes {
            Some(first) if *first != hashes => {
                problems.push(format!("set-up {rep} answered differently from set-up 0"))
            }
            Some(_) => {}
            None => setup_hashes = Some(hashes),
        }
        servers = Some(s);
    }
    print_counts("setup", &setup_counts);
    let servers = servers.expect("at least one set-up");
    let addr = servers.leader.addr;
    put(
        "setup_s",
        stats::median(&setup_times).expect("set-ups ran"),
        "s",
    );

    // Replication lag, polled from the leader while traffic runs (traced
    // runs only, so the end-to-end run carries no extra connection).
    let lag_max = AtomicU64::new(0);
    let polling = AtomicBool::new(trace && w.durable());
    let phases: Vec<PhaseRun> = std::thread::scope(|scope| {
        if polling.load(Ordering::SeqCst) {
            scope.spawn(|| {
                while polling.load(Ordering::SeqCst) {
                    if let Ok(h) = net::get_json(addr, "/health") {
                        if let Some(fs) = h.path("replication.followers").and_then(Json::as_arr) {
                            for f in fs {
                                let lag = net::nums(f, "lag").into_iter().sum::<u64>();
                                lag_max.fetch_max(lag, Ordering::Relaxed);
                            }
                        }
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
            });
        }
        let runs = plan
            .phases
            .iter()
            .map(|p| {
                let (samples, wall_s) = net::run_phase(addr, &p.reqs, p.arrival, nproc);
                PhaseRun {
                    name: &p.name,
                    arrival: p.arrival,
                    reqs: &p.reqs,
                    samples,
                    wall_s,
                }
            })
            .collect();
        polling.store(false, Ordering::SeqCst);
        runs
    });
    let traffic_end = Instant::now();
    write_samples(w, seed, &phases)?;
    for p in &phases {
        attempted += p.samples.len();
        failed += p.samples.iter().filter(|s| !s.ok).count();
        let mut counts = Counts::new();
        tally(&mut counts, &p.samples, p.reqs);
        print_counts(p.name, &counts);
    }

    if let Some(follower) = &servers.follower {
        // Catch-up: the follower's applied seqs reach the leader's shipped.
        let shipped = |h: &Json| net::nums(h, "replication.shipped");
        let caught_up = net::wait_health(
            follower.addr,
            Duration::from_secs(60),
            Duration::from_millis(2),
            |fh| {
                let applied = net::nums(fh, "replication.applied");
                net::get_json(addr, "/health")
                    .is_ok_and(|lh| !applied.is_empty() && shipped(&lh) == applied)
            },
        );
        match caught_up {
            Ok(_) => put("catchup_s", traffic_end.elapsed().as_secs_f64(), "s"),
            Err(e) => problems.push(format!("follower catch-up: {e}")),
        }
        let store = net::get_json(addr, "/api/store")?;
        let ship = store.get("ship").and_then(Json::as_arr).unwrap_or(&[]);
        let total = |k: &str| ship.iter().filter_map(|r| r.get(k)?.as_num()).sum::<f64>();
        put("replication.ship_bytes", total("bytes"), "bytes");
        put("replication.shipped_records", total("seq"), "count");
        put(
            "replication.lag_max",
            lag_max.load(Ordering::Relaxed) as f64,
            "count",
        );
    }
    let Servers { leader, follower } = servers;
    drop(follower);
    if w.durable() {
        // Stop the leader hard, restart it on its data dir, and time
        // recovery until every session answers.
        leader.kill();
        let restarted = ServerProc::start(&ServeArgs {
            stripes: nproc,
            max_sessions: plan.sessions + 8,
            data_dir: Some(&work.join("leader")),
            ship: true,
            follow: None,
        })?;
        let want = plan.sessions as f64;
        let recovered = net::wait_health(
            restarted.addr,
            Duration::from_secs(120),
            Duration::from_millis(2),
            |h| h.get("sessions").and_then(Json::as_num) == Some(want),
        );
        match recovered {
            Ok(_) => put("recover_s", restarted.spawned.elapsed().as_secs_f64(), "s"),
            Err(e) => problems.push(format!("recovery: {e}")),
        }
    } else {
        drop(leader);
    }

    // ---- Correctness: in-process reference replay through api::handle --
    let spec = |store: Option<PathBuf>| ManagerSpec {
        stripes: nproc,
        max_sessions: plan.sessions + 8,
        store_dir: store,
    };
    let reqs: Vec<&Req> = plan.all().collect();
    let fresh = |name: &str| -> Result<_, String> {
        spec(if w.durable() { Some(dir(name)?) } else { None }).build()
    };
    let (reference, reference_wall) = replay::reference(&fresh("reference")?, &reqs, nproc);
    let http_hashes: Vec<u64> = setup_hashes
        .expect("at least one set-up")
        .into_iter()
        .chain(phases.iter().flat_map(|p| p.samples.iter().map(|s| s.hash)))
        .collect();
    let ref_hashes: Vec<u64> = reference.iter().map(|s| s.hash).collect();
    check_digest("HTTP responses", &http_hashes, &ref_hashes, &mut problems);
    println!(
        "digest {} requests http={:016x} reference={:016x}",
        ref_hashes.len(),
        fold(&http_hashes),
        fold(&ref_hashes)
    );

    // ---- End-to-end metrics --------------------------------------------
    // The open-loop phase (nominal rate, or the rounds) gives latency from
    // the due time and the generator's lateness. The closed-loop phase
    // (saturation, or the rounds: `nproc` clients back to back) gives the
    // per-endpoint medians, as send-to-completion times, and `max_rps`.
    let phase = |names: [&str; 2]| {
        phases
            .iter()
            .find(|p| names.contains(&p.name))
            .expect("every workload has this phase")
    };
    let open = phase(["nominal", "rounds"]);
    let closed = phase(["saturation", "rounds"]);
    // Plan index of the closed-loop phase's first request.
    let base = plan.creates.len()
        + plan.warmup.len()
        + plan
            .phases
            .iter()
            .take_while(|p| p.name != closed.name)
            .map(|p| p.reqs.len())
            .sum::<usize>();
    // A failed request misses every latency limit.
    let miss = |s: &net::Sample, ms: f64| if s.ok { ms } else { f64::INFINITY };
    let lat =
        |p: &PhaseRun| -> Vec<f64> { p.samples.iter().map(|s| miss(s, s.latency_ms)).collect() };
    if let Some(s) = Summary::of(&lat(open), 99.0) {
        put("p50_ms", s.p50, "ms");
        // Named after the percentile the sample supports (p99 at the
        // nominal rate; lower for the few requests of `paper-rounds`).
        if let Some((q, v)) = s.tail {
            put(&format!("p{q}_ms"), v, "ms");
            println!(
                "tail {} n={} p{q} (nearest rank, ≥{} samples beyond)",
                open.name,
                s.n,
                stats::MIN_BEYOND
            );
        }
    }
    // Updates are split by whether they refit (see `workload::refits`).
    let refit = workload::refits(plan);
    let mut by_kind: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (i, (s, r)) in closed.samples.iter().zip(closed.reqs).enumerate() {
        let name = match r.kind {
            Kind::Update if !refit[base + i] => "update_noop",
            kind => kind.as_str(),
        };
        by_kind.entry(name).or_default().push(miss(s, s.service_ms));
    }
    for (name, v) in &by_kind {
        put(
            &format!("{name}_p50_ms"),
            stats::median(v).expect("non-empty"),
            "ms",
        );
    }
    let ok_rate =
        |p: &PhaseRun| p.samples.iter().filter(|s| s.ok).count() as f64 / p.wall_s.max(1e-9);
    put("max_rps", ok_rate(closed), "1/s");
    let mut knee = None;
    for p in phases.iter().filter(|p| p.name.starts_with("ladder-")) {
        let s = Summary::of(&lat(p), 99.0);
        // The backlog grows when completions fall behind the offered rate.
        let offered =
            p.reqs.len() as f64 / p.reqs.last().map_or(1.0, |r| r.due.as_secs_f64()).max(1e-9);
        let tail = s.and_then(|s| s.tail).map_or(f64::INFINITY, |t| t.1);
        let passes = tail <= workload::SLO_MS && ok_rate(p) >= workload::KEEP_UP * offered;
        println!(
            "ladder {} offered={offered:.1}/s achieved={:.1}/s tail={tail:.3}ms {}",
            p.name,
            ok_rate(p),
            if passes { "within SLO" } else { "over SLO" }
        );
        if passes {
            knee = Some(ok_rate(p));
        }
    }
    if let Some(k) = knee {
        put("knee_rps", k, "1/s");
    }
    if open.arrival == Arrival::Closed {
        put("round_p50_s", round_median(open), "s");
    }
    put(
        "error_rate",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    );
    let late: Vec<f64> = open.samples.iter().map(|s| s.late_ms).collect();
    if let Some(s) = Summary::of(&late, 99.0) {
        put("client.late_ms.p50", s.p50, "ms");
        put("client.late_ms.max", s.max, "ms");
    }

    // ---- Traced in-process replay (per-layer metrics) ------------------
    if trace {
        let manager = fresh("traced")?;
        let traced = replay::replay(&manager, &reqs, nproc);
        check_digest("traced replay", &traced.hashes, &ref_hashes, &mut problems);
        let w0 = reference_wall.as_secs_f64();
        put(
            "trace.overhead_pct",
            (traced.wall.as_secs_f64() - w0) / w0 * 100.0,
            "%",
        );
        layer_metrics(&mut put, plan, &traced, &reference, closed, base);
        write_out(w, seed, "spans", |out| {
            traced
                .spans
                .iter()
                .try_for_each(|thread| trace::write_tsv(out, thread))
        })?;

        let slot = manager.get("s1").ok_or("traced replay lost s1")?;
        let report = {
            let session = slot.lock()?;
            probes::run(&session, seed, nproc)?
        };
        drop(slot);
        for p in &report.probes {
            put(&format!("{}_us", p.name), p.us_pool_n, "us");
            put(&format!("{}_us.pool1", p.name), p.us_pool1, "us");
            put(&format!("{}.gflops", p.name), p.gflops(), "GFLOP/s");
            println!(
                "probe {} n={} d={} pool1={:.1}us pool{nproc}={:.1}us flops={:.3e} bytes={:.3e} (computed from array sizes)",
                p.name, report.shape.0, report.shape.1, p.us_pool1, p.us_pool_n, p.flops, p.bytes
            );
        }
        put(
            "projection.fastica_iters",
            report.fastica_iters as f64,
            "count",
        );
        put(
            "projection.fastica_converged",
            f64::from(u8::from(report.fastica_converged)),
            "count",
        );
        for m in &report.mismatches {
            problems.push(format!(
                "{m}: output differs between pool 1 and pool {nproc}"
            ));
        }
        if w.durable() {
            let (appends, wal_bytes) = replay::store_totals(&manager);
            put("store.appends", appends as f64, "count");
            put("store.wal_bytes", wal_bytes as f64, "bytes");
            put(
                "store.replayed_ops",
                replay::wal_records(&manager) as f64,
                "count",
            );
            drop(manager);
            let t = Instant::now();
            let recovered = spec(Some(work.join("traced"))).build()?;
            put("store.recover_us", t.elapsed().as_secs_f64() * 1e6, "us");
            if recovered.len() != plan.sessions {
                problems.push(format!(
                    "in-process recovery rebuilt {} of {} sessions",
                    recovered.len(),
                    plan.sessions
                ));
            }
        }
    }

    for (name, (value, unit)) in &metrics {
        println!("metric {} {name} = {value} {unit}", w.as_str());
    }
    for p in &problems {
        eprintln!("perfbench: INCORRECT: {p}");
    }
    Ok(RunResult {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
    })
}

/// Fold a hash sequence into one digest.
fn fold(hashes: &[u64]) -> u64 {
    hashes
        .iter()
        .fold(0, |h, x| stats::fnv1a(h, &x.to_le_bytes()))
}

fn check_digest(what: &str, got: &[u64], want: &[u64], problems: &mut Vec<String>) {
    if got.len() != want.len() {
        problems.push(format!(
            "{what}: {} responses, reference has {}",
            got.len(),
            want.len()
        ));
    } else if let Some(i) = (0..got.len()).find(|&i| got[i] != want[i]) {
        let n = (0..got.len()).filter(|&i| got[i] != want[i]).count();
        problems.push(format!(
            "{what}: {n} response(s) differ from the reference replay, first at request {i}"
        ));
    }
}

/// Sent and succeeded requests per endpoint.
type Counts = BTreeMap<&'static str, (usize, usize)>;

fn tally(counts: &mut Counts, samples: &[net::Sample], reqs: &[Req]) {
    for (s, r) in samples.iter().zip(reqs) {
        let c = counts.entry(r.kind.as_str()).or_default();
        c.0 += 1;
        c.1 += usize::from(s.ok);
    }
}

fn print_counts(phase: &str, counts: &Counts) {
    for (kind, (sent, ok)) in counts {
        println!(
            "phase {phase} endpoint {kind} sent={sent} succeeded={ok} failed={}",
            sent - ok
        );
    }
}

/// Median analyst round (knowledge send to suggest completion), s.
fn round_median(p: &PhaseRun) -> f64 {
    let mut rounds = Vec::new();
    let mut open: BTreeMap<usize, f64> = BTreeMap::new();
    for (s, r) in p.samples.iter().zip(p.reqs) {
        let sent = s.done_s - s.service_ms / 1e3;
        match r.kind {
            Kind::Knowledge => {
                open.insert(r.session, sent);
            }
            Kind::Suggest => {
                if let Some(start) = open.remove(&r.session) {
                    rounds.push(s.done_s - start);
                }
            }
            _ => {}
        }
    }
    stats::median(&rounds).unwrap_or(0.0)
}

/// Per-request trace: total, covered-by-children and self time by span
/// name (µs).
#[derive(Debug, Default, Clone)]
struct ReqTrace {
    total_us: f64,
    covered_us: f64,
    by_name: BTreeMap<&'static str, f64>,
}

fn per_request(spans: &[Vec<Span>], n: usize) -> Vec<ReqTrace> {
    let mut out = vec![ReqTrace::default(); n];
    for thread in spans {
        let own = trace::self_times(thread);
        let cover = trace::child_coverage(thread);
        for (i, s) in thread.iter().enumerate() {
            let t = &mut out[s.request];
            if s.parent.is_none() {
                t.total_us += s.duration() as f64 / 1e3;
                t.covered_us += cover[i] as f64 / 1e3;
            } else {
                *t.by_name.entry(s.name).or_default() += own[i] as f64 / 1e3;
            }
        }
    }
    out
}

fn layer_metrics(
    put: &mut impl FnMut(&str, f64, &'static str),
    plan: &Plan,
    traced: &replay::ReplayOutcome,
    reference: &[replay::Served],
    closed: &PhaseRun,
    base: usize,
) {
    let reqs: Vec<&Req> = plan.all().collect();
    let traces = per_request(&traced.spans, reqs.len());
    let (total, covered) = traces
        .iter()
        .fold((0.0, 0.0), |a, t| (a.0 + t.total_us, a.1 + t.covered_us));
    put("trace.coverage_pct", covered / total.max(1e-9) * 100.0, "%");
    put(
        "trace.spans",
        traced.spans.iter().map(Vec::len).sum::<usize>() as f64,
        "count",
    );
    put("trace.requests", reqs.len() as f64, "count");
    let p = |v: &[f64], q: f64| stats::nearest_rank(&stats::sorted(v), q).unwrap_or(0.0);
    let named = |name: &str, kinds: &[Kind]| -> Vec<f64> {
        traces
            .iter()
            .zip(&reqs)
            .filter(|(_, r)| kinds.is_empty() || kinds.contains(&r.kind))
            .filter_map(|(t, _)| t.by_name.get(name).copied())
            .collect()
    };
    put("server.parse_us", p(&named("parse", &[]), 50.0), "us");
    put(
        "server.body_json_us",
        p(&named("body_json", &[]), 50.0),
        "us",
    );
    put(
        "server.serialise_us",
        p(&named("serialise", &[]), 50.0),
        "us",
    );
    let bytes: Vec<f64> = traced.response_bytes.iter().map(|&b| b as f64).collect();
    put("server.response_bytes", p(&bytes, 50.0), "bytes");
    let lock = named("lock", &[]);
    put("server.lock_wait_us.p50", p(&lock, 50.0), "us");
    put("server.lock_wait_us.p99", p(&lock, 99.0), "us");
    put(
        "core.knowledge_us",
        p(&named("apply", &[Kind::Knowledge]), 50.0),
        "us",
    );
    put(
        "core.view_us",
        p(&named("apply", &[Kind::View]), 50.0),
        "us",
    );
    // Refitting updates only, like `update_p50_ms`.
    let refit = workload::refits(plan);
    let refits: Vec<f64> = traces
        .iter()
        .zip(&refit)
        .filter(|(_, &r)| r)
        .filter_map(|(t, _)| t.by_name.get("apply").copied())
        .collect();
    put("core.update_us", p(&refits, 50.0), "us");
    put(
        "suggest.recommend_us",
        p(&named("apply", &[Kind::Suggest]), 50.0),
        "us",
    );
    let suggests = reqs.iter().filter(|r| r.kind == Kind::Suggest).count();
    put("suggest.candidates", (suggests * 64) as f64, "count");
    let append = named("append", &[]);
    put("store.append_us.p50", p(&append, 50.0), "us");
    put("store.append_us.p99", p(&append, 99.0), "us");
    put(
        "store.checkpoints",
        named("checkpoint", &[]).len() as f64,
        "count",
    );

    // Serving edge: HTTP p50 (send to completion) minus in-process p50,
    // per endpoint, over the closed-loop phase.
    for kind in [
        Kind::Knowledge,
        Kind::Update,
        Kind::View,
        Kind::Snapshot,
        Kind::Suggest,
    ] {
        let idx: Vec<usize> = (0..closed.reqs.len())
            .filter(|&i| closed.reqs[i].kind == kind)
            .collect();
        if idx.is_empty() {
            continue;
        }
        let http: Vec<f64> = idx
            .iter()
            .map(|&i| closed.samples[i].service_ms * 1e3)
            .collect();
        let inproc: Vec<f64> = idx.iter().map(|&i| traces[base + i].total_us).collect();
        put(
            &format!("server.edge_us.{}", kind.as_str()),
            p(&http, 50.0) - p(&inproc, 50.0),
            "us",
        );
    }

    // Solver counters from the update responses.
    let updates: Vec<&Json> = reference.iter().filter_map(|s| s.update.as_ref()).collect();
    let num = |j: &Json, path: &str| j.path(path).and_then(Json::as_num).unwrap_or(0.0);
    put(
        "maxent.sweeps",
        updates.iter().map(|j| num(j, "report.sweeps")).sum(),
        "count",
    );
    put(
        "maxent.nonconverged",
        updates
            .iter()
            .filter(|j| j.path("report.converged").and_then(Json::as_bool) == Some(false))
            .count() as f64,
        "count",
    );
    put(
        "maxent.eigen_recomputed",
        updates
            .iter()
            .map(|j| num(j, "refresh.eigen_recomputed"))
            .sum(),
        "count",
    );
    put(
        "maxent.classes",
        updates
            .iter()
            .map(|j| num(j, "refresh.classes_total"))
            .fold(0.0, f64::max),
        "count",
    );
}

/// Create `.perfbench_out/<stem>-<workload>-seed<n>.tsv` and fill it.
fn write_out(
    w: Workload,
    seed: u64,
    stem: &str,
    fill: impl FnOnce(&mut dyn std::io::Write) -> std::io::Result<()>,
) -> Result<(), String> {
    use std::io::Write;
    let dir = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".perfbench_out");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("{stem}-{}-seed{seed}.tsv", w.as_str()));
    let file = std::fs::File::create(&path).map_err(|e| e.to_string())?;
    let mut out = std::io::BufWriter::new(file);
    fill(&mut out)
        .and_then(|()| out.flush())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{stem} written to {}", path.display());
    Ok(())
}

/// Every measured HTTP request, one line each.
fn write_samples(w: Workload, seed: u64, phases: &[PhaseRun]) -> Result<(), String> {
    write_out(w, seed, "samples", |out| {
        writeln!(
            out,
            "phase\tkind\tsession\tok\tlatency_ms\tservice_ms\tlate_ms\tdone_s"
        )?;
        for p in phases {
            for (s, r) in p.samples.iter().zip(p.reqs) {
                writeln!(
                    out,
                    "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                    p.name,
                    r.kind.as_str(),
                    r.session,
                    s.ok,
                    s.latency_ms,
                    s.service_ms,
                    s.late_ms,
                    s.done_s
                )?;
            }
        }
        Ok(())
    })
}
