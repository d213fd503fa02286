//! The three workloads as pure functions of `(seed, seconds)`.
//!
//! A [`Plan`] is every request the server will receive, in schedule
//! order: serial creates, the cold fits that finish the session
//! population, then the measured phases. Nothing here touches a clock or
//! a socket, so the HTTP run, the serial digest replay and the traced
//! replay all send byte-identical requests.

use sider_json::Json;
use sider_loadgen::{build_schedule, Endpoint, LoadConfig};
use sider_stats::Rng;
use std::time::Duration;

/// Sessions in the `small-mixed` and `durable-follow` populations.
pub const MIXED_SESSIONS: usize = 64;
/// Rows of the builtin `fig2` dataset (150 × 3).
pub const FIG2_ROWS: usize = 150;
/// Offered rate of the nominal open-loop phase, requests/second.
pub const NOMINAL_RPS: f64 = 250.0;
/// Offered rates of the `small-mixed` capacity ladder, requests/second.
pub const LADDER_RPS: [f64; 5] = [500.0, 750.0, 1000.0, 1500.0, 2000.0];
/// Latency limit on the tail percentile that defines the knee, ms.
pub const SLO_MS: f64 = 50.0;
/// Share of a ladder rung's offered rate that must complete for the
/// backlog to count as steady.
pub const KEEP_UP: f64 = 0.95;
/// Analysts (one session each) in `paper-rounds`.
pub const ANALYSTS: usize = 2;
/// The Table II grid point `paper-rounds` runs on: n, d, clusters.
pub const PAPER_GRID: (usize, usize, usize) = (4096, 32, 4);
/// Wall time of one `paper-rounds` round, used only to size the phase
/// from `--seconds` (the round count is fixed before the run starts).
pub const ROUND_S_ESTIMATE: f64 = 3.0;

/// Which API endpoint a request exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kind {
    /// `POST /api/sessions`.
    Create,
    /// `POST …/knowledge`.
    Knowledge,
    /// `POST …/update`.
    Update,
    /// `POST …/view`.
    View,
    /// `GET …/snapshot`.
    Snapshot,
    /// `POST …/suggest`.
    Suggest,
}

impl Kind {
    /// Report name.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Create => "create",
            Kind::Knowledge => "knowledge",
            Kind::Update => "update",
            Kind::View => "view",
            Kind::Snapshot => "snapshot",
            Kind::Suggest => "suggest",
        }
    }
}

/// One request of a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Req {
    /// Endpoint.
    pub kind: Kind,
    /// Session the request targets (for a create, the ID it will mint).
    pub session: usize,
    /// HTTP method.
    pub method: &'static str,
    /// Request path.
    pub path: String,
    /// Request body.
    pub body: String,
    /// When the request is due, relative to its phase start.
    pub due: Duration,
}

impl Req {
    fn post(kind: Kind, session: usize, op: &str, body: String) -> Req {
        Req {
            kind,
            session,
            method: "POST",
            path: format!("/api/sessions/s{session}/{op}"),
            body,
            due: Duration::ZERO,
        }
    }

    fn create(session: usize, body: String) -> Req {
        Req {
            kind: Kind::Create,
            session,
            method: "POST",
            path: "/api/sessions".into(),
            body,
            due: Duration::ZERO,
        }
    }

    /// The request as HTTP/1.1 bytes, exactly as the client sends it.
    pub fn wire_bytes(&self) -> Vec<u8> {
        format!(
            "{} {} HTTP/1.1\r\nHost: sider\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            self.method,
            self.path,
            self.body.len(),
            self.body
        )
        .into_bytes()
    }
}

/// How a phase offers its requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// Open loop: each request is sent at its due time; latency counts
    /// from the due time.
    Open,
    /// Every request is due at the phase start, far above capacity; the
    /// phase measures completed requests per second.
    Saturate,
    /// Closed loop: a client sends its next request when the previous
    /// one returns; latency counts from the send.
    Closed,
}

/// One measured phase.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Report name (`nominal`, `ladder-1500`, `saturation`, `rounds`).
    pub name: String,
    /// Arrival process.
    pub arrival: Arrival,
    /// The requests, in schedule order.
    pub reqs: Vec<Req>,
}

/// A workload name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 64 `fig2` sessions, open-loop mix, capacity ladder.
    SmallMixed,
    /// Two closed-loop analysts at a Table II grid point.
    PaperRounds,
    /// The `small-mixed` traffic against a durable leader with a follower.
    DurableFollow,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::SmallMixed,
        Workload::PaperRounds,
        Workload::DurableFollow,
    ];

    /// Command-line name.
    pub fn as_str(self) -> &'static str {
        match self {
            Workload::SmallMixed => "small-mixed",
            Workload::PaperRounds => "paper-rounds",
            Workload::DurableFollow => "durable-follow",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.as_str() == name)
    }

    /// Whether the server runs with a data dir (and a follower).
    pub fn durable(self) -> bool {
        self == Workload::DurableFollow
    }
}

/// Every request of one run of a workload.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Number of sessions the creates mint (`s1..=sessions`).
    pub sessions: usize,
    /// Session creates, sent serially so the IDs are dense and fixed.
    pub creates: Vec<Req>,
    /// Cold fits that finish the population (part of set-up time).
    pub warmup: Vec<Req>,
    /// The measured phases.
    pub phases: Vec<Phase>,
}

impl Plan {
    /// Every request in schedule order.
    pub fn all(&self) -> impl Iterator<Item = &Req> {
        self.creates
            .iter()
            .chain(&self.warmup)
            .chain(self.phases.iter().flat_map(|p| &p.reqs))
    }
}

/// A seed below 2^53, so it survives the JSON number round trip.
fn json_seed(rng: &mut Rng) -> u64 {
    rng.next_u64() >> 11
}

/// A `cluster` knowledge body over `rows`.
fn cluster_body(rows: &[usize]) -> String {
    Json::obj([
        ("kind", Json::from("cluster")),
        ("rows", Json::arr(rows.iter().map(|&r| Json::from(r)))),
    ])
    .dump()
}

/// Convert a `sider_loadgen` schedule entry.
fn from_schedule(s: &sider_loadgen::ScheduledRequest) -> Req {
    let kind = match s.endpoint {
        Endpoint::Create => Kind::Create,
        Endpoint::Knowledge => Kind::Knowledge,
        Endpoint::Update => Kind::Update,
        Endpoint::View => Kind::View,
        Endpoint::Snapshot => Kind::Snapshot,
        Endpoint::Suggest => Kind::Suggest,
    };
    let session = s
        .path
        .split('/')
        .find_map(|seg| seg.strip_prefix('s').and_then(|n| n.parse().ok()))
        .expect("scheduled paths name a session");
    Req {
        kind,
        session,
        method: s.method,
        path: s.path.clone(),
        body: s.body.clone(),
        due: s.offset,
    }
}

/// The `build_schedule` mix over the mixed population at `rps` for
/// `requests` requests, drawn from substream `stream` of `seed`.
fn mixed_phase(
    name: String,
    arrival: Arrival,
    seed: u64,
    stream: u64,
    rps: f64,
    requests: usize,
) -> Phase {
    let config = LoadConfig {
        sessions: MIXED_SESSIONS,
        requests,
        rps,
        seed: Rng::substream(seed, stream).next_u64(),
        dataset_rows: FIG2_ROWS,
        ..LoadConfig::smoke("unused")
    };
    Phase {
        name,
        arrival,
        reqs: build_schedule(&config).iter().map(from_schedule).collect(),
    }
}

/// The 64-session `fig2` population: create, one cluster statement and a
/// cold fit per session.
fn mixed_population(seed: u64) -> (Vec<Req>, Vec<Req>) {
    let mut rng = Rng::substream(seed, 1);
    let creates = (1..=MIXED_SESSIONS)
        .map(|s| {
            let body = Json::obj([
                ("dataset", Json::from("fig2")),
                ("seed", Json::from(json_seed(&mut rng))),
            ]);
            Req::create(s, body.dump())
        })
        .collect();
    let warmup = (1..=MIXED_SESSIONS)
        .flat_map(|s| {
            let rows = rng.sample_indices(FIG2_ROWS, FIG2_ROWS / 10);
            [
                Req::post(Kind::Knowledge, s, "knowledge", cluster_body(&rows)),
                Req::post(Kind::Update, s, "update", "{}".into()),
            ]
        })
        .collect();
    (creates, warmup)
}

/// Share of `seconds` spent in the nominal phase.
const NOMINAL_SHARE: f64 = 0.5;
/// Share of `seconds` spent in each ladder rung of `small-mixed`.
const RUNG_SHARE: f64 = 0.05;
/// Saturation-phase requests per second of `--seconds`.
const SATURATION_PER_S: f64 = 300.0;

fn small_mixed(seed: u64, seconds: f64) -> Plan {
    let mut plan = durable_follow(seed, seconds);
    for (k, &rate) in LADDER_RPS.iter().enumerate() {
        plan.phases.push(mixed_phase(
            format!("ladder-{rate}"),
            Arrival::Open,
            seed,
            10 + k as u64,
            rate,
            (rate * RUNG_SHARE * seconds).round().max(1.0) as usize,
        ));
    }
    plan
}

fn saturation(seed: u64, seconds: f64) -> Phase {
    mixed_phase(
        "saturation".into(),
        Arrival::Saturate,
        seed,
        3,
        1e9,
        (SATURATION_PER_S * seconds).round() as usize,
    )
}

/// The traffic `durable-follow` sends, and `small-mixed` sends before its
/// ladder: the population, the nominal phase, then saturation. Sharing
/// it is what lets the two workloads isolate the store's cost.
fn durable_follow(seed: u64, seconds: f64) -> Plan {
    let (creates, warmup) = mixed_population(seed);
    Plan {
        sessions: MIXED_SESSIONS,
        creates,
        warmup,
        phases: vec![
            mixed_phase(
                "nominal".into(),
                Arrival::Open,
                seed,
                2,
                NOMINAL_RPS,
                (NOMINAL_RPS * NOMINAL_SHARE * seconds).round() as usize,
            ),
            saturation(seed, seconds),
        ],
    }
}

/// Analyst `a`'s dataset. The matrices are fixed: the workload seed
/// varies what the analysts select and ask, not the data they explore,
/// so runs on different seeds do comparable work.
pub fn paper_dataset(analyst: usize) -> sider_data::Dataset {
    let (n, d, k) = PAPER_GRID;
    sider_data::synthetic::runtime_dataset(n, d, k, 2018 + analyst as u64)
}

fn paper_rounds(seed: u64, seconds: f64) -> Plan {
    let (n, _, k) = PAPER_GRID;
    let rounds = (seconds / ROUND_S_ESTIMATE).round().max(2.0) as usize;
    let mut rng = Rng::substream(seed, 4);
    let mut creates = Vec::new();
    let mut warmup = Vec::new();
    for a in 1..=ANALYSTS {
        let ds = paper_dataset(a);
        let csv = sider_data::csv::matrix_to_string(&ds.column_names, &ds.matrix);
        let body = Json::obj([
            ("name", Json::from(format!("analyst-{a}"))),
            ("csv", Json::from(csv)),
            ("seed", Json::from(json_seed(&mut rng))),
        ]);
        creates.push(Req::create(a, body.dump()));
        warmup.push(Req::post(
            Kind::Knowledge,
            a,
            "knowledge",
            r#"{"kind":"margin"}"#.into(),
        ));
        warmup.push(Req::post(Kind::Update, a, "update", "{}".into()));
    }
    // Each analyst marks one true cluster per round, in a seeded order,
    // keeping each of its rows with probability 3/4.
    let orders: Vec<Vec<usize>> = (0..ANALYSTS)
        .map(|_| {
            let mut order: Vec<usize> = (0..k).collect();
            rng.shuffle(&mut order);
            order
        })
        .collect();
    let mut reqs = Vec::new();
    for r in 0..rounds {
        for a in 1..=ANALYSTS {
            let cluster = orders[a - 1][r % k];
            let rows: Vec<usize> = (cluster..n)
                .step_by(k)
                .filter(|_| rng.uniform() < 0.75)
                .collect();
            let suggest = Json::obj([
                ("batch", Json::from(64usize)),
                ("k", Json::from(8usize)),
                ("seed", Json::from(json_seed(&mut rng))),
            ]);
            reqs.push(Req::post(
                Kind::Knowledge,
                a,
                "knowledge",
                cluster_body(&rows),
            ));
            reqs.push(Req::post(Kind::Update, a, "update", "{}".into()));
            reqs.push(Req::post(
                Kind::View,
                a,
                "view",
                r#"{"method":"pca"}"#.into(),
            ));
            reqs.push(Req::post(Kind::Suggest, a, "suggest", suggest.dump()));
        }
    }
    Plan {
        sessions: ANALYSTS,
        creates,
        warmup,
        phases: vec![Phase {
            name: "rounds".into(),
            arrival: Arrival::Closed,
            reqs,
        }],
    }
}

/// Every request `workload` sends in a run of `seconds`, from `seed`.
pub fn plan(workload: Workload, seed: u64, seconds: u64) -> Plan {
    let seconds = seconds as f64;
    match workload {
        Workload::SmallMixed => small_mixed(seed, seconds),
        Workload::PaperRounds => paper_rounds(seed, seconds),
        Workload::DurableFollow => durable_follow(seed, seconds),
    }
}

/// For every request of `plan.all()`: whether it is an `update` that
/// refits, i.e. its session received knowledge since its last update. An
/// update with nothing new to fit returns at once, so the two kinds are
/// timed apart.
pub fn refits(plan: &Plan) -> Vec<bool> {
    let mut dirty = vec![false; plan.sessions + 1];
    plan.all()
        .map(|r| match r.kind {
            Kind::Knowledge => {
                dirty[r.session] = true;
                false
            }
            Kind::Update => std::mem::replace(&mut dirty[r.session], false),
            _ => false,
        })
        .collect()
}

/// Session affinity: split `reqs` over `threads` clients so that every
/// session's requests go to one client, in schedule order. Returns the
/// request indices each client sends.
pub fn affinity<'a>(reqs: impl IntoIterator<Item = &'a Req>, threads: usize) -> Vec<Vec<usize>> {
    let threads = threads.max(1);
    let mut parts = vec![Vec::new(); threads];
    for (i, r) in reqs.into_iter().enumerate() {
        parts[(r.session.max(1) - 1) % threads].push(i);
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_pure_per_seed() {
        for w in Workload::ALL {
            let a: Vec<Req> = plan(w, 11, 4).all().cloned().collect();
            let b: Vec<Req> = plan(w, 11, 4).all().cloned().collect();
            let c: Vec<Req> = plan(w, 12, 4).all().cloned().collect();
            assert_eq!(a, b, "{} is not pure", w.as_str());
            assert_ne!(a, c, "{} ignores its seed", w.as_str());
        }
    }

    #[test]
    fn creates_mint_dense_ids_and_phases_stay_in_range() {
        for w in Workload::ALL {
            let p = plan(w, 5, 4);
            let ids: Vec<usize> = p.creates.iter().map(|r| r.session).collect();
            assert_eq!(ids, (1..=p.sessions).collect::<Vec<_>>());
            for r in p
                .warmup
                .iter()
                .chain(p.phases.iter().flat_map(|ph| &ph.reqs))
            {
                assert!((1..=p.sessions).contains(&r.session));
                assert!(r.path.contains(&format!("/s{}/", r.session)));
            }
        }
    }

    #[test]
    fn open_phases_are_due_at_their_rate() {
        let p = plan(Workload::SmallMixed, 3, 10);
        let nominal = &p.phases[0];
        assert_eq!(nominal.arrival, Arrival::Open);
        assert_eq!(nominal.reqs.len(), 1250);
        let last = nominal.reqs.last().unwrap().due.as_secs_f64();
        assert!((last - 1249.0 / NOMINAL_RPS).abs() < 1e-6);
    }

    #[test]
    fn affinity_keeps_each_session_on_one_client_in_order() {
        let p = plan(Workload::SmallMixed, 9, 4);
        let reqs = &p.phases[0].reqs;
        for threads in [1, 2, 3, 5] {
            let parts = affinity(reqs, threads);
            let mut seen = vec![None; p.sessions + 1];
            let mut total = 0;
            for (t, part) in parts.iter().enumerate() {
                total += part.len();
                // Within a client, requests keep schedule order.
                assert!(part.windows(2).all(|w| w[0] < w[1]));
                for &i in part {
                    let s = reqs[i].session;
                    assert_eq!(*seen[s].get_or_insert(t), t, "s{s} split across clients");
                }
            }
            assert_eq!(total, reqs.len());
            // Per-session subsequences equal the schedule's.
            for s in 1..=p.sessions {
                let expect: Vec<usize> =
                    (0..reqs.len()).filter(|&i| reqs[i].session == s).collect();
                let got: Vec<usize> = parts
                    .iter()
                    .flatten()
                    .copied()
                    .filter(|&i| reqs[i].session == s)
                    .collect();
                assert_eq!(expect, got);
            }
        }
    }

    #[test]
    fn durable_follow_sends_small_mixed_traffic_before_the_ladder() {
        let small = plan(Workload::SmallMixed, 8, 5);
        let durable = plan(Workload::DurableFollow, 8, 5);
        let d: Vec<&Req> = durable.all().collect();
        let s: Vec<&Req> = small.all().take(d.len()).collect();
        assert_eq!(d, s);
        assert!(small.phases.len() > durable.phases.len());
    }

    #[test]
    fn refits_follow_knowledge_per_session() {
        let p = plan(Workload::SmallMixed, 4, 4);
        let reqs: Vec<&Req> = p.all().collect();
        let refit = refits(&p);
        // Every warm-up update follows its session's cluster statement.
        let warm = p.creates.len()..p.creates.len() + p.warmup.len();
        for i in warm.filter(|&i| reqs[i].kind == Kind::Update) {
            assert!(refit[i]);
        }
        for (i, r) in reqs.iter().enumerate() {
            if r.kind != Kind::Update {
                assert!(!refit[i]);
                continue;
            }
            let prev = reqs[..i]
                .iter()
                .rev()
                .filter(|q| q.session == r.session)
                .find(|q| matches!(q.kind, Kind::Knowledge | Kind::Update));
            assert_eq!(refit[i], prev.is_some_and(|q| q.kind == Kind::Knowledge));
        }
        let n = refit.iter().filter(|&&x| x).count();
        let updates = reqs.iter().filter(|r| r.kind == Kind::Update).count();
        assert!(n > 0 && n < updates);
    }

    #[test]
    fn paper_rounds_repeat_the_four_step_round() {
        let p = plan(Workload::PaperRounds, 1, 7);
        let kinds: Vec<Kind> = p.phases[0].reqs.iter().map(|r| r.kind).collect();
        assert_eq!(kinds.len() % (4 * ANALYSTS), 0);
        for chunk in kinds.chunks(4) {
            assert_eq!(
                chunk,
                [Kind::Knowledge, Kind::Update, Kind::View, Kind::Suggest]
            );
        }
    }
}
