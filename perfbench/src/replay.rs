//! In-process replays of a plan against a `SessionManager` configured
//! like the server under test (same stripes, one pool thread per stripe,
//! same store settings).
//!
//! * [`reference`] sends every request through
//!   `sider_server::api::handle`, each session's requests serially: the
//!   reference the HTTP run's response bodies must match.
//! * [`replay`] sends the same requests from `threads` clients with
//!   session affinity, calling the layers' public functions in the order
//!   `api::handle` takes them (parse → json body → get/lock →
//!   `ops::apply` or `sider_suggest::recommend` → `Store::append` →
//!   serialise), with a span around each call. Its responses are
//!   digest-checked too, so the traced path is the served path, and its
//!   wall time against the reference's is the tracing overhead.

use crate::stats::response_hash;
use crate::trace::{Span, Tracer};
use crate::workload::{Kind, Req};
use sider_core::{wire, CoreError, EdaSession};
use sider_json::Json;
use sider_par::ThreadPool;
use sider_server::http::{Request, RequestParser, Response};
use sider_server::manager::{CreateError, SessionManager, Slot, DEFAULT_IDLE_TIMEOUT};
use sider_store::ops::{self, Applied, OpError, OpKind};
use sider_store::{FsyncPolicy, Store, StoreConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The server configuration a replay mirrors.
#[derive(Debug, Clone)]
pub struct ManagerSpec {
    /// Session-manager stripes (one single-thread pool each).
    pub stripes: usize,
    /// Session capacity.
    pub max_sessions: usize,
    /// Data dir of a durable store (`fsync = always`), if any.
    pub store_dir: Option<PathBuf>,
}

impl ManagerSpec {
    /// Build the manager, the way `Server::bind` does for this spec.
    /// With a store this recovers whatever the data dir already holds.
    pub fn build(&self) -> Result<SessionManager, String> {
        let pools: Vec<Arc<ThreadPool>> = (0..self.stripes.max(1))
            .map(|_| Arc::new(ThreadPool::new(1)))
            .collect();
        let err = |e: sider_store::StoreError| e.to_string();
        match &self.store_dir {
            None => Ok(SessionManager::striped(
                pools,
                self.max_sessions,
                DEFAULT_IDLE_TIMEOUT,
            )),
            Some(dir) if pools.len() == 1 => {
                let store = Store::open(store_config(dir)).map_err(err)?;
                let pool = pools.into_iter().next().expect("one pool");
                SessionManager::with_store(
                    pool,
                    self.max_sessions,
                    DEFAULT_IDLE_TIMEOUT,
                    Arc::new(store),
                )
                .map_err(err)
            }
            Some(dir) => SessionManager::with_striped_store(
                pools,
                self.max_sessions,
                DEFAULT_IDLE_TIMEOUT,
                store_config(dir),
            )
            .map_err(err),
        }
    }
}

/// The store settings of every durable server and replay: the default
/// checkpoint interval and [`FSYNC`].
pub fn store_config(dir: &Path) -> StoreConfig {
    StoreConfig {
        fsync: FSYNC,
        ..StoreConfig::new(dir)
    }
}

/// The fsync policy of the durable workload. A flush every 64 appends
/// keeps the flush on the write path while its latency, which on a
/// shared disk swings from run to run, stays out of the medians.
pub const FSYNC: FsyncPolicy = FsyncPolicy::EveryN(64);

/// A plan request as the parsed `Request` the server would see.
fn as_request(req: &Req) -> Request {
    Request {
        method: req.method.into(),
        path: req.path.clone(),
        query: None,
        headers: Vec::new(),
        body: req.body.clone().into_bytes(),
    }
}

/// One response of the reference replay.
#[derive(Debug, Clone, Default)]
pub struct Served {
    /// Digest of status and body.
    pub hash: u64,
    /// Parsed body of `update` responses (solver counters), else `None`.
    pub update: Option<Json>,
}

/// Serve `reqs` from `threads` clients the way the HTTP run does: the
/// creates first, serially, so session IDs are the plan's; then every
/// session's requests in plan order on one client (session affinity).
/// `serve` handles one request with its client's state, made by `init`.
/// Returns the results by plan index and each client's final state.
fn affine<T, S>(
    reqs: &[&Req],
    threads: usize,
    init: impl Fn() -> S + Sync,
    serve: impl Fn(&mut S, usize, &Req) -> T + Sync,
) -> (Vec<T>, Vec<S>)
where
    T: Send + Default + Clone,
    S: Send,
{
    let mut out = vec![T::default(); reqs.len()];
    let mut creator = init();
    let (creates, rest): (Vec<usize>, Vec<usize>) =
        (0..reqs.len()).partition(|&i| reqs[i].kind == Kind::Create);
    for i in creates {
        out[i] = serve(&mut creator, i, reqs[i]);
    }
    let parts = crate::workload::affinity(rest.iter().map(|&i| reqs[i]), threads);
    let results: Vec<(Vec<(usize, T)>, S)> = std::thread::scope(|scope| {
        let handles: Vec<_> = parts
            .iter()
            .map(|part| {
                let (rest, init, serve) = (&rest, &init, &serve);
                scope.spawn(move || {
                    let mut state = init();
                    let done = part
                        .iter()
                        .map(|&j| (rest[j], serve(&mut state, rest[j], reqs[rest[j]])))
                        .collect();
                    (done, state)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay client panicked"))
            .collect()
    });
    let mut states = vec![creator];
    for (done, state) in results {
        for (i, t) in done {
            out[i] = t;
        }
        states.push(state);
    }
    (out, states)
}

/// The reference: every request through `api::handle`, each session's
/// requests serially in plan order (sessions are independent, so this is
/// the byte stream a fully serial replay gives). Also returns its wall
/// time, the untraced twin of [`replay`].
pub fn reference(
    manager: &SessionManager,
    reqs: &[&Req],
    threads: usize,
) -> (Vec<Served>, Duration) {
    let start = Instant::now();
    let served = affine(
        reqs,
        threads,
        || (),
        |_, _, req| {
            let resp = sider_server::api::handle(manager, &as_request(req));
            let update = (req.kind == Kind::Update)
                .then(|| std::str::from_utf8(&resp.body).ok())
                .flatten()
                .and_then(|text| Json::parse(text).ok());
            Served {
                hash: response_hash(resp.status, &resp.body),
                update,
            }
        },
    )
    .0;
    (served, start.elapsed())
}

/// What one replay produced.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// Digest of each response, by plan index.
    pub hashes: Vec<u64>,
    /// Serialized response size (head + body), by plan index.
    pub response_bytes: Vec<usize>,
    /// Spans recorded by each client.
    pub spans: Vec<Vec<Span>>,
    /// Wall time of the whole replay.
    pub wall: Duration,
}

/// Replay `reqs` through the layers' public functions from `threads`
/// clients with session affinity, recording spans.
pub fn replay(manager: &SessionManager, reqs: &[&Req], threads: usize) -> ReplayOutcome {
    let origin = Instant::now();
    let (served, tracers) = affine(
        reqs,
        threads,
        || Tracer::new(origin),
        |tracer, i, req| handle_traced(manager, req, i, tracer),
    );
    ReplayOutcome {
        hashes: served.iter().map(|s| s.0).collect(),
        response_bytes: served.iter().map(|s| s.1).collect(),
        spans: tracers.into_iter().map(Tracer::into_spans).collect(),
        wall: origin.elapsed(),
    }
}

/// An API failure: status and message, as `api::handle` reports it.
struct Fail(u16, String);

impl From<CoreError> for Fail {
    fn from(e: CoreError) -> Self {
        let status = match &e {
            CoreError::BadSelection(_) | CoreError::BadDataset(_) | CoreError::BadWire(_) => 400,
            CoreError::MaxEnt(_) | CoreError::Projection(_) => 500,
        };
        Fail(status, e.to_string())
    }
}

impl From<OpError> for Fail {
    fn from(e: OpError) -> Self {
        match e {
            OpError::Bad(msg) => Fail(400, msg),
            OpError::Conflict(msg) => Fail(409, msg),
            OpError::Core(e) => e.into(),
        }
    }
}

/// The `session_summary` object the API answers mutations with.
fn summary(session: &EdaSession, slot: &Slot) -> Json {
    Json::obj([
        ("id", Json::from(slot.id_str())),
        ("dataset", Json::from(session.dataset().name.as_str())),
        ("n", Json::from(session.dataset().n())),
        ("d", Json::from(session.dataset().d())),
        ("n_constraints", Json::from(session.n_constraints())),
        ("n_knowledge", Json::from(session.knowledge().len())),
        ("dirty", Json::from(session.is_dirty())),
        ("warm", Json::from(session.has_warm_solver())),
        ("information_nats", Json::from(session.information_nats())),
    ])
}

/// The response body of an applied knowledge, update or view op, as
/// `api::handle` shapes it.
fn applied_json(applied: Applied, session: &EdaSession, slot: &Slot) -> Json {
    if let Applied::View { view } = &applied {
        return Json::obj([
            ("view", wire::view_to_json(view)),
            ("information_nats", Json::from(session.information_nats())),
        ]);
    }
    let mut resp = summary(session, slot);
    if let Json::Obj(map) = &mut resp {
        match applied {
            Applied::Knowledge { added } => {
                map.insert("added".into(), added);
            }
            Applied::Update {
                report,
                was_warm,
                refresh,
            } => {
                map.insert("report".into(), report);
                map.insert("was_warm".into(), Json::from(was_warm));
                if let Some(refresh) = refresh {
                    map.insert("refresh".into(), refresh);
                }
            }
            _ => unreachable!("the workloads log only knowledge, update and view ops"),
        }
    }
    resp
}

fn op_kind(kind: Kind) -> OpKind {
    match kind {
        Kind::Knowledge => OpKind::Knowledge,
        Kind::Update => OpKind::Update,
        Kind::View => OpKind::View,
        _ => unreachable!("only logged ops map to an OpKind"),
    }
}

/// Serve one request through the layers' public functions, with a
/// `request` root span and one child span per layer call. Returns the
/// response digest and its serialized size.
fn handle_traced(
    manager: &SessionManager,
    req: &Req,
    index: usize,
    tr: &mut Tracer,
) -> (u64, usize) {
    let raw = req.wire_bytes();
    let root = tr.begin("request", index, None);
    let outcome = serve(manager, req, &raw, index, root, tr);
    let resp = match outcome {
        Ok(resp) => resp,
        Err(Fail(status, msg)) => {
            tr.span("serialise", index, root, || Response::error(status, &msg))
        }
    };
    let mut bytes = Vec::new();
    tr.span("serialise", index, root, || resp.to_bytes(&mut bytes));
    tr.end(root);
    (response_hash(resp.status, &resp.body), bytes.len())
}

fn serve(
    manager: &SessionManager,
    req: &Req,
    raw: &[u8],
    index: usize,
    root: usize,
    tr: &mut Tracer,
) -> Result<Response, Fail> {
    let request = tr
        .span("parse", index, root, || {
            let mut parser = RequestParser::new();
            parser.feed(raw);
            parser.poll()
        })
        .map_err(|e| Fail(400, format!("{e:?}")))?
        .ok_or_else(|| Fail(400, "incomplete request".into()))?;
    let body = if req.kind == Kind::Snapshot {
        Json::Null
    } else {
        tr.span("body_json", index, root, || request.json_body())
            .map_err(|e| Fail(400, e))?
    };
    if req.kind == Kind::Create {
        let slot = tr.span("apply", index, root, || -> Result<Arc<Slot>, Fail> {
            let dataset = ops::resolve_dataset(&body).map_err(|e| Fail(400, e))?;
            let seed = ops::parse_seed(&body).map_err(|e| Fail(400, e))?;
            manager
                .create_logged(dataset, seed, &body)
                .map_err(|e| match e {
                    CreateError::BadDataset(msg) => Fail(400, msg),
                    CreateError::AtCapacity(cap) => {
                        Fail(429, format!("at capacity ({cap} sessions)"))
                    }
                    CreateError::Store(msg) => {
                        Fail(500, format!("durable log create failed: {msg}"))
                    }
                })
        })?;
        let session = slot.lock().map_err(|e| Fail(500, e))?;
        return Ok(tr.span("serialise", index, root, || {
            Response::json(201, &summary(&session, &slot))
        }));
    }
    let id = format!("s{}", req.session);
    let lock = tr.begin("lock", index, Some(root));
    let Some(slot) = manager.get(&id) else {
        tr.end(lock);
        return Err(Fail(404, format!("no session '{id}'")));
    };
    let guard = slot.lock();
    tr.end(lock);
    let mut session = guard.map_err(|e| Fail(500, e))?;
    match req.kind {
        Kind::Snapshot => Ok(tr.span("serialise", index, root, || {
            Response::json(200, &wire::snapshot_to_json(&session))
        })),
        Kind::Suggest => {
            let response = tr.span("apply", index, root, || -> Result<_, Fail> {
                let request = wire::suggest_request_from_json(&body)?;
                Ok(sider_suggest::recommend(&session, &request)?)
            })?;
            Ok(tr.span("serialise", index, root, || {
                Response::json(200, &wire::suggest_response_to_json(&response))
            }))
        }
        kind => {
            let op = op_kind(kind);
            let applied = tr.span("apply", index, root, || ops::apply(&mut session, op, &body))?;
            if let Some(store) = manager.store_of(slot.id) {
                tr.span("append", index, root, || store.append(slot.id, op, &body))
                    .map_err(|e| {
                        manager.unload(slot.id);
                        Fail(
                            500,
                            format!(
                                "durable log append failed ({e}); session {} unloaded to its last durable state",
                                slot.id_str()
                            ),
                        )
                    })?;
                if store.wal_records(slot.id) >= store.config().checkpoint_every {
                    let ds = session.dataset();
                    let (name, n, d) = (ds.name.clone(), ds.n(), ds.d());
                    if let Err(e) = tr.span("checkpoint", index, root, || {
                        store.checkpoint(slot.id, &name, n, d)
                    }) {
                        eprintln!(
                            "perfbench: automatic checkpoint of s{} failed: {e}",
                            slot.id
                        );
                    }
                }
            }
            Ok(tr.span("serialise", index, root, || {
                Response::json(200, &applied_json(applied, &session, &slot))
            }))
        }
    }
}

/// Sum of `wal_records` (ops recovery must replay) over every store of
/// `manager`.
pub fn wal_records(manager: &SessionManager) -> u64 {
    manager
        .stores()
        .iter()
        .flat_map(|s| s.status())
        .map(|s| s.wal_records)
        .sum()
}

/// `(appends, wal_bytes)` over every store: appended ops (last LSNs) and
/// current WAL bytes.
pub fn store_totals(manager: &SessionManager) -> (u64, u64) {
    manager
        .stores()
        .iter()
        .flat_map(|s| s.status())
        .fold((0, 0), |(a, b), s| (a + s.last_lsn, b + s.wal_bytes))
}

/// A fresh, empty directory at `path`.
pub fn fresh_dir(path: &Path) -> std::io::Result<PathBuf> {
    if path.exists() {
        std::fs::remove_dir_all(path)?;
    }
    std::fs::create_dir_all(path)?;
    Ok(path.to_path_buf())
}
