//! The sharded tracking server.
//!
//! One process hosts tens of thousands of [`TrackingSession`]s over a
//! single shared [`FaceMap`]:
//!
//! * an **acceptor** thread takes TCP connections; each connection gets a
//!   blocking **reader** thread (frame parse + route) and a **writer**
//!   thread (drains an outbound byte queue);
//! * `shards` **worker** threads own disjoint slices of the session
//!   registry (`session_id % shards`); every session mutation happens on
//!   its owning worker, so session state needs no locks at all;
//! * workers are fed through **bounded** queues. When a shard's queue is
//!   full the reader sheds the batch immediately with
//!   [`ErrorCode::Overloaded`] instead of buffering without bound — the
//!   session is untouched and the client retries after draining replies;
//! * the map is **epoch-checked**: a churn repair installs a new map and
//!   bumps the epoch; sessions bound to an older epoch are invalidated
//!   (and their slots freed) on their next touch with
//!   [`ErrorCode::StaleEpoch`].

use crate::wire::{
    read_frame_traced, ErrorCode, Frame, ReadingRound, RecvError, RoundResult, DEFAULT_MAX_FRAME,
};
use fttt::replay::{digest_face_map, digest_round, Digest};
use fttt::session::{SessionOptions, TrackingSession};
use fttt::tracker::{Tracker, TrackerOptions};
use fttt::{FaceMap, PaperParams, RepairMode};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, Sender, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wsn_network::replay::digest_hex;
use wsn_telemetry::{ArgValue, Registry, Snapshot, DURATION_US_BUCKETS};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads / registry shards.
    pub shards: usize,
    /// Bounded depth of each shard's ingest queue, in jobs. A full queue
    /// sheds with [`ErrorCode::Overloaded`].
    pub queue_depth: usize,
    /// Hard cap on concurrently open sessions across all shards.
    pub max_sessions: usize,
    /// Per-connection payload bound, bytes.
    pub max_frame: u32,
    /// The field/deployment the shared map is built from. Every session
    /// matches against this one map.
    pub params: PaperParams,
    /// Fault-injection hook: stall each worker job this long before
    /// processing. `None` in production; tests use it to make
    /// backpressure sheds deterministic.
    pub ingest_stall: Option<Duration>,
    /// How often the watchdog monitor ages shard heartbeats and checks
    /// flight-recorder triggers.
    pub watchdog_interval: Duration,
    /// A shard continuously busy on one job for longer than this is
    /// declared stalled: `/healthz` flips to degraded and
    /// `fttt.server.watchdog.stalls` increments (once per transition).
    pub watchdog_stall: Duration,
    /// Anomaly flight recorder; `None` disables dumping.
    pub flight: Option<FlightConfig>,
}

/// Where and when the anomaly flight recorder dumps evidence.
///
/// On a watchdog stall, a shed burst, or a `StaleEpoch` storm (at least
/// the configured count inside one watchdog interval) the monitor thread
/// writes two files into `dir` via atomic tmp+rename: the journal ring as
/// `flight-<unix_secs>-<n>-<reason>.trace.jsonl` (readable by `fttt-sim
/// explain`/`replay`) and the merged metrics as the matching
/// `.metrics.json`. At most `max_dumps` dumps are written per process so
/// a flapping trigger cannot fill the disk.
#[derive(Debug, Clone)]
pub struct FlightConfig {
    /// Output directory for dump files.
    pub dir: PathBuf,
    /// Hard cap on dumps per process lifetime; later triggers only count
    /// `fttt.server.flight.suppressed`.
    pub max_dumps: usize,
    /// Sheds within one watchdog interval that count as a burst.
    pub shed_burst: u64,
    /// Stale-epoch invalidations within one watchdog interval that count
    /// as a storm.
    pub stale_burst: u64,
}

impl FlightConfig {
    /// Flight recording into `dir` with default triggers.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        FlightConfig {
            dir: dir.into(),
            max_dumps: 8,
            shed_burst: 512,
            stale_burst: 512,
        }
    }
}

impl ServerConfig {
    /// A server over `params` with production-ish defaults.
    pub fn new(params: PaperParams) -> Self {
        ServerConfig {
            shards: 4,
            queue_depth: 256,
            max_sessions: 200_000,
            max_frame: DEFAULT_MAX_FRAME,
            params,
            ingest_stall: None,
            watchdog_interval: Duration::from_millis(200),
            watchdog_stall: Duration::from_secs(5),
            flight: None,
        }
    }

    /// A small-map configuration (8 nodes, 2 m cells — the fault
    /// campaign's fast geometry) for tests and smoke runs.
    pub fn fast() -> Self {
        Self::new(PaperParams::default().with_nodes(8).with_cell_size(2.0))
    }

    /// The tracker options every server session runs with — the fault
    /// campaign's configuration (heuristic matching, optionally extended
    /// vectors), so wire results are comparable to campaign runs.
    pub fn tracker_options(&self, extended: bool) -> TrackerOptions {
        if extended {
            TrackerOptions {
                extended: true,
                ..TrackerOptions::heuristic()
            }
        } else {
            TrackerOptions::heuristic()
        }
    }

    /// The session options every server session runs with (mirrors the
    /// fault campaign). Clients use this to build bit-identical shadow
    /// sessions.
    pub fn session_options(&self) -> SessionOptions {
        SessionOptions::new(self.params.samples_k).with_max_speed(self.params.max_speed)
    }
}

/// One registered session on a worker.
struct Entry {
    session: TrackingSession,
    conn: u64,
    epoch: u64,
    digest: Digest,
    rounds: u64,
    /// The most recent round served, kept for `/sessions/<id>`.
    last: Option<RoundResult>,
}

/// What the owning shard knows about one session, as reported to the ops
/// plane ([`Job::Query`], `GET /sessions/<id>`).
#[derive(Debug, Clone, PartialEq)]
pub enum SessionView {
    /// The session is live on its shard.
    Active(SessionStatus),
    /// The session exists but was opened against an older map epoch; its
    /// next push will invalidate it. The query itself does not mutate.
    Retired {
        /// The epoch the session opened against.
        opened_epoch: u64,
        /// The server's current epoch.
        current_epoch: u64,
    },
    /// No session with that id is registered on the owning shard.
    Unknown {
        /// The server's current epoch.
        current_epoch: u64,
    },
}

/// The live state behind [`SessionView::Active`].
#[derive(Debug, Clone, PartialEq)]
pub struct SessionStatus {
    /// The session id.
    pub session: u64,
    /// Map epoch the session is bound to.
    pub epoch: u64,
    /// Rounds stepped so far.
    pub rounds: u64,
    /// Running replay digest over all served rounds.
    pub digest: u64,
    /// The last round served, if any were.
    pub last: Option<RoundResult>,
}

/// Work routed to a shard worker. Replies travel back through the
/// connection's outbound byte queue; `trace` is the request's wire
/// correlation id (0 = untraced v1 client) and is echoed in the reply.
pub(crate) enum Job {
    Open {
        reply: Sender<Vec<u8>>,
        conn: u64,
        client_tag: u64,
        session: u64,
        extended: bool,
        trace: u64,
    },
    Push {
        reply: Sender<Vec<u8>>,
        session: u64,
        rounds: Vec<ReadingRound>,
        trace: u64,
    },
    Close {
        reply: Sender<Vec<u8>>,
        session: u64,
        trace: u64,
    },
    /// Ops-plane session inspection; never touches session state.
    Query {
        reply: mpsc::Sender<SessionView>,
        session: u64,
    },
    ConnClosed {
        conn: u64,
    },
    Stop,
}

/// Per-shard liveness state, updated lock-free by the router and worker
/// and aged by the watchdog monitor thread.
#[derive(Debug, Default)]
pub(crate) struct ShardHealth {
    /// Jobs currently sitting in (or just drained from) the shard queue.
    pub(crate) queued: AtomicU64,
    /// Microseconds-since-server-start when the worker began its current
    /// job; `0` = idle. The watchdog ages this to detect stalls.
    pub(crate) busy_since_us: AtomicU64,
    /// Jobs fully processed.
    pub(crate) jobs_done: AtomicU64,
    /// Set by the watchdog when the shard exceeds the stall bound;
    /// cleared when it recovers. Read by `/healthz`.
    pub(crate) stalled: AtomicBool,
}

/// Clears the busy heartbeat and counts the job on every exit path of a
/// worker-loop iteration — the match arms `continue` liberally on error
/// paths, and a heartbeat left set while the worker idles on an empty
/// queue would read as a stall.
struct BusyGuard<'a>(&'a ShardHealth);

impl Drop for BusyGuard<'_> {
    fn drop(&mut self) {
        self.0.busy_since_us.store(0, Ordering::Relaxed);
        self.0.jobs_done.fetch_add(1, Ordering::Relaxed);
    }
}

pub(crate) struct ServerState {
    pub(crate) config: ServerConfig,
    /// Monotonic time base for heartbeats and stall ages.
    pub(crate) started: Instant,
    /// One liveness block per shard.
    pub(crate) shard_health: Vec<ShardHealth>,
    /// The current shared map. Replaced wholesale by churn repairs;
    /// sessions keep their `Arc` until invalidated.
    map: RwLock<Arc<FaceMap>>,
    /// Mirrors `map.epoch()` for lock-free stale checks on the hot path.
    pub(crate) epoch: AtomicU64,
    map_digest: AtomicU64,
    next_session: AtomicU64,
    pub(crate) session_count: AtomicU64,
    shutdown: AtomicBool,
    shutdown_signal: (Mutex<bool>, Condvar),
    /// Connection-plane metrics (frame counts, decode errors, sheds).
    pub(crate) conn_registry: Registry,
    /// One registry per shard worker, merged deterministically by
    /// [`Server::metrics_snapshot`].
    worker_registries: Vec<Arc<Registry>>,
}

impl ServerState {
    fn signal_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let (lock, cvar) = &self.shutdown_signal;
        *lock.lock().expect("shutdown lock poisoned") = true;
        cvar.notify_all();
    }

    /// Microseconds since the server started — the heartbeat time base.
    pub(crate) fn now_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }
}

/// Merged metrics across the connection plane and every shard worker,
/// plus the live `fttt.server.queued` gauge (jobs currently sitting in
/// shard queues, summed).
///
/// The expects encode process-local invariants: every worker registry is
/// created by the same binary so histogram ladders agree, and the
/// connection plane uses disjoint metric names.
pub(crate) fn merged_snapshot(state: &ServerState) -> Snapshot {
    let parts: Vec<(usize, Snapshot)> = state
        .worker_registries
        .iter()
        .enumerate()
        .map(|(i, r)| (i, r.snapshot()))
        .collect();
    let mut merged =
        Snapshot::merge_shards(parts).expect("shard registries share one bucket ladder");
    merged
        .try_merge(&state.conn_registry.snapshot())
        .expect("conn-plane metric names are disjoint from worker names");
    let queued: u64 = state
        .shard_health
        .iter()
        .map(|h| h.queued.load(Ordering::Relaxed))
        .sum();
    merged
        .gauges
        .insert("fttt.server.queued".into(), queued as f64);
    merged
}

/// A running tracking server. Dropping it shuts it down.
pub struct Server {
    addr: SocketAddr,
    pub(crate) state: Arc<ServerState>,
    pub(crate) shard_txs: Vec<SyncSender<Job>>,
    acceptor: Option<JoinHandle<()>>,
    monitor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Builds the shared map from `config.params`, binds `addr`
    /// (`"127.0.0.1:0"` picks a free port) and starts the acceptor and
    /// worker threads.
    pub fn bind(addr: &str, config: ServerConfig) -> std::io::Result<Server> {
        assert!(config.shards > 0, "need at least one shard");
        assert!(config.queue_depth > 0, "need a positive queue depth");
        let field = config.params.grid_field();
        let map = Arc::new(config.params.face_map(&field));
        let map_digest = digest_face_map(&map);
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;

        let worker_registries: Vec<Arc<Registry>> = (0..config.shards)
            .map(|_| Arc::new(Registry::new()))
            .collect();
        let shard_health: Vec<ShardHealth> =
            (0..config.shards).map(|_| ShardHealth::default()).collect();
        if let Some(flight) = &config.flight {
            wsn_telemetry::ensure_writable_dir(&flight.dir)
                .map_err(|e| std::io::Error::other(format!("flight dir: {e}")))?;
        }
        let state = Arc::new(ServerState {
            epoch: AtomicU64::new(map.epoch()),
            map_digest: AtomicU64::new(map_digest),
            map: RwLock::new(map),
            next_session: AtomicU64::new(1),
            session_count: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            shutdown_signal: (Mutex::new(false), Condvar::new()),
            conn_registry: Registry::new(),
            worker_registries,
            started: Instant::now(),
            shard_health,
            config,
        });

        let mut shard_txs = Vec::with_capacity(state.config.shards);
        let mut workers = Vec::with_capacity(state.config.shards);
        for shard in 0..state.config.shards {
            let (tx, rx) = sync_channel::<Job>(state.config.queue_depth);
            shard_txs.push(tx);
            let st = Arc::clone(&state);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("wsn-shard-{shard}"))
                    .spawn(move || worker_loop(shard, st, rx))
                    .expect("spawn shard worker"),
            );
        }

        let acceptor = {
            let st = Arc::clone(&state);
            let txs = shard_txs.clone();
            std::thread::Builder::new()
                .name("wsn-accept".into())
                .spawn(move || accept_loop(listener, st, txs))
                .expect("spawn acceptor")
        };

        let monitor = {
            let st = Arc::clone(&state);
            std::thread::Builder::new()
                .name("wsn-watchdog".into())
                .spawn(move || monitor_loop(st))
                .expect("spawn watchdog monitor")
        };

        Ok(Server {
            addr: local,
            state,
            shard_txs,
            acceptor: Some(acceptor),
            monitor: Some(monitor),
            workers,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sessions currently registered across all shards.
    pub fn session_count(&self) -> u64 {
        self.state.session_count.load(Ordering::SeqCst)
    }

    /// The current map epoch.
    pub fn epoch(&self) -> u64 {
        self.state.epoch.load(Ordering::SeqCst)
    }

    /// Digest of the current shared map.
    pub fn map_digest(&self) -> u64 {
        self.state.map_digest.load(Ordering::SeqCst)
    }

    /// Merged metrics: the connection plane plus every shard worker,
    /// folded in ascending shard order ([`Snapshot::merge_shards`]) so the
    /// merged snapshot does not depend on thread timing.
    pub fn metrics_snapshot(&self) -> Snapshot {
        merged_snapshot(&self.state)
    }

    /// Asks `session`'s owning shard for its current view of the session
    /// (the backing of `GET /sessions/<id>`). Never mutates session
    /// state. Returns `None` if the shard queue is full or the server is
    /// draining — callers should report "unavailable", not "unknown".
    pub fn query_session(&self, session: u64) -> Option<SessionView> {
        query_session_via(&self.state, &self.shard_txs, session)
    }

    /// Blocks until a client sends [`Frame::Shutdown`] or
    /// [`Server::shutdown`] runs.
    pub fn wait_shutdown(&self) {
        let (lock, cvar) = &self.state.shutdown_signal;
        let mut down = lock.lock().expect("shutdown lock poisoned");
        while !*down {
            down = cvar.wait(down).expect("shutdown lock poisoned");
        }
    }

    /// Stops accepting, drains the workers and joins them. Idempotent.
    pub fn shutdown(&mut self) {
        if self.acceptor.is_none() {
            return;
        }
        self.state.signal_shutdown();
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        if let Some(h) = self.monitor.take() {
            let _ = h.join();
        }
        for tx in &self.shard_txs {
            let _ = tx.send(Job::Stop);
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Shared implementation of session inspection for
/// [`Server::query_session`] and the ops plane (which holds the state and
/// shard senders without a `Server` handle).
pub(crate) fn query_session_via(
    state: &ServerState,
    txs: &[SyncSender<Job>],
    session: u64,
) -> Option<SessionView> {
    let shard = (session % txs.len() as u64) as usize;
    let (tx, rx) = mpsc::channel();
    match txs[shard].try_send(Job::Query { reply: tx, session }) {
        Ok(()) => {
            state.shard_health[shard]
                .queued
                .fetch_add(1, Ordering::Relaxed);
        }
        Err(_) => return None,
    }
    rx.recv_timeout(Duration::from_secs(2)).ok()
}

fn accept_loop(listener: TcpListener, state: Arc<ServerState>, txs: Vec<SyncSender<Job>>) {
    let mut next_conn = 0u64;
    for stream in listener.incoming() {
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Replies are small frames the client waits on: with Nagle's
        // algorithm a reply queued behind an unacknowledged one waits for
        // the client's delayed ACK. The writer coalesces instead.
        let _ = stream.set_nodelay(true);
        next_conn += 1;
        let conn_id = next_conn;
        let st = Arc::clone(&state);
        let conn_txs = txs.clone();
        let spawned = std::thread::Builder::new()
            .name(format!("wsn-conn-{conn_id}"))
            .spawn(move || conn_loop(stream, conn_id, st, conn_txs));
        if spawned.is_err() {
            // Out of threads: drop the connection rather than the server.
            continue;
        }
        state
            .conn_registry
            .counter("fttt.server.conns_opened")
            .inc();
    }
}

fn conn_loop(
    mut stream: TcpStream,
    conn_id: u64,
    state: Arc<ServerState>,
    txs: Vec<SyncSender<Job>>,
) {
    let (out_tx, out_rx) = mpsc::channel::<Vec<u8>>();
    let writer = {
        let Ok(write_half) = stream.try_clone() else {
            return;
        };
        std::thread::Builder::new()
            .name(format!("wsn-conn-{conn_id}-w"))
            .spawn(move || writer_loop(write_half, out_rx))
    };
    let Ok(writer) = writer else { return };

    let max_frame = state.config.max_frame;
    let shards = txs.len() as u64;
    let mut shutdown = false;
    loop {
        let (frame, trace) = match read_frame_traced(&mut stream, max_frame) {
            Ok(f) => f,
            Err(RecvError::Closed) | Err(RecvError::Io(_)) => break,
            Err(RecvError::Protocol(e)) => {
                // Answer the violation, then drop the connection: framing
                // is unrecoverable mid-stream.
                state
                    .conn_registry
                    .counter("fttt.server.decode_errors")
                    .inc();
                let code = match &e {
                    crate::wire::WireError::BadVersion(_) => ErrorCode::UnsupportedVersion,
                    crate::wire::WireError::Oversize { .. } => ErrorCode::Oversize,
                    _ => ErrorCode::Malformed,
                };
                let _ = out_tx.send(
                    Frame::Error {
                        code,
                        context: 0,
                        detail: e.to_string(),
                    }
                    .encode(),
                );
                break;
            }
        };
        state.conn_registry.counter("fttt.server.frames_in").inc();
        match frame {
            Frame::Open {
                client_tag,
                extended,
            } => {
                let session = state.next_session.fetch_add(1, Ordering::SeqCst);
                let shard = (session % shards) as usize;
                route(
                    &state,
                    shard,
                    &txs[shard],
                    &out_tx,
                    client_tag,
                    trace,
                    Job::Open {
                        reply: out_tx.clone(),
                        conn: conn_id,
                        client_tag,
                        session,
                        extended,
                        trace,
                    },
                );
            }
            Frame::Push { session, rounds } => {
                let shard = (session % shards) as usize;
                route(
                    &state,
                    shard,
                    &txs[shard],
                    &out_tx,
                    session,
                    trace,
                    Job::Push {
                        reply: out_tx.clone(),
                        session,
                        rounds,
                        trace,
                    },
                );
            }
            Frame::Close { session } => {
                let shard = (session % shards) as usize;
                route(
                    &state,
                    shard,
                    &txs[shard],
                    &out_tx,
                    session,
                    trace,
                    Job::Close {
                        reply: out_tx.clone(),
                        session,
                        trace,
                    },
                );
            }
            Frame::Churn { node, death } => {
                let reply = apply_churn(&state, node as usize, death);
                let _ = out_tx.send(reply.encode_traced(trace));
            }
            Frame::Shutdown => {
                let _ = out_tx.send(Frame::ShutdownAck.encode_traced(trace));
                state.conn_registry.counter("fttt.server.shutdowns").inc();
                // Signalled below, once the writer has sent the ack: the
                // process may exit as soon as the server stops, and an
                // ack still queued then never reaches the client.
                shutdown = true;
                break;
            }
            // Server-to-client frames arriving at the server are protocol
            // abuse; answer and drop.
            _ => {
                let _ = out_tx.send(
                    Frame::Error {
                        code: ErrorCode::Malformed,
                        context: 0,
                        detail: "client sent a server frame".into(),
                    }
                    .encode_traced(trace),
                );
                break;
            }
        }
    }

    // Sweep this connection's sessions from every shard. Blocking send:
    // cleanup must never be shed.
    for tx in &txs {
        let _ = tx.send(Job::ConnClosed { conn: conn_id });
    }
    state
        .conn_registry
        .counter("fttt.server.conns_closed")
        .inc();
    drop(out_tx);
    let _ = writer.join();
    if shutdown {
        state.signal_shutdown();
    }
}

/// Routes `job` to its shard, shedding with [`ErrorCode::Overloaded`]
/// when the shard's bounded queue is full. `trace` is echoed in shed /
/// drain errors so a traced client can attribute them.
#[allow(clippy::too_many_arguments)]
fn route(
    state: &ServerState,
    shard: usize,
    tx: &SyncSender<Job>,
    out: &Sender<Vec<u8>>,
    context: u64,
    trace: u64,
    job: Job,
) {
    match tx.try_send(job) {
        Ok(()) => {
            state.shard_health[shard]
                .queued
                .fetch_add(1, Ordering::Relaxed);
        }
        Err(TrySendError::Full(_)) => {
            state.conn_registry.counter("fttt.server.shed").inc();
            if wsn_telemetry::journal_enabled() {
                wsn_telemetry::trace_instant(
                    "fttt.server.shed",
                    vec![
                        ("trace", ArgValue::Str(digest_hex(trace))),
                        ("shard", ArgValue::U64(shard as u64)),
                        ("context", ArgValue::U64(context)),
                    ],
                );
            }
            let _ = out.send(
                Frame::Error {
                    code: ErrorCode::Overloaded,
                    context,
                    detail: "shard ingest queue full; retry after draining replies".into(),
                }
                .encode_traced(trace),
            );
        }
        Err(TrySendError::Disconnected(_)) => {
            // Worker already stopped: the server is draining. This must
            // NOT be `Overloaded` — a client retrying a dead shard would
            // spin forever.
            let _ = out.send(
                Frame::Error {
                    code: ErrorCode::ShuttingDown,
                    context,
                    detail: "server is shutting down".into(),
                }
                .encode_traced(trace),
            );
        }
    }
}

/// Repairs the shared map for one churn event and installs the new epoch.
/// Runs on the connection thread under the map write lock — churn is rare
/// and the repair is incremental (PR 8), so stalling ingest briefly is the
/// honest cost of a topology change.
fn apply_churn(state: &ServerState, node: usize, death: bool) -> Frame {
    let mut guard = state.map.write().expect("map lock poisoned");
    let map = guard.as_ref();
    if node >= map.deployment().len() {
        return Frame::Error {
            code: ErrorCode::BadChurn,
            context: node as u64,
            detail: format!("node {node} outside the deployment"),
        };
    }
    if death && !map.is_node_live(node) {
        return Frame::Error {
            code: ErrorCode::BadChurn,
            context: node as u64,
            detail: format!("node {node} is already dead"),
        };
    }
    if !death && map.is_node_live(node) {
        return Frame::Error {
            code: ErrorCode::BadChurn,
            context: node as u64,
            detail: format!("node {node} is already live"),
        };
    }
    if death && map.live_nodes().len() <= 2 {
        return Frame::Error {
            code: ErrorCode::BadChurn,
            context: node as u64,
            detail: "a face map needs at least two live sensors".into(),
        };
    }
    let (repaired, _) = map.repaired(node, death, RepairMode::Incremental);
    let epoch = repaired.epoch();
    let digest = digest_face_map(&repaired);
    *guard = Arc::new(repaired);
    state.epoch.store(epoch, Ordering::SeqCst);
    state.map_digest.store(digest, Ordering::SeqCst);
    state
        .conn_registry
        .counter("fttt.server.churn_repairs")
        .inc();
    Frame::ChurnAck {
        epoch,
        map_digest: digest,
    }
}

fn worker_loop(shard: usize, state: Arc<ServerState>, rx: Receiver<Job>) {
    let registry = Arc::clone(&state.worker_registries[shard]);
    let opened = registry.counter("fttt.server.sessions_opened");
    let closed = registry.counter("fttt.server.sessions_closed");
    let invalidated = registry.counter("fttt.server.sessions_invalidated");
    let dropped = registry.counter("fttt.server.sessions_dropped");
    let rounds_total = registry.counter("fttt.server.rounds");
    let batches = registry.counter("fttt.server.push_batches");
    let round_us = registry.histogram("fttt.server.round_us", DURATION_US_BUCKETS);
    let health = &state.shard_health[shard];
    let mut sessions: HashMap<u64, Entry> = HashMap::new();

    while let Ok(job) = rx.recv() {
        // Heartbeat: mark the worker busy on this job so the watchdog can
        // age a stuck one; `now_us` is clamped to ≥ 1 so 0 stays "idle".
        let _ = health
            .queued
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
        health
            .busy_since_us
            .store(state.now_us().max(1), Ordering::Relaxed);
        let _busy = BusyGuard(health);
        if let Some(stall) = state.config.ingest_stall {
            std::thread::sleep(stall);
        }
        match job {
            Job::Open {
                reply,
                conn,
                client_tag,
                session,
                extended,
                trace,
            } => {
                let before = state.session_count.fetch_add(1, Ordering::SeqCst);
                if before as usize >= state.config.max_sessions {
                    state.session_count.fetch_sub(1, Ordering::SeqCst);
                    let _ = reply.send(
                        Frame::Error {
                            code: ErrorCode::SessionLimit,
                            context: client_tag,
                            detail: format!("at capacity ({} sessions)", state.config.max_sessions),
                        }
                        .encode_traced(trace),
                    );
                    continue;
                }
                let map = Arc::clone(&state.map.read().expect("map lock poisoned"));
                let epoch = map.epoch();
                let tracker = Tracker::shared(map, state.config.tracker_options(extended));
                let entry = Entry {
                    session: TrackingSession::new(tracker, state.config.session_options())
                        .with_session_id(session),
                    conn,
                    epoch,
                    digest: Digest::new(),
                    rounds: 0,
                    last: None,
                };
                sessions.insert(session, entry);
                opened.inc();
                let _ = reply.send(
                    Frame::OpenAck {
                        client_tag,
                        session,
                        epoch,
                        map_digest: state.map_digest.load(Ordering::SeqCst),
                    }
                    .encode_traced(trace),
                );
            }
            Job::Push {
                reply,
                session,
                rounds,
                trace,
            } => {
                let Some(entry) = sessions.get_mut(&session) else {
                    let _ = reply.send(unknown_session(session).encode_traced(trace));
                    continue;
                };
                let current = state.epoch.load(Ordering::SeqCst);
                if entry.epoch != current {
                    // The map churned since this session opened: free the
                    // slot and tell the client to re-open.
                    let stale = entry.epoch;
                    sessions.remove(&session);
                    state.session_count.fetch_sub(1, Ordering::SeqCst);
                    invalidated.inc();
                    if wsn_telemetry::journal_enabled() {
                        wsn_telemetry::trace_instant(
                            "fttt.server.stale_epoch",
                            vec![
                                ("trace", ArgValue::Str(digest_hex(trace))),
                                ("session", ArgValue::U64(session)),
                                ("shard", ArgValue::U64(shard as u64)),
                                ("opened_epoch", ArgValue::U64(stale)),
                                ("current_epoch", ArgValue::U64(current)),
                            ],
                        );
                    }
                    let _ = reply.send(
                        Frame::Error {
                            code: ErrorCode::StaleEpoch,
                            context: session,
                            detail: format!("map epoch moved {stale} → {current}; re-open"),
                        }
                        .encode_traced(trace),
                    );
                    continue;
                }
                // A reading sized for a different deployment would panic
                // the matcher — and a panicking worker takes the whole
                // shard (and every session on it) down with it. Reject
                // the batch whole before touching the session, so the
                // digest stays intact and the shard stays alive.
                let expected = state.config.params.nodes;
                if let Some(bad) = rounds.iter().find(|r| r.group.node_count() != expected) {
                    let _ = reply.send(
                        Frame::Error {
                            code: ErrorCode::Malformed,
                            context: session,
                            detail: format!(
                                "reading has {} nodes; this server's map has {expected}",
                                bad.group.node_count()
                            ),
                        }
                        .encode_traced(trace),
                    );
                    continue;
                }
                let batch_started = Instant::now();
                let mut results = Vec::with_capacity(rounds.len());
                for r in &rounds {
                    let started = Instant::now();
                    let round = entry.session.step(r.t, &r.group);
                    round_us.observe(started.elapsed().as_secs_f64() * 1e6);
                    digest_round(&mut entry.digest, &round);
                    entry.rounds += 1;
                    results.push(RoundResult::from_round(&round));
                }
                entry.last = results.last().cloned();
                rounds_total.add(results.len() as u64);
                batches.inc();
                // The server half of cross-wire correlation: one event per
                // push batch keyed by the request's trace id (hex, the
                // full-range-u64 JSON convention), so `fttt-sim explain`
                // can join a client-side trace to the shard that served
                // it and the time it spent actually stepping rounds.
                if wsn_telemetry::journal_enabled() {
                    wsn_telemetry::trace_instant(
                        "fttt.server.push",
                        vec![
                            ("trace", ArgValue::Str(digest_hex(trace))),
                            ("session", ArgValue::U64(session)),
                            ("shard", ArgValue::U64(shard as u64)),
                            ("rounds", ArgValue::U64(results.len() as u64)),
                            (
                                "work_us",
                                ArgValue::F64(batch_started.elapsed().as_secs_f64() * 1e6),
                            ),
                        ],
                    );
                }
                let _ = reply.send(
                    Frame::Rounds {
                        session,
                        results,
                        digest: entry.digest.value(),
                    }
                    .encode_traced(trace),
                );
            }
            Job::Close {
                reply,
                session,
                trace,
            } => {
                let Some(entry) = sessions.remove(&session) else {
                    let _ = reply.send(unknown_session(session).encode_traced(trace));
                    continue;
                };
                state.session_count.fetch_sub(1, Ordering::SeqCst);
                closed.inc();
                let _ = reply.send(
                    Frame::CloseAck {
                        session,
                        rounds: entry.rounds,
                        digest: entry.digest.value(),
                    }
                    .encode_traced(trace),
                );
            }
            Job::Query { reply, session } => {
                let current = state.epoch.load(Ordering::SeqCst);
                let view = match sessions.get(&session) {
                    Some(entry) if entry.epoch == current => SessionView::Active(SessionStatus {
                        session,
                        epoch: entry.epoch,
                        rounds: entry.rounds,
                        digest: entry.digest.value(),
                        last: entry.last.clone(),
                    }),
                    Some(entry) => SessionView::Retired {
                        opened_epoch: entry.epoch,
                        current_epoch: current,
                    },
                    None => SessionView::Unknown {
                        current_epoch: current,
                    },
                };
                let _ = reply.send(view);
            }
            Job::ConnClosed { conn } => {
                let before = sessions.len();
                sessions.retain(|_, e| e.conn != conn);
                let swept = (before - sessions.len()) as u64;
                if swept > 0 {
                    state.session_count.fetch_sub(swept, Ordering::SeqCst);
                    dropped.add(swept);
                }
            }
            Job::Stop => break,
        }
    }
}

/// The watchdog monitor: every `watchdog_interval` it ages each shard's
/// busy heartbeat against `watchdog_stall` (flipping `ShardHealth::stalled`
/// and counting `fttt.server.watchdog.stalls` once per transition) and,
/// when a flight recorder is configured, checks its burst triggers and
/// dumps evidence. Exits promptly on shutdown via the shared condvar.
fn monitor_loop(state: Arc<ServerState>) {
    let stalls = state.conn_registry.counter("fttt.server.watchdog.stalls");
    let stall_us = state.config.watchdog_stall.as_micros() as u64;
    let mut dumps_written = 0usize;
    let mut last_shed = 0u64;
    let mut last_stale = 0u64;
    loop {
        {
            let (lock, cvar) = &state.shutdown_signal;
            let down = lock.lock().expect("shutdown lock poisoned");
            if *down {
                break;
            }
            let (down, _) = cvar
                .wait_timeout(down, state.config.watchdog_interval)
                .expect("shutdown lock poisoned");
            if *down {
                break;
            }
        }
        let now = state.now_us();
        let mut new_stall = false;
        for health in &state.shard_health {
            let busy = health.busy_since_us.load(Ordering::Relaxed);
            let stalled_now = busy != 0 && now.saturating_sub(busy) > stall_us;
            let was = health.stalled.swap(stalled_now, Ordering::Relaxed);
            if stalled_now && !was {
                stalls.inc();
                new_stall = true;
            }
        }
        let Some(flight) = &state.config.flight else {
            continue;
        };
        let snap = merged_snapshot(&state);
        let shed = snap.counters.get("fttt.server.shed").copied().unwrap_or(0);
        let stale = snap
            .counters
            .get("fttt.server.sessions_invalidated")
            .copied()
            .unwrap_or(0);
        let shed_delta = shed.saturating_sub(last_shed);
        let stale_delta = stale.saturating_sub(last_stale);
        last_shed = shed;
        last_stale = stale;
        let reason = if new_stall {
            Some("stall")
        } else if shed_delta >= flight.shed_burst {
            Some("shed-burst")
        } else if stale_delta >= flight.stale_burst {
            Some("stale-storm")
        } else {
            None
        };
        let Some(reason) = reason else { continue };
        if dumps_written >= flight.max_dumps {
            state
                .conn_registry
                .counter("fttt.server.flight.suppressed")
                .inc();
            continue;
        }
        dumps_written += 1;
        flight_dump(&state, flight, reason, dumps_written, snap);
    }
}

/// Writes one flight-recorder dump: the journal ring as
/// `flight-<unix_secs>-<seq>-<reason>.trace.jsonl` and the merged metrics
/// as the matching `.metrics.json`, both via atomic tmp+rename so a
/// concurrent reader never sees a torn file. With no journal installed the
/// trace file is written empty — the metrics half still captures the
/// anomaly.
fn flight_dump(
    state: &ServerState,
    flight: &FlightConfig,
    reason: &str,
    seq: usize,
    snap: Snapshot,
) {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let stem = format!("flight-{secs}-{seq}-{reason}");
    let mut trace = String::new();
    wsn_telemetry::with_journal(|j| trace = j.snapshot().to_jsonl());
    let mut ok = true;
    let trace_path = flight.dir.join(format!("{stem}.trace.jsonl"));
    if let Err(e) = wsn_telemetry::write_file_atomic(&trace_path, trace.as_bytes()) {
        eprintln!("flight recorder: {e}");
        ok = false;
    }
    let metrics_path = flight.dir.join(format!("{stem}.metrics.json"));
    if let Err(e) =
        wsn_telemetry::write_file_atomic(&metrics_path, snap.to_json_value().to_pretty().as_bytes())
    {
        eprintln!("flight recorder: {e}");
        ok = false;
    }
    if ok {
        state
            .conn_registry
            .counter("fttt.server.flight.dumps")
            .inc();
    }
}

fn unknown_session(session: u64) -> Frame {
    Frame::Error {
        code: ErrorCode::UnknownSession,
        context: session,
        detail: format!("session {session} is not registered on this shard"),
    }
}

/// The most reply bytes the writer folds into one `write`.
const WRITE_COALESCE_BYTES: usize = 16 * 1024;

fn writer_loop(mut stream: TcpStream, rx: mpsc::Receiver<Vec<u8>>) {
    use std::io::Write;
    // The socket has no Nagle delay, so each write is a segment: the
    // replies already queued behind the first leave in the same write,
    // copied into one buffer the connection keeps.
    let mut out = Vec::with_capacity(WRITE_COALESCE_BYTES);
    while let Ok(first) = rx.recv() {
        out.clear();
        out.extend_from_slice(&first);
        while out.len() < WRITE_COALESCE_BYTES {
            match rx.try_recv() {
                Ok(more) => out.extend_from_slice(&more),
                Err(_) => break,
            }
        }
        if stream.write_all(&out).is_err() {
            break;
        }
    }
    let _ = stream.flush();
}
