//! The load generator: one data connection driven by two threads — this
//! thread sends, a scoped receiver thread reads replies — plus, when the
//! workload churns, an admin connection this thread also drives.
//!
//! A phase is either open-loop (push `i` is due at `t0 + i/rate`, for
//! session `i % S`; latency counts from that intended time, so a stall
//! also delays every push scheduled behind it) or closed-loop (at most
//! `window` pushes in flight). Either way a session never has two pushes
//! in flight: its round order, which its replay digest depends on, must
//! survive shed retries. Sessions re-open after `StaleEpoch` and resend
//! the round that went stale.

use crate::gen::{patch_session, result_hash, Expect, SessInput, TAG_BIT};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};
use wsn_server::{ErrorCode, Frame, RoundResult};

/// Opens in flight at once (initial opens and re-opens after churn).
const OPEN_WINDOW: usize = 64;
/// A closed-loop sender refills once this many window slots are free.
const REFILL_BATCH: usize = 8;
/// How long a shed request waits before it is sent again: an immediate
/// retry against a full shard queue only feeds the overload.
const SHED_BACKOFF: Duration = Duration::from_millis(1);
/// How long a phase may take to drain after its last send.
const DRAIN_LIMIT: Duration = Duration::from_secs(20);
/// Receiver poll interval for the end-of-phase flag.
const READ_POLL: Duration = Duration::from_millis(20);

/// Length-prefixed frame reader over a socket that may time out or be
/// non-blocking: partial frames stay buffered across calls.
pub struct FrameReader {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
}

impl FrameReader {
    pub fn new(stream: TcpStream) -> FrameReader {
        FrameReader {
            stream,
            buf: Vec::with_capacity(1 << 16),
            start: 0,
        }
    }

    /// Whether a complete frame is already buffered.
    pub fn buffered(&self) -> bool {
        let avail = &self.buf[self.start..];
        avail.len() >= 4
            && avail.len()
                >= 4 + u32::from_le_bytes(avail[..4].try_into().expect("4 bytes")) as usize
    }

    /// The next complete frame payload, `Ok(None)` if none arrived before
    /// the socket's timeout (or at once, when non-blocking).
    pub fn next(&mut self) -> std::io::Result<Option<Frame>> {
        loop {
            let avail = &self.buf[self.start..];
            if avail.len() >= 4 {
                let len = u32::from_le_bytes(avail[..4].try_into().expect("4 bytes")) as usize;
                if len > wsn_server::DEFAULT_MAX_FRAME as usize {
                    return Err(std::io::Error::other(format!("oversize frame {len}")));
                }
                if avail.len() >= 4 + len {
                    let frame = Frame::decode(&avail[4..4 + len])
                        .map_err(|e| std::io::Error::other(format!("bad frame: {e}")))?;
                    self.start += 4 + len;
                    return Ok(Some(frame));
                }
            }
            if self.start > 0 {
                self.buf.drain(..self.start);
                self.start = 0;
            }
            let old = self.buf.len();
            self.buf.resize(old + (1 << 16), 0);
            match self.stream.read(&mut self.buf[old..]) {
                Ok(0) => {
                    self.buf.truncate(old);
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ));
                }
                Ok(n) => self.buf.truncate(old + n),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    self.buf.truncate(old);
                    return Ok(None);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => self.buf.truncate(old),
                Err(e) => {
                    self.buf.truncate(old);
                    return Err(e);
                }
            }
        }
    }
}

/// The data connection: a write half and a buffered read half.
pub struct Conn {
    write: TcpStream,
    read: FrameReader,
}

impl Conn {
    pub fn connect(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let read = stream.try_clone()?;
        read.set_read_timeout(Some(READ_POLL))?;
        Ok(Conn {
            write: stream,
            read: FrameReader::new(read),
        })
    }
}

/// The admin connection, non-blocking so the sender can poll it between
/// sends without stalling its schedule.
pub struct Admin {
    write: TcpStream,
    read: FrameReader,
}

impl Admin {
    pub fn connect(addr: &str) -> std::io::Result<Admin> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let read = stream.try_clone()?;
        Ok(Admin {
            write: stream,
            read: FrameReader::new(read),
        })
    }

    pub fn send(&mut self, frame: &Frame) -> std::io::Result<()> {
        self.send_bytes(&frame.encode())
    }

    fn send_bytes(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let mut at = 0;
        while at < bytes.len() {
            match self.write.write(&bytes[at..]) {
                Ok(n) => at += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_micros(50));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// One reply if one has arrived; never blocks.
    pub fn poll(&mut self) -> std::io::Result<Option<Frame>> {
        self.read.next()
    }

    /// Sends `frame` and waits (up to 30 s) for its reply, blocking.
    pub fn request(&mut self, frame: &Frame) -> Result<Frame, String> {
        self.request_bytes(&frame.encode())
    }

    /// Sends an encoded frame and waits (up to 30 s) for its reply.
    pub fn request_bytes(&mut self, bytes: &[u8]) -> Result<Frame, String> {
        self.write
            .set_nonblocking(false)
            .map_err(|e| e.to_string())?;
        self.write
            .set_read_timeout(Some(Duration::from_millis(100)))
            .map_err(|e| e.to_string())?;
        let reply = (|| {
            self.send_bytes(bytes).map_err(|e| e.to_string())?;
            let until = Instant::now() + Duration::from_secs(30);
            while Instant::now() < until {
                if let Some(f) = self.poll().map_err(|e| e.to_string())? {
                    return Ok(f);
                }
            }
            Err("no reply within 30 s".to_string())
        })();
        self.write
            .set_nonblocking(true)
            .map_err(|e| e.to_string())?;
        reply
    }
}

/// One `Churn` → `ChurnAck` exchange.
#[derive(Debug, Clone)]
pub struct ChurnRecord {
    pub node: usize,
    pub death: bool,
    pub ack_ms: f64,
    pub epoch: u64,
    pub map_digest: u64,
}

/// Sends one churn event and waits for its ack.
pub fn churn_now(admin: &mut Admin, node: usize, death: bool) -> Result<ChurnRecord, String> {
    let t = Instant::now();
    match admin.request(&Frame::Churn {
        node: node as u32,
        death,
    })? {
        Frame::ChurnAck { epoch, map_digest } => Ok(ChurnRecord {
            node,
            death,
            ack_ms: t.elapsed().as_secs_f64() * 1e3,
            epoch,
            map_digest,
        }),
        other => Err(format!("churn {node}/{death}: unexpected reply {other:?}")),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Link {
    NeedsOpen,
    Opening,
    Live,
    Dead,
}

/// Per-session client state, kept across phases.
pub struct SessState {
    server_id: u64,
    link: Link,
    /// Next round to send (or resend).
    next: usize,
    /// Open loop: rounds below this index are due.
    due_to: usize,
    /// Rounds below this index were already counted as attempted (a
    /// retried round counts once).
    attempted_to: usize,
    inflight: bool,
    queued: bool,
    /// The pending open is a retry of a shed one (counted once).
    open_shed: bool,
    sent_at: Instant,
}

/// One run of consecutive rounds a session served on one map epoch.
#[derive(Debug, Clone)]
pub struct Segment {
    pub session: usize,
    pub epoch: u64,
    pub map_digest: u64,
    pub start: usize,
    /// `(result fingerprint, running digest)` of each served round.
    pub served: Vec<Expect>,
}

/// How the server's replies are checked.
pub enum Check<'a> {
    /// Against the shadow expectation computed before the window.
    Shadow(&'a [SessInput]),
    /// Recorded per epoch segment, replayed after the window.
    Record,
}

/// Client state of every workload session against one server.
pub struct Client {
    st: Vec<SessState>,
    pub segments: Vec<Segment>,
    /// Index into `segments` of each session's current segment.
    current: Vec<Option<usize>>,
    ids: HashMap<u64, usize>,
}

impl Client {
    pub fn new(sessions: usize) -> Client {
        let now = Instant::now();
        Client {
            st: (0..sessions)
                .map(|_| SessState {
                    server_id: 0,
                    link: Link::NeedsOpen,
                    next: 0,
                    due_to: 0,
                    attempted_to: 0,
                    inflight: false,
                    queued: false,
                    open_shed: false,
                    sent_at: now,
                })
                .collect(),
            segments: Vec::new(),
            current: vec![None; sessions],
            ids: HashMap::new(),
        }
    }

    /// The next round session `s` will send.
    pub fn next_round(&self, s: usize) -> usize {
        self.st[s].next
    }

    /// Pushes session `s`'s next round as a single request on `admin` and
    /// waits for the reply, checking it like a phase would. Returns the
    /// round trip in µs.
    pub fn ping(
        &mut self,
        admin: &mut Admin,
        inputs: &[SessInput],
        check: &Check<'_>,
        s: usize,
        stats: &mut PhaseStats,
    ) -> Result<f64, String> {
        let st = &self.st[s];
        if st.link != Link::Live || st.inflight {
            return Err(format!("session {s} is not idle"));
        }
        let r = st.next;
        let mut frame = inputs[s].frames[r].clone();
        patch_session(&mut frame, st.server_id);
        stats.attempted += 1;
        let t = Instant::now();
        let reply = admin.request_bytes(&frame)?;
        let rtt = t.elapsed().as_secs_f64() * 1e6;
        let Frame::Rounds {
            results, digest, ..
        } = reply
        else {
            stats.fail(format!("ping session {s} round {r}: unexpected {reply:?}"));
            return Ok(rtt);
        };
        let res = &results[0];
        match check {
            Check::Shadow(inputs) => {
                verify_reply(
                    stats,
                    inputs[s].expected[r],
                    inputs[s].global,
                    r,
                    res,
                    digest,
                );
            }
            Check::Record => {
                let seg = self.current[s].expect("live session has a segment");
                self.segments[seg].served.push((result_hash(res), digest));
            }
        }
        self.st[s].next += 1;
        self.st[s].attempted_to = self.st[s].next;
        Ok(rtt)
    }
}

/// What a phase does.
#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// Keep `window` pushes in flight until every session reaches round
    /// `limit` or `deadline` passes (limit 0 = only open sessions).
    Closed {
        window: usize,
        limit: usize,
        deadline: Option<Duration>,
    },
    /// Push `n` rounds at `rate`/s starting at round `base` of every session.
    Open { rate: f64, base: usize, n: usize },
}

/// What a phase measured.
#[derive(Debug, Default)]
pub struct PhaseStats {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub acked: u64,
    /// Sessions opened (a shed open and its retries count once).
    pub opens: u64,
    pub sheds: u64,
    pub stale: u64,
    /// Open loop: push latency from intended send time, µs.
    pub latency_us: Vec<f64>,
    /// Open loop: intended send time of each `latency_us` sample, seconds
    /// after the phase start.
    pub latency_at_s: Vec<f64>,
    /// Seconds after the phase start of every acked push.
    pub acked_at_s: Vec<f64>,
    /// Open loop: push round trip from the actual send, µs.
    pub rtt_us: Vec<f64>,
    /// Open loop: how late the generator sent each scheduled push, µs.
    pub late_us: Vec<f64>,
    /// Sum and count of estimate errors against ground truth.
    pub error_sum: f64,
    pub error_n: u64,
    /// First send to last ack, seconds.
    pub busy_s: f64,
    pub churns: Vec<ChurnRecord>,
    /// One served reply kept for the doctored-reply self-test.
    pub sample: Option<(usize, usize, RoundResult, u64)>,
}

impl PhaseStats {
    /// Stats with room for `n` samples, so no sample vector reallocates
    /// (and stalls the receiver) inside a timed window.
    fn with_capacity(n: usize) -> PhaseStats {
        PhaseStats {
            latency_us: Vec::with_capacity(n),
            latency_at_s: Vec::with_capacity(n),
            acked_at_s: Vec::with_capacity(n),
            rtt_us: Vec::with_capacity(n),
            late_us: Vec::with_capacity(n),
            ..PhaseStats::default()
        }
    }

    pub fn fail(&mut self, msg: String) {
        self.fail_many(1, msg);
    }

    /// Counts `n` failed operations under one message.
    pub fn fail_many(&mut self, n: u64, msg: String) {
        self.failed += n;
        if self.failures.len() < 8 {
            self.failures.push(msg);
        }
    }

    pub fn absorb(&mut self, other: PhaseStats) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(f);
            }
        }
        self.acked += other.acked;
        self.opens += other.opens;
        self.sheds += other.sheds;
        self.stale += other.stale;
        self.error_sum += other.error_sum;
        self.error_n += other.error_n;
        self.churns.extend(other.churns);
        if self.sample.is_none() {
            self.sample = other.sample;
        }
    }
}

/// Compares one served reply with its expectation; a mismatch is counted
/// in `stats` and named by session and round.
pub fn verify_reply(
    stats: &mut PhaseStats,
    expected: Expect,
    global: u64,
    round: usize,
    result: &RoundResult,
    digest: u64,
) -> bool {
    if result_hash(result) == expected.0 && digest == expected.1 {
        return true;
    }
    stats.fail(format!(
        "result mismatch: session {global} round {round} (server round {})",
        result.round
    ));
    false
}

struct Inner<'c> {
    client: &'c mut Client,
    ready: VecDeque<usize>,
    opens: VecDeque<usize>,
    inflight: usize,
    opening: usize,
    sender_waiting: bool,
    wake: bool,
    first_send: Option<Instant>,
    last_ack: Option<Instant>,
    stats: PhaseStats,
    /// Open loop: next scheduled push.
    sched: usize,
    /// Closed loop: the deadline passed, send nothing more.
    stop_sending: bool,
    next_churn: usize,
    churn_pending: Option<(Instant, ChurnAt)>,
    /// Shed requests waiting out [`SHED_BACKOFF`]: `(retry at, session,
    /// is an open)`, in time order.
    backoff: VecDeque<(Instant, usize, bool)>,
}

impl Inner<'_> {
    fn enqueue(&mut self, s: usize) {
        let st = &mut self.client.st[s];
        if !st.queued {
            st.queued = true;
            self.ready.push_back(s);
        }
    }

    /// Where session `s` may send up to (exclusive) in this phase.
    fn bound(&self, mode: &Mode, s: usize) -> usize {
        match mode {
            Mode::Closed { limit, .. } => *limit,
            Mode::Open { .. } => self.client.st[s].due_to,
        }
    }
}

/// A churn event scheduled `at` after the phase start.
#[derive(Debug, Clone, Copy)]
pub struct ChurnAt {
    pub at: Duration,
    pub node: usize,
    pub death: bool,
}

/// The fixed context of one phase.
struct Ctx<'a> {
    inputs: &'a [SessInput],
    check: &'a Check<'a>,
    mode: Mode,
    t0: Instant,
    churn: &'a [ChurnAt],
}

impl Ctx<'_> {
    fn sessions(&self) -> usize {
        self.inputs.len()
    }

    /// Open loop: when push `i` is due.
    fn due(&self, i: usize) -> Option<Instant> {
        match self.mode {
            Mode::Open { rate, .. } => Some(self.t0 + Duration::from_secs_f64(i as f64 / rate)),
            Mode::Closed { .. } => None,
        }
    }

    /// Open loop: when round `r` of session `s` was meant to be sent.
    fn intended(&self, s: usize, r: usize) -> Option<Instant> {
        match self.mode {
            Mode::Open { base, .. } => self.due((r - base) * self.sessions() + s),
            Mode::Closed { .. } => None,
        }
    }
}

/// Runs one phase. `churn` events go out on `admin` at their times.
pub fn run_phase(
    conn: &mut Conn,
    client: &mut Client,
    inputs: &[SessInput],
    check: &Check<'_>,
    mode: Mode,
    admin: Option<&mut Admin>,
    churn: &[ChurnAt],
) -> PhaseStats {
    let mut inner = Inner {
        client,
        ready: VecDeque::new(),
        opens: VecDeque::new(),
        inflight: 0,
        opening: 0,
        sender_waiting: false,
        wake: false,
        first_send: None,
        last_ack: None,
        stats: PhaseStats::with_capacity(match mode {
            Mode::Open { n, .. } => n,
            Mode::Closed { .. } => inputs.len() * 8,
        }),
        sched: 0,
        stop_sending: false,
        next_churn: 0,
        churn_pending: None,
        backoff: VecDeque::new(),
    };
    for s in 0..inputs.len() {
        match inner.client.st[s].link {
            Link::NeedsOpen => inner.opens.push_back(s),
            Link::Live if inner.client.st[s].next < inner.bound(&mode, s) => inner.enqueue(s),
            _ => {}
        }
    }
    let ctx = Ctx {
        inputs,
        check,
        mode,
        t0: Instant::now(),
        churn: if admin.is_some() { churn } else { &[] },
    };
    let mut inner = match mode {
        Mode::Open { .. } => open_loop(conn, inner, &ctx, admin),
        Mode::Closed { .. } => closed_loop(conn, inner, &ctx, admin),
    };
    if let (Some(a), Some(b)) = (inner.first_send, inner.last_ack) {
        inner.stats.busy_s = (b - a).as_secs_f64();
    }
    inner.stats
}

/// Open loop: this thread sends on schedule, a scoped thread receives.
fn open_loop<'c>(
    conn: &mut Conn,
    inner: Inner<'c>,
    ctx: &Ctx<'_>,
    mut admin: Option<&mut Admin>,
) -> Inner<'c> {
    let shared = Mutex::new(inner);
    let cv = Condvar::new();
    let done = AtomicBool::new(false);
    let Conn { write, read } = conn;
    std::thread::scope(|scope| {
        let receiver = scope.spawn(|| loop {
            match read.next() {
                Ok(Some(frame)) => {
                    let now = Instant::now();
                    let mut g = shared.lock().expect("load state lock");
                    if handle(&mut g, ctx, frame, now) {
                        // Set even when the sender is not waiting yet, so
                        // a wake-up that lands while it writes is not lost.
                        g.wake = true;
                        if g.sender_waiting {
                            cv.notify_one();
                        }
                    }
                }
                Ok(None) if done.load(Ordering::SeqCst) => return,
                Ok(None) => {}
                Err(e) => {
                    let mut g = shared.lock().expect("load state lock");
                    g.stats.fail(format!("receive: {e}"));
                    g.wake = true;
                    cv.notify_one();
                    return;
                }
            }
        });
        let mut buf = Vec::with_capacity(1 << 16);
        let mut drain_from = None;
        loop {
            let now = Instant::now();
            let mut g = shared.lock().expect("load state lock");
            churn_tick(&mut g, ctx, admin.as_deref_mut(), now);
            schedule(&mut g, ctx, now);
            fill(&mut g, ctx, now, &mut buf);
            let over = finished(&mut g, ctx, now, &mut drain_from);
            drop(g);
            if !send(write, &mut buf, &shared) || over {
                break;
            }
            // Sleep until the next scheduled push, a receiver wake-up or
            // a churn poll tick.
            let mut g = shared.lock().expect("load state lock");
            let mut wake_at = match ctx.mode {
                Mode::Open { n, .. } if g.sched < n => ctx.due(g.sched).expect("open mode"),
                _ => now + Duration::from_millis(2),
            };
            if g.churn_pending.is_some() {
                wake_at = wake_at.min(now + Duration::from_micros(300));
            } else if let Some(ev) = ctx.churn.get(g.next_churn) {
                wake_at = wake_at.min(ctx.t0 + ev.at);
            }
            if let Some(&(at, _, _)) = g.backoff.front() {
                wake_at = wake_at.min(at);
            }
            let now = Instant::now();
            if !g.wake && wake_at > now {
                g.sender_waiting = true;
                g = cv
                    .wait_timeout(g, wake_at - now)
                    .expect("load state lock")
                    .0;
                g.sender_waiting = false;
            }
            g.wake = false;
        }
        done.store(true, Ordering::SeqCst);
        if receiver.join().is_err() {
            shared
                .lock()
                .expect("load state lock")
                .stats
                .fail("receiver thread panicked".into());
        }
    });
    shared.into_inner().expect("load state lock")
}

/// Closed loop: one thread sends and receives, refilling the window after
/// every batch of buffered replies — no hand-off between threads.
fn closed_loop<'c>(
    conn: &mut Conn,
    inner: Inner<'c>,
    ctx: &Ctx<'_>,
    mut admin: Option<&mut Admin>,
) -> Inner<'c> {
    let shared = Mutex::new(inner);
    let mut g = shared.lock().expect("load state lock");
    let mut buf = Vec::with_capacity(1 << 16);
    let mut drain_from = None;
    // Wake at least every 1 ms to poll the admin connection and release
    // shed requests whose back-off is over.
    let _ = conn
        .read
        .stream
        .set_read_timeout(Some(Duration::from_millis(1)));
    loop {
        let now = Instant::now();
        churn_tick(&mut g, ctx, admin.as_deref_mut(), now);
        schedule(&mut g, ctx, now);
        fill(&mut g, ctx, now, &mut buf);
        if finished(&mut g, ctx, now, &mut drain_from) {
            break;
        }
        if !buf.is_empty() {
            let sent = conn.write.write_all(&buf);
            buf.clear();
            if let Err(e) = sent {
                g.stats.fail(format!("send: {e}"));
                break;
            }
        }
        let frame = match conn.read.next() {
            Ok(Some(frame)) => frame,
            Ok(None) => continue,
            Err(e) => {
                g.stats.fail(format!("receive: {e}"));
                break;
            }
        };
        handle(&mut g, ctx, frame, Instant::now());
        while conn.read.buffered() {
            match conn.read.next() {
                Ok(Some(frame)) => {
                    handle(&mut g, ctx, frame, Instant::now());
                }
                _ => break,
            }
        }
    }
    let _ = conn.read.stream.set_read_timeout(Some(READ_POLL));
    drop(g);
    shared.into_inner().expect("load state lock")
}

/// Writes `buf`; records a failure and returns `false` if that fails.
fn send(write: &mut TcpStream, buf: &mut Vec<u8>, shared: &Mutex<Inner<'_>>) -> bool {
    if buf.is_empty() {
        return true;
    }
    let sent = write.write_all(buf);
    buf.clear();
    if let Err(e) = sent {
        shared
            .lock()
            .expect("load state lock")
            .stats
            .fail(format!("send: {e}"));
        return false;
    }
    true
}

/// Sends the next churn event when due (one outstanding at a time) and
/// polls the admin connection for its ack.
fn churn_tick(g: &mut Inner<'_>, ctx: &Ctx<'_>, admin: Option<&mut Admin>, now: Instant) {
    let Some(admin) = admin else { return };
    if g.churn_pending.is_none() && g.next_churn < ctx.churn.len() {
        let ev = ctx.churn[g.next_churn];
        if now >= ctx.t0 + ev.at {
            g.next_churn += 1;
            g.stats.attempted += 1;
            let frame = Frame::Churn {
                node: ev.node as u32,
                death: ev.death,
            };
            match admin.send(&frame) {
                Ok(()) => g.churn_pending = Some((Instant::now(), ev)),
                Err(e) => g.stats.fail(format!("churn send: {e}")),
            }
        }
    }
    let Some((sent, ev)) = g.churn_pending else {
        return;
    };
    let reply = match admin.poll() {
        Ok(None) => return,
        other => other,
    };
    g.churn_pending = None;
    match reply {
        Ok(Some(Frame::ChurnAck { epoch, map_digest })) => g.stats.churns.push(ChurnRecord {
            node: ev.node,
            death: ev.death,
            ack_ms: sent.elapsed().as_secs_f64() * 1e3,
            epoch,
            map_digest,
        }),
        Ok(Some(other)) => g
            .stats
            .fail(format!("churn {}: unexpected {other:?}", ev.node)),
        Ok(None) => unreachable!("handled above"),
        Err(e) => g.stats.fail(format!("churn {}: {e}", ev.node)),
    }
}

/// Open loop: marks every push whose time has come as due. Closed loop:
/// stops sending at the deadline.
fn schedule(g: &mut Inner<'_>, ctx: &Ctx<'_>, now: Instant) {
    match ctx.mode {
        Mode::Open { base, n, .. } => {
            let sessions = ctx.sessions();
            while g.sched < n {
                let due = ctx.due(g.sched).expect("open mode");
                if due > now {
                    break;
                }
                g.stats.late_us.push((now - due).as_secs_f64() * 1e6);
                let s = g.sched % sessions;
                g.client.st[s].due_to = base + g.sched / sessions + 1;
                let st = &g.client.st[s];
                if st.link == Link::Live && !st.inflight {
                    g.enqueue(s);
                }
                g.sched += 1;
            }
        }
        Mode::Closed { deadline, .. } => {
            g.stop_sending = deadline.is_some_and(|d| now >= ctx.t0 + d);
        }
    }
}

/// Appends the opens (windowed) and pushes that may go out now to `buf`.
fn fill(g: &mut Inner<'_>, ctx: &Ctx<'_>, now: Instant, buf: &mut Vec<u8>) {
    while let Some(&(at, s, open)) = g.backoff.front() {
        if at > now {
            break;
        }
        g.backoff.pop_front();
        if open {
            g.opens.push_back(s);
        } else {
            g.enqueue(s);
        }
    }
    while g.opening < OPEN_WINDOW {
        let Some(s) = g.opens.pop_front() else { break };
        let st = &mut g.client.st[s];
        st.link = Link::Opening;
        let first_try = !std::mem::take(&mut st.open_shed);
        g.opening += 1;
        g.stats.attempted += u64::from(first_try);
        g.stats.opens += u64::from(first_try);
        g.first_send.get_or_insert(now);
        buf.extend_from_slice(
            &Frame::Open {
                client_tag: TAG_BIT | s as u64,
                extended: ctx.inputs[s].extended,
            }
            .encode(),
        );
    }
    let window = match ctx.mode {
        Mode::Closed { window, .. } => window,
        Mode::Open { .. } => usize::MAX,
    };
    while !g.stop_sending && g.inflight < window {
        let Some(s) = g.ready.pop_front() else { break };
        g.client.st[s].queued = false;
        let bound = g.bound(&ctx.mode, s);
        let st = &mut g.client.st[s];
        if st.link != Link::Live || st.inflight || st.next >= bound {
            continue;
        }
        let first_try = st.next >= st.attempted_to;
        st.attempted_to = st.attempted_to.max(st.next + 1);
        st.inflight = true;
        st.sent_at = now;
        let at = buf.len();
        buf.extend_from_slice(&ctx.inputs[s].frames[st.next]);
        patch_session(&mut buf[at..], st.server_id);
        g.inflight += 1;
        g.stats.attempted += u64::from(first_try);
        g.first_send.get_or_insert(now);
    }
}

/// Whether the phase is over: everything scheduled was answered, or the
/// drain limit passed (the unanswered requests then count as failed).
fn finished(
    g: &mut Inner<'_>,
    ctx: &Ctx<'_>,
    now: Instant,
    drain_from: &mut Option<Instant>,
) -> bool {
    let schedule_done = match ctx.mode {
        Mode::Open { n, .. } => g.sched >= n,
        Mode::Closed { .. } => true,
    };
    if !schedule_done {
        return false;
    }
    let quiescent = g.inflight == 0
        && g.opening == 0
        && g.opens.is_empty()
        && g.backoff.is_empty()
        && (g.ready.is_empty() || g.stop_sending);
    // A churn scheduled after the work ran out is dropped, not awaited.
    if quiescent && g.churn_pending.is_none() {
        return true;
    }
    let from = *drain_from.get_or_insert(now);
    if now - from > DRAIN_LIMIT {
        let stuck = g.inflight + g.opening + g.opens.len() + g.backoff.len();
        let churn = usize::from(g.churn_pending.is_some());
        g.stats.fail_many(
            (stuck + churn) as u64,
            format!("{stuck} requests and {churn} churn unanswered after the drain limit"),
        );
        return true;
    }
    false
}

/// Applies one reply to the client state; returns whether the sender has
/// new work (a freed window, a retry, a re-open).
fn handle(g: &mut Inner<'_>, ctx: &Ctx<'_>, frame: Frame, now: Instant) -> bool {
    let sessions = ctx.sessions();
    match frame {
        Frame::Rounds {
            session,
            results,
            digest,
        } => {
            let Some(&s) = g.client.ids.get(&session) else {
                g.stats
                    .fail(format!("rounds reply for unknown session {session}"));
                return false;
            };
            if !g.client.st[s].inflight || results.len() != 1 {
                g.stats
                    .fail(format!("unexpected rounds reply for session {s}"));
                return false;
            }
            let r = g.client.st[s].next;
            let res = &results[0];
            match ctx.check {
                Check::Shadow(inputs) => {
                    let input = &inputs[s];
                    verify_reply(
                        &mut g.stats,
                        input.expected[r],
                        input.global,
                        r,
                        res,
                        digest,
                    );
                }
                Check::Record => {
                    let seg = g.client.current[s].expect("live session has a segment");
                    g.client.segments[seg]
                        .served
                        .push((result_hash(res), digest));
                }
            }
            if g.stats.sample.is_none() {
                g.stats.sample = Some((s, r, res.clone(), digest));
            }
            if let Some(at) = ctx.intended(s, r) {
                g.stats.latency_us.push((now - at).as_secs_f64() * 1e6);
                g.stats.latency_at_s.push((at - ctx.t0).as_secs_f64());
                let sent = g.client.st[s].sent_at;
                g.stats.rtt_us.push((now - sent).as_secs_f64() * 1e6);
                let (tx, ty) = ctx.inputs[s].truth[r];
                g.stats.error_sum += (res.x - tx).hypot(res.y - ty);
                g.stats.error_n += 1;
            }
            let st = &mut g.client.st[s];
            st.next += 1;
            st.inflight = false;
            g.inflight -= 1;
            g.stats.acked += 1;
            g.stats.acked_at_s.push((now - ctx.t0).as_secs_f64());
            g.last_ack = Some(now);
            let more = g.client.st[s].next < g.bound(&ctx.mode, s);
            if more {
                g.enqueue(s);
            }
            match ctx.mode {
                Mode::Open { .. } => more,
                Mode::Closed { window, .. } => window - g.inflight >= REFILL_BATCH,
            }
        }
        Frame::OpenAck {
            client_tag,
            session,
            epoch,
            map_digest,
        } => {
            let s = (client_tag & !TAG_BIT) as usize;
            if client_tag & TAG_BIT == 0 || s >= sessions || g.client.st[s].link != Link::Opening {
                g.stats
                    .fail(format!("stray open ack for tag {client_tag:#x}"));
                return false;
            }
            let st = &mut g.client.st[s];
            st.link = Link::Live;
            st.server_id = session;
            let start = st.next;
            g.client.ids.insert(session, s);
            g.client.current[s] = Some(g.client.segments.len());
            g.client.segments.push(Segment {
                session: s,
                epoch,
                map_digest,
                start,
                served: Vec::new(),
            });
            g.opening -= 1;
            g.last_ack = Some(now);
            if g.client.st[s].next < g.bound(&ctx.mode, s) {
                g.enqueue(s);
            }
            true
        }
        Frame::Error {
            code: ErrorCode::Overloaded,
            context,
            ..
        } => {
            g.stats.sheds += 1;
            let retry = now + SHED_BACKOFF;
            if context & TAG_BIT != 0 {
                let s = (context & !TAG_BIT) as usize;
                if s < sessions && g.client.st[s].link == Link::Opening {
                    g.client.st[s].link = Link::NeedsOpen;
                    g.client.st[s].open_shed = true;
                    g.opening -= 1;
                    g.backoff.push_back((retry, s, true));
                    return false;
                }
            } else if let Some(&s) = g.client.ids.get(&context) {
                if g.client.st[s].inflight {
                    g.client.st[s].inflight = false;
                    g.inflight -= 1;
                    g.backoff.push_back((retry, s, false));
                    return false;
                }
            }
            g.stats
                .fail(format!("shed for unknown context {context:#x}"));
            false
        }
        Frame::Error {
            code: ErrorCode::StaleEpoch,
            context,
            ..
        } => match g.client.ids.remove(&context) {
            Some(s) if g.client.st[s].inflight => {
                g.stats.stale += 1;
                let st = &mut g.client.st[s];
                st.inflight = false;
                st.link = Link::NeedsOpen;
                g.client.current[s] = None;
                g.inflight -= 1;
                g.opens.push_back(s);
                true
            }
            _ => {
                g.stats
                    .fail(format!("stale-epoch reply for idle session {context}"));
                false
            }
        },
        Frame::Error {
            code,
            context,
            detail,
        } => {
            let who = if context & TAG_BIT != 0 {
                Some((context & !TAG_BIT) as usize).filter(|&s| s < sessions)
            } else {
                g.client.ids.get(&context).copied()
            };
            let Some(s) = who else {
                g.stats
                    .fail(format!("server error {code:?} ({context}): {detail}"));
                return true;
            };
            let st = &mut g.client.st[s];
            let (was_open, was_push) = (st.link == Link::Opening, st.inflight);
            st.link = Link::Dead;
            st.inflight = false;
            g.opening -= usize::from(was_open);
            g.inflight -= usize::from(was_push);
            let r = g.client.st[s].next;
            g.stats.fail(format!(
                "session {} round {r}: server error {code:?}: {detail}",
                ctx.inputs[s].global
            ));
            true
        }
        other => {
            g.stats.fail(format!("unexpected reply {other:?}"));
            false
        }
    }
}
