//! The supervisor-side TCP endpoint: a [`musa_pool::RemoteHub`] over
//! nonblocking sockets.
//!
//! One `poll()` tick (the supervisor calls it every ~20 ms) accepts
//! pending connections, moves queued bytes both ways, parses arrived
//! frames, applies the liveness deadlines, reaps dead peers into
//! [`RemoteEvent`]s and refreshes the `dist-status.json` beacon. No
//! call ever blocks: the listener and every stream run nonblocking,
//! and each connection owns an in/out byte buffer so a slow peer can
//! never stall the supervisor's lease loop.
//!
//! ## Failure model (supervisor side)
//!
//! | observation                        | verdict                        |
//! |------------------------------------|--------------------------------|
//! | EOF / ECONNRESET / write error     | connection dead immediately    |
//! | frame CRC / length / header error  | dead — resync is guesswork     |
//! | idle and silent > 10 s             | dead (workers ping every ~1 s) |
//! | leased and silent > timeout + 5 s  | dead (workers heartbeat/point) |
//!
//! A dead connection holding a lease surfaces as
//! [`RemoteEvent::LeaseDead`] carrying the durable progress (`done`
//! points — their rows were appended as the frames arrived) and the
//! heartbeat blame, and the supervisor's existing strike/poison/
//! requeue machinery takes it from there. The busy deadline only
//! applies when the campaign configured a point timeout, mirroring the
//! local watchdog's semantics.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant, SystemTime};

use musa_cache::LineLog;
use musa_obs::json::JsonObj;
use musa_pool::{RemoteEvent, RemoteHub, RemoteLease};
use musa_store::PoisonedPoint;

use crate::codec::{encode, Frame, FrameBuf, Msg, PROTOCOL_VERSION, REJECT_SIG, REJECT_VERSION};

/// Liveness beacon file in the store directory: `{"addr":..,
/// "connected":..,"draining":..,"updated_unix":..}`, rewritten
/// atomically. `musa-serve`'s `/healthz` and the smoke scripts (port
/// discovery for `--listen 127.0.0.1:0`) both read it.
pub const STATUS_FILE: &str = "dist-status.json";

/// An idle (or still-handshaking) connection with no frame for this
/// long is dead; healthy workers ping about once a second.
const IDLE_TIMEOUT: Duration = Duration::from_secs(10);

/// Grace added on top of the campaign's point timeout for leased
/// connections (covers the frame transit the local watchdog never
/// pays).
const BUSY_GRACE: Duration = Duration::from_secs(5);

/// A connection marked closing (reject sent, drain goodbye) that
/// cannot flush its farewell within this long is cut off anyway.
const CLOSING_TIMEOUT: Duration = Duration::from_secs(5);

/// Refresh period for the status beacon even when nothing changed.
const STATUS_PERIOD: Duration = Duration::from_secs(2);

/// Hub configuration.
#[derive(Debug, Clone)]
pub struct DistHubOptions {
    /// Campaign sweep signature; hellos carrying any other value are
    /// rejected (the remote would simulate a different campaign).
    pub sig: String,
    /// Campaign store directory: shipped rows land here as
    /// `dist-l{lease:04}-a{attempt}.jsonl`, next to the local workers'
    /// `pool-*.jsonl` files, and the status beacon lives here.
    pub store_dir: PathBuf,
    /// The campaign's per-point timeout, if any; scales the busy
    /// liveness deadline.
    pub point_timeout: Option<Duration>,
}

struct LeaseState {
    id: u64,
    attempt: u32,
    points: Vec<u64>,
    done: u64,
    rows: u64,
    poisoned: Vec<PoisonedPoint>,
    current: Option<u64>,
    file: Option<LineLog>,
}

struct Conn {
    stream: TcpStream,
    peer: String,
    inbuf: FrameBuf,
    outbuf: VecDeque<u8>,
    ready: bool,
    lease: Option<LeaseState>,
    last_frame: Instant,
    closing: Option<(String, Instant)>,
    dead: Option<String>,
    send_seq: u64,
    recv_seq: u64,
}

impl Conn {
    /// Encode and queue a frame. The `dist.frame.send` failpoint fires
    /// here, after the CRC seal — an injected garble corrupts the
    /// framed bytes in flight and the peer's CRC check catches it.
    fn queue(&mut self, msg: &Msg, body: &[u8]) {
        let mut bytes = encode(msg, body);
        let key = musa_store::fnv1a_64(format!("{}:{}", self.peer, self.send_seq).as_bytes());
        self.send_seq += 1;
        if let Err(e) = musa_fault::fail_wire("dist.frame.send", key, &mut bytes) {
            self.dead = Some(format!("send fault: {e}"));
            return;
        }
        musa_obs::counter_add("dist.frames_sent", 1);
        self.outbuf.extend(bytes);
    }

    fn mark_closing(&mut self, reason: &str) {
        if self.closing.is_none() {
            self.closing = Some((reason.to_string(), Instant::now()));
        }
    }
}

/// The [`RemoteHub`] implementation `dse --listen` plugs into the
/// pool supervisor.
pub struct DistHub {
    listener: TcpListener,
    addr: SocketAddr,
    opts: DistHubOptions,
    conns: Vec<Conn>,
    events: Vec<RemoteEvent>,
    draining: bool,
    shut: bool,
    accept_seq: u64,
    status_body: String,
    status_at: Instant,
}

impl DistHub {
    /// Bind the endpoint (use port 0 to let the OS pick; the chosen
    /// address is published in the status beacon) and write the
    /// initial beacon.
    pub fn bind(addr: &str, opts: DistHubOptions) -> std::io::Result<DistHub> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let mut hub = DistHub {
            listener,
            addr,
            opts,
            conns: Vec::new(),
            events: Vec::new(),
            draining: false,
            shut: false,
            accept_seq: 0,
            status_body: String::new(),
            status_at: Instant::now(),
        };
        hub.write_status(true);
        musa_obs::info(
            "musa-dist",
            "listening for remote campaign workers",
            &[("addr", hub.addr.to_string().into())],
        );
        Ok(hub)
    }

    /// The bound address (resolved port when `--listen` used port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    fn accept_pending(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    self.accept_seq += 1;
                    // `dist.accept` failpoint: io drops the connection
                    // on the floor (the worker sees EOF and retries
                    // with backoff), delay stalls the tick.
                    if let Err(e) = musa_fault::fail_io("dist.accept", self.accept_seq) {
                        musa_obs::counter_add("dist.accept_faults", 1);
                        musa_obs::warn(
                            "musa-dist",
                            "accept dropped by fault injection",
                            &[
                                ("peer", peer.to_string().into()),
                                ("error", e.to_string().into()),
                            ],
                        );
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    musa_obs::counter_add("dist.accepts", 1);
                    self.conns.push(Conn {
                        stream,
                        peer: peer.to_string(),
                        inbuf: FrameBuf::new(),
                        outbuf: VecDeque::new(),
                        ready: false,
                        lease: None,
                        last_frame: Instant::now(),
                        closing: None,
                        dead: None,
                        send_seq: 0,
                        recv_seq: 0,
                    });
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    musa_obs::warn(
                        "musa-dist",
                        "accept failed",
                        &[("error", e.to_string().into())],
                    );
                    break;
                }
            }
        }
    }

    fn read_conn(conn: &mut Conn) {
        let mut scratch = [0u8; 64 * 1024];
        loop {
            match conn.stream.read(&mut scratch) {
                Ok(0) => {
                    conn.dead = Some("peer closed the connection".to_string());
                    return;
                }
                Ok(n) => {
                    let chunk = &mut scratch[..n];
                    let key =
                        musa_store::fnv1a_64(format!("{}:{}", conn.peer, conn.recv_seq).as_bytes());
                    conn.recv_seq += 1;
                    // Received bytes pass through the `dist.frame.recv`
                    // failpoint before decoding: garble flips a bit and
                    // the CRC seal downstream must catch it.
                    if let Err(e) = musa_fault::fail_wire("dist.frame.recv", key, chunk) {
                        conn.dead = Some(format!("recv fault: {e}"));
                        return;
                    }
                    conn.inbuf.extend(chunk);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    conn.dead = Some(format!("read error: {e}"));
                    return;
                }
            }
        }
    }

    fn write_conn(conn: &mut Conn) {
        while !conn.outbuf.is_empty() {
            let (front, _) = conn.outbuf.as_slices();
            match conn.stream.write(front) {
                Ok(0) => {
                    conn.dead = Some("peer stopped accepting bytes".to_string());
                    return;
                }
                Ok(n) => {
                    conn.outbuf.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    conn.dead = Some(format!("write error: {e}"));
                    return;
                }
            }
        }
    }

    fn handle_frame(&mut self, ci: usize, frame: Frame) {
        musa_obs::counter_add("dist.frames_recv", 1);
        let draining = self.draining;
        let sig = self.opts.sig.clone();
        let store_dir = self.opts.store_dir.clone();
        if let Some(ev) =
            Self::frame_on_conn(&mut self.conns[ci], frame, draining, &sig, &store_dir)
        {
            self.events.push(ev);
        }
    }

    /// Apply one frame to one connection; a completed lease comes back
    /// as the event to surface.
    fn frame_on_conn(
        conn: &mut Conn,
        frame: Frame,
        draining: bool,
        sig: &str,
        store_dir: &std::path::Path,
    ) -> Option<RemoteEvent> {
        conn.last_frame = Instant::now();
        if !conn.ready {
            match frame.msg {
                Msg::Hello {
                    ver,
                    sig: their_sig,
                    worker,
                } => {
                    if ver != PROTOCOL_VERSION {
                        conn.queue(
                            &Msg::Reject {
                                code: REJECT_VERSION.to_string(),
                                reason: format!("protocol version {ver} != {PROTOCOL_VERSION}"),
                            },
                            &[],
                        );
                        conn.mark_closing("version mismatch");
                    } else if their_sig != sig {
                        musa_obs::counter_add("dist.sig_rejects", 1);
                        musa_obs::warn(
                            "musa-dist",
                            "worker rejected: sweep signature mismatch",
                            &[
                                ("peer", conn.peer.clone().into()),
                                ("ours", sig.to_string().into()),
                                ("theirs", their_sig.clone().into()),
                            ],
                        );
                        conn.queue(
                            &Msg::Reject {
                                code: REJECT_SIG.to_string(),
                                reason: format!(
                                    "sweep signature mismatch (supervisor has a \
                                     different campaign geometry/schema than {their_sig})"
                                ),
                            },
                            &[],
                        );
                        conn.mark_closing("signature mismatch");
                    } else {
                        conn.ready = true;
                        conn.queue(
                            &Msg::HelloOk {
                                ver: PROTOCOL_VERSION,
                            },
                            &[],
                        );
                        musa_obs::info(
                            "musa-dist",
                            "remote worker joined",
                            &[
                                ("peer", conn.peer.clone().into()),
                                ("worker", worker.into()),
                            ],
                        );
                        if draining {
                            // Late joiner during drain: send it away.
                            conn.queue(&Msg::Drain, &[]);
                        }
                    }
                }
                other => {
                    conn.dead = Some(format!("protocol error: {other:?} before hello"));
                }
            }
            return None;
        }
        match frame.msg {
            Msg::Ping => conn.queue(&Msg::Pong, &[]),
            Msg::Hb { lease, current, .. } => {
                if let Some(ls) = conn.lease.as_mut() {
                    if ls.id == lease {
                        ls.current = current;
                    }
                }
            }
            Msg::Point {
                lease,
                seq,
                rows,
                poisoned,
            } => {
                let Some(ls) = conn.lease.as_mut() else {
                    conn.dead = Some("protocol error: point frame without a lease".into());
                    return None;
                };
                if ls.id != lease || seq != ls.done {
                    conn.dead = Some(format!(
                        "protocol error: point frame out of order \
                         (lease {lease} seq {seq}, expected lease {} seq {})",
                        ls.id, ls.done
                    ));
                    return None;
                }
                if !frame.body.is_empty() {
                    // Append the shipped row lines and push them to
                    // the device before acknowledging progress: `done`
                    // must never run ahead of durable rows (the same
                    // journal-before-reality stance as the local pool).
                    let path = store_dir.join(format!("dist-l{:04}-a{}.jsonl", ls.id, ls.attempt));
                    let res = (|| -> std::io::Result<()> {
                        if ls.file.is_none() {
                            ls.file = Some(LineLog::open(&path)?);
                        }
                        let f = ls.file.as_mut().expect("file opened above");
                        let body = String::from_utf8_lossy(&frame.body);
                        f.append_synced(body.strip_suffix('\n').unwrap_or(&body))
                    })();
                    if let Err(e) = res {
                        // Local disk trouble is *our* fault, not the
                        // worker's: drop the connection so the lease
                        // requeues rather than silently losing rows.
                        conn.dead = Some(format!("store append failed: {e}"));
                        return None;
                    }
                }
                ls.done += 1;
                ls.rows += rows;
                ls.current = None;
                if let Some(p) = poisoned {
                    ls.poisoned.push(p);
                }
                musa_obs::counter_add("dist.rows_shipped", rows);
            }
            Msg::Result {
                lease,
                attempt,
                done,
                rows,
            } => {
                let Some(ls) = conn.lease.as_ref() else {
                    conn.dead = Some("protocol error: result frame without a lease".into());
                    return None;
                };
                if ls.id != lease {
                    conn.dead = Some(format!(
                        "protocol error: result for lease {lease}, expected {}",
                        ls.id
                    ));
                    return None;
                }
                if done as usize == ls.points.len() {
                    if ls.done != done || ls.rows != rows {
                        conn.dead = Some(format!(
                            "protocol error: result manifest disagrees with shipped \
                             points (manifest {done}/{rows}, shipped {}/{})",
                            ls.done, ls.rows
                        ));
                        return None;
                    }
                    let ls = conn.lease.take().expect("lease checked above");
                    musa_obs::counter_add("dist.leases_done", 1);
                    musa_obs::debug(
                        "musa-dist",
                        "remote lease completed",
                        &[
                            ("lease", ls.id.into()),
                            ("attempt", ls.attempt.into()),
                            ("rows", ls.rows.into()),
                            ("peer", conn.peer.clone().into()),
                        ],
                    );
                    return Some(RemoteEvent::LeaseDone {
                        lease: ls.id,
                        attempt,
                        rows: ls.rows,
                        poisoned: ls.poisoned,
                    });
                }
                // A partial manifest (drain) is informational: the
                // Bye/EOF that follows settles the lease as dead with
                // the durable progress the Point frames already proved.
            }
            Msg::Bye { reason } => {
                conn.dead = Some(format!("worker left: {reason}"));
            }
            other => {
                conn.dead = Some(format!("protocol error: unexpected {other:?}"));
            }
        }
        None
    }

    fn apply_liveness(&mut self) {
        let now = Instant::now();
        for conn in &mut self.conns {
            if conn.dead.is_some() {
                continue;
            }
            if let Some((reason, since)) = &conn.closing {
                if conn.outbuf.is_empty() || now.duration_since(*since) > CLOSING_TIMEOUT {
                    conn.dead = Some(reason.clone());
                }
                continue;
            }
            let deadline = if conn.lease.is_some() {
                // Only enforce a busy deadline when the campaign has a
                // point timeout — an unbounded point must not get its
                // connection cut from under it.
                self.opts.point_timeout.map(|t| t + BUSY_GRACE)
            } else {
                Some(IDLE_TIMEOUT)
            };
            if let Some(d) = deadline {
                if now.duration_since(conn.last_frame) > d {
                    conn.dead = Some(format!(
                        "liveness timeout ({}s without a frame)",
                        now.duration_since(conn.last_frame).as_secs()
                    ));
                }
            }
        }
    }

    fn reap_dead(&mut self) {
        let mut i = 0;
        while i < self.conns.len() {
            if self.conns[i].dead.is_none() {
                i += 1;
                continue;
            }
            let mut conn = self.conns.swap_remove(i);
            let reason = conn.dead.take().unwrap_or_default();
            musa_obs::counter_add("dist.disconnects", 1);
            if let Some(ls) = conn.lease.take() {
                musa_obs::warn(
                    "musa-dist",
                    "connection died holding a lease",
                    &[
                        ("peer", conn.peer.clone().into()),
                        ("lease", ls.id.into()),
                        ("attempt", ls.attempt.into()),
                        ("done", ls.done.into()),
                        ("reason", reason.clone().into()),
                    ],
                );
                self.events.push(RemoteEvent::LeaseDead {
                    lease: ls.id,
                    attempt: ls.attempt,
                    done: ls.done,
                    blamed: ls.current,
                    reason,
                    rows: ls.rows,
                    poisoned: ls.poisoned,
                });
            } else {
                musa_obs::debug(
                    "musa-dist",
                    "connection closed",
                    &[
                        ("peer", conn.peer.clone().into()),
                        ("reason", reason.into()),
                    ],
                );
            }
        }
    }

    fn live(&self) -> usize {
        self.conns
            .iter()
            .filter(|c| c.ready && c.dead.is_none() && c.closing.is_none())
            .count()
    }

    fn write_status(&mut self, force: bool) {
        let body = JsonObj::new()
            .field_str("addr", &self.addr.to_string())
            .field_u64("connected", self.live() as u64)
            .field_bool("draining", self.draining || self.shut)
            .finish();
        let elapsed = self.status_at.elapsed();
        if !force && body == self.status_body && elapsed < STATUS_PERIOD {
            return;
        }
        let updated = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        // Splice the timestamp in rather than including it in the
        // change check, so an unchanged hub rewrites once per period
        // and readers can tell a live beacon from an abandoned one.
        let stamped = format!(
            "{}{}",
            &body[..body.len() - 1],
            format_args!(",\"updated_unix\":{updated}}}")
        );
        let path = self.opts.store_dir.join(STATUS_FILE);
        if musa_store::atomic_write(&path, stamped.as_bytes(), "dist.status").is_ok() {
            self.status_body = body;
            self.status_at = Instant::now();
        }
    }
}

impl RemoteHub for DistHub {
    fn poll(&mut self) -> std::io::Result<Vec<RemoteEvent>> {
        if !self.shut {
            if !self.draining {
                self.accept_pending();
            }
            for ci in 0..self.conns.len() {
                Self::read_conn(&mut self.conns[ci]);
                // Parse even when the read marked the connection dead:
                // frames buffered ahead of an EOF arrived intact and
                // still count (e.g. the final heartbeat naming the
                // point to blame).
                loop {
                    match self.conns[ci].inbuf.next_frame() {
                        Ok(Some(frame)) => self.handle_frame(ci, frame),
                        Ok(None) => break,
                        Err(e) => {
                            musa_obs::counter_add("dist.frame_errors", 1);
                            if self.conns[ci].dead.is_none() {
                                self.conns[ci].dead = Some(format!("frame error: {e}"));
                            }
                            break;
                        }
                    }
                }
            }
            for conn in &mut self.conns {
                if conn.dead.is_none() {
                    Self::write_conn(conn);
                }
            }
            self.apply_liveness();
        }
        self.reap_dead();
        self.write_status(false);
        Ok(std::mem::take(&mut self.events))
    }

    fn idle(&self) -> usize {
        self.conns
            .iter()
            .filter(|c| c.ready && c.lease.is_none() && c.dead.is_none() && c.closing.is_none())
            .count()
    }

    fn connected(&self) -> usize {
        self.live()
    }

    fn offer(&mut self, lease: &RemoteLease) -> Option<String> {
        if self.draining || self.shut {
            return None;
        }
        for conn in &mut self.conns {
            if !(conn.ready
                && conn.lease.is_none()
                && conn.dead.is_none()
                && conn.closing.is_none())
            {
                continue;
            }
            conn.queue(
                &Msg::Grant {
                    lease: lease.id,
                    attempt: lease.attempt,
                    points: musa_pool::lease::encode_points(&lease.points),
                    max_retries: lease.max_retries,
                },
                &[],
            );
            if conn.dead.is_some() {
                // The send failpoint killed this connection at queue
                // time; the grant never left, try the next worker.
                continue;
            }
            conn.lease = Some(LeaseState {
                id: lease.id,
                attempt: lease.attempt,
                points: lease.points.clone(),
                done: 0,
                rows: 0,
                poisoned: Vec::new(),
                current: None,
                file: None,
            });
            return Some(conn.peer.clone());
        }
        None
    }

    fn drain(&mut self) {
        if self.draining {
            return;
        }
        self.draining = true;
        for conn in &mut self.conns {
            if conn.ready && conn.dead.is_none() && conn.closing.is_none() {
                conn.queue(&Msg::Drain, &[]);
            }
        }
        self.write_status(true);
    }

    fn shutdown(&mut self) {
        if self.shut {
            return;
        }
        self.drain();
        self.shut = true;
        // Best-effort farewell flush: give the kernel the queued drain
        // frames so idle workers exit cleanly, then cut every stream.
        // TCP delivers bytes written before close ahead of the EOF, so
        // a worker that is alive reads its Drain first.
        let deadline = Instant::now() + Duration::from_millis(200);
        loop {
            for conn in &mut self.conns {
                if conn.dead.is_none() {
                    Self::write_conn(conn);
                }
            }
            let pending = self
                .conns
                .iter()
                .any(|c| c.dead.is_none() && !c.outbuf.is_empty());
            if !pending || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        for conn in &mut self.conns {
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
            if conn.dead.is_none() {
                conn.dead = Some("endpoint shut down".to_string());
            }
        }
        self.write_status(true);
    }
}
