//! The TCP block server.
//!
//! Thread shape: one accept thread and one thread per connection, which
//! does the whole request — read the frame, decode, the drain / replay /
//! admission checks, execute against the shared [`BlockStore`], and
//! write the response on the same socket. There is no queue inside the
//! server and no hand-off between threads.
//!
//! What that means for callers: requests pipelined on *one* connection
//! are executed in arrival order and answered in that order, and what
//! has not been read yet waits in the socket buffer — TCP back-pressure
//! is the only queue. Concurrency is across connections: the in-flight
//! caps count connections executing at once (a session still spans any
//! number of connections). A connection dying at any point leaves
//! nothing stuck: its ticket releases when its thread unwinds, and a
//! peer that stops reading is dropped after [`WRITE_TIMEOUT`].
//!
//! Degradation guarantees (the reason this crate exists):
//!
//! * **Deadlines** — a request carrying a `deadline_us` budget is
//!   checked before execution and after; if the budget has expired it
//!   is answered with [`Status::Deadline`] instead of the result. The
//!   server never goes silent on a request.
//! * **Admission** — past the global or per-session in-flight cap,
//!   requests are refused with [`Status::Overloaded`] before any store
//!   work happens. The accept loop never stalls on a slow store.
//! * **Drain** — shutdown (RPC or [`Server::stop`]) flips the server
//!   into draining: new requests get [`Status::ShuttingDown`], admitted
//!   ones complete and their responses are written before sockets
//!   close.

use std::collections::HashMap;
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use decluster_store::{BlockStore, RebuildReport, ScrubReport, StoreError, BLOCK_BYTES};

use crate::protocol::{
    read_frame_into, trim, Opcode, RequestHeader, ResponseFrame, ResponseHeader, Status, MAX_FRAME,
    RESPONSE_HEADER_BYTES,
};
use crate::session::{lock, Admission, Session, SessionTable};

/// Tunables for [`Server::spawn`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; the default asks the OS for a free port on
    /// loopback ([`Server::addr`] reports what it got).
    pub addr: String,
    /// Global cap on requests executing at once, across every session.
    pub global_inflight: usize,
    /// Per-session cap on requests executing at once — what one client
    /// can reach over several connections regardless of how idle the
    /// rest of the server is.
    pub session_inflight: usize,
    /// Non-idempotent outcomes remembered per session for replay.
    pub replay_cap: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            global_inflight: 256,
            session_inflight: 32,
            replay_cap: 1024,
        }
    }
}

/// How long one response write may make no progress before the peer
/// counts as stuck. The connection thread holds the request's ticket
/// while it writes, so a client that stops reading must not be able to
/// park it forever: on expiry the connection is dropped, which releases
/// the ticket.
const WRITE_TIMEOUT: Duration = Duration::from_secs(1);

struct Shared {
    store: Arc<BlockStore>,
    addr: SocketAddr,
    sessions: SessionTable,
    admission: Arc<Admission>,
    /// Set once a shutdown has begun; never cleared.
    draining: AtomicBool,
    /// Socket clones of live connections, for shutdown and
    /// [`Server::disconnect_all`].
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn: AtomicU64,
    /// Connection threads not yet joined; the accept loop reaps the
    /// finished ones, [`Server::stop`] joins the rest.
    handler_threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Flips running → draining (idempotent) and pokes the accept loop
    /// awake with a throwaway connection so it can observe the flip.
    fn begin_drain(&self) {
        if !self.draining.swap(true, Ordering::AcqRel) {
            let _ = TcpStream::connect(self.addr);
        }
    }
}

/// A running block server. Dropping the handle abandons the threads;
/// call [`Server::stop`] for an orderly drain and store close.
pub struct Server {
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the accept loop, and returns.
    ///
    /// # Errors
    ///
    /// Fails if the listener cannot bind.
    pub fn spawn(store: Arc<BlockStore>, cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            sessions: SessionTable::new(cfg.replay_cap),
            admission: Arc::new(Admission::new(cfg.global_inflight, cfg.session_inflight)),
            draining: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
            handler_threads: Mutex::new(Vec::new()),
            store,
            addr,
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::spawn(move || accept_loop(&accept_shared, &listener));
        Ok(Server {
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Whether a shutdown has begun (RPC or [`Server::begin_shutdown`]).
    pub fn draining(&self) -> bool {
        self.shared.draining()
    }

    /// Starts a graceful shutdown without waiting for it.
    pub fn begin_shutdown(&self) {
        self.shared.begin_drain();
    }

    /// Blocks until a shutdown has begun (e.g. via the RPC).
    pub fn wait_for_shutdown(&self) {
        while !self.draining() {
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Requests admitted and not yet answered, across all sessions.
    pub fn in_flight(&self) -> usize {
        self.shared.admission.in_flight()
    }

    /// Distinct sessions ever opened.
    pub fn sessions(&self) -> usize {
        self.shared.sessions.len()
    }

    /// Severs every live connection at the socket (sessions survive;
    /// clients are expected to reconnect and resume). Exists for
    /// fault-tolerance tests and for operators chasing a stuck peer.
    pub fn disconnect_all(&self) {
        for stream in lock(&self.shared.conns).values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    /// Drains and stops the server: in-flight requests complete and
    /// their responses are written, then sockets close, threads join,
    /// and — if this handle holds the last reference — the store is
    /// closed cleanly (flushed otherwise).
    ///
    /// # Errors
    ///
    /// Returns the store's close/flush error, if any. Server threads
    /// are torn down regardless.
    pub fn stop(mut self) -> decluster_store::Result<()> {
        self.shared.begin_drain();
        // Drain: admitted work finishes. Generously bounded so a
        // wedged disk cannot hang an operator's shutdown forever.
        let drain_deadline = Instant::now() + Duration::from_secs(60);
        while self.shared.admission.in_flight() > 0 && Instant::now() < drain_deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        // The accept loop first, so it cannot register a connection
        // behind our back; then close the sockets to kick connection
        // threads out of their reads. Every drained response is already
        // on the wire.
        if let Some(accept) = self.accept_thread.take() {
            let _ = accept.join();
        }
        self.disconnect_all();
        let handlers: Vec<JoinHandle<()>> = lock(&self.shared.handler_threads).drain(..).collect();
        for handler in handlers {
            let _ = handler.join();
        }
        let shared = Arc::clone(&self.shared);
        drop(self);
        match Arc::try_unwrap(shared) {
            Ok(shared) => match Arc::try_unwrap(shared.store) {
                Ok(store) => store.close(),
                Err(store) => store.flush(),
            },
            Err(shared) => shared.store.flush(),
        }
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    for stream in listener.incoming() {
        if shared.draining() {
            break;
        }
        let Ok(stream) = stream else { continue };
        let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            lock(&shared.conns).insert(conn_id, clone);
        }
        let conn_shared = Arc::clone(shared);
        let handle = std::thread::spawn(move || {
            // Any I/O error — EOF mid-frame, a reset, a write that timed
            // out on a stuck peer — simply ends the connection.
            let _ = serve_connection(&conn_shared, &stream);
            lock(&conn_shared.conns).remove(&conn_id);
        });
        let mut handlers = lock(&shared.handler_threads);
        // Reap connections that have ended since the last accept, so
        // the list tracks live connections rather than every one ever
        // made.
        let mut i = 0;
        while i < handlers.len() {
            if handlers[i].is_finished() {
                let _ = handlers.swap_remove(i).join();
            } else {
                i += 1;
            }
        }
        handlers.push(handle);
    }
}

/// Writes `status` and the frame's current body for `req_id` in one
/// write.
fn send(
    mut stream: &TcpStream,
    response: &mut ResponseFrame,
    req_id: u64,
    status: Status,
) -> io::Result<()> {
    stream.write_all(response.finish(&ResponseHeader { req_id, status }))
}

/// [`send`] with `body` as the whole response body.
fn reply(
    stream: &TcpStream,
    response: &mut ResponseFrame,
    req_id: u64,
    status: Status,
    body: &[u8],
) -> io::Result<()> {
    response.set_body(body);
    send(stream, response, req_id, status)
}

/// One connection, start to finish, on the calling thread: HELLO
/// handshake, then read → check → admit → execute → respond until EOF
/// or an I/O error.
fn serve_connection(shared: &Shared, stream: &TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    let mut reader = BufReader::new(stream);
    // Both buffers live as long as the connection and are reused by
    // every request on it.
    let mut request = Vec::new();
    let mut response = ResponseFrame::new();

    // The handshake: first frame must be HELLO naming the session.
    if !read_frame_into(&mut reader, &mut request)? {
        return Ok(());
    }
    let Some((header, _)) = RequestHeader::decode(&request) else {
        let reason = b"unparseable first frame";
        return reply(stream, &mut response, 0, Status::Malformed, reason);
    };
    if header.opcode != Opcode::Hello {
        let reason = b"first request must be HELLO";
        return reply(
            stream,
            &mut response,
            header.req_id,
            Status::Malformed,
            reason,
        );
    }
    let session = shared.sessions.resume(header.a);
    let epoch = session.epoch().to_le_bytes();
    reply(stream, &mut response, header.req_id, Status::Ok, &epoch)?;

    while read_frame_into(&mut reader, &mut request)? {
        serve_request(shared, &session, stream, &request, &mut response)?;
        trim(&mut request);
        response.trim();
    }
    Ok(())
}

/// Answers the request in `frame`. The admission ticket is held from
/// before any store work until the response bytes have been written (or
/// the write has failed).
fn serve_request(
    shared: &Shared,
    session: &Arc<Session>,
    stream: &TcpStream,
    frame: &[u8],
    response: &mut ResponseFrame,
) -> io::Result<()> {
    let received = Instant::now();
    let Some((header, body)) = RequestHeader::decode(frame) else {
        // The length prefix kept us frame-aligned, so one bad
        // request does not poison the stream: answer and continue.
        let req_id = frame
            .get(0..8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap_or_default()))
            .unwrap_or(0);
        let reason = b"unparseable request header";
        return reply(stream, response, req_id, Status::Malformed, reason);
    };
    let req_id = header.req_id;
    if header.opcode == Opcode::Hello {
        // A repeated HELLO is a cheap liveness probe.
        let epoch = session.epoch().to_le_bytes();
        return reply(stream, response, req_id, Status::Ok, &epoch);
    }
    if shared.draining() {
        let reason = b"server is draining";
        return reply(stream, response, req_id, Status::ShuttingDown, reason);
    }
    if !header.opcode.idempotent() {
        if let Some(recorded) = session.recorded_outcome(req_id) {
            return reply(stream, response, req_id, recorded.status, &recorded.body);
        }
    }
    let Some(_ticket) = shared.admission.try_admit(session) else {
        let reason = b"in-flight cap reached";
        return reply(stream, response, req_id, Status::Overloaded, reason);
    };
    let due = (header.deadline_us > 0)
        .then(|| received + Duration::from_micros(header.deadline_us as u64));
    let late = || due.is_some_and(|due| Instant::now() > due);
    if late() {
        let reason = b"deadline expired before execution; not executed";
        return reply(stream, response, req_id, Status::Deadline, reason);
    }
    let mut status = if header.opcode == Opcode::Shutdown {
        shared.begin_drain();
        response.set_body(b"draining");
        Status::Ok
    } else {
        execute(&shared.store, &header, body, response)
    };
    // Record *before* the late-reply decision: if the deadline expired
    // mid-execution the op still ran, and a client retry must replay
    // this outcome rather than execute again.
    if !header.opcode.idempotent() {
        session.record_outcome(req_id, status, response.body());
    }
    if late() {
        response.set_body(b"deadline expired during execution; outcome recorded for replay");
        status = Status::Deadline;
    }
    send(stream, response, req_id, status)
}

/// Executes one data/admin request against the store, leaving the
/// response body in `out`.
fn execute(
    store: &BlockStore,
    header: &RequestHeader,
    body: &[u8],
    out: &mut ResponseFrame,
) -> Status {
    let block_bytes = BLOCK_BYTES as usize;
    out.set_body(&[]);
    let result = match header.opcode {
        Opcode::Read => {
            let len = header.b as usize;
            if len == 0 || !len.is_multiple_of(block_bytes) {
                return invalid(
                    out,
                    "read length must be a positive multiple of the block size",
                );
            }
            if len + RESPONSE_HEADER_BYTES > MAX_FRAME {
                return invalid(out, "read length exceeds the frame cap");
            }
            let blocks = (len / block_bytes) as u64;
            if past_end(store, header.a, blocks) {
                return invalid(out, "read range past end of device");
            }
            // Straight into the frame, behind the header slots.
            store.read_blocks(header.a, out.body_mut(len))
        }
        Opcode::Write => {
            if body.is_empty() || !body.len().is_multiple_of(block_bytes) {
                return invalid(
                    out,
                    "write body must be a positive multiple of the block size",
                );
            }
            let blocks = (body.len() / block_bytes) as u64;
            if past_end(store, header.a, blocks) {
                return invalid(out, "write range past end of device");
            }
            store.write_blocks(header.a, body)
        }
        Opcode::Flush => store.flush(),
        Opcode::FailDisk => match u16::try_from(header.a) {
            Ok(disk) => store.fail_disk(disk),
            Err(_) => return invalid(out, "disk index out of range"),
        },
        Opcode::ReplaceDisk => store.replace_disk(),
        Opcode::StartRebuild => store
            .rebuild(header.a as usize)
            .map(|report| out.set_body(rebuild_json(&report).as_bytes())),
        Opcode::Scrub => store
            .scrub(header.a != 0)
            .map(|report| out.set_body(scrub_json(&report).as_bytes())),
        Opcode::Stats => {
            out.set_body(store.stats_snapshot().to_json().as_bytes());
            Ok(())
        }
        // Hello and Shutdown are handled before execute().
        Opcode::Hello | Opcode::Shutdown => return invalid(out, "unexpected opcode"),
    };
    match result {
        Ok(()) => Status::Ok,
        Err(e) => store_error(out, &e),
    }
}

/// Whether the range of `blocks` blocks from `block` ends past the
/// device, an end that overflows `u64` included.
fn past_end(store: &BlockStore, block: u64, blocks: u64) -> bool {
    block
        .checked_add(blocks)
        .is_none_or(|end| end > store.block_count())
}

fn invalid(out: &mut ResponseFrame, reason: &str) -> Status {
    out.set_body(reason.as_bytes());
    Status::Invalid
}

/// Maps a store error onto the wire: storage-layer failures (I/O,
/// exhausted redundancy) are `Media`; preconditions and bad arguments
/// are `Invalid`. The body is the error's display text either way.
fn store_error(out: &mut ResponseFrame, error: &StoreError) -> Status {
    out.set_body(error.to_string().as_bytes());
    match error {
        StoreError::Media { .. } | StoreError::Io { .. } => Status::Media,
        _ => Status::Invalid,
    }
}

/// A JSON array of integers, e.g. `[3,0,7]`.
fn json_list<T: ToString>(values: &[T]) -> String {
    let mut out = String::from("[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out.push(']');
    out
}

fn rebuild_json(report: &RebuildReport) -> String {
    format!(
        "{{\"failed_disk\":{},\"failed_disks\":{},\"units_rebuilt\":{},\
         \"units_already_valid\":{},\
         \"units_unmapped\":{},\"alpha\":{:.6},\"wall_secs\":{:.6},\
         \"sweep_secs\":{:.6},\"disk_reads\":{},\"disk_writes\":{},\"mapped_units_per_disk\":{}}}",
        report.failed_disks.first().map_or(-1, |d| i64::from(*d)),
        json_list(&report.failed_disks),
        report.units_rebuilt,
        report.units_already_valid,
        report.units_unmapped,
        report.alpha,
        report.wall_secs,
        report.sweep_secs,
        json_list(&report.disk_reads),
        json_list(&report.disk_writes),
        json_list(&report.mapped_units_per_disk),
    )
}

fn scrub_json(report: &ScrubReport) -> String {
    format!(
        "{{\"units_scanned\":{},\"media_errors\":{},\"checksum_errors\":{},\
         \"repaired\":{},\"escalated\":{}}}",
        report.units_scanned,
        report.media_errors,
        report.checksum_errors,
        report.repaired,
        report.escalated,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, ClientConfig};
    use decluster_store::LayoutSpec;

    #[test]
    fn finished_connection_threads_are_reaped() {
        let dir =
            std::env::temp_dir().join(format!("decluster-server-reap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = LayoutSpec::Complete { disks: 5, group: 4 };
        let store = BlockStore::create(&dir, spec, 36, 1024, 0x5EA3).unwrap();
        let server = Server::spawn(Arc::new(store), ServerConfig::default()).unwrap();
        let tracked = || lock(&server.shared.handler_threads).len();
        // A full HELLO exchange per connection, so each one has been
        // accepted before the next is made.
        let connect_and_close =
            || drop(Client::connect(&server.addr().to_string(), ClientConfig::default()).unwrap());
        for _ in 0..300 {
            connect_and_close();
        }
        // Each accept reaps what has finished by then; the last few
        // threads may still be on their way out.
        let started = Instant::now();
        while tracked() > 2 {
            assert!(
                started.elapsed() < Duration::from_secs(10),
                "{} handles kept",
                tracked()
            );
            std::thread::sleep(Duration::from_millis(5));
            connect_and_close();
        }
        server.stop().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rebuild_json_writes_integer_lists() {
        let report = RebuildReport {
            failed_disks: vec![3, 0],
            units_rebuilt: 5,
            units_already_valid: 1,
            units_unmapped: 2,
            disk_reads: vec![4, 0, 9],
            disk_writes: Vec::new(),
            mapped_units_per_disk: vec![7],
            alpha: 0.25,
            wall_secs: 1.5,
            sweep_secs: 1.0,
        };
        assert_eq!(
            rebuild_json(&report),
            "{\"failed_disk\":3,\"failed_disks\":[3,0],\"units_rebuilt\":5,\
             \"units_already_valid\":1,\"units_unmapped\":2,\"alpha\":0.250000,\
             \"wall_secs\":1.500000,\"sweep_secs\":1.000000,\"disk_reads\":[4,0,9],\
             \"disk_writes\":[],\"mapped_units_per_disk\":[7]}"
        );
    }
}
