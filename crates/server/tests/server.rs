//! End-to-end server robustness: round trips, deadlines, admission
//! control, graceful degradation under admin faults, reconnect with
//! session resumption, replayed non-idempotent retries, malformed
//! input, and drain-on-shutdown.

use decluster_server::protocol::{
    encode_request, read_frame, Opcode, RequestHeader, ResponseHeader, Status,
};
use decluster_server::{Client, ClientConfig, ClientError, Server, ServerConfig};
use decluster_store::checksum::region_bytes;
use decluster_store::{
    BlockStore, DiskBackend, FaultPlan, FaultyBackend, FileBackend, LatencyProfile, LayoutSpec,
    BLOCK_BYTES, SUPERBLOCK_BYTES,
};
use std::io::Write;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const DISKS: u16 = 5;
const SPEC: LayoutSpec = LayoutSpec::Complete { disks: 5, group: 4 };
const UNITS_PER_DISK: u64 = 36;
const UNIT_BYTES: usize = 1024;

/// A scratch directory for one test, removed with everything in it
/// when dropped, so no run leaves its backing files behind.
struct TempDir(PathBuf);

impl std::ops::Deref for TempDir {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// An empty scratch directory named for the test and this process.
fn fresh_dir(name: &str) -> TempDir {
    let dir = std::env::temp_dir().join(format!(
        "decluster-server-tests-{name}-{}",
        std::process::id()
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    TempDir(dir)
}

fn make_store(name: &str) -> (TempDir, Arc<BlockStore>) {
    let dir = fresh_dir(name);
    let store = BlockStore::create(&dir, SPEC, UNITS_PER_DISK, UNIT_BYTES as u32, 0x5EA1).unwrap();
    (dir, Arc::new(store))
}

/// A store whose disks all answer reads through the given latency
/// profile — the deterministic way to make requests slow.
fn slow_store(name: &str, profile: LatencyProfile) -> (TempDir, Arc<BlockStore>) {
    let dir = fresh_dir(name);
    let plans: Vec<Arc<FaultPlan>> = (0..DISKS)
        .map(|i| FaultPlan::new(0x51_0000 + i as u64 * 2))
        .collect();
    let data_start = SUPERBLOCK_BYTES + region_bytes(UNITS_PER_DISK);
    for p in &plans {
        p.set_protect_below(data_start);
        p.set_read_latency(profile);
    }
    let factory = |i: u16, file: std::fs::File| -> Box<dyn DiskBackend> {
        Box::new(FaultyBackend::new(
            Box::new(FileBackend::new(file)),
            Arc::clone(&plans[i as usize]),
        ))
    };
    let store = BlockStore::create_with_backend(
        &dir,
        SPEC,
        UNITS_PER_DISK,
        UNIT_BYTES as u32,
        0x5EA2,
        &factory,
    )
    .unwrap();
    (dir, Arc::new(store))
}

fn block_content(block: u64, tag: u64) -> Vec<u8> {
    (0..BLOCK_BYTES as usize)
        .map(|i| {
            (block
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(tag.wrapping_mul(0xBF58_476D_1CE4_E5B9))
                .wrapping_add(i as u64)
                >> 7) as u8
        })
        .collect()
}

fn client(server: &Server, session_id: u64) -> Client {
    Client::connect(
        &server.addr().to_string(),
        ClientConfig {
            session_id,
            ..ClientConfig::default()
        },
    )
    .unwrap()
}

/// Raw-socket helper: HELLO then return the stream, for tests that
/// need to pipeline or misbehave below the `Client` abstraction.
fn raw_hello(server: &Server, session_id: u64) -> TcpStream {
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let hello = encode_request(
        &RequestHeader {
            req_id: 0,
            opcode: Opcode::Hello,
            flags: 0,
            deadline_us: 0,
            a: session_id,
            b: 0,
        },
        &[],
    );
    stream.write_all(&hello).unwrap();
    let frame = read_frame(&mut stream).unwrap().unwrap();
    let (header, _) = ResponseHeader::decode(&frame).unwrap();
    assert_eq!(header.status, Status::Ok);
    stream
}

fn raw_request(
    stream: &mut TcpStream,
    req_id: u64,
    opcode: Opcode,
    deadline_us: u32,
    a: u64,
    b: u32,
    body: &[u8],
) {
    let frame = encode_request(
        &RequestHeader {
            req_id,
            opcode,
            flags: 0,
            deadline_us,
            a,
            b,
        },
        body,
    );
    stream.write_all(&frame).unwrap();
}

fn raw_response(stream: &mut TcpStream) -> (ResponseHeader, Vec<u8>) {
    let frame = read_frame(stream).unwrap().unwrap();
    let (header, body) = ResponseHeader::decode(&frame).unwrap();
    (header, body.to_vec())
}

#[test]
fn round_trip_flush_stats_and_clean_shutdown() {
    let (dir, store) = make_store("round-trip");
    let server = Server::spawn(Arc::clone(&store), ServerConfig::default()).unwrap();
    drop(store); // the server owns the last reference → clean close on stop
    let mut c = client(&server, 11);
    assert_eq!(c.epoch(), 1);

    let blocks = 64u64;
    for b in 0..blocks {
        c.write_blocks(b, &block_content(b, 1)).unwrap();
    }
    // Multi-block extent write + read.
    let extent: Vec<u8> = (8..16).flat_map(|b| block_content(b, 2)).collect();
    c.write_blocks(8, &extent).unwrap();
    for b in 0..blocks {
        let tag = if (8..16).contains(&b) { 2 } else { 1 };
        assert_eq!(
            c.read_blocks(b, BLOCK_BYTES).unwrap(),
            block_content(b, tag)
        );
    }
    let got = c.read_blocks(8, 8 * BLOCK_BYTES).unwrap();
    assert_eq!(got, extent);
    c.flush().unwrap();

    let stats = c.stats().unwrap();
    assert!(stats.contains("\"disks\":5"), "{stats}");
    assert!(stats.contains("\"degraded\":false"), "{stats}");
    assert!(stats.contains("\"per_disk\":["), "{stats}");

    // Out-of-range and misaligned requests are typed, not fatal.
    let err = c.read_blocks(u64::MAX - 1, BLOCK_BYTES).unwrap_err();
    assert_eq!(err.status(), Some(Status::Invalid));
    let err = c.write_blocks(0, &[1u8; 100]).unwrap_err();
    assert_eq!(err.status(), Some(Status::Invalid));
    // The connection survived both.
    assert_eq!(c.read_blocks(0, BLOCK_BYTES).unwrap(), block_content(0, 1));

    // Graceful shutdown: the RPC is acknowledged, later requests are
    // refused typed, and the store lands clean on disk.
    c.shutdown_server().unwrap();
    let err = c.read_blocks(0, BLOCK_BYTES).unwrap_err();
    assert_eq!(err.status(), Some(Status::ShuttingDown));
    server.stop().unwrap();
    let (reopened, recovery) = BlockStore::open(&dir).unwrap();
    assert!(recovery.is_none(), "clean close must skip crash recovery");
    let mut buf = vec![0u8; BLOCK_BYTES as usize];
    reopened.read_blocks(0, &mut buf).unwrap();
    assert_eq!(buf, block_content(0, 1));
    reopened.close().unwrap();
}

#[test]
fn expired_deadline_yields_typed_error_never_a_hang() {
    // Every disk answers reads ~25ms late; a 2ms budget cannot be met.
    let (_dir, store) = slow_store("deadline", LatencyProfile::limping(25_000, 5_000));
    let server = Server::spawn(Arc::clone(&store), ServerConfig::default()).unwrap();
    let mut c = client(&server, 21);
    c.write_blocks(0, &block_content(0, 1)).unwrap();

    c.set_deadline_us(2_000);
    let started = Instant::now();
    let err = c.read_blocks(0, BLOCK_BYTES).unwrap_err();
    assert_eq!(err.status(), Some(Status::Deadline), "{err}");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "a missed deadline must answer promptly, not hang"
    );

    // Without a deadline the same read succeeds — slow is not broken.
    c.set_deadline_us(0);
    assert_eq!(c.read_blocks(0, BLOCK_BYTES).unwrap(), block_content(0, 1));
    server.stop().unwrap();
}

/// Unit reads issued to the backing disks since the store opened.
fn device_reads(store: &BlockStore) -> u64 {
    let stats = store.stats_snapshot();
    stats.per_disk.iter().map(|d| d.reads).sum()
}

/// Opens one connection per entry of `sessions`, writes one read of
/// block 0 on each back-to-back from this thread, and tallies the
/// replies as (Ok with the seeded data, Overloaded).
fn burst_of_reads(server: &Server, sessions: &[u64]) -> (usize, usize) {
    let mut streams: Vec<TcpStream> = sessions.iter().map(|s| raw_hello(server, *s)).collect();
    for stream in &mut streams {
        raw_request(stream, 1, Opcode::Read, 0, 0, BLOCK_BYTES, &[]);
    }
    let (mut ok, mut overloaded) = (0, 0);
    for stream in &mut streams {
        let (header, body) = raw_response(stream);
        match header.status {
            Status::Ok => {
                ok += 1;
                assert_eq!(body, block_content(0, 1), "admitted reads return real data");
            }
            Status::Overloaded => overloaded += 1,
            other => panic!("unexpected status {other:?}"),
        }
    }
    (ok, overloaded)
}

#[test]
fn overload_sheds_excess_and_completes_admitted() {
    // 30 ms reads: every request of a burst written in well under that
    // arrives while the admitted ones are still executing.
    let (_dir, store) = slow_store("overload", LatencyProfile::limping(30_000, 0));
    let server = Server::spawn(
        Arc::clone(&store),
        ServerConfig {
            global_inflight: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    // Seed one block through a patient client.
    let mut seed_client = client(&server, 31);
    seed_client.write_blocks(0, &block_content(0, 1)).unwrap();

    // Eight connections, eight sessions, one read each: the two global
    // slots admit two, the rest are shed immediately with Overloaded.
    let sessions: Vec<u64> = (320..328).collect();
    let reads_before = device_reads(&store);
    let (ok, overloaded) = burst_of_reads(&server, &sessions);
    assert_eq!(ok, 2, "exactly the admitted requests complete");
    assert_eq!(overloaded, 6, "everything past the cap is shed");
    assert_eq!(
        device_reads(&store) - reads_before,
        2,
        "a shed request does no store work"
    );

    // Capacity is released: fresh requests succeed, both slots again.
    assert_eq!(
        seed_client.read_blocks(0, BLOCK_BYTES).unwrap(),
        block_content(0, 1)
    );
    assert_eq!(burst_of_reads(&server, &sessions[..2]), (2, 0));

    // The drain refusal is just as free of store work.
    let mut idle = raw_hello(&server, 329);
    server.begin_shutdown();
    let reads_before = device_reads(&store);
    raw_request(&mut idle, 1, Opcode::Read, 0, 0, BLOCK_BYTES, &[]);
    assert_eq!(raw_response(&mut idle).0.status, Status::ShuttingDown);
    assert_eq!(device_reads(&store), reads_before);
    server.stop().unwrap();
}

#[test]
fn session_cap_sheds_across_the_sessions_connections() {
    let (_dir, store) = slow_store("session-cap", LatencyProfile::limping(30_000, 0));
    let server = Server::spawn(
        Arc::clone(&store),
        ServerConfig {
            session_inflight: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut seed_client = client(&server, 33);
    seed_client.write_blocks(0, &block_content(0, 1)).unwrap();

    // Four connections of ONE session: the global cap is far away, the
    // session's own cap of two is what sheds.
    let (ok, overloaded) = burst_of_reads(&server, &[34; 4]);
    assert_eq!(ok, 2, "the session's two slots complete");
    assert_eq!(overloaded, 2, "its other connections are shed");
    // Another session was never affected, and the slots came back.
    assert_eq!(
        seed_client.read_blocks(0, BLOCK_BYTES).unwrap(),
        block_content(0, 1)
    );
    assert_eq!(burst_of_reads(&server, &[34; 2]), (2, 0));
    server.stop().unwrap();
}

#[test]
fn pipelined_requests_on_one_connection_answer_in_order() {
    let (_dir, store) = make_store("pipelined");
    let server = Server::spawn(
        Arc::clone(&store),
        ServerConfig {
            // One connection executes one request at a time, so even a
            // cap of one never sheds its pipeline.
            session_inflight: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut stream = raw_hello(&server, 36);
    // Writes at odd ids, each read back by the request right behind it.
    for pair in 0..4u64 {
        let data = block_content(pair, 7);
        raw_request(&mut stream, 2 * pair + 1, Opcode::Write, 0, pair, 0, &data);
        raw_request(
            &mut stream,
            2 * pair + 2,
            Opcode::Read,
            0,
            pair,
            BLOCK_BYTES,
            &[],
        );
    }
    for req_id in 1..=8u64 {
        let (header, body) = raw_response(&mut stream);
        assert_eq!(header.req_id, req_id, "answers come in send order");
        assert_eq!(header.status, Status::Ok);
        if req_id % 2 == 0 {
            assert_eq!(
                body,
                block_content(req_id / 2 - 1, 7),
                "read sees its write"
            );
        } else {
            assert!(body.is_empty());
        }
    }
    server.stop().unwrap();
}

#[test]
fn stuck_peer_is_dropped_and_releases_its_ticket() {
    let (_dir, store) = make_store("stuck-peer");
    let server = Server::spawn(Arc::clone(&store), ServerConfig::default()).unwrap();
    let mut c = client(&server, 38);
    c.write_blocks(0, &block_content(0, 1)).unwrap();

    // A peer that pipelines large reads and never reads a byte back:
    // the responses fill both socket buffers and the connection thread
    // blocks in its write, holding the request's ticket.
    let mut stuck = raw_hello(&server, 39);
    let len = 128 * BLOCK_BYTES; // 32 MiB of responses: past any socket buffer
    for req_id in 1..=512u64 {
        raw_request(&mut stuck, req_id, Opcode::Read, 0, 0, len, &[]);
    }
    let wedged = Instant::now();
    while server.in_flight() == 0 || wedged.elapsed() < Duration::from_millis(200) {
        assert!(wedged.elapsed() < Duration::from_secs(5), "never blocked");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.in_flight(), 1, "the stuck write holds its ticket");
    // Everyone else is served meanwhile.
    assert_eq!(c.read_blocks(0, BLOCK_BYTES).unwrap(), block_content(0, 1));

    // The write timeout drops the connection; the ticket goes with it.
    while server.in_flight() > 0 {
        assert!(
            wedged.elapsed() < Duration::from_secs(10),
            "a stuck peer must not hold capacity forever"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(c.read_blocks(0, BLOCK_BYTES).unwrap(), block_content(0, 1));
    let stopping = Instant::now();
    server.stop().unwrap();
    assert!(
        stopping.elapsed() < Duration::from_secs(5),
        "stop() is prompt"
    );
    drop(stuck);
}

#[test]
fn fail_disk_mid_traffic_drops_no_sessions() {
    let (_dir, store) = make_store("fail-mid-traffic");
    let block_count = store.block_count();
    let server = Server::spawn(Arc::clone(&store), ServerConfig::default()).unwrap();
    drop(store);
    let addr = server.addr().to_string();

    const CLIENTS: u64 = 4;
    let span = block_count / CLIENTS;
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|w| {
                let addr = addr.clone();
                let stop = &stop;
                s.spawn(move || {
                    let mut c = Client::connect(
                        &addr,
                        ClientConfig {
                            session_id: 100 + w,
                            ..ClientConfig::default()
                        },
                    )
                    .unwrap();
                    let lo = w * span;
                    let mut rounds = 0u64;
                    while !stop.load(std::sync::atomic::Ordering::Acquire) || rounds < 2 {
                        rounds += 1;
                        for b in lo..lo + span {
                            c.write_blocks(b, &block_content(b, rounds)).unwrap();
                            let got = c.read_blocks(b, BLOCK_BYTES).unwrap();
                            assert_eq!(got, block_content(b, rounds));
                        }
                        if rounds > 256 {
                            break;
                        }
                    }
                    assert_eq!(c.reconnects(), 0, "no session drop during degradation");
                    rounds
                })
            })
            .collect();

        // The operator fails a disk under live traffic, then brings the
        // array back — all over the same protocol.
        let mut admin = Client::connect(
            &addr,
            ClientConfig {
                session_id: 999,
                ..ClientConfig::default()
            },
        )
        .unwrap();
        std::thread::sleep(Duration::from_millis(30));
        admin.fail_disk(2).unwrap();
        let stats = admin.stats().unwrap();
        assert!(stats.contains("\"degraded\":true"), "{stats}");
        assert!(stats.contains("\"failed_disk\":2"), "{stats}");
        std::thread::sleep(Duration::from_millis(30));
        admin.replace_disk().unwrap();
        let report = admin.rebuild(2).unwrap();
        assert!(report.contains("\"failed_disk\":2"), "{report}");
        let stats = admin.stats().unwrap();
        assert!(stats.contains("\"degraded\":false"), "{stats}");
        stop.store(true, std::sync::atomic::Ordering::Release);
        for w in workers {
            assert!(w.join().unwrap() >= 2);
        }
    });
    server.stop().unwrap();
}

#[test]
fn reconnect_resumes_the_session_and_replays_admin_outcomes() {
    let (_dir, store) = make_store("reconnect");
    let server = Server::spawn(Arc::clone(&store), ServerConfig::default()).unwrap();
    let mut c = client(&server, 41);
    c.write_blocks(0, &block_content(0, 1)).unwrap();
    assert_eq!(c.epoch(), 1);

    // Sever every socket server-side; the client's next call must
    // transparently reconnect and resume.
    server.disconnect_all();
    c.write_blocks(1, &block_content(1, 1)).unwrap();
    assert!(c.reconnects() >= 1, "the drop was observed and healed");
    assert_eq!(c.epoch(), 2, "same session, next epoch");
    assert_eq!(c.read_blocks(0, BLOCK_BYTES).unwrap(), block_content(0, 1));

    // Replay protection for non-idempotent retries: FAIL_DISK executed
    // once, then the same req_id re-issued over a fresh connection gets
    // the recorded Ok — not "already degraded".
    let mut raw = raw_hello(&server, 55);
    raw_request(&mut raw, 7, Opcode::FailDisk, 0, 3, 0, &[]);
    let (header, _) = raw_response(&mut raw);
    assert_eq!(header.status, Status::Ok);
    drop(raw);
    let mut raw = raw_hello(&server, 55);
    raw_request(&mut raw, 7, Opcode::FailDisk, 0, 3, 0, &[]);
    let (header, _) = raw_response(&mut raw);
    assert_eq!(header.status, Status::Ok, "recorded outcome is replayed");
    // A *new* req_id really executes and hits the precondition.
    raw_request(&mut raw, 8, Opcode::FailDisk, 0, 3, 0, &[]);
    let (header, body) = raw_response(&mut raw);
    assert_eq!(header.status, Status::Invalid);
    assert!(
        String::from_utf8_lossy(&body).contains("already failed"),
        "the second execution sees the already-failed disk"
    );
    server.stop().unwrap();
}

#[test]
fn late_admin_reply_is_deadline_but_the_outcome_replays() {
    // 1 ms per device read: a scrub of the whole array cannot make a
    // 20 ms budget, but passes the before-execution check with ease.
    let (_dir, store) = slow_store("late-admin", LatencyProfile::limping(1_000, 0));
    let server = Server::spawn(Arc::clone(&store), ServerConfig::default()).unwrap();
    let mut raw = raw_hello(&server, 56);
    raw_request(&mut raw, 3, Opcode::Scrub, 20_000, 0, 0, &[]);
    let (header, body) = raw_response(&mut raw);
    assert_eq!(header.status, Status::Deadline);
    assert!(
        String::from_utf8_lossy(&body).contains("recorded for replay"),
        "the scrub ran; only its reply was late"
    );
    // The retry under the same id gets the scrub's real report out of
    // the replay cache — recorded before the late-reply decision —
    // without a second pass over the disks.
    let reads_before = device_reads(&store);
    raw_request(&mut raw, 3, Opcode::Scrub, 0, 0, 0, &[]);
    let (header, body) = raw_response(&mut raw);
    assert_eq!(header.status, Status::Ok);
    assert!(String::from_utf8_lossy(&body).contains("\"units_scanned\":180"));
    assert_eq!(device_reads(&store), reads_before, "replayed, not re-run");
    server.stop().unwrap();
}

#[test]
fn malformed_frames_are_answered_and_survivable() {
    let (_dir, store) = make_store("malformed");
    let server = Server::spawn(Arc::clone(&store), ServerConfig::default()).unwrap();

    // A connection whose first frame is not HELLO is refused.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    raw_request(&mut stream, 1, Opcode::Stats, 0, 0, 0, &[]);
    let (header, _) = raw_response(&mut stream);
    assert_eq!(header.status, Status::Malformed);

    // After a good HELLO, an unknown opcode is answered Malformed and
    // the connection keeps working.
    let mut stream = raw_hello(&server, 61);
    let mut bogus = encode_request(
        &RequestHeader {
            req_id: 9,
            opcode: Opcode::Stats,
            flags: 0,
            deadline_us: 0,
            a: 0,
            b: 0,
        },
        &[],
    );
    bogus[4 + 8] = 250; // overwrite the opcode byte with garbage
    stream.write_all(&bogus).unwrap();
    let (header, _) = raw_response(&mut stream);
    assert_eq!(header.req_id, 9);
    assert_eq!(header.status, Status::Malformed);
    raw_request(&mut stream, 10, Opcode::Stats, 0, 0, 0, &[]);
    let (header, body) = raw_response(&mut stream);
    assert_eq!(header.status, Status::Ok);
    assert!(String::from_utf8_lossy(&body).contains("\"disks\":5"));

    // Wire arguments that do not fit are refused, not truncated or
    // overflowed: 65539 is disk 3 once cut to u16, and a range from
    // u64::MAX wraps. A lost reply times out instead of hanging.
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let block = vec![0u8; BLOCK_BYTES as usize];
    let cases: [(Opcode, u64, u32, &[u8]); 3] = [
        (Opcode::FailDisk, 65_539, 0, &[]),
        (Opcode::Read, u64::MAX, BLOCK_BYTES, &[]),
        (Opcode::Write, u64::MAX, 0, &block),
    ];
    for (i, (opcode, a, b, body)) in cases.into_iter().enumerate() {
        let req_id = 20 + i as u64;
        raw_request(&mut stream, req_id, opcode, 0, a, b, body);
        let (header, _) = raw_response(&mut stream);
        assert_eq!(header.req_id, req_id);
        assert_eq!(header.status, Status::Invalid, "{opcode:?} a={a}");
    }
    assert!(store.failed_disks().is_empty(), "no disk may fail");
    raw_request(&mut stream, 30, Opcode::Stats, 0, 0, 0, &[]);
    assert_eq!(raw_response(&mut stream).0.status, Status::Ok);
    server.stop().unwrap();
}

#[test]
fn draining_server_completes_admitted_work() {
    // Slow reads so a request is still in flight when the drain begins.
    let (_dir, store) = slow_store("drain", LatencyProfile::limping(40_000, 0));
    let server = Server::spawn(Arc::clone(&store), ServerConfig::default()).unwrap();
    let mut c = client(&server, 71);
    c.write_blocks(0, &block_content(0, 1)).unwrap();

    // Pipeline: one slow read, then SHUTDOWN right behind it.
    let mut stream = raw_hello(&server, 72);
    raw_request(&mut stream, 1, Opcode::Read, 0, 0, BLOCK_BYTES, &[]);
    raw_request(&mut stream, 2, Opcode::Shutdown, 0, 0, 0, &[]);
    let mut saw_read = false;
    let mut saw_shutdown = false;
    for _ in 0..2 {
        let (header, body) = raw_response(&mut stream);
        match header.req_id {
            1 => {
                assert_eq!(header.status, Status::Ok, "admitted work completes");
                assert_eq!(body, block_content(0, 1));
                saw_read = true;
            }
            2 => {
                assert_eq!(header.status, Status::Ok);
                saw_shutdown = true;
            }
            other => panic!("unexpected req_id {other}"),
        }
    }
    assert!(saw_read && saw_shutdown);
    // New work is refused typed while the drain runs.
    let err = c.read_blocks(0, BLOCK_BYTES).unwrap_err();
    assert_eq!(err.status(), Some(Status::ShuttingDown));
    assert!(server.draining());
    server.stop().unwrap();
}

#[test]
fn client_surfaces_exhausted_reconnects_typed() {
    let cfg = ClientConfig {
        max_reconnects: 1,
        backoff_base: Duration::from_micros(200),
        backoff_cap: Duration::from_millis(1),
        ..ClientConfig::default()
    };
    let err = Client::connect("127.0.0.1:1", cfg).unwrap_err();
    assert!(matches!(err, ClientError::Disconnected(_)));
}
