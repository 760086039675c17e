//! Wire protocol: length-prefixed binary frames over TCP.
//!
//! Every message — request or response — is one *frame*: a `u32`
//! little-endian byte length followed by that many payload bytes. A
//! request payload starts with a fixed 26-byte header
//! ([`RequestHeader`]); a response payload starts with a fixed 9-byte
//! header ([`ResponseHeader`]). All integers are little-endian.
//!
//! ```text
//! request  := len:u32 | req_id:u64 | opcode:u8 | flags:u8
//!           | deadline_us:u32 | a:u64 | b:u32 | body…
//! response := len:u32 | req_id:u64 | status:u8 | body…
//! ```
//!
//! `a` and `b` are per-opcode operands (block number, session id, disk
//! index, worker count, byte count — see [`Opcode`]); unused operands
//! are zero. `deadline_us` is the client's latency budget in
//! microseconds, measured from server receipt; `0` means no deadline.
//! The server never leaves a request unanswered: a request whose budget
//! expires gets [`Status::Deadline`], one rejected by admission control
//! gets [`Status::Overloaded`], one arriving during drain gets
//! [`Status::ShuttingDown`] — all immediately, never a hang.
//!
//! Frames are capped at [`MAX_FRAME`]; a peer announcing a larger
//! frame is malformed and the connection is dropped (nothing after the
//! length can be trusted).

use std::io::{self, Read};

/// Hard upper bound on one frame's payload, requests and responses
/// alike. Large enough for a full-stripe write on any sane geometry,
/// small enough that a corrupt length prefix cannot OOM the peer.
pub const MAX_FRAME: usize = 4 << 20;

/// Bytes of the fixed request header inside a request frame.
pub const REQUEST_HEADER_BYTES: usize = 8 + 1 + 1 + 4 + 8 + 4;

/// Bytes of the fixed response header inside a response frame.
pub const RESPONSE_HEADER_BYTES: usize = 8 + 1;

/// Request operation codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Opens (or resumes) a session. Must be the first request on every
    /// connection. `a` = client-chosen session id. The Ok response body
    /// is the session epoch (`u64`): the number of connections this
    /// session id has made, so a client can observe its own reconnects.
    Hello = 1,
    /// Reads `b` bytes starting at block `a`. Ok body = the data.
    Read = 2,
    /// Writes the body at block `a`.
    Write = 3,
    /// Durably flushes every acknowledged write.
    Flush = 4,
    /// Admin: fails disk `a` (medium dropped, array degraded).
    FailDisk = 5,
    /// Admin: installs a blank replacement for the failed disk.
    ReplaceDisk = 6,
    /// Admin: rebuilds the replacement online with `a` worker threads
    /// (`0` = one per core). Ok body = a JSON rebuild report.
    StartRebuild = 7,
    /// Admin: scrubs the array (`a` = 1 to repair, 0 to only check).
    /// Ok body = a JSON scrub report.
    Scrub = 8,
    /// Admin: snapshot of store health. Ok body = `StoreStats` JSON.
    Stats = 9,
    /// Admin: begins graceful shutdown — drain in-flight, then close.
    Shutdown = 10,
}

impl Opcode {
    /// Decodes a wire byte.
    pub fn from_u8(byte: u8) -> Option<Opcode> {
        Some(match byte {
            1 => Opcode::Hello,
            2 => Opcode::Read,
            3 => Opcode::Write,
            4 => Opcode::Flush,
            5 => Opcode::FailDisk,
            6 => Opcode::ReplaceDisk,
            7 => Opcode::StartRebuild,
            8 => Opcode::Scrub,
            9 => Opcode::Stats,
            10 => Opcode::Shutdown,
            _ => return None,
        })
    }

    /// Whether re-executing the operation yields the same outcome as
    /// the first execution (reads and writes of the same bytes are;
    /// state-transition admin ops are not). Non-idempotent responses
    /// are remembered per session so a client retry after reconnect
    /// replays the recorded outcome instead of re-executing.
    pub fn idempotent(self) -> bool {
        matches!(
            self,
            Opcode::Hello | Opcode::Read | Opcode::Write | Opcode::Flush | Opcode::Stats
        )
    }
}

/// Response status codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Success; the body is the operation's result.
    Ok = 0,
    /// The request's deadline expired before a result could be sent.
    /// The operation may or may not have executed — all data-path ops
    /// are idempotent, so the client may simply re-issue.
    Deadline = 1,
    /// Admission control shed the request; nothing executed. Retry
    /// after backoff.
    Overloaded = 2,
    /// The server is draining; nothing executed. The body names the
    /// reason; reconnecting will fail until a new server starts.
    ShuttingDown = 3,
    /// The store reported an unrecoverable media/storage error; the
    /// body is the store's error text.
    Media = 4,
    /// The request was well-formed but invalid (unknown session, bad
    /// range, admin precondition failed); body is the reason.
    Invalid = 5,
    /// The request could not be parsed; the connection closes after
    /// this response when the stream cannot be resynchronised.
    Malformed = 6,
}

impl Status {
    /// Decodes a wire byte.
    pub fn from_u8(byte: u8) -> Option<Status> {
        Some(match byte {
            0 => Status::Ok,
            1 => Status::Deadline,
            2 => Status::Overloaded,
            3 => Status::ShuttingDown,
            4 => Status::Media,
            5 => Status::Invalid,
            6 => Status::Malformed,
            _ => return None,
        })
    }
}

/// The fixed header opening every request frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestHeader {
    /// Client-assigned id echoed in the response; must be strictly
    /// increasing per session (dedup and replay depend on it).
    pub req_id: u64,
    /// The operation.
    pub opcode: Opcode,
    /// Reserved; must be zero.
    pub flags: u8,
    /// Latency budget in microseconds from server receipt; 0 = none.
    pub deadline_us: u32,
    /// First operand (block / session id / disk / threads / repair).
    pub a: u64,
    /// Second operand (read byte count).
    pub b: u32,
}

impl RequestHeader {
    /// Encodes the header into the first [`REQUEST_HEADER_BYTES`] of a
    /// frame payload.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.req_id.to_le_bytes());
        out.push(self.opcode as u8);
        out.push(self.flags);
        out.extend_from_slice(&self.deadline_us.to_le_bytes());
        out.extend_from_slice(&self.a.to_le_bytes());
        out.extend_from_slice(&self.b.to_le_bytes());
    }

    /// Decodes a frame payload into the header and its body slice.
    pub fn decode(frame: &[u8]) -> Option<(RequestHeader, &[u8])> {
        if frame.len() < REQUEST_HEADER_BYTES {
            return None;
        }
        let opcode = Opcode::from_u8(frame[8])?;
        Some((
            RequestHeader {
                req_id: u64::from_le_bytes(frame[0..8].try_into().ok()?),
                opcode,
                flags: frame[9],
                deadline_us: u32::from_le_bytes(frame[10..14].try_into().ok()?),
                a: u64::from_le_bytes(frame[14..22].try_into().ok()?),
                b: u32::from_le_bytes(frame[22..26].try_into().ok()?),
            },
            &frame[REQUEST_HEADER_BYTES..],
        ))
    }
}

/// The fixed header opening every response frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseHeader {
    /// Echo of the request's id.
    pub req_id: u64,
    /// Outcome.
    pub status: Status,
}

impl ResponseHeader {
    /// Encodes the header into the first [`RESPONSE_HEADER_BYTES`] of a
    /// frame payload.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bytes());
    }

    fn to_bytes(self) -> [u8; RESPONSE_HEADER_BYTES] {
        let mut bytes = [0u8; RESPONSE_HEADER_BYTES];
        bytes[0..8].copy_from_slice(&self.req_id.to_le_bytes());
        bytes[8] = self.status as u8;
        bytes
    }

    /// Decodes a frame payload into the header and its body slice.
    pub fn decode(frame: &[u8]) -> Option<(ResponseHeader, &[u8])> {
        if frame.len() < RESPONSE_HEADER_BYTES {
            return None;
        }
        Some((
            ResponseHeader {
                req_id: u64::from_le_bytes(frame[0..8].try_into().ok()?),
                status: Status::from_u8(frame[8])?,
            },
            &frame[RESPONSE_HEADER_BYTES..],
        ))
    }
}

/// Builds a complete request frame (length prefix included).
pub fn encode_request(header: &RequestHeader, body: &[u8]) -> Vec<u8> {
    let len = REQUEST_HEADER_BYTES + body.len();
    let mut out = Vec::with_capacity(4 + len);
    out.extend_from_slice(&(len as u32).to_le_bytes());
    header.encode(&mut out);
    out.extend_from_slice(body);
    out
}

/// Builds a complete response frame (length prefix included).
pub fn encode_response(header: &ResponseHeader, body: &[u8]) -> Vec<u8> {
    let mut frame = ResponseFrame::new();
    frame.set_body(body);
    frame.finish(header);
    frame.buf
}

/// Bytes ahead of a response body on the wire: length prefix + header.
const RESPONSE_PREFIX_BYTES: usize = 4 + RESPONSE_HEADER_BYTES;

/// A reusable response frame built in place. The length prefix and
/// header slots are reserved up front, so a body (READ data above all)
/// is produced directly behind them and the whole frame leaves in one
/// write — no per-response allocation, no body copy.
#[derive(Debug)]
pub(crate) struct ResponseFrame {
    /// Never shorter than [`RESPONSE_PREFIX_BYTES`].
    buf: Vec<u8>,
}

impl ResponseFrame {
    pub fn new() -> ResponseFrame {
        ResponseFrame {
            buf: vec![0; RESPONSE_PREFIX_BYTES],
        }
    }

    /// Sizes the body to `len` bytes and hands it out for filling. The
    /// contents are unspecified (zeroes, or bytes of the body before):
    /// the caller must overwrite all of it or replace the body.
    pub fn body_mut(&mut self, len: usize) -> &mut [u8] {
        self.buf.resize(RESPONSE_PREFIX_BYTES + len, 0);
        &mut self.buf[RESPONSE_PREFIX_BYTES..]
    }

    pub fn set_body(&mut self, body: &[u8]) {
        self.buf.truncate(RESPONSE_PREFIX_BYTES);
        self.buf.extend_from_slice(body);
    }

    pub fn body(&self) -> &[u8] {
        &self.buf[RESPONSE_PREFIX_BYTES..]
    }

    /// Writes the length prefix and `header` ahead of the current body
    /// and returns the complete frame.
    pub fn finish(&mut self, header: &ResponseHeader) -> &[u8] {
        let len = (self.buf.len() - 4) as u32;
        self.buf[0..4].copy_from_slice(&len.to_le_bytes());
        self.buf[4..RESPONSE_PREFIX_BYTES].copy_from_slice(&header.to_bytes());
        &self.buf
    }

    /// See [`trim`].
    pub fn trim(&mut self) {
        trim(&mut self.buf);
    }
}

/// What a per-connection buffer may keep allocated between requests.
const RETAINED_BYTES: usize = 64 << 10;

/// Gives back a reused connection buffer's memory past
/// [`RETAINED_BYTES`], so one frame near [`MAX_FRAME`] does not pin
/// megabytes for as long as its connection stays open.
pub(crate) fn trim(buf: &mut Vec<u8>) {
    if buf.capacity() > RETAINED_BYTES {
        buf.truncate(RETAINED_BYTES);
        buf.shrink_to(RETAINED_BYTES);
    }
}

/// Reads one frame payload off `stream`. `Ok(None)` is a clean EOF at
/// a frame boundary; an EOF mid-frame or a length above [`MAX_FRAME`]
/// is an error.
pub fn read_frame(stream: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut frame = Vec::new();
    Ok(read_frame_into(stream, &mut frame)?.then_some(frame))
}

/// [`read_frame`] into a caller-owned buffer, which is resized to the
/// payload: `Ok(false)` is the clean EOF. A connection loop reuses one
/// buffer so steady-state reads allocate nothing.
pub fn read_frame_into(stream: &mut impl Read, frame: &mut Vec<u8>) -> io::Result<bool> {
    let mut len = [0u8; 4];
    match stream.read(&mut len) {
        Ok(0) => return Ok(false),
        Ok(n) => stream.read_exact(&mut len[n..])?,
        Err(e) if e.kind() == io::ErrorKind::Interrupted => stream.read_exact(&mut len)?,
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    // No clear(): only growth is zero-filled, the rest is overwritten.
    frame.resize(len, 0);
    stream.read_exact(frame)?;
    Ok(true)
}

/// Reads one response frame off `stream`: the header, and the body
/// straight into the allocation handed back (no intermediate frame
/// buffer to copy it out of).
pub fn read_response(stream: &mut impl Read) -> io::Result<(ResponseHeader, Vec<u8>)> {
    let invalid = |reason: String| io::Error::new(io::ErrorKind::InvalidData, reason);
    let mut prefix = [0u8; RESPONSE_PREFIX_BYTES];
    stream.read_exact(&mut prefix)?;
    let len = u32::from_le_bytes([prefix[0], prefix[1], prefix[2], prefix[3]]) as usize;
    if !(RESPONSE_HEADER_BYTES..=MAX_FRAME).contains(&len) {
        return Err(invalid(format!("response frame of {len} bytes")));
    }
    let (header, _) = ResponseHeader::decode(&prefix[4..])
        .ok_or_else(|| invalid("unparseable response header".to_string()))?;
    let mut body = vec![0u8; len - RESPONSE_HEADER_BYTES];
    stream.read_exact(&mut body)?;
    Ok((header, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let header = RequestHeader {
            req_id: 0xDEAD_BEEF_1234,
            opcode: Opcode::Write,
            flags: 0,
            deadline_us: 1500,
            a: 42,
            b: 0,
        };
        let frame = encode_request(&header, b"payload");
        assert_eq!(
            u32::from_le_bytes(frame[0..4].try_into().unwrap()) as usize,
            frame.len() - 4
        );
        let (decoded, body) = RequestHeader::decode(&frame[4..]).unwrap();
        assert_eq!(decoded, header);
        assert_eq!(body, b"payload");
    }

    #[test]
    fn response_round_trips() {
        let header = ResponseHeader {
            req_id: 7,
            status: Status::Deadline,
        };
        let frame = encode_response(&header, b"too late");
        let (decoded, body) = ResponseHeader::decode(&frame[4..]).unwrap();
        assert_eq!(decoded, header);
        assert_eq!(body, b"too late");
    }

    #[test]
    fn response_frame_is_reusable_and_gives_memory_back() {
        let header = ResponseHeader {
            req_id: 9,
            status: Status::Ok,
        };
        let mut frame = ResponseFrame::new();
        frame.body_mut(MAX_FRAME / 2).fill(0xAB);
        assert_eq!(
            frame.finish(&header).len(),
            4 + RESPONSE_HEADER_BYTES + MAX_FRAME / 2
        );
        frame.trim();
        assert!(frame.buf.capacity() <= RETAINED_BYTES);
        // The next, smaller response carries nothing of the one before.
        frame.set_body(b"ok");
        assert_eq!(frame.finish(&header), &encode_response(&header, b"ok")[..]);
        let mut wire: &[u8] = frame.finish(&header);
        assert_eq!(read_response(&mut wire).unwrap(), (header, b"ok".to_vec()));
    }

    #[test]
    fn response_reader_rejects_impossible_lengths() {
        for len in [0u32, RESPONSE_HEADER_BYTES as u32 - 1, MAX_FRAME as u32 + 1] {
            let mut wire = len.to_le_bytes().to_vec();
            wire.extend_from_slice(&[0u8; RESPONSE_HEADER_BYTES]);
            let err = read_response(&mut &wire[..]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "len {len}");
        }
        // A body cut short is an EOF, not a short success.
        let frame = encode_response(
            &ResponseHeader {
                req_id: 1,
                status: Status::Ok,
            },
            b"whole body",
        );
        let err = read_response(&mut &frame[..frame.len() - 1]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn unknown_opcode_and_status_reject() {
        assert_eq!(Opcode::from_u8(0), None);
        assert_eq!(Opcode::from_u8(99), None);
        assert_eq!(Status::from_u8(200), None);
        let mut bad = vec![0u8; REQUEST_HEADER_BYTES];
        bad[8] = 250;
        assert!(RequestHeader::decode(&bad).is_none());
        assert!(RequestHeader::decode(&bad[..10]).is_none());
    }

    #[test]
    fn frame_reader_enforces_the_cap_and_eof_rules() {
        // Clean EOF at a boundary.
        let mut empty: &[u8] = &[];
        assert!(read_frame(&mut empty).unwrap().is_none());
        // Oversized announcement.
        let huge = ((MAX_FRAME + 1) as u32).to_le_bytes();
        let mut stream: &[u8] = &huge;
        assert_eq!(
            read_frame(&mut stream).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        // Truncated mid-frame.
        let mut torn: &[u8] = &[10, 0, 0, 0, 1, 2, 3];
        assert_eq!(
            read_frame(&mut torn).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        // A whole frame round-trips.
        let frame = encode_request(
            &RequestHeader {
                req_id: 1,
                opcode: Opcode::Read,
                flags: 0,
                deadline_us: 0,
                a: 0,
                b: 512,
            },
            &[],
        );
        let mut stream: &[u8] = &frame;
        let payload = read_frame(&mut stream).unwrap().unwrap();
        assert_eq!(payload.len(), REQUEST_HEADER_BYTES);
    }

    #[test]
    fn idempotence_classification() {
        assert!(Opcode::Read.idempotent());
        assert!(Opcode::Write.idempotent());
        assert!(!Opcode::FailDisk.idempotent());
        assert!(!Opcode::StartRebuild.idempotent());
        assert!(!Opcode::Shutdown.idempotent());
    }
}
