//! Synchronous fault-tolerant client.
//!
//! One [`Client`] is one session on one connection with one request
//! outstanding at a time. The server executes a connection's requests
//! one after another on that connection's thread, so parallelism comes
//! from more clients on more threads — that is what the server's
//! in-flight caps count.
//!
//! The fault tolerance lives in the request path: a broken socket
//! triggers reconnect with capped exponential backoff plus seeded
//! jitter, a fresh `HELLO` resuming the same session, and a re-issue of
//! the interrupted request under its original `req_id` — safe because
//! data ops are idempotent and the server replays recorded outcomes for
//! the rest. `Overloaded` responses are retried the same way (nothing
//! executed server-side); `Deadline` and other typed failures are
//! returned to the caller, who owns that policy.

use std::io::{self, Write};
use std::net::TcpStream;
use std::time::Duration;

use crate::protocol::{encode_request, read_response, Opcode, RequestHeader, Status};

/// Tunables for [`Client::connect`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Session identity; reconnects resume it. Pick distinct ids for
    /// distinct logical clients.
    pub session_id: u64,
    /// Per-request latency budget in microseconds for data ops
    /// (read/write/flush); 0 = none. Admin ops never carry a deadline.
    pub deadline_us: u32,
    /// Reconnect attempts per request before giving up.
    pub max_reconnects: u32,
    /// First reconnect/overload backoff; doubles per attempt.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// `Overloaded` retries per request before surfacing the error.
    pub max_overload_retries: u32,
    /// Seed for backoff jitter.
    pub seed: u64,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            session_id: 1,
            deadline_us: 0,
            max_reconnects: 8,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(250),
            max_overload_retries: 64,
            seed: 0x5EED,
        }
    }
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The connection could not be (re-)established within the
    /// configured attempts; the last socket error is attached.
    Disconnected(io::Error),
    /// The server answered with a non-`Ok` status.
    Server {
        /// The typed status.
        status: Status,
        /// The server's explanatory body text.
        message: String,
    },
    /// The peer violated the wire protocol.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Disconnected(e) => write!(f, "disconnected: {e}"),
            ClientError::Server { status, message } => {
                write!(f, "server replied {status:?}: {message}")
            }
            ClientError::Protocol(reason) => write!(f, "protocol violation: {reason}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl ClientError {
    /// The typed status, when the failure is a server reply.
    pub fn status(&self) -> Option<Status> {
        match self {
            ClientError::Server { status, .. } => Some(*status),
            _ => None,
        }
    }
}

/// Convenience alias for client results.
pub type ClientResult<T> = Result<T, ClientError>;

/// A sessioned connection to a block server.
#[derive(Debug)]
pub struct Client {
    addr: String,
    cfg: ClientConfig,
    stream: Option<TcpStream>,
    next_req: u64,
    rng: u64,
    epoch: u64,
    reconnects: u64,
    overload_backoffs: u64,
}

impl Client {
    /// Connects and performs the `HELLO` handshake.
    ///
    /// # Errors
    ///
    /// Fails if no connection could be established within the
    /// configured reconnect budget.
    pub fn connect(addr: &str, cfg: ClientConfig) -> ClientResult<Client> {
        let mut client = Client {
            addr: addr.to_string(),
            rng: cfg.seed | 1,
            cfg,
            stream: None,
            next_req: 1,
            epoch: 0,
            reconnects: 0,
            overload_backoffs: 0,
        };
        client.ensure_connected()?;
        Ok(client)
    }

    /// The session epoch from the most recent `HELLO` — 1 on the first
    /// connection, +1 per reconnect (across all clients of this id).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Reconnects this client has performed after its initial connect.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Times this client backed off and retried an `Overloaded` reply.
    pub fn overload_backoffs(&self) -> u64 {
        self.overload_backoffs
    }

    /// Changes the data-op deadline for subsequent requests.
    pub fn set_deadline_us(&mut self, deadline_us: u32) {
        self.cfg.deadline_us = deadline_us;
    }

    /// Reads `len` bytes from block address `block`.
    ///
    /// # Errors
    ///
    /// See [`ClientError`]; `Deadline` surfaces as a `Server` error.
    pub fn read_blocks(&mut self, block: u64, len: u32) -> ClientResult<Vec<u8>> {
        self.request(Opcode::Read, self.cfg.deadline_us, block, len, &[])
    }

    /// Writes `data` at block address `block`.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn write_blocks(&mut self, block: u64, data: &[u8]) -> ClientResult<()> {
        self.request(Opcode::Write, self.cfg.deadline_us, block, 0, data)
            .map(drop)
    }

    /// Durably flushes acknowledged writes.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn flush(&mut self) -> ClientResult<()> {
        self.request(Opcode::Flush, self.cfg.deadline_us, 0, 0, &[])
            .map(drop)
    }

    /// Admin: fails `disk`.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn fail_disk(&mut self, disk: u16) -> ClientResult<()> {
        self.request(Opcode::FailDisk, 0, disk as u64, 0, &[])
            .map(drop)
    }

    /// Admin: installs a replacement for the failed disk.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn replace_disk(&mut self) -> ClientResult<()> {
        self.request(Opcode::ReplaceDisk, 0, 0, 0, &[]).map(drop)
    }

    /// Admin: rebuilds online with `threads` workers; returns the JSON
    /// rebuild report.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn rebuild(&mut self, threads: usize) -> ClientResult<String> {
        self.request(Opcode::StartRebuild, 0, threads as u64, 0, &[])
            .map(into_text)
    }

    /// Admin: scrubs the array; returns the JSON scrub report.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn scrub(&mut self, repair: bool) -> ClientResult<String> {
        self.request(Opcode::Scrub, 0, repair as u64, 0, &[])
            .map(into_text)
    }

    /// Admin: fetches the server's `StoreStats` JSON.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn stats(&mut self) -> ClientResult<String> {
        self.request(Opcode::Stats, 0, 0, 0, &[]).map(into_text)
    }

    /// Admin: begins a graceful server shutdown.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn shutdown_server(&mut self) -> ClientResult<()> {
        self.request(Opcode::Shutdown, 0, 0, 0, &[]).map(drop)
    }

    /// One request → response exchange, reconnecting and retrying
    /// through socket failures and `Overloaded` sheds.
    fn request(
        &mut self,
        opcode: Opcode,
        deadline_us: u32,
        a: u64,
        b: u32,
        body: &[u8],
    ) -> ClientResult<Vec<u8>> {
        let req_id = self.next_req;
        self.next_req += 1;
        let header = RequestHeader {
            req_id,
            opcode,
            flags: 0,
            deadline_us,
            a,
            b,
        };
        let frame = encode_request(&header, body);
        let mut reconnects = 0u32;
        let mut overloads = 0u32;
        loop {
            self.ensure_connected()?;
            match self.exchange(&frame, req_id) {
                Ok((status, out)) => match status {
                    Status::Ok => return Ok(out),
                    Status::Overloaded if overloads < self.cfg.max_overload_retries => {
                        // Nothing executed server-side: back off, retry.
                        overloads += 1;
                        self.overload_backoffs += 1;
                        let delay = self.backoff(overloads);
                        std::thread::sleep(delay);
                    }
                    status => {
                        return Err(ClientError::Server {
                            status,
                            message: String::from_utf8_lossy(&out).into_owned(),
                        })
                    }
                },
                Err(e) => {
                    // Socket died mid-exchange. Idempotent ops re-issue
                    // freely; non-idempotent ones re-issue under the
                    // same req_id and the server replays the recorded
                    // outcome if the first send actually executed.
                    self.stream = None;
                    reconnects += 1;
                    if reconnects > self.cfg.max_reconnects {
                        return Err(ClientError::Disconnected(e));
                    }
                    let delay = self.backoff(reconnects);
                    std::thread::sleep(delay);
                }
            }
        }
    }

    /// Sends one encoded frame and reads the matching response.
    fn exchange(&mut self, frame: &[u8], req_id: u64) -> io::Result<(Status, Vec<u8>)> {
        let stream = self
            .stream
            .as_mut()
            .expect("ensure_connected ran before exchange");
        stream.write_all(frame)?;
        let (header, body) = read_response(stream)?;
        if header.req_id != req_id {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "response for request {} while awaiting {req_id}",
                    header.req_id
                ),
            ));
        }
        Ok((header.status, body))
    }

    /// Establishes the socket and performs `HELLO`, with capped
    /// jittered backoff between attempts.
    fn ensure_connected(&mut self) -> ClientResult<()> {
        if self.stream.is_some() {
            return Ok(());
        }
        let mut last_err: Option<io::Error> = None;
        for attempt in 0..=self.cfg.max_reconnects {
            if attempt > 0 {
                let delay = self.backoff(attempt);
                std::thread::sleep(delay);
            }
            match self.try_handshake() {
                Ok(()) => {
                    if self.epoch > 1 || last_err.is_some() {
                        self.reconnects += 1;
                    }
                    return Ok(());
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(ClientError::Disconnected(last_err.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::NotConnected, "no connection attempt made")
        })))
    }

    fn try_handshake(&mut self) -> io::Result<()> {
        let mut stream = TcpStream::connect(&self.addr)?;
        stream.set_nodelay(true)?;
        let hello = encode_request(
            &RequestHeader {
                req_id: 0,
                opcode: Opcode::Hello,
                flags: 0,
                deadline_us: 0,
                a: self.cfg.session_id,
                b: 0,
            },
            &[],
        );
        stream.write_all(&hello)?;
        let (header, body) = read_response(&mut stream)?;
        if header.status != Status::Ok || body.len() != 8 {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("HELLO rejected with {:?}", header.status),
            ));
        }
        self.epoch = u64::from_le_bytes(body.try_into().unwrap_or_default());
        self.stream = Some(stream);
        Ok(())
    }

    /// Exponential backoff for the `attempt`-th retry, capped, with
    /// ±50% seeded jitter so a thundering herd of clients decorrelates.
    fn backoff(&mut self, attempt: u32) -> Duration {
        let base = self.cfg.backoff_base.as_micros() as u64;
        let cap = self.cfg.backoff_cap.as_micros() as u64;
        let exp = base.saturating_mul(1u64 << attempt.min(16)).min(cap.max(1));
        // xorshift64 jitter in [exp/2, exp].
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let half = (exp / 2).max(1);
        Duration::from_micros(half + self.rng % half)
    }
}

fn into_text(body: Vec<u8>) -> String {
    String::from_utf8_lossy(&body).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_capped_and_jittered() {
        let mut client = Client {
            addr: String::new(),
            cfg: ClientConfig {
                backoff_base: Duration::from_millis(10),
                backoff_cap: Duration::from_millis(100),
                ..ClientConfig::default()
            },
            stream: None,
            next_req: 1,
            rng: 99 | 1,
            epoch: 0,
            reconnects: 0,
            overload_backoffs: 0,
        };
        let mut seen = Vec::new();
        for attempt in 1..12 {
            let d = client.backoff(attempt);
            assert!(d <= Duration::from_millis(100), "cap respected: {d:?}");
            assert!(d >= Duration::from_millis(5), "at least half the base");
            seen.push(d);
        }
        // Jitter: late attempts all sit at the cap tier but must not
        // be identical.
        let tail = &seen[6..];
        assert!(tail.iter().any(|d| d != &tail[0]), "jitter varies delays");
    }

    #[test]
    fn connect_to_nowhere_fails_typed_and_bounded() {
        let cfg = ClientConfig {
            max_reconnects: 1,
            backoff_base: Duration::from_micros(100),
            backoff_cap: Duration::from_micros(200),
            ..ClientConfig::default()
        };
        // Port 1 on loopback: nothing listens there.
        let err = Client::connect("127.0.0.1:1", cfg).unwrap_err();
        assert!(matches!(err, ClientError::Disconnected(_)), "{err}");
    }
}
