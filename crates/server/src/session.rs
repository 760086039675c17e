//! Session state and admission control.
//!
//! A *session* is the unit of client identity, not the TCP connection:
//! the client picks a 64-bit session id and every connection opens with
//! a `HELLO` naming it, so a reconnect resumes the same session. The
//! session carries the two things that must survive a dropped socket —
//! the replay cache of non-idempotent outcomes (a retried `FAIL_DISK`
//! must observe the first execution's result, not run twice) and the
//! per-session in-flight count: how many of the session's connections
//! are executing a request right now (one connection executes one
//! request at a time, so this bounds a client's parallelism, not its
//! pipelining depth).
//!
//! Admission is ticket-based: a request is either *admitted* — its
//! connection thread holds a [`Ticket`] until the response bytes have
//! been written to the socket (or the write has failed) — or it is
//! refused up front with `Overloaded`. Tickets release on drop, so a
//! connection dying mid-request can never leak capacity: the ticket
//! goes when the connection thread unwinds.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::protocol::Status;

/// Locks ignoring poison: a panicked holder is a bug, but strangling
/// every other connection on it would turn one bug into an outage.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A recorded outcome of a completed non-idempotent request, replayed
/// verbatim if the client re-issues the same `req_id` after a
/// reconnect.
#[derive(Debug, Clone)]
pub(crate) struct Recorded {
    /// The status the operation actually produced.
    pub status: Status,
    /// The body that went (or would have gone) with it.
    pub body: Vec<u8>,
}

/// Bounded per-session memory of non-idempotent outcomes. Only admin
/// verbs ever record, so nothing is allocated until the first one does.
#[derive(Debug)]
struct ReplayCache {
    order: VecDeque<u64>,
    by_id: HashMap<u64, Recorded>,
    cap: usize,
}

impl ReplayCache {
    fn new(cap: usize) -> ReplayCache {
        ReplayCache {
            order: VecDeque::new(),
            by_id: HashMap::new(),
            cap,
        }
    }

    fn record(&mut self, req_id: u64, outcome: Recorded) {
        if self.by_id.insert(req_id, outcome).is_none() {
            self.order.push_back(req_id);
            while self.order.len() > self.cap {
                if let Some(evicted) = self.order.pop_front() {
                    self.by_id.remove(&evicted);
                }
            }
        }
    }

    fn get(&self, req_id: u64) -> Option<Recorded> {
        self.by_id.get(&req_id).cloned()
    }
}

/// One client session (possibly spanning many connections). The
/// client-chosen id is the [`SessionTable`] key.
#[derive(Debug)]
pub(crate) struct Session {
    /// How many connections have opened this session.
    epoch: AtomicU64,
    /// Requests admitted and not yet answered.
    in_flight: AtomicUsize,
    replay: Mutex<ReplayCache>,
}

impl Session {
    /// Current connection epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Records the outcome of a completed non-idempotent request.
    pub fn record_outcome(&self, req_id: u64, status: Status, body: &[u8]) {
        lock(&self.replay).record(
            req_id,
            Recorded {
                status,
                body: body.to_vec(),
            },
        );
    }

    /// Looks up a previously recorded outcome for `req_id`.
    pub fn recorded_outcome(&self, req_id: u64) -> Option<Recorded> {
        lock(&self.replay).get(req_id)
    }
}

/// The live session registry. Sessions are never expired: the id space
/// is client-chosen and the per-session state is bounded, so a server's
/// lifetime worth of distinct clients is cheap to keep.
#[derive(Debug)]
pub(crate) struct SessionTable {
    sessions: Mutex<HashMap<u64, Arc<Session>>>,
    replay_cap: usize,
}

impl SessionTable {
    pub fn new(replay_cap: usize) -> SessionTable {
        SessionTable {
            sessions: Mutex::new(HashMap::new()),
            replay_cap,
        }
    }

    /// Opens or resumes the session `id`, bumping its epoch.
    pub fn resume(&self, id: u64) -> Arc<Session> {
        let mut sessions = lock(&self.sessions);
        let session = sessions
            .entry(id)
            .or_insert_with(|| {
                Arc::new(Session {
                    epoch: AtomicU64::new(0),
                    in_flight: AtomicUsize::new(0),
                    replay: Mutex::new(ReplayCache::new(self.replay_cap)),
                })
            })
            .clone();
        session.epoch.fetch_add(1, Ordering::Relaxed);
        session
    }

    /// Number of distinct sessions ever opened.
    pub fn len(&self) -> usize {
        lock(&self.sessions).len()
    }
}

/// Global + per-session in-flight caps.
#[derive(Debug)]
pub(crate) struct Admission {
    global: AtomicUsize,
    global_cap: usize,
    session_cap: usize,
}

impl Admission {
    pub fn new(global_cap: usize, session_cap: usize) -> Admission {
        Admission {
            global: AtomicUsize::new(0),
            global_cap: global_cap.max(1),
            session_cap: session_cap.max(1),
        }
    }

    /// Requests admitted across all sessions and not yet answered.
    pub fn in_flight(&self) -> usize {
        self.global.load(Ordering::Acquire)
    }

    /// Tries to admit one request on `session`. `None` means shed it
    /// with `Overloaded` — nothing was reserved.
    pub fn try_admit(self: &Arc<Self>, session: &Arc<Session>) -> Option<Ticket> {
        // Per-session first: a single pipelining-happy client must hit
        // its own cap before it can touch the shared one.
        if !try_bump(&session.in_flight, self.session_cap) {
            return None;
        }
        if !try_bump(&self.global, self.global_cap) {
            session.in_flight.fetch_sub(1, Ordering::AcqRel);
            return None;
        }
        Some(Ticket {
            admission: Arc::clone(self),
            session: Arc::clone(session),
        })
    }
}

/// CAS-increments `counter` unless it already sits at `cap`.
fn try_bump(counter: &AtomicUsize, cap: usize) -> bool {
    let mut current = counter.load(Ordering::Relaxed);
    loop {
        if current >= cap {
            return false;
        }
        match counter.compare_exchange_weak(
            current,
            current + 1,
            Ordering::AcqRel,
            Ordering::Relaxed,
        ) {
            Ok(_) => return true,
            Err(now) => current = now,
        }
    }
}

/// An admitted request's reserved capacity; releases on drop.
#[derive(Debug)]
pub(crate) struct Ticket {
    admission: Arc<Admission>,
    session: Arc<Session>,
}

impl Drop for Ticket {
    fn drop(&mut self) {
        self.admission.global.fetch_sub(1, Ordering::AcqRel);
        self.session.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resume_bumps_epoch_and_keeps_identity() {
        let table = SessionTable::new(8);
        let a = table.resume(7);
        assert_eq!(a.epoch(), 1);
        let b = table.resume(7);
        assert_eq!(b.epoch(), 2);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(table.len(), 1);
        table.resume(8);
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn caps_enforce_and_tickets_release() {
        let admission = Arc::new(Admission::new(3, 2));
        let table = SessionTable::new(8);
        let s1 = table.resume(1);
        let s2 = table.resume(2);
        let t1 = admission.try_admit(&s1).unwrap();
        let t2 = admission.try_admit(&s1).unwrap();
        // Session cap: s1 is full, and the refusal reserves nothing.
        assert!(admission.try_admit(&s1).is_none());
        assert_eq!(admission.in_flight(), 2);
        // Global cap: one slot left, shared.
        let t3 = admission.try_admit(&s2).unwrap();
        assert!(admission.try_admit(&s2).is_none());
        drop(t2);
        // Released capacity is reusable by anyone under their own cap.
        let t4 = admission.try_admit(&s2).unwrap();
        drop((t1, t3, t4));
        assert_eq!(admission.in_flight(), 0);
    }

    #[test]
    fn replay_cache_is_bounded_and_verbatim() {
        let table = SessionTable::new(2);
        let s = table.resume(1);
        s.record_outcome(10, Status::Ok, b"first");
        s.record_outcome(11, Status::Invalid, b"second");
        let hit = s.recorded_outcome(11).unwrap();
        assert_eq!(hit.status, Status::Invalid);
        assert_eq!(hit.body, b"second");
        // Third entry evicts the oldest.
        s.record_outcome(12, Status::Ok, b"third");
        assert!(s.recorded_outcome(10).is_none());
        assert!(s.recorded_outcome(11).is_some());
        // Re-recording the same id does not evict.
        s.record_outcome(12, Status::Ok, b"third again");
        assert!(s.recorded_outcome(11).is_some());
        assert_eq!(s.recorded_outcome(12).unwrap().body, b"third again");
    }
}
