//! Spans recorded by the benchmark's own files around calls into each
//! layer: `bench.request` → `store.*` | `client.*` | `sim.run_point` →
//! `backend.*`.
//!
//! The store reaches its files through the [`TracingBackend`] wrapper,
//! so a backend call made on the thread that issued the request becomes
//! a child of that request's span through a thread-local parent id.
//! Backend calls made on other threads (server workers, rebuild
//! workers) carry no parent and are aggregated by name.

use crate::json::Json;
use decluster_store::{DiskBackend, FileBackend};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Spans one thread keeps; beyond it only the per-name counts grow.
pub const SPAN_CAP: usize = 1 << 15;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one; 0 = none.
    pub parent: u64,
    /// The request this span belongs to; 0 = none.
    pub req: u64,
    pub name: &'static str,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What one thread recorded.
#[derive(Debug, Default)]
pub struct ThreadTrace {
    pub thread: u32,
    pub spans: Vec<Span>,
    /// Spans finished per name, kept or not.
    pub counts: Vec<(&'static str, u64)>,
    next_id: u64,
    parent: u64,
    req: u64,
}

// Statistics-only flags and counters: they publish no other data.
static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);
static SINK: Mutex<Vec<ThreadTrace>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Hands a finished thread's spans to the sink when the thread exits.
struct Local(Option<ThreadTrace>);

impl Drop for Local {
    fn drop(&mut self) {
        if let Some(t) = self.0.take() {
            if let Ok(mut sink) = SINK.lock() {
                sink.push(t);
            }
        }
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = const { RefCell::new(Local(None)) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn with_local<R>(f: impl FnOnce(&mut ThreadTrace) -> R) -> R {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let t = l.0.get_or_insert_with(|| ThreadTrace {
            thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
            ..ThreadTrace::default()
        });
        f(t)
    })
}

/// Turns span recording on or off for every thread.
pub fn set_enabled(on: bool) {
    now_ns();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Preallocates this thread's span memory, so a load thread does not
/// grow a vector inside a measured window.
pub fn init_thread() {
    with_local(|t| t.spans.reserve(SPAN_CAP.saturating_sub(t.spans.len())));
}

/// Moves this thread's spans to the sink now. Scoped threads call it
/// before returning: their thread-local destructors may run after the
/// scope has already been joined.
pub fn flush_thread() {
    LOCAL.with(|l| drop(std::mem::replace(&mut *l.borrow_mut(), Local(None))));
}

/// Takes everything recorded so far by threads that have flushed or
/// exited, plus the calling thread's own spans.
pub fn drain() -> Vec<ThreadTrace> {
    flush_thread();
    std::mem::take(
        &mut *SINK
            .lock()
            .expect("trace sink lock: a recording thread panicked"),
    )
}

/// An open span; records itself when dropped.
#[must_use]
pub struct Guard {
    /// 0 = tracing was off when the span opened.
    id: u64,
    name: &'static str,
    start_ns: u64,
    outer_parent: u64,
    outer_req: u64,
}

/// Opens a span as a child of this thread's current span.
pub fn enter(name: &'static str) -> Guard {
    open(name, None)
}

/// Opens the root span of request `req`; spans opened beneath it on
/// this thread inherit the request id.
pub fn enter_request(name: &'static str, req: u64) -> Guard {
    open(name, Some(req))
}

fn open(name: &'static str, req: Option<u64>) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard {
            id: 0,
            name,
            start_ns: 0,
            outer_parent: 0,
            outer_req: 0,
        };
    }
    let mut guard = with_local(|t| {
        t.next_id += 1;
        let id = ((t.thread as u64) << 40) | t.next_id;
        let guard = Guard {
            id,
            name,
            start_ns: 0,
            outer_parent: t.parent,
            outer_req: t.req,
        };
        t.parent = id;
        if let Some(req) = req {
            t.req = req;
        }
        guard
    });
    // Stamped last, so the span covers as little of the recorder's own
    // work as possible.
    guard.start_ns = now_ns();
    guard
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end_ns = now_ns();
        with_local(|t| {
            let span = Span {
                id: self.id,
                parent: self.outer_parent,
                req: t.req,
                name: self.name,
                thread: t.thread,
                start_ns: self.start_ns,
                end_ns,
            };
            t.parent = self.outer_parent;
            t.req = self.outer_req;
            match t.counts.iter_mut().find(|(n, _)| *n == self.name) {
                Some((_, c)) => *c += 1,
                None => t.counts.push((self.name, 1)),
            }
            if t.spans.len() < SPAN_CAP {
                t.spans.push(span);
            }
        });
    }
}

/// A [`FileBackend`] whose every call is a span.
#[derive(Debug)]
pub struct TracingBackend {
    inner: FileBackend,
}

impl TracingBackend {
    pub fn new(file: std::fs::File) -> TracingBackend {
        TracingBackend {
            inner: FileBackend::new(file),
        }
    }
}

impl DiskBackend for TracingBackend {
    fn read_at(&self, buf: &mut [u8], pos: u64) -> io::Result<()> {
        let _span = enter("backend.read_at");
        self.inner.read_at(buf, pos)
    }

    fn write_at(&self, data: &[u8], pos: u64) -> io::Result<()> {
        let _span = enter("backend.write_at");
        self.inner.write_at(data, pos)
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }

    fn sync(&self) -> io::Result<()> {
        let _span = enter("backend.sync");
        self.inner.sync()
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub spans: u64,
    pub total_ns: u64,
    /// Total minus the part of each span its children cover.
    pub self_ns: u64,
}

/// Each span's self time: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(lo, hi) in kids.iter() {
                    let lo = lo.max(reach);
                    let hi = hi.min(s.end_ns);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
            }
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// Sums spans and self time per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.spans += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += selfs[&s.id];
    }
    out
}

/// Writes one JSON object per span.
///
/// # Errors
///
/// Returns the first file error.
pub fn write_jsonl(path: &Path, traces: &[ThreadTrace]) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for s in traces.iter().flat_map(|t| &t.spans) {
        let line = Json::obj(vec![
            ("id", Json::Num(s.id as f64)),
            ("parent", Json::Num(s.parent as f64)),
            ("req", Json::Num(s.req as f64)),
            ("name", Json::str(s.name)),
            ("thread", Json::Num(s.thread as f64)),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
        ]);
        writeln!(out, "{}", line.encode())?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            name,
            thread: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_with_nested_and_sibling_children() {
        let spans = [
            span(1, 0, "bench.request", 0, 100),
            span(2, 1, "store.write_blocks", 10, 90),
            // Siblings under the store call, the last two overlapping.
            span(3, 2, "backend.read_at", 20, 30),
            span(4, 2, "backend.write_at", 40, 60),
            span(5, 2, "backend.write_at", 50, 70),
            // A grandchild does not count against the request twice.
            span(6, 3, "inner", 22, 28),
            // A parentless span on another thread.
            span(7, 0, "backend.read_at", 0, 1000),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 80);
        assert_eq!(selfs[&2], 80 - (10 + 30), "overlap 50..60 counted once");
        assert_eq!(selfs[&3], 10 - 6);
        assert_eq!(selfs[&4], 20);
        assert_eq!(selfs[&7], 1000);

        let totals = totals_by_name(&spans);
        assert_eq!(totals["backend.write_at"].spans, 2);
        assert_eq!(totals["backend.write_at"].total_ns, 40);
        assert_eq!(totals["backend.read_at"].total_ns, 1010);
        assert_eq!(totals["store.write_blocks"].self_ns, 40);
    }

    #[test]
    fn guards_nest_through_the_thread_local_parent() {
        // Other tests may record concurrently; look only at this thread.
        set_enabled(true);
        init_thread();
        {
            let _req = enter_request("bench.request", 77);
            let _op = enter("store.read_blocks");
            drop(enter("backend.read_at"));
            drop(enter("backend.read_at"));
        }
        drop(enter("backend.sync"));
        let mine = with_local(|t| std::mem::take(&mut t.spans));
        assert_eq!(mine.len(), 5);
        let by_name = |n: &str| mine.iter().filter(|s| s.name == n).collect::<Vec<_>>();
        let req = by_name("bench.request")[0];
        let op = by_name("store.read_blocks")[0];
        assert_eq!(req.parent, 0);
        assert_eq!(op.parent, req.id);
        for b in by_name("backend.read_at") {
            assert_eq!((b.parent, b.req), (op.id, 77));
            assert!(b.start_ns >= op.start_ns && b.end_ns <= op.end_ns);
        }
        let sync = by_name("backend.sync")[0];
        assert_eq!((sync.parent, sync.req), (0, 0), "request scope ended");
        let counts = with_local(|t| t.counts.clone());
        assert!(counts.contains(&("backend.read_at", 2)));
    }
}
