//! Machine-readable health snapshot of a live store.
//!
//! [`StoreStats`] is the one structure behind every "how is the array
//! doing" question: the `store stats` CLI subcommand prints it, the
//! network server's STATS RPC ships it to clients, and tests assert on
//! it. It is assembled from relaxed atomic counters while I/O is in
//! flight, so the numbers are a consistent-enough snapshot, not a
//! barrier: totals may trail per-disk counters by a few in-flight ops.
//!
//! The JSON encoding is hand-rolled (the workspace has no real serde)
//! and deliberately flat so shell pipelines can grep a field without a
//! JSON parser.

use crate::health::FaultCounters;
use crate::store::BlockStore;

/// Point-in-time view of one backing disk.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskStats {
    /// Disk index in the array.
    pub disk: u16,
    /// Units read since open.
    pub reads: u64,
    /// Units written since open.
    pub writes: u64,
    /// Faults charged against this disk's error budget since the last
    /// rebuild reset.
    pub faults: u64,
    /// EWMA read-latency estimate in microseconds (0 until the disk
    /// has served a read).
    pub ewma_read_us: f64,
    /// Whether the limping detector currently flags this disk.
    pub limping: bool,
    /// Whether this disk is currently failed.
    pub failed: bool,
}

/// Point-in-time view of the whole array.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreStats {
    /// Layout construction name (e.g. `declustered`).
    pub layout: String,
    /// Array width C.
    pub disks: u16,
    /// Stripe width G.
    pub group: u16,
    /// Declustering ratio α = (G−1)/(C−1).
    pub alpha: f64,
    /// Bytes per stripe unit.
    pub unit_bytes: u64,
    /// Addressable logical data units.
    pub data_units: u64,
    /// Addressable logical blocks.
    pub block_count: u64,
    /// Whether a disk is currently failed and not fully rebuilt.
    pub degraded: bool,
    /// The first failed disk, if any.
    pub failed_disk: Option<u16>,
    /// Array-wide fault-handling counters (detections, retries,
    /// checksum repairs, escalations, hedges, demotions).
    pub faults: FaultCounters,
    /// One entry per backing disk, in index order.
    pub per_disk: Vec<DiskStats>,
}

impl StoreStats {
    /// Collects a snapshot from a live store. Cheap: atomic loads and
    /// one short state-lock acquisition, no I/O.
    pub fn collect(store: &BlockStore) -> StoreStats {
        let failed = store.failed_disks();
        let io = store.io_counters();
        let per_disk = (0..store.spec().disks())
            .map(|d| DiskStats {
                disk: d,
                reads: io[d as usize].reads,
                writes: io[d as usize].writes,
                faults: store.disk_faults(d),
                ewma_read_us: store.disk_read_ewma_us(d),
                limping: store.disk_limping(d),
                failed: failed.contains(&d),
            })
            .collect();
        StoreStats {
            layout: store.spec().to_string(),
            disks: store.spec().disks(),
            group: store.spec().group(),
            alpha: store.spec().alpha(),
            unit_bytes: store.unit_bytes() as u64,
            data_units: store.data_units(),
            block_count: store.block_count(),
            degraded: !failed.is_empty(),
            failed_disk: failed.first().copied(),
            faults: store.fault_counters(),
            per_disk,
        }
    }

    /// Renders the snapshot as a single JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024 + self.per_disk.len() * 160);
        out.push('{');
        push_str(&mut out, "layout", &self.layout);
        push_u64(&mut out, "disks", self.disks as u64);
        push_u64(&mut out, "group", self.group as u64);
        push_f64(&mut out, "alpha", self.alpha);
        push_u64(&mut out, "unit_bytes", self.unit_bytes);
        push_u64(&mut out, "data_units", self.data_units);
        push_u64(&mut out, "block_count", self.block_count);
        push_bool(&mut out, "degraded", self.degraded);
        match self.failed_disk {
            Some(d) => push_u64(&mut out, "failed_disk", d as u64),
            None => push_raw(&mut out, "failed_disk", "null"),
        }
        out.push_str("\"faults\":{");
        let f = &self.faults;
        push_u64(&mut out, "media_errors", f.media_errors);
        push_u64(&mut out, "checksum_errors", f.checksum_errors);
        push_u64(&mut out, "retries", f.retries);
        push_u64(&mut out, "retry_successes", f.retry_successes);
        push_u64(&mut out, "repaired", f.repaired);
        push_u64(&mut out, "repair_units_read", f.repair_units_read);
        push_u64(&mut out, "repair_units_written", f.repair_units_written);
        push_u64(&mut out, "escalated", f.escalated);
        push_u64(&mut out, "hedged_reads", f.hedged_reads);
        push_u64(&mut out, "hedge_wins", f.hedge_wins);
        push_u64(&mut out, "demotions", f.demotions);
        close_obj(&mut out);
        out.push(',');
        out.push_str("\"per_disk\":[");
        for (i, d) in self.per_disk.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            push_u64(&mut out, "disk", d.disk as u64);
            push_u64(&mut out, "reads", d.reads);
            push_u64(&mut out, "writes", d.writes);
            push_u64(&mut out, "faults", d.faults);
            push_f64(&mut out, "ewma_read_us", d.ewma_read_us);
            push_bool(&mut out, "limping", d.limping);
            push_bool(&mut out, "failed", d.failed);
            close_obj(&mut out);
        }
        out.push(']');
        out.push('}');
        out
    }
}

fn push_key(out: &mut String, key: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
}

fn push_raw(out: &mut String, key: &str, value: &str) {
    push_key(out, key);
    out.push_str(value);
    out.push(',');
}

fn push_str(out: &mut String, key: &str, value: &str) {
    push_key(out, key);
    out.push('"');
    // Layout names and the like are ASCII identifiers; escape the two
    // characters that could break the quoting anyway.
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            _ => out.push(c),
        }
    }
    out.push('"');
    out.push(',');
}

fn push_u64(out: &mut String, key: &str, value: u64) {
    push_key(out, key);
    out.push_str(&value.to_string());
    out.push(',');
}

fn push_bool(out: &mut String, key: &str, value: bool) {
    push_raw(out, key, if value { "true" } else { "false" });
}

fn push_f64(out: &mut String, key: &str, value: f64) {
    push_key(out, key);
    if value.is_finite() {
        out.push_str(&format!("{value:.3}"));
    } else {
        out.push_str("null");
    }
    out.push(',');
}

/// Replaces a trailing comma with the closing brace.
fn close_obj(out: &mut String) {
    if out.ends_with(',') {
        out.pop();
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_stable() {
        let stats = StoreStats {
            layout: "declustered".to_string(),
            disks: 10,
            group: 4,
            alpha: 1.0 / 3.0,
            unit_bytes: 4096,
            data_units: 360,
            block_count: 2880,
            degraded: true,
            failed_disk: Some(7),
            faults: FaultCounters {
                checksum_errors: 2,
                repaired: 2,
                ..FaultCounters::default()
            },
            per_disk: vec![DiskStats {
                disk: 0,
                reads: 11,
                writes: 22,
                faults: 1,
                ewma_read_us: 812.5,
                limping: false,
                failed: false,
            }],
        };
        let json = stats.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"layout\":\"declustered\""));
        assert!(json.contains("\"alpha\":0.333"));
        assert!(json.contains("\"failed_disk\":7"));
        assert!(json.contains("\"checksum_errors\":2"));
        assert!(json.contains("\"per_disk\":[{\"disk\":0,\"reads\":11"));
        assert!(json.contains("\"ewma_read_us\":812.500"));
        assert!(!json.contains(",}") && !json.contains(",]"), "{json}");
    }

    #[test]
    fn every_failed_disk_is_flagged() {
        let dir = crate::store::tests::fresh_dir("stats-two-down");
        let spec = "pq:c10g5".parse().unwrap();
        let store = BlockStore::create(&dir, spec, 40, 512, 5).unwrap();
        store.fail_disk(2).unwrap();
        store.fail_disk(7).unwrap();
        let stats = store.stats_snapshot();
        let flagged: Vec<u16> = stats
            .per_disk
            .iter()
            .filter(|d| d.failed)
            .map(|d| d.disk)
            .collect();
        assert_eq!(flagged, vec![2, 7]);
        assert_eq!(stats.failed_disk, Some(2));
        assert!(stats.degraded);
        store.close().unwrap();
    }

    #[test]
    fn null_failed_disk_renders_as_null() {
        let stats = StoreStats {
            layout: "raid5".to_string(),
            disks: 5,
            group: 5,
            alpha: 1.0,
            unit_bytes: 4096,
            data_units: 16,
            block_count: 128,
            degraded: false,
            failed_disk: None,
            faults: FaultCounters::default(),
            per_disk: Vec::new(),
        };
        let json = stats.to_json();
        assert!(json.contains("\"failed_disk\":null"));
        assert!(json.contains("\"per_disk\":[]"));
    }
}
