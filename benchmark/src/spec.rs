//! The benchmark's contract: workload names and reasons, every metric
//! with its unit and direction, and the regression bounds. Everything
//! `BENCHMARK.json` says is generated from these tables
//! (`decluster-benchmark spec`) and a unit test keeps the file in step.

use crate::json::Json;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "healthy-small",
        why: "Fault-free 4 KiB 50/50 mix, closed loop: the RMW small-write path and the plain read path; the baseline every other store workload is compared against.",
    },
    Workload {
        name: "degraded-small",
        why: "Same stream with disk 3 failed and not replaced: 1 read in 10 becomes G-1 reads + XOR, so read_p90_us sits at the edge of the reconstruct path while read_p50_us should equal healthy-small.",
    },
    Workload {
        name: "rebuild-small",
        why: "fail/replace/rebuild cycles under a 40 000 ops/s open-loop user: the paper's Figures 8-1..8-4 on the real store, rebuild rate and user latency at a fixed offered load.",
    },
    Workload {
        name: "healthy-large",
        why: "Aligned 768 KiB accesses: full-stripe writes and multi-unit reads bypass RMW, so a kernel or batching gain shows here and predicts no change on healthy-small.",
    },
    Workload {
        name: "server-small",
        why: "The healthy-small mix through Server::spawn on loopback: framing, queue hops and admission do almost all the work, so a store-only change predicts no movement.",
    },
    Workload {
        name: "sim-recon",
        why: "The Figure 8 reconstruction sweep (7 G x 4 algorithms, 210 accesses/s) in the simulator: the host-time guard for array/disk/sim; touches none of store or server.",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// The end-to-end metrics every workload reports. README.md says what
/// each one means on each workload, and why the timing bounds sit at the
/// contract's ceiling: on the 2-core sandbox the machine itself changes
/// speed by ±10 % between runs.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "read_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "read_p90_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "write_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "write_p90_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// Workload-specific end-to-end metrics: written to the results file of
/// the workload they apply to and gated by `compare`, but not part of
/// the uniform set above.
pub const END_TO_END_EXTRA: [EndToEnd; 2] = [
    EndToEnd {
        name: "rebuild_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_events_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END
        .iter()
        .chain(END_TO_END_EXTRA.iter())
        .find(|m| m.name == name)
}

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The per-layer metrics of a traced run, in ladder order.
pub const PER_LAYER: [Layer; 94] = [
    // core
    lower("core.spec_build_ms", "ms"),
    lower("core.logical_to_addr_ns.bibd", "ns"),
    lower("core.logical_to_addr_ns.raid5", "ns"),
    lower("core.logical_to_addr_ns.prime", "ns"),
    lower("core.logical_to_addr_ns.pq", "ns"),
    lower("core.stripe_units_into_ns.bibd", "ns"),
    lower("core.stripe_units_into_ns.raid5", "ns"),
    lower("core.stripe_units_into_ns.prime", "ns"),
    lower("core.stripe_units_into_ns.pq", "ns"),
    lower("core.addr_to_logical_ns.bibd", "ns"),
    lower("core.role_at_ns.bibd", "ns"),
    // store.parity, store.checksum
    higher("parity.xor_into_gbps", "GB/s"),
    higher("parity.xor_delta_gbps", "GB/s"),
    higher("parity.gf_mul_into_gbps", "GB/s"),
    higher("parity.gf_solve_two_data_gbps", "GB/s"),
    higher("checksum.fingerprint64_gbps", "GB/s"),
    // store.backend
    lower("backend.read_at_4k_us", "us"),
    lower("backend.write_at_4k_us", "us"),
    lower("backend.read_at_64k_us", "us"),
    lower("backend.write_at_64k_us", "us"),
    lower("backend.sync_ms", "ms"),
    // store: op classes
    lower("store.read_unit_us", "us"),
    lower("store.write_unit_us", "us"),
    lower("store.full_stripe_write_us", "us"),
    lower("store.read_768k_us", "us"),
    lower("store.degraded_read_us", "us"),
    lower("store.degraded_write_us", "us"),
    // store: lifecycle
    lower("store.create_ms", "ms"),
    lower("store.open_ms", "ms"),
    lower("store.flush_ms", "ms"),
    lower("store.close_ms", "ms"),
    // store: exact counts
    lower("store.dev_reads_per_user_read", "ratio"),
    lower("store.dev_reads_per_user_write", "ratio"),
    lower("store.dev_writes_per_user_write", "ratio"),
    lower("store.dev_reads_per_user_read.degraded", "ratio"),
    lower("store.dev_writes_per_user_unit.large", "ratio"),
    lower("store.disk_load_max_over_mean", "ratio"),
    lower("store.fault_counters_total", "count"),
    lower("store.stored_bytes_per_user_byte", "ratio"),
    // store: waiting
    higher("store.scaling_eff", "ratio"),
    // store: rebuild
    lower("store.rebuild_unloaded_s.bibd-c10g4", "s"),
    lower("store.rebuild_unloaded_s.raid5-c10", "s"),
    lower("store.rebuild_unloaded_s.pq-c10g5", "s"),
    lower("store.rebuild_read_fraction_min", "ratio"),
    lower("store.rebuild_read_fraction_max", "ratio"),
    lower("store.rebuild_reads_per_lost_unit.pq-c10g5", "ratio"),
    // store: rebuild under load
    lower("rebuild.user_p50_us", "us"),
    lower("rebuild.user_p99_us", "us"),
    lower("rebuild.user_stall_max_ms", "ms"),
    lower("rebuild.user_over_1ms_frac", "ratio"),
    lower("rebuild.cycle_overhead_ms", "ms"),
    lower("rebuild.gen_late_p99_us", "us"),
    // server
    lower("server.protocol_encode_ns", "ns"),
    lower("server.protocol_decode_ns", "ns"),
    lower("server.spawn_ms", "ms"),
    lower("server.connect_ms", "ms"),
    lower("server.stop_ms", "ms"),
    lower("server.rtt_stats_us", "us"),
    lower("server.rtt_read_us", "us"),
    lower("server.rtt_write_us", "us"),
    lower("server.overhead_read_us", "us"),
    higher("server.store_share_read", "ratio"),
    higher("server.scaling_eff", "ratio"),
    lower("server.overloaded", "count"),
    lower("server.reconnects", "count"),
    // sim, disk, workload, array, experiments
    lower("sim.queue_ns_per_event", "ns"),
    lower("disk.ns_per_io", "ns"),
    lower("workload.next_request_ns", "ns"),
    lower("array.plan_ns.fault_free", "ns"),
    lower("array.plan_ns.degraded", "ns"),
    lower("array.host_ns_per_event.fault_free", "ns"),
    lower("array.host_ns_per_event.recon", "ns"),
    higher("experiments.runner_speedup", "ratio"),
    lower("sim.recon_secs.g4", "s"),
    lower("sim.recon_secs.g21", "s"),
    lower("sim.user_ms.g4", "ms"),
    lower("sim.user_ms.g21", "ms"),
    lower("sim.events_total", "count"),
    // shares of each rung in the rung above
    lower("store.read_self_us", "us"),
    lower("store.write_self_us", "us"),
    lower("store.read_backend_share", "ratio"),
    lower("store.write_backend_share", "ratio"),
    lower("store.read_share.backend", "ratio"),
    lower("store.read_share.checksum", "ratio"),
    lower("store.read_share.core", "ratio"),
    lower("store.read_unattributed_share", "ratio"),
    lower("store.write_share.backend", "ratio"),
    lower("store.write_share.checksum", "ratio"),
    lower("store.write_share.parity", "ratio"),
    lower("store.write_share.core", "ratio"),
    lower("store.write_unattributed_share", "ratio"),
    lower("trace.overhead_frac", "ratio"),
    lower("trace.spans_per_request", "ratio"),
    lower("trace.spans_dropped_frac", "ratio"),
];

/// How long one run measures when the driver does not say.
pub const RUN_SECONDS: u64 = 15;

/// `BENCHMARK.json`, generated.
pub fn benchmark_json() -> Json {
    Json::obj(vec![
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(PER_LAYER.len() <= 128);
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(END_TO_END_EXTRA.iter()) {
            assert!(
                unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25,
                "{}",
                m.name
            );
        }
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        let setup = end_to_end("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(benchmark_json().encode().len() < 64 * 1024);
    }

    #[test]
    fn benchmark_json_on_disk_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            Json::parse(&text).expect("BENCHMARK.json parses"),
            benchmark_json(),
            "regenerate with: cargo run --release -- spec > ../BENCHMARK.json"
        );
    }
}
