//! Operate a file-backed declustered store (`decluster-store`) from the
//! command line: format, fill, fail, rebuild, verify, scrub, stats.
//!
//! ```text
//! store mkfs DIR [--disks C] [--group G] [--units N] [--unit-bytes B]
//!               [--layout SPEC] [--array-id ID]
//! store fill DIR [--seed S]
//! store fail DIR DISK
//! store rebuild DIR [--threads T]
//! store verify DIR [--seed S] [--skip-content]
//! store scrub DIR
//! store stats DIR
//! ```
//!
//! `mkfs --layout` takes a full layout spec (`bibd:c10g4`, `prime:c11g4`,
//! `raid5:c10`, `pq:c12g6`, …) or a bare family name (`bibd`, `prime`,
//! `pq`, plus the legacy alias `declustered`) combined with
//! `--disks`/`--group`. `store mkfs --layout help` lists every family.
//!
//! `fill` writes a deterministic per-unit pattern derived from `--seed`;
//! `verify` first scrubs every unit's media and per-unit checksum
//! (report-only, printing the disk and offset of each failure), then
//! regenerates the pattern and checks every logical unit (through the
//! degraded read path when a disk is down), then scans parity when the
//! store is fault-free. `scrub` runs the repairing pass: every faulty
//! unit is corrected in place from parity, uncorrectable ones are
//! listed. `rebuild` installs a blank replacement, rebuilds
//! it online, and prints each surviving disk's read fraction next to the
//! layout's α = (G−1)/(C−1). Throughput and latency are measured by
//! the standalone `benchmark/` package, not here.

use decluster_store::{BlockStore, LayoutSpec, StoreError, BLOCK_BYTES};
use std::path::{Path, PathBuf};
use std::time::Instant;

fn usage(problem: &str) -> ! {
    if !problem.is_empty() {
        eprintln!("error: {problem}");
    }
    eprintln!(
        "usage: store mkfs DIR [--disks C] [--group G] [--units N] [--unit-bytes B] \
         [--layout SPEC] [--array-id ID]   (SPEC like bibd:c10g4, prime:c11g4, \
         raid5:c10, pq:c12g6; `--layout help` lists families)\n\
         \x20      store fill DIR [--seed S]\n\
         \x20      store fail DIR DISK\n\
         \x20      store rebuild DIR [--threads T]\n\
         \x20      store verify DIR [--seed S] [--skip-content]\n\
         \x20      store scrub DIR\n\
         \x20      store stats DIR"
    );
    std::process::exit(if problem.is_empty() { 0 } else { 2 });
}

fn parse<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    args.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
}

fn fail(err: StoreError) -> ! {
    eprintln!("error: {err}");
    std::process::exit(1);
}

fn open(dir: &Path) -> BlockStore {
    match BlockStore::open(dir) {
        Ok((store, report)) => {
            if let Some(r) = report {
                println!(
                    "recovery ({}): {} stripes checked, {} torn, {} repaired",
                    r.policy.name(),
                    r.stripes_checked,
                    r.torn_found,
                    r.torn_repaired
                );
            }
            store
        }
        Err(e) => fail(e),
    }
}

fn describe(store: &BlockStore) {
    let spec = store.spec();
    println!(
        "{} C={} G={} α={:.4}  {} units/disk × {} B  {} data units ({} blocks)",
        spec,
        spec.disks(),
        spec.group(),
        spec.alpha(),
        store.mapping().units_per_disk(),
        store.unit_bytes(),
        store.data_units(),
        store.block_count()
    );
}

/// The deterministic fill pattern: an xorshift stream keyed by
/// `(seed, logical)`, so `verify` can regenerate any unit on its own.
fn pattern(seed: u64, logical: u64, unit_bytes: usize) -> Vec<u8> {
    let mut x = seed ^ logical.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x0123_4567_89AB_CDEF;
    (0..unit_bytes)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect()
}

/// Resolves `--layout` into a [`LayoutSpec`]: a full spec string
/// (`bibd:c10g4`) stands alone, a bare family name (`bibd`, `prime`,
/// `pq`, legacy alias `declustered`) combines with `--disks`/`--group`,
/// and `help` prints the registry and exits.
fn resolve_layout(layout: &str, disks: u16, group: u16) -> LayoutSpec {
    if layout == "help" || layout == "list" {
        eprintln!("layout families (spec grammar `family:cN[gM]`):");
        for fam in decluster_core::layout::spec::registry() {
            eprintln!(
                "  {:<10} {}  (e.g. {})",
                fam.name,
                fam.summary,
                fam.examples.join(", ")
            );
        }
        std::process::exit(0);
    }
    let text = if layout.contains(':') {
        layout.to_string()
    } else {
        let family = if layout == "declustered" {
            "bibd"
        } else {
            layout
        };
        let takes_group = decluster_core::layout::spec::registry()
            .iter()
            .find(|f| f.name == family)
            .is_none_or(|f| f.takes_group);
        if takes_group {
            format!("{family}:c{disks}g{group}")
        } else {
            format!("{family}:c{disks}")
        }
    };
    text.parse()
        .unwrap_or_else(|e| usage(&format!("bad --layout {layout}: {e}")))
}

fn mkfs(dir: &Path, mut args: impl Iterator<Item = String>) {
    let mut disks: u16 = 10;
    let mut group: u16 = 4;
    let mut units: u64 = 336;
    let mut unit_bytes: u32 = 4096;
    let mut layout = "declustered".to_string();
    let mut array_id: u64 = 0xDEC1;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--disks" => disks = parse(&mut args, "--disks"),
            "--group" => group = parse(&mut args, "--group"),
            "--units" => units = parse(&mut args, "--units"),
            "--unit-bytes" => unit_bytes = parse(&mut args, "--unit-bytes"),
            "--layout" => layout = parse(&mut args, "--layout"),
            "--array-id" => array_id = parse(&mut args, "--array-id"),
            other => usage(&format!("unknown mkfs flag {other}")),
        }
    }
    let spec = resolve_layout(&layout, disks, group);
    let store =
        BlockStore::create(dir, spec, units, unit_bytes, array_id).unwrap_or_else(|e| fail(e));
    describe(&store);
    store.close().unwrap_or_else(|e| fail(e));
    println!("formatted {}", dir.display());
}

fn fill(dir: &Path, mut args: impl Iterator<Item = String>) {
    let mut seed: u64 = 1;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => seed = parse(&mut args, "--seed"),
            other => usage(&format!("unknown fill flag {other}")),
        }
    }
    let store = open(dir);
    describe(&store);
    let start = Instant::now();
    // Stripe-multiple extents keep the fill on the full-stripe fast
    // path: parity from the data, no reads.
    let dpu = (store.mapping().stripe_width() - 1) as u64;
    let bpu = store.unit_bytes() as u64 / u64::from(BLOCK_BYTES);
    let chunk_units = (96 / dpu).max(1) * dpu;
    let mut data = Vec::with_capacity((chunk_units as usize) * store.unit_bytes());
    let mut logical = 0;
    while logical < store.data_units() {
        let n = chunk_units.min(store.data_units() - logical);
        data.clear();
        for l in logical..logical + n {
            data.extend_from_slice(&pattern(seed, l, store.unit_bytes()));
        }
        store
            .write_blocks(logical * bpu, &data)
            .unwrap_or_else(|e| fail(e));
        logical += n;
    }
    println!(
        "filled {} units in {:.2}s (seed {seed})",
        store.data_units(),
        start.elapsed().as_secs_f64()
    );
    store.close().unwrap_or_else(|e| fail(e));
}

fn fail_disk(dir: &Path, disk: u16) {
    let store = open(dir);
    store.fail_disk(disk).unwrap_or_else(|e| fail(e));
    println!("disk {disk} failed; store is degraded");
    store.close().unwrap_or_else(|e| fail(e));
}

fn rebuild(dir: &Path, mut args: impl Iterator<Item = String>) {
    let mut threads: usize = 0;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => threads = parse(&mut args, "--threads"),
            other => usage(&format!("unknown rebuild flag {other}")),
        }
    }
    let store = open(dir);
    describe(&store);
    store.replace_disk().unwrap_or_else(|e| fail(e));
    let report = store.rebuild(threads).unwrap_or_else(|e| fail(e));
    let failed = report
        .failed_disks
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "rebuilt disk(s) {} in {:.2}s: {} units reconstructed, {} already valid, {} holes",
        failed,
        report.wall_secs,
        report.units_rebuilt,
        report.units_already_valid,
        report.units_unmapped
    );
    println!("per-disk rebuild reads (α = {:.4}):", report.alpha);
    for disk in 0..report.disk_reads.len() as u16 {
        if report.failed_disks.contains(&disk) {
            println!(
                "  disk {disk:3}: replacement, {} writes",
                report.disk_writes[disk as usize]
            );
        } else {
            println!(
                "  disk {disk:3}: {:5} reads / {:5} mapped units = {:.4}",
                report.disk_reads[disk as usize],
                report.mapped_units_per_disk[disk as usize],
                report.read_fraction(disk)
            );
        }
    }
    store.close().unwrap_or_else(|e| fail(e));
}

fn verify(dir: &Path, mut args: impl Iterator<Item = String>) {
    let mut seed: u64 = 1;
    let mut check_content = true;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => seed = parse(&mut args, "--seed"),
            "--skip-content" => check_content = false,
            other => usage(&format!("unknown verify flag {other}")),
        }
    }
    let store = open(dir);
    describe(&store);
    let down = store.failed_disks();
    if !down.is_empty() {
        println!("store is degraded (disk(s) {down:?} down): reads go through reconstruction");
    }
    // Media/checksum scrub first (report-only): a verify must name
    // exactly where a sick disk lied before the content pass trips
    // over it.
    let report = store.scrub(false).unwrap_or_else(|e| fail(e));
    if report.faults() == 0 {
        println!(
            "checksums ok: {} units scanned, no media or checksum faults",
            report.units_scanned
        );
    } else {
        eprintln!(
            "checksum scrub: {} media errors, {} checksum mismatches in {} units:",
            report.media_errors, report.checksum_errors, report.units_scanned
        );
        for (disk, offset) in &report.failures {
            eprintln!("  disk {disk} unit {offset}");
        }
        eprintln!("run `store scrub {}` to repair from parity", dir.display());
        std::process::exit(1);
    }
    if check_content {
        let mut buf = vec![0u8; store.unit_bytes()];
        for logical in 0..store.data_units() {
            store
                .read_unit(logical, &mut buf)
                .unwrap_or_else(|e| fail(e));
            if buf != pattern(seed, logical, store.unit_bytes()) {
                fail(StoreError::VerifyFailed { logical });
            }
        }
        println!(
            "content ok: {} units match the fill pattern",
            store.data_units()
        );
    }
    if store.failed_disks().is_empty() {
        store.verify_parity().unwrap_or_else(|e| fail(e));
        println!("parity ok: every mapped stripe is consistent");
    }
    store.close().unwrap_or_else(|e| fail(e));
}

/// The repairing scrub: read-repair over the whole array.
fn scrub(dir: &Path) {
    let store = open(dir);
    describe(&store);
    let report = store.scrub(true).unwrap_or_else(|e| fail(e));
    println!(
        "scrubbed {} units: {} media errors, {} checksum mismatches, \
         {} repaired from parity, {} escalated",
        report.units_scanned,
        report.media_errors,
        report.checksum_errors,
        report.repaired,
        report.escalated
    );
    if !report.failures.is_empty() {
        eprintln!("uncorrectable units:");
        for (disk, offset) in &report.failures {
            eprintln!("  disk {disk} unit {offset}");
        }
    }
    store.close().unwrap_or_else(|e| fail(e));
    if report.escalated > 0 {
        std::process::exit(1);
    }
}

/// Health snapshot as JSON on stdout (recovery notes go to stderr so
/// the output stays pipeable into a JSON consumer).
fn stats(dir: &Path) {
    let store = match BlockStore::open(dir) {
        Ok((store, report)) => {
            if let Some(r) = report {
                eprintln!(
                    "recovery ({}): {} stripes checked, {} torn, {} repaired",
                    r.policy.name(),
                    r.stripes_checked,
                    r.torn_found,
                    r.torn_repaired
                );
            }
            store
        }
        Err(e) => fail(e),
    };
    println!("{}", store.stats_snapshot().to_json());
    store.close().unwrap_or_else(|e| fail(e));
}

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else {
        usage("missing subcommand");
    };
    if command == "--help" || command == "-h" {
        usage("");
    }
    let dir = PathBuf::from(
        args.next()
            .unwrap_or_else(|| usage("missing store directory")),
    );
    match command.as_str() {
        "mkfs" => mkfs(&dir, args),
        "fill" => fill(&dir, args),
        "fail" => fail_disk(&dir, parse(&mut args, "fail DISK")),
        "rebuild" => rebuild(&dir, args),
        "verify" => verify(&dir, args),
        "scrub" => scrub(&dir),
        "stats" => stats(&dir),
        other => usage(&format!("unknown subcommand {other}")),
    }
}
