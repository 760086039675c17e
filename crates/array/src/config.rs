//! Array configuration.

use decluster_disk::{Geometry, MediaFaultConfig, SchedPolicy};
use serde::{Deserialize, Serialize};

/// Patrol-read scrubbing policy: a background process that cycles through
/// parity stripes verifying every unit, so latent sector errors are found
/// and repaired from redundancy *before* a disk failure exposes them.
///
/// The scrubber is throttled two ways so user response time degrades by a
/// bounded amount: at most [`ScrubConfig::max_outstanding`] verify cycles
/// are in flight at once, and when user requests are in flight a kick
/// backs off instead of claiming a stripe.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScrubConfig {
    /// Master switch. Disabled (the default) costs nothing: runs are
    /// byte-identical with PR-2 behavior.
    pub enabled: bool,
    /// Time between scrub kicks, in µs — the patrol rate ceiling (one
    /// stripe verify is started per kick at most).
    pub interval_us: u64,
    /// Maximum stripe-verify cycles in flight at once.
    pub max_outstanding: u32,
    /// Backoff, µs, when a kick finds user requests in flight: the
    /// scrubber yields the idle window it was hoping for.
    pub backoff_us: u64,
}

impl ScrubConfig {
    /// Scrubbing disabled (the default).
    pub fn off() -> ScrubConfig {
        ScrubConfig {
            enabled: false,
            interval_us: 2_000,
            max_outstanding: 1,
            backoff_us: 2_000,
        }
    }

    /// Scrubbing enabled at the default patrol rate (one stripe per 2 ms,
    /// one cycle in flight, 2 ms idle-wait backoff).
    pub fn on() -> ScrubConfig {
        ScrubConfig {
            enabled: true,
            ..ScrubConfig::off()
        }
    }

    /// Returns a copy with the given kick interval.
    pub fn with_interval_us(mut self, us: u64) -> ScrubConfig {
        self.interval_us = us;
        self
    }

    /// Returns a copy with the given in-flight cycle cap.
    ///
    /// # Panics
    ///
    /// Panics if `max` is zero (the cap would deadlock the scrubber).
    pub fn with_max_outstanding(mut self, max: u32) -> ScrubConfig {
        assert!(max > 0, "a zero cycle cap would stall the scrubber");
        self.max_outstanding = max;
        self
    }

    /// Returns a copy with the given user-traffic backoff.
    pub fn with_backoff_us(mut self, us: u64) -> ScrubConfig {
        self.backoff_us = us;
        self
    }
}

impl Default for ScrubConfig {
    fn default() -> Self {
        ScrubConfig::off()
    }
}

/// Physical and policy configuration of the simulated array, matching the
/// paper's Table 5-1 defaults.
///
/// # Examples
///
/// ```
/// use decluster_array::ArrayConfig;
///
/// let cfg = ArrayConfig::paper();
/// assert_eq!(cfg.unit_sectors, 8); // 4 KB stripe units of 512-byte sectors
/// assert_eq!(cfg.units_per_disk(), 79_716);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArrayConfig {
    /// Per-disk geometry (all disks identical).
    pub geometry: Geometry,
    /// Sectors per stripe unit (8 × 512 B = the paper's 4 KB unit).
    pub unit_sectors: u32,
    /// Head-scheduling policy for every disk.
    pub sched: SchedPolicy,
    /// Seed for the workload generator.
    pub seed: u64,
    /// Delay inserted between a reconstruction process's cycles
    /// (reconstruction throttling — the paper's future-work knob), in
    /// microseconds. Zero (the default) reconstructs as fast as possible.
    pub recon_throttle_us: u64,
    /// When true, disks strictly prioritize user accesses over
    /// reconstruction accesses (the paper's future-work "flexible
    /// prioritization scheme"); reconstruction only uses idle capacity.
    pub recon_priority: bool,
    /// Units per disk reserved as distributed spare space (0 = dedicated
    /// replacement disks, the paper's organization). With spares reserved,
    /// reconstruction may rebuild into them instead of a replacement.
    pub spare_units_per_disk: u64,
    /// Media error processes injected into every disk (latent sector
    /// errors, transient failures with retry/backoff). Inactive by
    /// default: fault-free runs pay zero overhead.
    pub media_faults: MediaFaultConfig,
    /// Patrol-read scrubbing policy. Off by default.
    pub scrub: ScrubConfig,
}

impl ArrayConfig {
    /// The paper's configuration: IBM 0661 disks, 4 KB units, CVSCAN.
    pub fn paper() -> ArrayConfig {
        ArrayConfig::builder().build()
    }

    /// A typed builder starting from the paper defaults.
    ///
    /// # Examples
    ///
    /// ```
    /// use decluster_array::ArrayConfig;
    ///
    /// let cfg = ArrayConfig::builder().cylinders(100).seed(7).build();
    /// assert_eq!(cfg.seed, 7);
    /// assert_eq!(cfg.units_per_disk(), 100 * 14 * 48 / 8);
    /// ```
    pub fn builder() -> ArrayConfigBuilder {
        ArrayConfigBuilder::default()
    }

    /// The paper's configuration on proportionally shrunken disks with
    /// `cylinders` cylinders — same seek envelope and per-track timing,
    /// smaller capacity — for experiments that must run a full
    /// reconstruction quickly. Reconstruction time scales approximately
    /// linearly with capacity.
    pub fn scaled(cylinders: u32) -> ArrayConfig {
        ArrayConfig::builder().cylinders(cylinders).build()
    }

    /// Stripe units each disk holds.
    pub fn units_per_disk(&self) -> u64 {
        self.geometry.total_sectors() / self.unit_sectors as u64
    }

    /// Bytes per stripe unit.
    pub fn unit_bytes(&self) -> u64 {
        self.unit_sectors as u64 * self.geometry.bytes_per_sector as u64
    }

    /// Units per disk available for data and parity (total minus the
    /// distributed-spare reservation).
    pub fn data_units_per_disk(&self) -> u64 {
        self.units_per_disk() - self.spare_units_per_disk
    }
}

impl Default for ArrayConfig {
    fn default() -> Self {
        ArrayConfig::paper()
    }
}

/// Typed builder for [`ArrayConfig`], starting from the paper's
/// Table 5-1 defaults (full-size IBM 0661 disks, 4 KB units, CVSCAN,
/// no throttle, no sparing, media faults and scrubbing off).
///
/// Fault *schedules* — [`crate::FaultPlan`] and [`crate::CrashPlan`] —
/// are injected into a built [`crate::ArraySim`] rather than carried in
/// the config: a config describes the array, a plan describes one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrayConfigBuilder {
    cfg: ArrayConfig,
}

impl Default for ArrayConfigBuilder {
    fn default() -> Self {
        ArrayConfigBuilder {
            cfg: ArrayConfig {
                geometry: Geometry::ibm0661(),
                unit_sectors: 8,
                sched: SchedPolicy::cvscan(),
                seed: 0x1992,
                recon_throttle_us: 0,
                recon_priority: false,
                spare_units_per_disk: 0,
                media_faults: MediaFaultConfig::none(),
                scrub: ScrubConfig::off(),
            },
        }
    }
}

impl ArrayConfigBuilder {
    /// Shrinks every disk to `cylinders` cylinders (same seek envelope
    /// and per-track timing, smaller capacity) for experiments that
    /// must run a full reconstruction quickly.
    pub fn cylinders(mut self, cylinders: u32) -> ArrayConfigBuilder {
        self.cfg.geometry = Geometry::ibm0661_scaled(cylinders);
        self
    }

    /// Replaces the per-disk geometry wholesale.
    pub fn geometry(mut self, geometry: Geometry) -> ArrayConfigBuilder {
        self.cfg.geometry = geometry;
        self
    }

    /// Sets the head-scheduling policy for every disk.
    pub fn sched(mut self, sched: SchedPolicy) -> ArrayConfigBuilder {
        self.cfg.sched = sched;
        self
    }

    /// Sets the workload generator seed.
    pub fn seed(mut self, seed: u64) -> ArrayConfigBuilder {
        self.cfg.seed = seed;
        self
    }

    /// Inserts a delay between a reconstruction process's cycles.
    pub fn recon_throttle_us(mut self, us: u64) -> ArrayConfigBuilder {
        self.cfg.recon_throttle_us = us;
        self
    }

    /// Strictly prioritizes user accesses over reconstruction accesses.
    pub fn recon_priority(mut self, on: bool) -> ArrayConfigBuilder {
        self.cfg.recon_priority = on;
        self
    }

    /// Reserves `units` spare units per disk for distributed sparing.
    ///
    /// # Panics
    ///
    /// Panics if the reservation leaves no data capacity.
    pub fn distributed_spares(mut self, units: u64) -> ArrayConfigBuilder {
        assert!(
            units < self.cfg.units_per_disk(),
            "spare reservation {units} swallows the whole disk"
        );
        self.cfg.spare_units_per_disk = units;
        self
    }

    /// Injects the given media fault processes into every disk.
    pub fn media_faults(mut self, faults: MediaFaultConfig) -> ArrayConfigBuilder {
        self.cfg.media_faults = faults;
        self
    }

    /// Sets the patrol-read scrubbing policy.
    pub fn scrub(mut self, scrub: ScrubConfig) -> ArrayConfigBuilder {
        self.cfg.scrub = scrub;
        self
    }

    /// Finishes the builder.
    ///
    /// # Panics
    ///
    /// Panics if the distributed-spare reservation no longer fits the
    /// final geometry (e.g. `distributed_spares` before a shrinking
    /// `cylinders` call).
    pub fn build(self) -> ArrayConfig {
        assert!(
            self.cfg.spare_units_per_disk == 0
                || self.cfg.spare_units_per_disk < self.cfg.units_per_disk(),
            "spare reservation {} swallows the whole disk",
            self.cfg.spare_units_per_disk
        );
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_units() {
        let cfg = ArrayConfig::paper();
        // 949 × 14 × 48 sectors / 8 per unit.
        assert_eq!(cfg.units_per_disk(), 79_716);
        assert_eq!(cfg.unit_bytes(), 4096);
    }

    #[test]
    fn scaled_keeps_unit_size() {
        let cfg = ArrayConfig::scaled(100);
        assert_eq!(cfg.unit_bytes(), 4096);
        assert_eq!(cfg.units_per_disk(), 100 * 14 * 48 / 8);
    }

    #[test]
    fn builder_sets_every_knob() {
        let cfg = ArrayConfig::builder()
            .seed(7)
            .recon_throttle_us(500)
            .recon_priority(true)
            .distributed_spares(1000)
            .media_faults(MediaFaultConfig::none().with_latent_rate(1e-6))
            .build();
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.recon_throttle_us, 500);
        assert!(cfg.recon_priority);
        assert_eq!(cfg.data_units_per_disk(), cfg.units_per_disk() - 1000);
        assert!(cfg.media_faults.is_active());
        assert!(!ArrayConfig::paper().media_faults.is_active());
        assert_eq!(ArrayConfig::default(), ArrayConfig::paper());
    }

    #[test]
    fn builder_defaults_match_paper() {
        assert_eq!(ArrayConfig::builder().build(), ArrayConfig::paper());
        assert_eq!(
            ArrayConfig::builder().cylinders(100).build(),
            ArrayConfig::scaled(100)
        );
    }

    #[test]
    #[should_panic(expected = "swallows the whole disk")]
    fn oversized_spare_reservation_is_rejected() {
        let _ = ArrayConfig::builder()
            .cylinders(30)
            .distributed_spares(u64::MAX)
            .build();
    }

    #[test]
    fn scrub_builders() {
        assert_eq!(ScrubConfig::default(), ScrubConfig::off());
        assert!(!ArrayConfig::paper().scrub.enabled);
        let cfg = ArrayConfig::builder()
            .scrub(
                ScrubConfig::on()
                    .with_interval_us(500)
                    .with_max_outstanding(2)
                    .with_backoff_us(750),
            )
            .build();
        assert!(cfg.scrub.enabled);
        assert_eq!(cfg.scrub.interval_us, 500);
        assert_eq!(cfg.scrub.max_outstanding, 2);
        assert_eq!(cfg.scrub.backoff_us, 750);
    }

    #[test]
    #[should_panic(expected = "stall")]
    fn zero_outstanding_cap_is_rejected() {
        let _ = ScrubConfig::on().with_max_outstanding(0);
    }
}
