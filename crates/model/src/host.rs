//! Host performance profiles: what an event costs on each replica's machine.

use serde::{Deserialize, Serialize};

/// A host performance profile: how expensive events are on this machine.
///
/// The presets reproduce the paper's experimental setup (§6): two laptops
/// and a Raspberry Pi 3. Costs are synthetic but ordered realistically —
/// the Pi is roughly an order of magnitude slower per operation — so that
/// simulated replay times have the same *shape* as the paper's Figure 8b.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostProfile {
    /// Human-readable host name.
    pub name: String,
    /// Cost of executing one local RDL update, in microseconds.
    pub op_cost_us: u64,
    /// Cost of executing one synchronization (serialize, apply), in
    /// microseconds, excluding network latency.
    pub sync_cost_us: u64,
    /// One-way network latency to peers, in microseconds.
    pub net_latency_us: u64,
    /// Memory budget, in megabytes (used by the succeed-or-crash
    /// micro-benchmark of Figure 10).
    pub memory_mb: u64,
}

impl HostProfile {
    /// The 32 GB / Intel i7 laptop of the paper's setup.
    pub fn laptop_i7() -> Self {
        HostProfile {
            name: "ubuntu-laptop-i7".into(),
            op_cost_us: 120,
            sync_cost_us: 450,
            net_latency_us: 900,
            memory_mb: 32 * 1024,
        }
    }

    /// The 8 GB / Intel i5 laptop of the paper's setup.
    pub fn laptop_i5() -> Self {
        HostProfile {
            name: "ubuntu-laptop-i5".into(),
            op_cost_us: 210,
            sync_cost_us: 700,
            net_latency_us: 900,
            memory_mb: 8 * 1024,
        }
    }

    /// The 1 GB / ARMv7 Raspberry Pi 3 of the paper's setup.
    pub fn raspberry_pi3() -> Self {
        HostProfile {
            name: "raspbian-rpi3".into(),
            op_cost_us: 1_400,
            sync_cost_us: 4_200,
            net_latency_us: 1_800,
            memory_mb: 1024,
        }
    }

    /// The paper's three-replica host assignment, in replica-id order.
    pub fn paper_trio() -> [HostProfile; 3] {
        [Self::laptop_i7(), Self::laptop_i5(), Self::raspberry_pi3()]
    }
}

impl Default for HostProfile {
    fn default() -> Self {
        Self::laptop_i7()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_by_speed() {
        let i7 = HostProfile::laptop_i7();
        let i5 = HostProfile::laptop_i5();
        let pi = HostProfile::raspberry_pi3();
        assert!(i7.op_cost_us < i5.op_cost_us);
        assert!(i5.op_cost_us < pi.op_cost_us);
        assert!(i7.memory_mb > i5.memory_mb);
        assert!(i5.memory_mb > pi.memory_mb);
    }

    #[test]
    fn paper_trio_matches_presets() {
        let trio = HostProfile::paper_trio();
        assert_eq!(trio[0].name, "ubuntu-laptop-i7");
        assert_eq!(trio[2].name, "raspbian-rpi3");
    }
}
