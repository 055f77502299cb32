//! Inputs generated from `--seed`: the program under test receives only
//! these, never the seed itself.
//!
//! The seed varies what a replay must not depend on — the names of the
//! reported issues, the shuffle seed of the Random explorer, the order in
//! which the catalogue is swept — and leaves the shape of every recording
//! alone, so the work per campaign (and with it the exact allocation
//! counts) is a property of the workload, not of the seed.

use er_pi::{LiveSystem, SystemModel};
use er_pi_model::{ReplicaId, Value};

/// SplitMix64: small, seedable, and owned by the benchmark, so neither the
/// generated inputs nor the calibration kernel (which fills its maps from
/// it) can change when a vendored crate does.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is irrelevant at these sizes).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Everything one run derives from its seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    /// The two issue names the town recording adds besides `"otb"` (which
    /// `TownApp::invariant` names): distinct, two lowercase letters each.
    pub issues: [String; 2],
    /// Shuffle seed handed to `ExploreMode::Random`.
    pub explorer_seed: u64,
    /// The order in which the catalogue's bugs are swept.
    pub catalogue_order: Vec<usize>,
}

impl Inputs {
    pub fn generate(seed: u64, catalogue_len: usize) -> Self {
        let mut rng = Rng::new(seed);
        let name = |rng: &mut Rng| -> String {
            (0..2)
                .map(|_| char::from(b'a' + rng.below(26) as u8))
                .collect()
        };
        let first = name(&mut rng);
        let second = loop {
            let candidate = name(&mut rng);
            if candidate != first {
                break candidate;
            }
        };
        let explorer_seed = rng.next_u64();
        let mut catalogue_order: Vec<usize> = (0..catalogue_len).collect();
        for i in (1..catalogue_len).rev() {
            catalogue_order.swap(i, rng.below(i + 1));
        }
        Inputs {
            issues: [first, second],
            explorer_seed,
            catalogue_order,
        }
    }
}

/// Drives `fig_dpor`'s 10-event, 2-replica town recording (the §2.3
/// example extended with a second add/remove pair) with the seeded issue
/// names. Generic over the model so the traced wrapper records the same
/// events as the bare app.
pub fn record_town<M: SystemModel>(sys: &mut LiveSystem<'_, M>, issues: &[String; 2]) {
    let r = ReplicaId::new;
    let [second, third] = issues;
    let ev1 = sys.invoke(r(0), "add", [Value::from("otb")]);
    sys.sync(r(0), r(1), ev1);
    let ev2 = sys.invoke(r(1), "add", [Value::from(second.as_str())]);
    sys.sync(r(1), r(0), ev2);
    let ev3 = sys.invoke(r(1), "remove", [Value::from("otb")]);
    sys.sync(r(1), r(0), ev3);
    let ev4 = sys.invoke(r(0), "add", [Value::from(third.as_str())]);
    sys.sync(r(0), r(1), ev4);
    sys.invoke(r(1), "remove", [Value::from(second.as_str())]);
    sys.external(r(0), "transmit");
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_pi::Session;
    use er_pi_subjects::TownApp;

    fn recorded_json(seed: u64) -> String {
        let inputs = Inputs::generate(seed, 12);
        let mut session = Session::new(TownApp::new(2));
        let workload = session.record(|sys| record_town(sys, &inputs.issues));
        serde_json::to_string(workload).expect("workloads serialize")
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        assert_eq!(Inputs::generate(7, 12), Inputs::generate(7, 12));
        assert_eq!(recorded_json(7), recorded_json(7));
    }

    #[test]
    fn another_seed_gives_other_inputs_of_the_same_shape() {
        let (a, b) = (Inputs::generate(7, 12), Inputs::generate(8, 12));
        assert_ne!(a, b);
        assert_ne!(recorded_json(7), recorded_json(8));
        assert_eq!(recorded_json(7).len(), recorded_json(8).len());
    }

    #[test]
    fn generated_values_are_well_formed() {
        for seed in 0..200 {
            let inputs = Inputs::generate(seed, 12);
            let [a, b] = &inputs.issues;
            assert!(a != b && a.len() == 2 && b.len() == 2);
            let mut order = inputs.catalogue_order.clone();
            order.sort_unstable();
            assert_eq!(order, (0..12).collect::<Vec<_>>());
        }
    }
}
