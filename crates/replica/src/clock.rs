//! The simulated clock.

use serde::{Deserialize, Serialize};

/// Accumulates simulated time.
///
/// ```
/// use er_pi_replica::SimClock;
///
/// let mut clock = SimClock::new();
/// clock.charge_us(1_500);
/// assert_eq!(clock.elapsed_us(), 1_500);
/// assert!((clock.elapsed_secs() - 0.0015).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SimClock {
    elapsed_us: u64,
}

impl SimClock {
    /// Creates a clock at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `us` microseconds of simulated work.
    pub fn charge_us(&mut self, us: u64) {
        self.elapsed_us = self.elapsed_us.saturating_add(us);
    }

    /// Total simulated time, microseconds.
    pub fn elapsed_us(&self) -> u64 {
        self.elapsed_us
    }

    /// Total simulated time, seconds.
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed_us as f64 / 1e6
    }

    /// Resets to zero.
    pub fn reset(&mut self) {
        self.elapsed_us = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_accumulates_and_resets() {
        let mut c = SimClock::new();
        c.charge_us(10);
        c.charge_us(5);
        assert_eq!(c.elapsed_us(), 15);
        c.reset();
        assert_eq!(c.elapsed_us(), 0);
    }

    #[test]
    fn clock_saturates_instead_of_overflowing() {
        let mut c = SimClock::new();
        c.charge_us(u64::MAX);
        c.charge_us(10);
        assert_eq!(c.elapsed_us(), u64::MAX);
    }
}
