//! Shared helpers for the benchmark harness binaries.
//!
//! Each binary regenerates one table or figure of the paper's evaluation:
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `motivating` | §2.3 / §3.1–§3.5 worked examples (5040 → 24 → 19, 56×, 23, 5, 5) |
//! | `table1` | Table 1 — the bug benchmark inventory |
//! | `table2` | Table 2 — misconception detection matrix |
//! | `fig8` | Figures 8a/8b — interleavings and time to reproduce each bug |
//! | `fig8_auto` | Figure 8 variant — hand-declared vs auto-derived independence (JSON) |
//! | `fig9` | Figure 9 — per-algorithm pruning contributions |
//! | `fig10` | Figure 10 — the succeed-or-crash micro-benchmark |
//! | `ablation` | Per-pruner ablation of the Figure 8 sweep |
//!
//! Wall-clock numbers — including any parallel speedup and what
//! incremental replay saves over scratch replay (`core.incr_hit_ratio`,
//! `core.incr_events_saved_share`) — are not figures of this crate: they
//! come from the calibrated ledger in `benchmark/` (its README's "Not
//! workloads, and why" covers the two-worker row).
//!
//! What the deep reductions, the sanitizer and fault schedules promise is
//! asserted by the root test suite (`tests/suite`: the catalogue matrix,
//! `dpor_equivalence`, `fault_equivalence`), not emitted here for a script
//! to check.
//!
//! One operator-facing tool rides along with the figure binaries:
//! `er-pi-explain` prints the deterministic forensic bundle for a
//! catalogue bug's violation (the same bytes the campaign daemon serves
//! at `/campaigns/:id/violations/:n`).

/// The seed used for the Random exploration mode across all experiments.
/// Fixed for reproducibility; any seed produces the same qualitative shape
/// (see `EXPERIMENTS.md`).
pub const RAND_SEED: u64 = 7;

/// The paper's exploration cap: 10 000 interleavings per bug and mode.
pub const CAP: usize = 10_000;

/// Renders a log₁₀-scaled ASCII bar for counts in `1..=cap`.
///
/// ```
/// use er_pi_bench::log_bar;
/// assert_eq!(log_bar(1, 10_000, 40), "");
/// assert_eq!(log_bar(10_000, 10_000, 40).chars().count(), 40);
/// assert!(log_bar(100, 10_000, 40).chars().count() < 40);
/// ```
pub fn log_bar(value: usize, cap: usize, width: usize) -> String {
    if value <= 1 {
        return String::new();
    }
    let scale = (value as f64).log10() / (cap as f64).log10();
    let n = ((scale * width as f64).round() as usize).min(width);
    "█".repeat(n)
}

/// Formats a reproduction result: the count, or `↑` for "not reproduced
/// within the cap" (the paper's marker).
pub fn fmt_found(found_at: Option<usize>) -> String {
    match found_at {
        Some(n) => n.to_string(),
        None => "↑".into(),
    }
}

/// Geometric mean of a non-empty slice of ratios.
///
/// ```
/// use er_pi_bench::geomean;
/// assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
/// ```
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of an empty slice");
    let log_sum: f64 = xs.iter().map(|x| x.ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bars_grow_with_magnitude() {
        let b10 = log_bar(10, 10_000, 40);
        let b100 = log_bar(100, 10_000, 40);
        let b10k = log_bar(10_000, 10_000, 40);
        assert!(b10.chars().count() < b100.chars().count());
        assert!(b100.chars().count() < b10k.chars().count());
    }

    #[test]
    fn fmt_found_uses_the_paper_marker() {
        assert_eq!(fmt_found(Some(42)), "42");
        assert_eq!(fmt_found(None), "↑");
    }

    #[test]
    fn geomean_of_identity() {
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }
}
