//! The bounded commutativity certifier and its validators.
//!
//! [`certify_table`] runs the execution harness of [`crate::certify`] over
//! every unordered operation pair of every family and folds the evidence
//! into a machine-readable [`CertifiedTable`]:
//!
//! * every **"commutes" claim** of [`OpProfile::commutes_with`] must be
//!   state- and outcome-convergent in *all* bounded scenarios
//!   ([`Verdict::CertifiedCommute`]), else the claim — and any pruning
//!   built on it — is [`Verdict::Unsound`];
//! * every **conflict reason** enumerated by
//!   [`er_pi_rdl::conflict_reasons`] must carry a concrete divergence
//!   witness ([`Verdict::WitnessedConflict`]), else it is vacuous
//!   ([`Verdict::Unwitnessed`]) — it claims a race the harness cannot
//!   realize, which usually means the table is stale or the reason is
//!   misfiled. Purely defensive arms (unsupported-vocabulary fallbacks)
//!   are declared as such in the enumeration and must stay unreachable
//!   ([`Verdict::Defensive`]).
//!
//! [`validate_table`] converts any unsound or vacuous entry into
//! [`Diagnostic`]s of the [`LintPattern::IndependenceSoundness`] class, and
//! [`validate_independence`] cross-checks a hand-declared (or derived)
//! [`PruningConfig`] against the certified table before a campaign starts.

use serde::Serialize;

use er_pi_interleave::PruningConfig;
use er_pi_model::{ReplicaId, Workload};
use er_pi_rdl::{conflict_reasons, OpProfile};

use crate::certify::{certify_pairs, family_name, kind_sig, CertWitness, PairEvidence};
use crate::lint::{Diagnostic, LintPattern};
use crate::vocab::interpret_op;

/// The certifier's judgement on one claim of the commutativity table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Verdict {
    /// A "commutes" claim: every bounded scenario converged in state and
    /// per-op outcomes.
    CertifiedCommute,
    /// A conflict claim with at least one concrete divergence witness.
    WitnessedConflict,
    /// A claim the execution evidence contradicts: a "commutes" pair that
    /// diverged, or a defensive arm that turned out to be reachable.
    Unsound,
    /// A non-defensive conflict claim with no divergence witness within
    /// the bounds — vacuous, and a candidate for table repair.
    Unwitnessed,
    /// A defensive fallback arm that is (correctly) unreachable from the
    /// executable vocabulary.
    Defensive,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Verdict::CertifiedCommute => "CERTIFIED_COMMUTE",
            Verdict::WitnessedConflict => "WITNESSED_CONFLICT",
            Verdict::Unsound => "UNSOUND",
            Verdict::Unwitnessed => "UNWITNESSED",
            Verdict::Defensive => "DEFENSIVE",
        };
        f.write_str(s)
    }
}

/// One certified claim: either a per-(family, kind-pair) "commutes" entry
/// or a conflict-reason row of [`er_pi_rdl::conflict_reasons`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct CertClaim {
    /// Human-readable claim: `"<family>: <a> × <b> commute"` or the
    /// conflict reason string.
    pub claim: String,
    /// Families the claim spans.
    pub families: Vec<String>,
    /// Number of evidence pairs that exercised the claim.
    pub pairs: usize,
    /// Number of order executions backing the claim.
    pub checks: usize,
    /// The certifier's judgement.
    pub verdict: Verdict,
    /// For conflicts: the witnessing divergence. For unsound commute
    /// claims: the contradicting divergence.
    pub witness: Option<CertWitness>,
}

/// The coverage bounds of the certification run — the "small scope" within
/// which claims are exhaustively checked.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct CertBounds {
    /// Replicas per scenario.
    pub replicas: usize,
    /// Start states per family (empty + seeded).
    pub seeds_per_family: usize,
    /// Scenario names (same-replica, cross-replica merge).
    pub scenarios: Vec<String>,
    /// Total concrete operations across all family vocabularies.
    pub vocabulary: usize,
    /// Total unordered pairs executed.
    pub pair_rows: usize,
    /// The small-scope argument, in one sentence.
    pub note: String,
}

/// Aggregate verdict counts for dashboards and the CI gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CertSummary {
    /// Evidence pairs executed.
    pub pairs: usize,
    /// Total order executions.
    pub checks: usize,
    /// "Commutes" claims certified convergent.
    pub certified_commute: usize,
    /// Conflict reasons with a divergence witness.
    pub witnessed_conflict: usize,
    /// Correctly unreachable defensive arms.
    pub defensive: usize,
    /// Claims contradicted by execution.
    pub unsound: usize,
    /// Vacuous conflict claims.
    pub unwitnessed: usize,
}

/// The machine-readable output of one certification run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct CertifiedTable {
    /// Coverage bounds of the run.
    pub bounds: CertBounds,
    /// Per-(family, kind-pair) "commutes" claims.
    pub commute_claims: Vec<CertClaim>,
    /// Per-reason conflict claims, covering 100% of
    /// [`er_pi_rdl::conflict_reasons`].
    pub conflict_claims: Vec<CertClaim>,
    /// Raw per-pair evidence rows.
    pub pairs: Vec<PairEvidence>,
    /// Conflict reasons observed in evidence but missing from the
    /// [`er_pi_rdl::conflict_reasons`] enumeration (always a table bug).
    pub unenumerated: Vec<String>,
}

impl CertifiedTable {
    /// All claims the execution evidence contradicts.
    pub fn unsound(&self) -> Vec<&CertClaim> {
        self.commute_claims
            .iter()
            .chain(self.conflict_claims.iter())
            .filter(|c| c.verdict == Verdict::Unsound)
            .collect()
    }

    /// All vacuous conflict claims.
    pub fn unwitnessed(&self) -> Vec<&CertClaim> {
        self.conflict_claims
            .iter()
            .filter(|c| c.verdict == Verdict::Unwitnessed)
            .collect()
    }

    /// `true` when no claim is unsound, vacuous, or unenumerated — the
    /// precondition for trusting independence-based pruning.
    pub fn is_sound(&self) -> bool {
        self.unsound().is_empty() && self.unwitnessed().is_empty() && self.unenumerated.is_empty()
    }

    /// Aggregate verdict counts.
    pub fn summary(&self) -> CertSummary {
        let mut s = CertSummary {
            pairs: self.pairs.len(),
            checks: self.pairs.iter().map(|p| p.checks).sum(),
            certified_commute: 0,
            witnessed_conflict: 0,
            defensive: 0,
            unsound: 0,
            unwitnessed: 0,
        };
        for claim in self
            .commute_claims
            .iter()
            .chain(self.conflict_claims.iter())
        {
            match claim.verdict {
                Verdict::CertifiedCommute => s.certified_commute += 1,
                Verdict::WitnessedConflict => s.witnessed_conflict += 1,
                Verdict::Defensive => s.defensive += 1,
                Verdict::Unsound => s.unsound += 1,
                Verdict::Unwitnessed => s.unwitnessed += 1,
            }
        }
        s
    }

    /// Verdict for the "commutes" claim on a (family, kind-pair), judged
    /// over every evidence pair the vocabulary produced for it. `None`
    /// when the vocabulary produced no commuting pair of these kinds.
    pub fn commute_verdict(&self, family: &str, sig_a: &str, sig_b: &str) -> Option<Verdict> {
        let mut seen = false;
        let mut unsound = false;
        for row in &self.pairs {
            if row.family != family || row.claim.is_some() {
                continue;
            }
            let hit = (row.sig_a == sig_a && row.sig_b == sig_b)
                || (row.sig_a == sig_b && row.sig_b == sig_a);
            if hit {
                seen = true;
                unsound |= row.diverged;
            }
        }
        match (seen, unsound) {
            (false, _) => None,
            (true, true) => Some(Verdict::Unsound),
            (true, false) => Some(Verdict::CertifiedCommute),
        }
    }

    /// Verdict for one conflict reason, if enumerated or observed.
    pub fn conflict_verdict(&self, reason: &str) -> Option<Verdict> {
        self.conflict_claims
            .iter()
            .find(|c| c.claim == reason)
            .map(|c| c.verdict)
    }
}

/// Certifies the real table: the oracle is [`OpProfile::commutes_with`].
pub fn certify_table() -> CertifiedTable {
    certify_table_with(&|a, b| a.commutes_with(b))
}

/// Certifies an arbitrary claim oracle against the real `er-pi-rdl`
/// execution semantics. Tests inject deliberately corrupted oracles here
/// to prove a wrong table entry surfaces as [`Verdict::Unsound`].
pub fn certify_table_with(
    oracle: &dyn Fn(&OpProfile, &OpProfile) -> Option<&'static str>,
) -> CertifiedTable {
    let pairs = certify_pairs(oracle);

    // Commute claims: group claim-less evidence rows by (family, kind pair).
    let mut commute_claims: Vec<CertClaim> = Vec::new();
    let mut commute_keys: Vec<(String, String, String)> = Vec::new();
    for row in pairs.iter().filter(|r| r.claim.is_none()) {
        let (sa, sb) = if row.sig_a <= row.sig_b {
            (row.sig_a.clone(), row.sig_b.clone())
        } else {
            (row.sig_b.clone(), row.sig_a.clone())
        };
        let key = (row.family.clone(), sa.clone(), sb.clone());
        let idx = match commute_keys.iter().position(|k| *k == key) {
            Some(idx) => idx,
            None => {
                commute_keys.push(key);
                commute_claims.push(CertClaim {
                    claim: format!("{}: {sa} × {sb} commute", row.family),
                    families: vec![row.family.clone()],
                    pairs: 0,
                    checks: 0,
                    verdict: Verdict::CertifiedCommute,
                    witness: None,
                });
                commute_claims.len() - 1
            }
        };
        let claim = &mut commute_claims[idx];
        claim.pairs += 1;
        claim.checks += row.checks;
        if row.diverged {
            claim.verdict = Verdict::Unsound;
            if claim.witness.is_none() {
                claim.witness = row.witness.clone();
            }
        }
    }

    // Conflict claims: one row per enumerated reason, judged reason-level —
    // a reason is witnessed when *any* pair that maps to it diverges
    // (individual pairs may be conservatively flagged without diverging).
    let enumerated = conflict_reasons();
    let mut conflict_claims: Vec<CertClaim> = Vec::new();
    for reason in enumerated {
        let rows: Vec<&PairEvidence> = pairs
            .iter()
            .filter(|r| r.claim.as_deref() == Some(reason.reason))
            .collect();
        let checks = rows.iter().map(|r| r.checks).sum();
        let witness = rows.iter().find_map(|r| r.witness.clone());
        let verdict = if reason.defensive {
            if rows.is_empty() {
                Verdict::Defensive
            } else {
                // A reachable "defensive" arm is a misfiled claim.
                Verdict::Unsound
            }
        } else if witness.is_some() {
            Verdict::WitnessedConflict
        } else {
            Verdict::Unwitnessed
        };
        conflict_claims.push(CertClaim {
            claim: reason.reason.to_string(),
            families: reason
                .families
                .iter()
                .map(|f| family_name(*f))
                .map(str::to_string)
                .collect(),
            pairs: rows.len(),
            checks,
            verdict,
            witness,
        });
    }

    // Reasons the oracle emitted that the enumeration does not know.
    let mut unenumerated: Vec<String> = Vec::new();
    for row in pairs.iter() {
        if let Some(reason) = &row.claim {
            let known = enumerated.iter().any(|r| r.reason == *reason);
            if !known && !unenumerated.contains(reason) {
                unenumerated.push(reason.clone());
            }
        }
    }
    for reason in &unenumerated {
        let rows: Vec<&PairEvidence> = pairs
            .iter()
            .filter(|r| r.claim.as_deref() == Some(reason.as_str()))
            .collect();
        let mut families: Vec<String> = rows.iter().map(|r| r.family.clone()).collect();
        families.sort_unstable();
        families.dedup();
        let witness = rows.iter().find_map(|r| r.witness.clone());
        conflict_claims.push(CertClaim {
            claim: reason.clone(),
            families,
            pairs: rows.len(),
            checks: rows.iter().map(|r| r.checks).sum(),
            verdict: if witness.is_some() {
                Verdict::WitnessedConflict
            } else {
                Verdict::Unwitnessed
            },
            witness,
        });
    }

    let bounds = CertBounds {
        replicas: 2,
        seeds_per_family: 2,
        scenarios: vec!["same-replica".to_string(), "cross-replica".to_string()],
        vocabulary: crate::certify::vocabulary_size(),
        pair_rows: pairs.len(),
        note: "exhaustive over all unordered vocabulary pairs, both orders, \
               every seed, scenario, and resolution config; divergence = \
               observable state or any per-op outcome differs"
            .to_string(),
    };

    CertifiedTable {
        bounds,
        commute_claims,
        conflict_claims,
        pairs,
        unenumerated,
    }
}

fn soundness_diag(message: String) -> Diagnostic {
    Diagnostic {
        misconception: LintPattern::IndependenceSoundness.misconception(),
        pattern: LintPattern::IndependenceSoundness,
        message,
        events: Vec::new(),
        replica: ReplicaId::new(0),
    }
}

/// Converts every unsound or vacuous entry of a certified table into
/// [`LintPattern::IndependenceSoundness`] diagnostics, ready to surface in
/// `Report::diagnostics` alongside the misconception lints.
pub fn validate_table(table: &CertifiedTable) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for claim in table.unsound() {
        let detail = claim
            .witness
            .as_ref()
            .map(|w| {
                format!(
                    " ({} {} seeded={} config={}: forward {} vs swapped {})",
                    w.pair, w.scenario, w.seeded, w.config, w.forward, w.swapped
                )
            })
            .unwrap_or_default();
        out.push(soundness_diag(format!(
            "UNSOUND table entry '{}' [{}]: execution contradicts the claim{detail}",
            claim.claim,
            claim.families.join(","),
        )));
    }
    for claim in table.unwitnessed() {
        out.push(soundness_diag(format!(
            "UNWITNESSED conflict claim '{}' [{}]: no divergence within certification \
             bounds ({} pairs, {} checks) — the entry is vacuous or misfiled",
            claim.claim,
            claim.families.join(","),
            claim.pairs,
            claim.checks,
        )));
    }
    for reason in &table.unenumerated {
        out.push(soundness_diag(format!(
            "conflict reason '{reason}' is emitted by the table but missing from \
             er_pi_rdl::conflict_reasons()",
        )));
    }
    out
}

/// Cross-checks the independence declarations of `config` (hand-written or
/// derived by [`crate::analyze`]) against the certified table: any
/// declared-independent pair whose profiles the table says conflict — or
/// whose "commutes" claim was certified unsound — becomes a diagnostic,
/// *before* any pruning runs.
pub fn validate_independence(
    workload: &Workload,
    config: &PruningConfig,
    table: &CertifiedTable,
) -> Vec<Diagnostic> {
    let profiles: Vec<Option<OpProfile>> = workload
        .events()
        .iter()
        .map(|ev| ev.op().and_then(interpret_op))
        .collect();
    let mut out = Vec::new();
    for set in &config.independent_sets {
        for (i, &a) in set.iter().enumerate() {
            for &b in set.iter().skip(i + 1) {
                let (Some(pa), Some(pb)) = (
                    profiles.get(a.index()).and_then(|p| p.as_ref()),
                    profiles.get(b.index()).and_then(|p| p.as_ref()),
                ) else {
                    continue;
                };
                let replica = workload.events()[a.index()].replica;
                if let Some(reason) = pa.commutes_with(pb) {
                    let verdict = table
                        .conflict_verdict(reason)
                        .unwrap_or(Verdict::Unwitnessed);
                    out.push(Diagnostic {
                        misconception: 0,
                        pattern: LintPattern::IndependenceSoundness,
                        message: format!(
                            "declared-independent events {a:?} × {b:?} conflict per the \
                             certified table: '{reason}' ({verdict})",
                        ),
                        events: vec![a, b],
                        replica,
                    });
                } else if pa.crdt == pb.crdt
                    && table.commute_verdict(
                        family_name(pa.crdt),
                        kind_sig(&pa.kind),
                        kind_sig(&pb.kind),
                    ) == Some(Verdict::Unsound)
                {
                    out.push(Diagnostic {
                        misconception: 0,
                        pattern: LintPattern::IndependenceSoundness,
                        message: format!(
                            "declared-independent events {a:?} × {b:?} rely on a commute \
                             claim certified UNSOUND for {}",
                            family_name(pa.crdt),
                        ),
                        events: vec![a, b],
                        replica,
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_pi_model::Value;

    #[test]
    fn real_table_certifies_sound() {
        let table = certify_table();
        assert!(
            table.is_sound(),
            "unsound: {:?}\nunwitnessed: {:?}\nunenumerated: {:?}",
            table.unsound(),
            table.unwitnessed(),
            table.unenumerated
        );
        assert!(validate_table(&table).is_empty());
    }

    #[test]
    fn every_conflict_reason_is_covered() {
        let table = certify_table();
        for reason in er_pi_rdl::conflict_reasons() {
            let verdict = table
                .conflict_verdict(reason.reason)
                .unwrap_or_else(|| panic!("reason '{}' missing from table", reason.reason));
            if reason.defensive {
                assert_eq!(verdict, Verdict::Defensive, "{}", reason.reason);
            } else {
                assert_eq!(verdict, Verdict::WitnessedConflict, "{}", reason.reason);
            }
        }
    }

    #[test]
    fn summary_counts_are_consistent() {
        let table = certify_table();
        let s = table.summary();
        assert_eq!(s.unsound, 0);
        assert_eq!(s.unwitnessed, 0);
        assert_eq!(
            s.certified_commute,
            table.commute_claims.len(),
            "all commute claims certified"
        );
        assert!(s.witnessed_conflict > 0);
        assert!(s.defensive > 0);
        assert!(s.checks > s.pairs);
    }

    #[test]
    fn corrupted_commute_entry_is_unsound() {
        // Corrupt the oracle: claim same-element OR-set add/remove commute.
        let table = certify_table_with(&|a, b| {
            let real = a.commutes_with(b);
            if real == Some("add and remove of one element race") {
                None
            } else {
                real
            }
        });
        assert!(!table.is_sound());
        let diags = validate_table(&table);
        assert!(
            diags
                .iter()
                .any(|d| d.pattern == LintPattern::IndependenceSoundness
                    && d.message.contains("UNSOUND")),
            "diagnostics: {diags:?}"
        );
    }

    #[test]
    fn invented_vacuous_conflict_is_unwitnessed() {
        // Corrupt the oracle the other way: claim distinct counter
        // increments conflict. The harness cannot witness it.
        let table = certify_table_with(&|a, b| {
            a.commutes_with(b).or({
                if a.crdt == er_pi_rdl::CrdtType::GCounter {
                    Some("invented counter race")
                } else {
                    None
                }
            })
        });
        assert!(table
            .unenumerated
            .contains(&"invented counter race".to_string()));
        assert_eq!(
            table.conflict_verdict("invented counter race"),
            Some(Verdict::Unwitnessed)
        );
        assert!(!validate_table(&table).is_empty());
    }

    #[test]
    fn declared_independence_is_cross_checked() {
        let table = certify_table();
        let mut w = Workload::builder();
        let a = w.update(ReplicaId::new(0), "add", [Value::from("x")]);
        let b = w.update(ReplicaId::new(1), "remove", [Value::from("x")]);
        let workload = w.build();
        let config = PruningConfig::default().with_independent_set(vec![a, b]);
        let diags = validate_independence(&workload, &config, &table);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0]
            .message
            .contains("add and remove of one element race"));
        assert_eq!(diags[0].events, vec![a, b]);

        // A genuinely commuting declaration raises nothing.
        let mut w2 = Workload::builder();
        let c = w2.update(ReplicaId::new(0), "counter_inc", [Value::from(1)]);
        let d = w2.update(ReplicaId::new(1), "counter_inc", [Value::from(2)]);
        let workload2 = w2.build();
        let config2 = PruningConfig::default().with_independent_set(vec![c, d]);
        assert!(validate_independence(&workload2, &config2, &table).is_empty());
    }
}
