//! Commutativity metadata for the RDL type families.
//!
//! The static analysis pass (`er-pi-analysis`) classifies every pair of
//! recorded update events as *commuting* or *conflicting*. The library is
//! the right owner of that knowledge: whether two operations commute is a
//! property of the data type's semantics, not of any particular workload.
//! This module captures, per type family, the commutativity table the
//! analysis consults.
//!
//! The tables are deliberately conservative: when an argument needed for a
//! disjointness judgement is unknown (e.g. a list position that the proxy
//! could not extract), the pair is reported as conflicting. Conservatism
//! only costs pruning opportunities; it never merges interleavings that
//! could differ.
//!
//! Every arm of the table is checked by the bounded commutativity certifier
//! in `er-pi-analysis` (`certify_table`): "commutes" claims are replayed in
//! both orders against the real types and must converge, and each conflict
//! reason listed by [`conflict_reasons`] must carry a concrete divergence
//! witness (or be a defensive fallback unreachable from the proxy
//! vocabulary). Two findings of that audit are baked in here: RGA inserts
//! resolve their anchor from the *current* visible list, so concurrent
//! inserts conflict even at known-distinct indices, and a second remove of
//! the same element fails on observed-remove sets, so same-element removes
//! race on their outcome even though the final state converges.
//!
//! ```
//! use er_pi_model::Value;
//! use er_pi_rdl::{CrdtType, OpKind, OpProfile};
//!
//! let inc = OpProfile::new(CrdtType::PnCounter, OpKind::Inc);
//! let dec = OpProfile::new(CrdtType::PnCounter, OpKind::Dec);
//! assert!(inc.commutes_with(&dec).is_none(), "counter ops always commute");
//!
//! let add = OpProfile::new(CrdtType::OrSet, OpKind::Add { element: Some(Value::from("x")) });
//! let del = OpProfile::new(CrdtType::OrSet, OpKind::Remove { element: Some(Value::from("x")) });
//! assert!(add.commutes_with(&del).is_some(), "add/remove of one element conflict");
//! ```

use er_pi_model::Value;

/// The RDL type families whose operations the analysis can classify.
///
/// One variant per family of `er-pi-rdl` types; operations on *different*
/// families always commute because they act on disjoint objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrdtType {
    /// [`GCounter`](crate::GCounter) — grow-only counter.
    GCounter,
    /// [`PnCounter`](crate::PnCounter) — increment/decrement counter.
    PnCounter,
    /// [`LwwRegister`](crate::LwwRegister) — last-writer-wins register.
    LwwRegister,
    /// [`MvRegister`](crate::MvRegister) — multi-value register.
    MvRegister,
    /// [`GSet`](crate::GSet) — grow-only set.
    GSet,
    /// [`TwoPhaseSet`](crate::TwoPhaseSet) — add/remove-once set.
    TwoPhaseSet,
    /// [`OrSet`](crate::OrSet) — observed-remove set.
    OrSet,
    /// [`LwwElementSet`](crate::LwwElementSet) — timestamped add/remove set.
    LwwElementSet,
    /// [`Rga`](crate::Rga) — replicated growable array (list).
    Rga,
    /// [`LwwMap`](crate::LwwMap) — last-writer-wins map.
    LwwMap,
    /// [`OrMap`](crate::OrMap) — observed-remove map.
    OrMap,
    /// [`LwwTimeSeries`](crate::LwwTimeSeries) — Roshi-style scored set.
    LwwTimeSeries,
    /// [`MerkleLog`](crate::MerkleLog) — OrbitDB-style append log.
    MerkleLog,
    /// [`JsonDoc`](crate::JsonDoc) — Yorkie-style JSON document.
    JsonDoc,
}

/// The abstract shape of one intercepted operation, as far as commutativity
/// is concerned.
///
/// `None` arguments mean "statically unknown" and make every judgement that
/// needs them conservative (conflicting).
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    /// Counter increment.
    Inc,
    /// Counter decrement.
    Dec,
    /// Register / map / document write, keyed when the target is keyed.
    Write {
        /// Register key, map key, or document path.
        key: Option<Value>,
    },
    /// Set insertion (also time-series insertion, keyed by member).
    Add {
        /// The inserted element.
        element: Option<Value>,
    },
    /// Set removal (also map key removal and time-series deletion).
    Remove {
        /// The removed element or key.
        element: Option<Value>,
    },
    /// Sequence insertion at a position.
    Insert {
        /// Insertion index.
        position: Option<i64>,
    },
    /// Sequence deletion at a position.
    Delete {
        /// Deletion index.
        position: Option<i64>,
    },
    /// Sequence move.
    Move {
        /// `true` for a move primitive with CRDT support; `false` for the
        /// delete+insert reimplementation (Table 2's misconception #3).
        safe: bool,
    },
    /// Log append.
    Append,
    /// Creation of an item under a locally computed sequential identifier
    /// (Table 2's misconception #4).
    MintId,
    /// Pure observation of the object (query, page assembly, …).
    Read,
}

/// One operation's commutativity-relevant profile: which type family it
/// touches and what it does to it.
#[derive(Debug, Clone, PartialEq)]
pub struct OpProfile {
    /// The type family the operation targets.
    pub crdt: CrdtType,
    /// The abstract action.
    pub kind: OpKind,
}

impl OpProfile {
    /// Creates a profile.
    pub fn new(crdt: CrdtType, kind: OpKind) -> Self {
        OpProfile { crdt, kind }
    }

    /// Consults the per-type commutativity table: returns `None` when the
    /// two operations commute, or `Some(reason)` naming the conflict.
    ///
    /// The relation is symmetric: `a.commutes_with(b)` and
    /// `b.commutes_with(a)` agree on commute-vs-conflict.
    pub fn commutes_with(&self, other: &OpProfile) -> Option<&'static str> {
        if self.crdt != other.crdt {
            return None; // disjoint objects always commute
        }
        conflict(self.crdt, &self.kind, &other.kind)
            .or_else(|| conflict(self.crdt, &other.kind, &self.kind))
    }
}

/// Returns `true` when both values are known and distinct — the only case
/// where a keyed/element-wise disjointness argument is allowed.
fn known_distinct(a: &Option<Value>, b: &Option<Value>) -> bool {
    matches!((a, b), (Some(x), Some(y)) if x != y)
}

/// The one-directional conflict table; [`OpProfile::commutes_with`]
/// symmetrizes it.
fn conflict(crdt: CrdtType, a: &OpKind, b: &OpKind) -> Option<&'static str> {
    use OpKind::*;
    // Reads conflict with every mutation of the same object: the observed
    // value depends on whether the mutation ran first. Checked for either
    // operand here — the family arms below never see a `Read`, and the
    // one-directional `conflict(mutation, read)` call must not fall into a
    // family's defensive fallback (a certifier-found misfiling: the
    // fallback's `Some` would short-circuit the symmetrization pass).
    if matches!(a, Read) || matches!(b, Read) {
        return match (a, b) {
            (Read, Read) => None,
            _ => Some("observation does not commute with a mutation"),
        };
    }
    match crdt {
        // Counter increments and decrements commute unconditionally.
        CrdtType::GCounter | CrdtType::PnCounter => match (a, b) {
            (Inc | Dec, Inc | Dec) => None,
            _ => Some("unsupported counter operation"),
        },
        // Grow-only sets: adds commute, even of the same element.
        CrdtType::GSet => match (a, b) {
            (Add { .. }, Add { .. }) => None,
            _ => Some("unsupported grow-only set operation"),
        },
        // Observed-remove flavoured sets and maps: adds commute (fresh
        // tags), but an add and a remove of the same element race —
        // remove-before-add and add-before-remove leave different states —
        // and two removes of the same element race on their *outcome*: the
        // second remove finds nothing to observe and fails, so which of the
        // two fails depends on order even though the final state converges.
        CrdtType::OrSet | CrdtType::TwoPhaseSet | CrdtType::OrMap => match (a, b) {
            (Add { .. }, Add { .. }) => None,
            (Remove { element: x }, Remove { element: y }) => {
                if known_distinct(x, y) {
                    None
                } else {
                    Some("same-element removes race on the failure outcome")
                }
            }
            (Add { element: x }, Remove { element: y })
            | (Remove { element: x }, Add { element: y }) => {
                if known_distinct(x, y) {
                    None
                } else {
                    Some("add and remove of one element race")
                }
            }
            (Write { key: x }, Write { key: y })
            | (Write { key: x }, Remove { element: y })
            | (Remove { element: x }, Write { key: y }) => {
                if known_distinct(x, y) {
                    None
                } else {
                    Some("same-key map updates race")
                }
            }
            (MintId, _) | (_, MintId) => {
                Some("sequential-ID creation reads a non-replicated maximum")
            }
            _ => Some("unsupported set operation"),
        },
        // Timestamped add/remove sets: adds and removes return nothing and
        // keep the per-element *maximum* timestamp, so same-kind pairs
        // commute even on one element — the certifier found the previous
        // same-element add/add conflict entry vacuous (no divergence witness
        // exists). An add racing a remove of one element still tie-breaks on
        // timestamps, which swaps flip.
        CrdtType::LwwElementSet => match (a, b) {
            (Add { .. }, Add { .. }) | (Remove { .. }, Remove { .. }) => None,
            (Add { element: x }, Remove { element: y })
            | (Remove { element: x }, Add { element: y }) => {
                if known_distinct(x, y) {
                    None
                } else {
                    Some("add and remove of one element race")
                }
            }
            _ => Some("unsupported set operation"),
        },
        // LWW registers: concurrent writes with equal timestamps resolve by
        // tie-break, so write/write conflicts unless keyed and disjoint.
        CrdtType::LwwRegister | CrdtType::MvRegister | CrdtType::JsonDoc => match (a, b) {
            (Write { key: x }, Write { key: y }) => {
                if known_distinct(x, y) {
                    None
                } else {
                    Some("register writes tie-break on equal timestamps")
                }
            }
            (Write { key: x }, Remove { element: y })
            | (Remove { element: x }, Write { key: y }) => {
                if known_distinct(x, y) {
                    None
                } else {
                    Some("write and delete of one path race")
                }
            }
            // Document path removes fail when the path is already gone, so
            // which remove fails depends on order (JsonDoc returns a
            // `Result`). Plain registers have no remove in the proxy
            // vocabulary, so the keyed judgement is harmless for them.
            (Remove { element: x }, Remove { element: y }) => {
                if crdt != CrdtType::JsonDoc || known_distinct(x, y) {
                    None
                } else {
                    Some("same-element removes race on the failure outcome")
                }
            }
            _ => Some("unsupported register operation"),
        },
        // LWW maps: keyed writes/removes commute iff keys are known
        // disjoint. Same-key removes both leave a tombstone whose timestamp
        // resolves to the maximum, and signal an LWW win rather than a
        // failure, so they commute — the certifier found the previous
        // same-key remove/remove conflict entry vacuous.
        CrdtType::LwwMap => match (a, b) {
            (Remove { .. }, Remove { .. }) => None,
            (
                Write { key: x } | Remove { element: x },
                Write { key: y } | Remove { element: y },
            ) => {
                if known_distinct(x, y) {
                    None
                } else {
                    Some("same-key map updates race")
                }
            }
            _ => Some("unsupported map operation"),
        },
        // Sequences: an insert resolves its anchor (the element currently
        // before the target index) from the *visible* list at application
        // time, so a concurrent insert shifts it even at a known-distinct
        // index — the certifier holds a divergence witness for inserts at
        // distinct indices, so all insert pairs conflict. Deletions and
        // moves shift indices, so any combination involving them conflicts,
        // and the delete+insert move reimplementation conflicts even with
        // itself.
        CrdtType::Rga => match (a, b) {
            (Insert { .. }, Insert { .. }) => {
                Some("concurrent list inserts race on anchor resolution")
            }
            (Delete { .. } | Move { .. }, _) | (_, Delete { .. } | Move { .. }) => {
                Some("index-shifting list operation")
            }
            _ => Some("unsupported sequence operation"),
        },
        // Scored sets (Roshi): per-member LWW semantics.
        CrdtType::LwwTimeSeries => match (a, b) {
            (
                Add { element: x } | Remove { element: x },
                Add { element: y } | Remove { element: y },
            ) => {
                if known_distinct(x, y) {
                    None
                } else {
                    Some("same-member scored updates tie-break on timestamps")
                }
            }
            _ => Some("unsupported time-series operation"),
        },
        // Append logs: the log order itself is observable state, so appends
        // never commute.
        CrdtType::MerkleLog => Some("log appends are order-observable"),
    }
}

/// One row of the conflict-reason enumeration: a reason string the table
/// can emit, the families whose arms emit it, and whether the arm is a
/// defensive fallback that no operation expressible through the proxy
/// vocabulary (or the library's public API) can reach.
///
/// The bounded certifier in `er-pi-analysis` iterates this enumeration to
/// check coverage: every non-defensive reason must carry a concrete
/// divergence witness, and every defensive reason must stay unreachable
/// from executable operation pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConflictReason {
    /// The reason string exactly as `commutes_with` returns it.
    pub reason: &'static str,
    /// Families whose table arms can emit this reason.
    pub families: &'static [CrdtType],
    /// `true` when the arm is a defensive fallback for operation kinds the
    /// family does not support; such arms must never fire for executable
    /// pairs.
    pub defensive: bool,
}

/// Enumerates every distinct conflict reason the table can emit, together
/// with the families producing it. The list is the table's claim surface:
/// the certifier fails if an executable pair emits a reason missing here,
/// so additions to `conflict` must be mirrored below.
pub fn conflict_reasons() -> &'static [ConflictReason] {
    use CrdtType::*;
    const ALL: &[CrdtType] = &[
        GCounter,
        PnCounter,
        LwwRegister,
        MvRegister,
        GSet,
        TwoPhaseSet,
        OrSet,
        LwwElementSet,
        Rga,
        LwwMap,
        OrMap,
        LwwTimeSeries,
        MerkleLog,
        JsonDoc,
    ];
    &[
        ConflictReason {
            reason: "observation does not commute with a mutation",
            families: ALL,
            defensive: false,
        },
        ConflictReason {
            reason: "unsupported counter operation",
            families: &[GCounter, PnCounter],
            defensive: true,
        },
        ConflictReason {
            reason: "unsupported grow-only set operation",
            families: &[GSet],
            defensive: true,
        },
        ConflictReason {
            reason: "add and remove of one element race",
            families: &[OrSet, TwoPhaseSet, LwwElementSet],
            defensive: false,
        },
        ConflictReason {
            reason: "same-element removes race on the failure outcome",
            families: &[OrSet, TwoPhaseSet, OrMap, JsonDoc],
            defensive: false,
        },
        ConflictReason {
            reason: "same-key map updates race",
            families: &[LwwMap, OrMap],
            defensive: false,
        },
        ConflictReason {
            reason: "sequential-ID creation reads a non-replicated maximum",
            families: &[OrMap],
            defensive: false,
        },
        ConflictReason {
            reason: "unsupported set operation",
            families: &[OrSet, TwoPhaseSet, LwwElementSet, OrMap],
            defensive: true,
        },
        ConflictReason {
            reason: "register writes tie-break on equal timestamps",
            families: &[LwwRegister, MvRegister, JsonDoc],
            defensive: false,
        },
        ConflictReason {
            reason: "write and delete of one path race",
            families: &[JsonDoc],
            defensive: false,
        },
        ConflictReason {
            reason: "unsupported register operation",
            families: &[LwwRegister, MvRegister, JsonDoc],
            defensive: true,
        },
        ConflictReason {
            reason: "unsupported map operation",
            families: &[LwwMap],
            defensive: true,
        },
        ConflictReason {
            reason: "concurrent list inserts race on anchor resolution",
            families: &[Rga],
            defensive: false,
        },
        ConflictReason {
            reason: "index-shifting list operation",
            families: &[Rga],
            defensive: false,
        },
        ConflictReason {
            reason: "unsupported sequence operation",
            families: &[Rga],
            defensive: true,
        },
        ConflictReason {
            reason: "same-member scored updates tie-break on timestamps",
            families: &[LwwTimeSeries],
            defensive: false,
        },
        ConflictReason {
            reason: "unsupported time-series operation",
            families: &[LwwTimeSeries],
            defensive: true,
        },
        ConflictReason {
            reason: "log appends are order-observable",
            families: &[MerkleLog],
            defensive: false,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(crdt: CrdtType, kind: OpKind) -> OpProfile {
        OpProfile::new(crdt, kind)
    }

    #[test]
    fn different_families_always_commute() {
        let inc = p(CrdtType::PnCounter, OpKind::Inc);
        let app = p(CrdtType::MerkleLog, OpKind::Append);
        assert!(inc.commutes_with(&app).is_none());
    }

    #[test]
    fn counters_commute() {
        let inc = p(CrdtType::PnCounter, OpKind::Inc);
        let dec = p(CrdtType::PnCounter, OpKind::Dec);
        assert!(inc.commutes_with(&inc).is_none());
        assert!(inc.commutes_with(&dec).is_none());
        let ginc = p(CrdtType::GCounter, OpKind::Inc);
        assert!(ginc.commutes_with(&ginc).is_none());
    }

    #[test]
    fn orset_add_remove_same_element_conflict() {
        let add = |e: &str| {
            p(
                CrdtType::OrSet,
                OpKind::Add {
                    element: Some(Value::from(e)),
                },
            )
        };
        let del = |e: &str| {
            p(
                CrdtType::OrSet,
                OpKind::Remove {
                    element: Some(Value::from(e)),
                },
            )
        };
        assert!(add("x").commutes_with(&add("x")).is_none());
        assert!(add("x").commutes_with(&del("x")).is_some());
        assert!(del("x").commutes_with(&add("x")).is_some(), "symmetric");
        assert!(add("x").commutes_with(&del("y")).is_none());
        assert!(
            del("x").commutes_with(&del("x")).is_some(),
            "the second remove of one element fails, so the outcome races"
        );
        assert!(del("x").commutes_with(&del("y")).is_none());
    }

    #[test]
    fn lww_element_set_same_kind_pairs_commute() {
        let add = |e: &str| {
            p(
                CrdtType::LwwElementSet,
                OpKind::Add {
                    element: Some(Value::from(e)),
                },
            )
        };
        let del = |e: &str| {
            p(
                CrdtType::LwwElementSet,
                OpKind::Remove {
                    element: Some(Value::from(e)),
                },
            )
        };
        assert!(add("x").commutes_with(&add("x")).is_none());
        assert!(del("x").commutes_with(&del("x")).is_none());
        assert!(add("x").commutes_with(&del("x")).is_some());
    }

    #[test]
    fn unknown_elements_are_conservative() {
        let add = p(CrdtType::OrSet, OpKind::Add { element: None });
        let del = p(
            CrdtType::OrSet,
            OpKind::Remove {
                element: Some(Value::from("y")),
            },
        );
        assert!(
            add.commutes_with(&del).is_some(),
            "unknown element must conflict"
        );
    }

    #[test]
    fn rga_inserts_always_conflict() {
        // Even at known-distinct indices: the anchor of the later insert is
        // resolved from the visible list, which the other insert shifts.
        let ins = |i: i64| p(CrdtType::Rga, OpKind::Insert { position: Some(i) });
        assert!(ins(0).commutes_with(&ins(0)).is_some());
        assert!(ins(0).commutes_with(&ins(3)).is_some());
        let unknown = p(CrdtType::Rga, OpKind::Insert { position: None });
        assert!(unknown.commutes_with(&ins(3)).is_some());
    }

    #[test]
    fn rga_moves_and_deletes_conflict_with_everything() {
        let mv = p(CrdtType::Rga, OpKind::Move { safe: true });
        let ins = p(CrdtType::Rga, OpKind::Insert { position: Some(0) });
        let del = p(CrdtType::Rga, OpKind::Delete { position: Some(4) });
        assert!(mv.commutes_with(&mv).is_some());
        assert!(mv.commutes_with(&ins).is_some());
        assert!(del.commutes_with(&ins).is_some());
        assert!(del.commutes_with(&del).is_some());
    }

    #[test]
    fn lww_writes_conflict_unless_keyed_disjoint() {
        let w = |k: i64| {
            p(
                CrdtType::LwwMap,
                OpKind::Write {
                    key: Some(Value::from(k)),
                },
            )
        };
        assert!(w(1).commutes_with(&w(1)).is_some());
        assert!(w(1).commutes_with(&w(2)).is_none());
        let unkeyed = p(CrdtType::LwwRegister, OpKind::Write { key: None });
        assert!(
            unkeyed.commutes_with(&unkeyed).is_some(),
            "equal-timestamp tie-break"
        );
        let doc = |k: &str| {
            p(
                CrdtType::JsonDoc,
                OpKind::Write {
                    key: Some(Value::from(k)),
                },
            )
        };
        assert!(doc("a").commutes_with(&doc("b")).is_none());
        assert!(doc("a").commutes_with(&doc("a")).is_some());
    }

    #[test]
    fn lww_map_removes_commute() {
        let rm = |k: i64| {
            p(
                CrdtType::LwwMap,
                OpKind::Remove {
                    element: Some(Value::from(k)),
                },
            )
        };
        let w = |k: i64| {
            p(
                CrdtType::LwwMap,
                OpKind::Write {
                    key: Some(Value::from(k)),
                },
            )
        };
        assert!(rm(1).commutes_with(&rm(1)).is_none(), "tombstones take max");
        assert!(rm(1).commutes_with(&w(1)).is_some());
    }

    #[test]
    fn json_doc_removes_of_one_path_conflict() {
        let rm = |k: &str| {
            p(
                CrdtType::JsonDoc,
                OpKind::Remove {
                    element: Some(Value::from(k)),
                },
            )
        };
        assert!(rm("p").commutes_with(&rm("p")).is_some());
        assert!(rm("p").commutes_with(&rm("q")).is_none());
    }

    #[test]
    fn every_emitted_reason_is_enumerated() {
        // Spot-check that reasons produced by the table appear in
        // `conflict_reasons` (the certifier checks this exhaustively over
        // the executable vocabulary).
        let listed: Vec<&str> = conflict_reasons().iter().map(|r| r.reason).collect();
        let add = p(
            CrdtType::OrSet,
            OpKind::Add {
                element: Some(Value::from("x")),
            },
        );
        let del = p(
            CrdtType::OrSet,
            OpKind::Remove {
                element: Some(Value::from("x")),
            },
        );
        assert!(listed.contains(&add.commutes_with(&del).unwrap()));
        let app = p(CrdtType::MerkleLog, OpKind::Append);
        assert!(listed.contains(&app.commutes_with(&app).unwrap()));
        // No duplicate reason rows.
        let mut dedup = listed.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), listed.len());
    }

    #[test]
    fn log_appends_never_commute() {
        let app = p(CrdtType::MerkleLog, OpKind::Append);
        assert!(app.commutes_with(&app).is_some());
    }

    #[test]
    fn mint_id_conflicts_with_itself() {
        let mint = p(CrdtType::OrMap, OpKind::MintId);
        assert!(mint.commutes_with(&mint).is_some());
    }

    #[test]
    fn reads_conflict_with_writes_but_not_reads() {
        let read = p(CrdtType::LwwTimeSeries, OpKind::Read);
        let add = p(
            CrdtType::LwwTimeSeries,
            OpKind::Add {
                element: Some(Value::from("m")),
            },
        );
        assert!(read.commutes_with(&read).is_none());
        assert!(read.commutes_with(&add).is_some());
        assert!(add.commutes_with(&read).is_some());
    }

    #[test]
    fn timeseries_same_member_conflicts() {
        let add = |m: &str| {
            p(
                CrdtType::LwwTimeSeries,
                OpKind::Add {
                    element: Some(Value::from(m)),
                },
            )
        };
        let del = |m: &str| {
            p(
                CrdtType::LwwTimeSeries,
                OpKind::Remove {
                    element: Some(Value::from(m)),
                },
            )
        };
        assert!(add("a").commutes_with(&add("b")).is_none());
        assert!(add("a").commutes_with(&add("a")).is_some());
        assert!(add("a").commutes_with(&del("a")).is_some());
        assert!(del("a").commutes_with(&del("b")).is_none());
    }
}
