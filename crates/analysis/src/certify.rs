//! Bounded execution harness behind the commutativity certifier.
//!
//! For every RDL type family this module fixes a small concrete operation
//! vocabulary (the *executable* instantiation of the abstract
//! [`OpProfile`]s the conflict table judges), a pair of witness start
//! states (empty and seeded), and two scenarios:
//!
//! * **same-replica** — both operations apply to one replica's state, in
//!   both orders, with timestamps derived from the execution position
//!   (exactly how replay assigns logical time when two same-replica events
//!   are swapped);
//! * **cross-replica** — each operation applies to its own replica's
//!   state, again with position-derived timestamps, and the two states are
//!   merged through [`StateCrdt::merge`].
//!
//! Two orders *diverge* when the canonical observable state differs or
//! when any operation's outcome — applied, failed, or observed value,
//! tracked per operation identity — differs between the orders. Outcomes
//! deliberately abstract away internal identities (OR-set dots, RGA
//! element ids) and LWW win/lose flags: losing a last-writer-wins race is
//! normal behaviour, while a remove/delete that finds nothing to act on is
//! a failed op (first-class in ER-π: Algorithm 4 prunes around them).
//!
//! The harness is exhaustive within its bounds: all `n·(n+1)/2` unordered
//! pairs of the vocabulary (including two invocations of the *same*
//! operation, which can still race on their outcomes), every seed, every
//! scenario, and every library configuration that changes resolution
//! semantics (the time-series tie policies, including the order-dependent
//! `LastApplied` one the Roshi-2 bug distils).

use er_pi_model::{LamportTimestamp, ReplicaId, Value};
use er_pi_rdl::{
    Bias, CrdtType, GCounter, GSet, JsonDoc, LwwElementSet, LwwMap, LwwRegister, LwwTimeSeries,
    MerkleLog, MvRegister, OpKind, OpProfile, OrMap, OrSet, PnCounter, Rga, StateCrdt, TieBreak,
    TwoPhaseSet,
};
use serde::Serialize;

/// The abstract outcome of one harness operation, compared per operation
/// identity across the two orders.
#[derive(Debug, Clone, PartialEq, Eq)]
enum CertOutcome {
    /// The operation took effect (or lost an LWW race, which is normal).
    Applied,
    /// The operation found nothing to act on and failed.
    Failed,
    /// The operation observed a value (reads, id minting).
    Observed(String),
}

impl std::fmt::Display for CertOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CertOutcome::Applied => write!(f, "applied"),
            CertOutcome::Failed => write!(f, "failed"),
            CertOutcome::Observed(v) => write!(f, "observed({v})"),
        }
    }
}

/// One concrete, executable operation of the harness vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Inc(u64),
    Dec(u64),
    SetAdd(&'static str),
    SetRemove(&'static str),
    RgaInsert(usize, &'static str),
    RgaPush(&'static str),
    RgaDelete(usize),
    RgaMove(usize, usize),
    RgaMoveNaive(usize, usize),
    MapPut(&'static str, i64),
    MapRemove(&'static str),
    OrMapUpdate(i64),
    OrMapRemove(i64),
    OrMapMint,
    RegSet(i64),
    TsInsert(&'static str, u64),
    TsDelete(&'static str, u64),
    TsSelect,
    LogAppend(&'static str),
    DocSet(&'static str, i64),
    DocRemove(&'static str),
}

/// Replica state for one family instance.
#[derive(Debug, Clone)]
enum St {
    GCounter(GCounter),
    PnCounter(PnCounter),
    GSet(GSet<&'static str>),
    TwoPhaseSet(TwoPhaseSet<&'static str>),
    OrSet(OrSet<&'static str>),
    LwwSet(LwwElementSet<&'static str>),
    Rga(Rga<&'static str>),
    LwwMap(LwwMap<&'static str, i64>),
    OrMap(OrMap<i64, GCounter>),
    LwwReg(LwwRegister<i64>),
    MvReg(MvRegister<i64>),
    Ts(LwwTimeSeries),
    Log(MerkleLog),
    Doc(JsonDoc),
}

/// One family under certification: its concrete vocabulary plus the
/// library configurations whose resolution semantics differ.
struct Family {
    crdt: CrdtType,
    name: &'static str,
    configs: &'static [&'static str],
    ops: Vec<(Op, &'static str)>,
}

/// Stable short name for a family, used in evidence rows and validation.
pub fn family_name(crdt: CrdtType) -> &'static str {
    match crdt {
        CrdtType::GCounter => "gcounter",
        CrdtType::PnCounter => "pncounter",
        CrdtType::LwwRegister => "lwwregister",
        CrdtType::MvRegister => "mvregister",
        CrdtType::GSet => "gset",
        CrdtType::TwoPhaseSet => "twophaseset",
        CrdtType::OrSet => "orset",
        CrdtType::LwwElementSet => "lwwelementset",
        CrdtType::Rga => "rga",
        CrdtType::LwwMap => "lwwmap",
        CrdtType::OrMap => "ormap",
        CrdtType::LwwTimeSeries => "lwwtimeseries",
        CrdtType::MerkleLog => "merklelog",
        CrdtType::JsonDoc => "jsondoc",
    }
}

/// Stable short name for an operation kind, used to key commute-claim
/// verdicts in the certified table.
pub fn kind_sig(kind: &OpKind) -> &'static str {
    match kind {
        OpKind::Inc => "inc",
        OpKind::Dec => "dec",
        OpKind::Write { .. } => "write",
        OpKind::Add { .. } => "add",
        OpKind::Remove { .. } => "remove",
        OpKind::Insert { .. } => "insert",
        OpKind::Delete { .. } => "delete",
        OpKind::Move { safe: true } => "move",
        OpKind::Move { safe: false } => "move-naive",
        OpKind::Append => "append",
        OpKind::MintId => "mint-id",
        OpKind::Read => "read",
    }
}

fn families() -> Vec<Family> {
    use Op::*;
    vec![
        Family {
            crdt: CrdtType::GCounter,
            name: "gcounter",
            configs: &["default"],
            ops: vec![(Inc(1), "inc(1)"), (Inc(2), "inc(2)")],
        },
        Family {
            crdt: CrdtType::PnCounter,
            name: "pncounter",
            configs: &["default"],
            ops: vec![(Inc(1), "inc(1)"), (Dec(1), "dec(1)")],
        },
        Family {
            crdt: CrdtType::GSet,
            name: "gset",
            configs: &["default"],
            ops: vec![(SetAdd("x"), "add(x)"), (SetAdd("y"), "add(y)")],
        },
        Family {
            crdt: CrdtType::TwoPhaseSet,
            name: "twophaseset",
            configs: &["default"],
            ops: vec![
                (SetAdd("x"), "add(x)"),
                (SetAdd("y"), "add(y)"),
                (SetRemove("x"), "remove(x)"),
                (SetRemove("y"), "remove(y)"),
            ],
        },
        Family {
            crdt: CrdtType::OrSet,
            name: "orset",
            configs: &["default"],
            ops: vec![
                (SetAdd("x"), "add(x)"),
                (SetAdd("y"), "add(y)"),
                (SetRemove("x"), "remove(x)"),
                (SetRemove("y"), "remove(y)"),
            ],
        },
        Family {
            crdt: CrdtType::LwwElementSet,
            name: "lwwelementset",
            configs: &["bias-add"],
            ops: vec![
                (SetAdd("x"), "add(x)"),
                (SetAdd("y"), "add(y)"),
                (SetRemove("x"), "remove(x)"),
                (SetRemove("y"), "remove(y)"),
            ],
        },
        Family {
            crdt: CrdtType::Rga,
            name: "rga",
            configs: &["default"],
            ops: vec![
                (RgaInsert(0, "p"), "insert(0,p)"),
                (RgaInsert(2, "q"), "insert(2,q)"),
                (RgaPush("r"), "push(r)"),
                (RgaDelete(0), "delete(0)"),
                (RgaDelete(2), "delete(2)"),
                (RgaMove(0, 2), "move(0,2)"),
                (RgaMoveNaive(0, 2), "move_naive(0,2)"),
            ],
        },
        Family {
            crdt: CrdtType::LwwMap,
            name: "lwwmap",
            configs: &["default"],
            ops: vec![
                (MapPut("k", 1), "put(k,1)"),
                (MapPut("k", 2), "put(k,2)"),
                (MapPut("j", 3), "put(j,3)"),
                (MapRemove("k"), "remove(k)"),
                (MapRemove("j"), "remove(j)"),
            ],
        },
        Family {
            crdt: CrdtType::OrMap,
            name: "ormap",
            configs: &["default"],
            ops: vec![
                (OrMapUpdate(1), "update(1)"),
                (OrMapUpdate(9), "update(9)"),
                (OrMapRemove(1), "remove(1)"),
                (OrMapMint, "mint_id"),
            ],
        },
        Family {
            crdt: CrdtType::LwwRegister,
            name: "lwwregister",
            configs: &["default"],
            ops: vec![(RegSet(1), "set(1)"), (RegSet(2), "set(2)")],
        },
        Family {
            crdt: CrdtType::MvRegister,
            name: "mvregister",
            configs: &["default"],
            ops: vec![(RegSet(1), "set(1)"), (RegSet(2), "set(2)")],
        },
        Family {
            crdt: CrdtType::LwwTimeSeries,
            name: "lwwtimeseries",
            configs: &["insert-wins", "last-applied"],
            ops: vec![
                (TsInsert("m", 5), "insert(m,5)"),
                (TsDelete("m", 5), "delete(m,5)"),
                (TsInsert("m", 7), "insert(m,7)"),
                (TsInsert("n", 5), "insert(n,5)"),
                (TsDelete("n", 9), "delete(n,9)"),
                (TsSelect, "select"),
            ],
        },
        Family {
            crdt: CrdtType::MerkleLog,
            name: "merklelog",
            configs: &["default"],
            ops: vec![(LogAppend("a"), "append(a)"), (LogAppend("b"), "append(b)")],
        },
        Family {
            crdt: CrdtType::JsonDoc,
            name: "jsondoc",
            configs: &["default"],
            ops: vec![
                (DocSet("p", 1), "set(p,1)"),
                (DocSet("p", 2), "set(p,2)"),
                (DocSet("q", 3), "set(q,3)"),
                (DocRemove("p"), "remove(p)"),
                (DocRemove("q"), "remove(q)"),
            ],
        },
    ]
}

/// The abstract profile the conflict table judges `op` under.
fn profile(crdt: CrdtType, op: &Op) -> OpProfile {
    let kind = match *op {
        Op::Inc(_) => OpKind::Inc,
        Op::Dec(_) => OpKind::Dec,
        Op::SetAdd(e) => OpKind::Add {
            element: Some(Value::from(e)),
        },
        Op::SetRemove(e) => OpKind::Remove {
            element: Some(Value::from(e)),
        },
        Op::RgaInsert(i, _) => OpKind::Insert {
            position: Some(i as i64),
        },
        Op::RgaPush(_) => OpKind::Insert { position: None },
        Op::RgaDelete(i) => OpKind::Delete {
            position: Some(i as i64),
        },
        Op::RgaMove(..) => OpKind::Move { safe: true },
        Op::RgaMoveNaive(..) => OpKind::Move { safe: false },
        Op::MapPut(k, _) => OpKind::Write {
            key: Some(Value::from(k)),
        },
        Op::MapRemove(k) => OpKind::Remove {
            element: Some(Value::from(k)),
        },
        Op::OrMapUpdate(k) => OpKind::Write {
            key: Some(Value::from(k)),
        },
        Op::OrMapRemove(k) => OpKind::Remove {
            element: Some(Value::from(k)),
        },
        Op::OrMapMint => OpKind::MintId,
        Op::RegSet(_) => OpKind::Write { key: None },
        Op::TsInsert(m, _) => OpKind::Add {
            element: Some(Value::from(m)),
        },
        Op::TsDelete(m, _) => OpKind::Remove {
            element: Some(Value::from(m)),
        },
        Op::TsSelect => OpKind::Read,
        Op::LogAppend(_) => OpKind::Append,
        Op::DocSet(p, _) => OpKind::Write {
            key: Some(Value::from(p)),
        },
        Op::DocRemove(p) => OpKind::Remove {
            element: Some(Value::from(p)),
        },
    };
    OpProfile::new(crdt, kind)
}

fn ts(time: u64, idx: u16) -> LamportTimestamp {
    LamportTimestamp::new(time, ReplicaId::new(idx))
}

/// Builds a replica's start state. `seeded == false` is the empty state;
/// `seeded == true` pre-populates the targets the vocabulary acts on, so
/// removes/deletes have something to observe. Seed timestamps stay below
/// every operation timestamp.
fn init(crdt: CrdtType, config: usize, seeded: bool, idx: u16) -> St {
    let replica = ReplicaId::new(idx);
    match crdt {
        CrdtType::GCounter => {
            let mut c = GCounter::new(replica);
            if seeded {
                c.increment(3);
            }
            St::GCounter(c)
        }
        CrdtType::PnCounter => {
            let mut c = PnCounter::new(replica);
            if seeded {
                c.increment(3);
            }
            St::PnCounter(c)
        }
        CrdtType::GSet => {
            let mut s = GSet::new();
            if seeded {
                s.insert("x");
            }
            St::GSet(s)
        }
        CrdtType::TwoPhaseSet => {
            let mut s = TwoPhaseSet::new();
            if seeded {
                s.insert("x");
                s.insert("y");
            }
            St::TwoPhaseSet(s)
        }
        CrdtType::OrSet => {
            let mut s = OrSet::new(replica);
            if seeded {
                s.insert("x");
                s.insert("y");
            }
            St::OrSet(s)
        }
        CrdtType::LwwElementSet => {
            let mut s = LwwElementSet::new(Bias::Add);
            if seeded {
                s.add("x", ts(1, idx));
                s.add("y", ts(2, idx));
            }
            St::LwwSet(s)
        }
        CrdtType::Rga => {
            let mut l = Rga::new(replica);
            if seeded {
                for v in ["a", "b", "c", "d"] {
                    l.push(v);
                }
            }
            St::Rga(l)
        }
        CrdtType::LwwMap => {
            let mut m = LwwMap::new();
            if seeded {
                m.put("k", 0, ts(1, idx));
                m.put("j", 0, ts(2, idx));
            }
            St::LwwMap(m)
        }
        CrdtType::OrMap => {
            let mut m = OrMap::new(replica);
            if seeded {
                m.update_with(1, || GCounter::new(replica), |c| c.increment(1));
            }
            St::OrMap(m)
        }
        CrdtType::LwwRegister => {
            let initial = if seeded { 5 } else { 0 };
            St::LwwReg(LwwRegister::new(initial, ts(1, idx)))
        }
        CrdtType::MvRegister => {
            let mut r = MvRegister::new(replica);
            if seeded {
                r.set(5);
            }
            St::MvReg(r)
        }
        CrdtType::LwwTimeSeries => {
            let tie = if config == 0 {
                TieBreak::InsertWins
            } else {
                TieBreak::LastApplied
            };
            let mut t = LwwTimeSeries::new(tie);
            if seeded {
                t.insert("k", "m", 1);
                t.insert("k", "n", 2);
            }
            St::Ts(t)
        }
        CrdtType::MerkleLog => {
            let mut l = MerkleLog::new(replica, format!("site{idx}"));
            if seeded {
                l.append(Value::from("s"));
            }
            St::Log(l)
        }
        CrdtType::JsonDoc => {
            let mut d = JsonDoc::new(replica);
            if seeded {
                d.set(&["p"], Value::from(0)).expect("seed doc set");
                d.set(&["q"], Value::from(0)).expect("seed doc set");
            }
            St::Doc(d)
        }
    }
}

/// Applies one vocabulary op at execution position `pos` (the source of
/// its logical timestamp) on behalf of replica `idx`.
fn apply(st: &mut St, op: &Op, pos: u64, idx: u16) -> CertOutcome {
    match (st, op) {
        (St::GCounter(c), Op::Inc(n)) => {
            c.increment(*n);
            CertOutcome::Applied
        }
        (St::PnCounter(c), Op::Inc(n)) => {
            c.increment(*n);
            CertOutcome::Applied
        }
        (St::PnCounter(c), Op::Dec(n)) => {
            c.decrement(*n);
            CertOutcome::Applied
        }
        (St::GSet(s), Op::SetAdd(e)) => {
            s.insert(*e);
            CertOutcome::Applied
        }
        (St::TwoPhaseSet(s), Op::SetAdd(e)) => {
            // Add is "ensure present": a duplicate add is an idempotent
            // success, not a failure.
            s.insert(*e);
            CertOutcome::Applied
        }
        (St::TwoPhaseSet(s), Op::SetRemove(e)) => {
            if s.remove(e) {
                CertOutcome::Applied
            } else {
                CertOutcome::Failed
            }
        }
        (St::OrSet(s), Op::SetAdd(e)) => {
            s.insert(*e);
            CertOutcome::Applied
        }
        (St::OrSet(s), Op::SetRemove(e)) => {
            if s.remove(e).is_some() {
                CertOutcome::Applied
            } else {
                CertOutcome::Failed
            }
        }
        (St::LwwSet(s), Op::SetAdd(e)) => {
            s.add(*e, ts(pos, idx));
            CertOutcome::Applied
        }
        (St::LwwSet(s), Op::SetRemove(e)) => {
            s.remove(*e, ts(pos, idx));
            CertOutcome::Applied
        }
        (St::Rga(l), Op::RgaInsert(i, v)) => {
            if *i <= l.len() {
                l.insert(*i, *v);
                CertOutcome::Applied
            } else {
                CertOutcome::Failed
            }
        }
        (St::Rga(l), Op::RgaPush(v)) => {
            l.push(*v);
            CertOutcome::Applied
        }
        (St::Rga(l), Op::RgaDelete(i)) => {
            if l.delete(*i).is_some() {
                CertOutcome::Applied
            } else {
                CertOutcome::Failed
            }
        }
        (St::Rga(l), Op::RgaMove(f, t)) => {
            if l.move_item(*f, *t).is_some() {
                CertOutcome::Applied
            } else {
                CertOutcome::Failed
            }
        }
        (St::Rga(l), Op::RgaMoveNaive(f, t)) => {
            if l.move_naive(*f, *t).is_some() {
                CertOutcome::Applied
            } else {
                CertOutcome::Failed
            }
        }
        (St::LwwMap(m), Op::MapPut(k, v)) => {
            // The returned bool reports an LWW win, not a failure.
            m.put(*k, *v, ts(pos, idx));
            CertOutcome::Applied
        }
        (St::LwwMap(m), Op::MapRemove(k)) => {
            m.remove(k, ts(pos, idx));
            CertOutcome::Applied
        }
        (St::OrMap(m), Op::OrMapUpdate(k)) => {
            let replica = ReplicaId::new(idx);
            m.update_with(*k, || GCounter::new(replica), |c| c.increment(1));
            CertOutcome::Applied
        }
        (St::OrMap(m), Op::OrMapRemove(k)) => {
            if m.remove(k) {
                CertOutcome::Applied
            } else {
                CertOutcome::Failed
            }
        }
        (St::OrMap(m), Op::OrMapMint) => {
            // Sequential-id minting: read the (non-replicated) maximum key
            // and create the next one — Table 2's misconception #4.
            let id = m.iter().map(|(k, _)| *k).max().unwrap_or(0) + 1;
            let replica = ReplicaId::new(idx);
            m.update_with(id, || GCounter::new(replica), |c| c.increment(1));
            CertOutcome::Observed(id.to_string())
        }
        (St::LwwReg(r), Op::RegSet(v)) => {
            r.set(*v, ts(pos, idx));
            CertOutcome::Applied
        }
        (St::MvReg(r), Op::RegSet(v)) => {
            r.set(*v);
            CertOutcome::Applied
        }
        (St::Ts(t), Op::TsInsert(m, score)) => {
            t.insert("k", *m, *score);
            CertOutcome::Applied
        }
        (St::Ts(t), Op::TsDelete(m, score)) => {
            t.delete("k", *m, *score);
            CertOutcome::Applied
        }
        (St::Ts(t), Op::TsSelect) => CertOutcome::Observed(format!("{:?}", t.select("k", 0, 16))),
        (St::Log(l), Op::LogAppend(v)) => {
            l.append(Value::from(*v));
            CertOutcome::Applied
        }
        (St::Doc(d), Op::DocSet(p, v)) => {
            if d.set(&[*p], Value::from(*v)).is_ok() {
                CertOutcome::Applied
            } else {
                CertOutcome::Failed
            }
        }
        (St::Doc(d), Op::DocRemove(p)) => {
            if d.remove(&[*p]).is_ok() {
                CertOutcome::Applied
            } else {
                CertOutcome::Failed
            }
        }
        (st, op) => unreachable!("certifier paired op {op:?} with foreign state {st:?}"),
    }
}

/// Canonical observable state: what replay's byte-identity oracle would
/// see. Internal identities (dots, element ids, stored timestamps) are
/// excluded; LWW resolution results, visibility, and order are included.
fn observe(st: &St) -> String {
    match st {
        St::GCounter(c) => c.value().to_string(),
        St::PnCounter(c) => c.value().to_string(),
        St::GSet(s) => format!("{:?}", s.iter().collect::<Vec<_>>()),
        St::TwoPhaseSet(s) => format!("{:?}", s.iter().collect::<Vec<_>>()),
        St::OrSet(s) => format!("{:?}", s.elements()),
        St::LwwSet(s) => format!("{:?}", s.elements()),
        St::Rga(l) => format!("{:?}", l.values()),
        St::LwwMap(m) => {
            let entries: Vec<(&&str, Option<i64>)> =
                m.keys().map(|k| (k, m.get(k).copied())).collect();
            format!("{entries:?}")
        }
        St::OrMap(m) => {
            let entries: Vec<(i64, u64)> = m.iter().map(|(k, v)| (*k, v.value())).collect();
            format!("{entries:?}")
        }
        St::LwwReg(r) => r.get().to_string(),
        St::MvReg(r) => format!("{:?}/conflicted={}", r.values(), r.is_conflicted()),
        St::Ts(t) => format!(
            "{:?}/m={:?}/n={:?}",
            t.select("k", 0, 16),
            t.is_deleted("k", "m"),
            t.is_deleted("k", "n")
        ),
        St::Log(l) => format!("{:?}", l.values()),
        St::Doc(d) => format!("{:?}", d.root()),
    }
}

fn merge(a: &mut St, b: &St) {
    match (a, b) {
        (St::GCounter(x), St::GCounter(y)) => x.merge(y),
        (St::PnCounter(x), St::PnCounter(y)) => x.merge(y),
        (St::GSet(x), St::GSet(y)) => x.merge(y),
        (St::TwoPhaseSet(x), St::TwoPhaseSet(y)) => x.merge(y),
        (St::OrSet(x), St::OrSet(y)) => x.merge(y),
        (St::LwwSet(x), St::LwwSet(y)) => x.merge(y),
        (St::Rga(x), St::Rga(y)) => x.merge(y),
        (St::LwwMap(x), St::LwwMap(y)) => x.merge(y),
        (St::OrMap(x), St::OrMap(y)) => x.merge(y),
        (St::LwwReg(x), St::LwwReg(y)) => x.merge(y),
        (St::MvReg(x), St::MvReg(y)) => x.merge(y),
        (St::Ts(x), St::Ts(y)) => x.merge(y),
        (St::Log(x), St::Log(y)) => x.merge(y),
        (St::Doc(x), St::Doc(y)) => x.merge(y),
        (a, b) => unreachable!("certifier merged foreign states {a:?} / {b:?}"),
    }
}

/// A concrete divergence found by the harness: the same two operations, in
/// the two orders, with the resulting observable state and per-op
/// outcomes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct CertWitness {
    /// Family short name.
    pub family: String,
    /// Pair label, e.g. `"add(x) × remove(x)"`.
    pub pair: String,
    /// `"same-replica"` or `"cross-replica"`.
    pub scenario: String,
    /// Library configuration label (e.g. the tie policy).
    pub config: String,
    /// Whether the start state was seeded.
    pub seeded: bool,
    /// Observable state and outcomes after applying a-then-b.
    pub forward: String,
    /// Observable state and outcomes after applying b-then-a.
    pub swapped: String,
}

/// Evidence for one unordered operation pair: the table's claim and
/// whether any bounded scenario diverged.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct PairEvidence {
    /// Family short name.
    pub family: String,
    /// Label of the first operation.
    pub a: String,
    /// Label of the second operation.
    pub b: String,
    /// Kind signature of the first operation (for verdict lookups).
    pub sig_a: String,
    /// Kind signature of the second operation.
    pub sig_b: String,
    /// The oracle's claim: `None` = commutes, `Some(reason)` = conflicts.
    pub claim: Option<String>,
    /// Number of (scenario × seed × config × order) executions performed.
    pub checks: usize,
    /// Whether any scenario diverged between the two orders.
    pub diverged: bool,
    /// The first divergence found, if any.
    pub witness: Option<CertWitness>,
}

/// Base timestamp for pair operations; seed timestamps stay below it.
const BASE: u64 = 10;

struct OrderResult {
    state: String,
    out_a: CertOutcome,
    out_b: CertOutcome,
}

impl OrderResult {
    fn render(&self, label_a: &str, label_b: &str) -> String {
        format!(
            "state={} {}={} {}={}",
            self.state, label_a, self.out_a, label_b, self.out_b
        )
    }
}

/// Same-replica scenario: both ops on replica 0, `a_first` choosing the
/// order. Outcomes are reported per op identity (a, b).
fn run_same(
    crdt: CrdtType,
    config: usize,
    seeded: bool,
    a: &Op,
    b: &Op,
    a_first: bool,
) -> OrderResult {
    let mut st = init(crdt, config, seeded, 0);
    let (out_a, out_b) = if a_first {
        let oa = apply(&mut st, a, BASE + 1, 0);
        let ob = apply(&mut st, b, BASE + 2, 0);
        (oa, ob)
    } else {
        let ob = apply(&mut st, b, BASE + 1, 0);
        let oa = apply(&mut st, a, BASE + 2, 0);
        (oa, ob)
    };
    OrderResult {
        state: observe(&st),
        out_a,
        out_b,
    }
}

/// Cross-replica scenario: op `a` on replica 0, op `b` on replica 1,
/// timestamps from the global execution position, then a state merge.
fn run_cross(
    crdt: CrdtType,
    config: usize,
    seeded: bool,
    a: &Op,
    b: &Op,
    a_first: bool,
) -> OrderResult {
    let mut s0 = init(crdt, config, seeded, 0);
    let mut s1 = init(crdt, config, seeded, 1);
    let (out_a, out_b) = if a_first {
        let oa = apply(&mut s0, a, BASE + 1, 0);
        let ob = apply(&mut s1, b, BASE + 2, 1);
        (oa, ob)
    } else {
        let ob = apply(&mut s1, b, BASE + 1, 1);
        let oa = apply(&mut s0, a, BASE + 2, 0);
        (oa, ob)
    };
    merge(&mut s0, &s1);
    OrderResult {
        state: observe(&s0),
        out_a,
        out_b,
    }
}

/// Runs the full bounded harness under `oracle` (normally
/// [`OpProfile::commutes_with`]) and returns one evidence row per
/// (family, unordered pair).
pub fn certify_pairs(
    oracle: &dyn Fn(&OpProfile, &OpProfile) -> Option<&'static str>,
) -> Vec<PairEvidence> {
    let mut rows = Vec::new();
    for family in families() {
        let n = family.ops.len();
        for i in 0..n {
            for j in i..n {
                let (op_a, label_a) = &family.ops[i];
                let (op_b, label_b) = &family.ops[j];
                let pa = profile(family.crdt, op_a);
                let pb = profile(family.crdt, op_b);
                let claim = oracle(&pa, &pb);
                let mut checks = 0usize;
                let mut witness: Option<CertWitness> = None;
                for (ci, config) in family.configs.iter().enumerate() {
                    for seeded in [false, true] {
                        for scenario in ["same-replica", "cross-replica"] {
                            let run = |a_first: bool| {
                                if scenario == "same-replica" {
                                    run_same(family.crdt, ci, seeded, op_a, op_b, a_first)
                                } else {
                                    run_cross(family.crdt, ci, seeded, op_a, op_b, a_first)
                                }
                            };
                            let fwd = run(true);
                            let swp = run(false);
                            checks += 2;
                            let diverged = fwd.state != swp.state
                                || fwd.out_a != swp.out_a
                                || fwd.out_b != swp.out_b;
                            if diverged && witness.is_none() {
                                witness = Some(CertWitness {
                                    family: family.name.to_string(),
                                    pair: format!("{label_a} × {label_b}"),
                                    scenario: scenario.to_string(),
                                    config: config.to_string(),
                                    seeded,
                                    forward: fwd.render(label_a, label_b),
                                    swapped: swp.render(label_a, label_b),
                                });
                            }
                        }
                    }
                }
                rows.push(PairEvidence {
                    family: family.name.to_string(),
                    a: label_a.to_string(),
                    b: label_b.to_string(),
                    sig_a: kind_sig(&pa.kind).to_string(),
                    sig_b: kind_sig(&pb.kind).to_string(),
                    claim: claim.map(str::to_string),
                    checks,
                    diverged: witness.is_some(),
                    witness,
                });
            }
        }
    }
    rows
}

/// Total number of concrete operations in the harness vocabulary.
pub fn vocabulary_size() -> usize {
    families().iter().map(|f| f.ops.len()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn real_oracle(a: &OpProfile, b: &OpProfile) -> Option<&'static str> {
        a.commutes_with(b)
    }

    #[test]
    fn harness_covers_every_family() {
        let rows = certify_pairs(&real_oracle);
        let mut fams: Vec<&str> = rows.iter().map(|r| r.family.as_str()).collect();
        fams.sort_unstable();
        fams.dedup();
        assert_eq!(fams.len(), 14, "all 14 families certified: {fams:?}");
    }

    #[test]
    fn no_commute_claim_diverges() {
        for row in certify_pairs(&real_oracle) {
            if row.claim.is_none() {
                assert!(
                    !row.diverged,
                    "{}: {} × {} claimed commuting but diverged: {:?}",
                    row.family, row.a, row.b, row.witness
                );
            }
        }
    }

    #[test]
    fn orset_same_element_removes_diverge_on_outcome() {
        let rows = certify_pairs(&real_oracle);
        let row = rows
            .iter()
            .find(|r| r.family == "orset" && r.a == "remove(x)" && r.b == "remove(x)")
            .expect("pair present");
        assert!(row.claim.is_some());
        assert!(row.diverged, "second remove fails: outcome must race");
    }

    #[test]
    fn rga_distinct_index_inserts_diverge() {
        let rows = certify_pairs(&real_oracle);
        let row = rows
            .iter()
            .find(|r| r.family == "rga" && r.a == "insert(0,p)" && r.b == "insert(2,q)")
            .expect("pair present");
        assert!(row.diverged, "anchor shift must be witnessed");
    }

    #[test]
    fn last_applied_tie_policy_is_witnessed() {
        let rows = certify_pairs(&real_oracle);
        let row = rows
            .iter()
            .find(|r| r.family == "lwwtimeseries" && r.a == "insert(m,5)" && r.b == "delete(m,5)")
            .expect("pair present");
        let w = row.witness.as_ref().expect("divergence witness");
        assert_eq!(
            w.config, "last-applied",
            "only the buggy tie policy diverges"
        );
    }
}
