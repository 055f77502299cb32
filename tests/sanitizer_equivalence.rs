//! Differential-equivalence harness for the independence sanitizer.
//!
//! The sanitizer's contract is that it *observes* a replay without steering
//! it: a sanitizer-enabled [`Report`](er_pi::Report) must be byte-identical
//! to a sanitizer-off one (`Report::diff == None`) for every bug, worker
//! count, and stop mode — and across the whole catalogue, whose derived and
//! hand-declared independence sets are sound, it must report zero
//! violations. The catalogue matrix (`common::matrix`) pins that, with the
//! sanitizer's pair counts, in its scratch column. The rest of the suite
//! proves the detection paths work: a deliberately corrupted conflict-table
//! entry is caught statically by the certifier, and the matching false
//! independence *declaration* is caught dynamically by the sanitizer.

mod common;

use crate::common::matrix::sweep;
use crate::common::SCRATCH;
use er_pi::{
    certify_table, certify_table_with, validate_table, Attachments, LintPattern, OpOutcome,
    PruningConfig, ReplayConfig, Session, SystemModel, TestSuite, Verdict,
};
use er_pi_model::{Event, EventId, EventKind, ReplicaId, Value};
use er_pi_subjects::Bug;

fn opts(stop: bool, workers: usize, sanitize: bool) -> ReplayConfig {
    ReplayConfig {
        stop_on_first_violation: stop,
        workers,
        sanitize,
        ..ReplayConfig::default()
    }
}

/// The sanitizer attached to the one-worker exhaustive cell of the matrix's
/// scratch column; the column's other cells, sanitized too, belong to
/// `parallel_equivalence`. Some catalogue run must exercise it.
#[test]
fn sanitizer_leaves_reports_byte_identical_and_finds_nothing() {
    let totals = sweep(false, |cell| cell == SCRATCH);
    assert!(
        totals.pairs_checked > 0,
        "no catalogue run exercised the sanitizer"
    );
}

/// The sanitizer knob off must hand back no report at all.
#[test]
fn sanitizer_off_returns_no_findings() {
    let bug = Bug::by_name("Roshi-1").unwrap();
    let (_, findings) = bug.replay_report_checked(&opts(true, 1, false), Attachments::default());
    assert!(findings.is_none());
}

/// A corrupted conflict-table entry — "equal-timestamp register writes
/// commute" — must be caught *statically*: the certifier replays the claim
/// in both orders, observes divergence, marks it UNSOUND, and
/// `validate_table` surfaces it as an independence-soundness diagnostic.
#[test]
fn corrupted_table_entry_is_caught_by_the_certifier() {
    // The real table certifies sound (`er-pi-analysis`'s own tests), and
    // it is not vacuously so: it makes claims to certify.
    let real = certify_table();
    assert!(real.is_sound());
    assert!(!real.commute_claims.is_empty() && !real.conflict_claims.is_empty());

    const CORRUPT: &str = "register writes tie-break on equal timestamps";
    let table = certify_table_with(&|a, b| match a.commutes_with(b) {
        Some(reason) if reason == CORRUPT => None, // lie: claim they commute
        verdict => verdict,
    });
    assert!(!table.is_sound(), "the corruption must not certify");
    let unsound = table.unsound();
    assert!(
        unsound
            .iter()
            .any(|c| c.verdict == Verdict::Unsound && c.witness.is_some()),
        "an UNSOUND claim with a concrete divergence witness is required: {unsound:?}"
    );
    let diags = validate_table(&table);
    assert!(
        diags.iter().any(|d| {
            d.pattern == LintPattern::IndependenceSoundness && d.message.contains("UNSOUND")
        }),
        "validate_table must lint the corruption: {diags:?}"
    );
}

/// A single last-write-wins register where application *order* decides the
/// final value — the runtime shape of the corrupted table entry above.
struct RegModel;

#[derive(Clone)]
struct Reg(i64);

impl SystemModel for RegModel {
    type State = Reg;

    fn replicas(&self) -> usize {
        1
    }

    fn init(&self, _replica: ReplicaId) -> Reg {
        Reg(0)
    }

    fn apply(&self, states: &mut [Reg], event: &Event) -> OpOutcome {
        match &event.kind {
            EventKind::LocalUpdate { op } if op.function() == "reg_set" => {
                states[event.replica.index()].0 = op.arg(0).and_then(Value::as_int).unwrap_or(0);
                OpOutcome::Applied
            }
            _ => OpOutcome::failed("unexpected event"),
        }
    }

    fn observe(&self, state: &Reg) -> Value {
        Value::from(state.0)
    }
}

/// The same corruption acted on at replay time — a developer *declaring*
/// two conflicting register writes independent — must be caught
/// dynamically by the sanitizer, with the offending pair named.
#[test]
fn corrupted_independence_declaration_is_caught_by_the_sanitizer() {
    let mut session = Session::new(RegModel);
    let r0 = ReplicaId::new(0);
    session.record(|sys| {
        sys.invoke(r0, "reg_set", [Value::from(1)]);
        sys.invoke(r0, "reg_set", [Value::from(2)]);
    });
    session.set_config(
        PruningConfig::default().with_independent_set(vec![EventId::new(0), EventId::new(1)]),
    );
    session.set_workers(1);
    session.set_sanitizer(true);
    session.replay(&TestSuite::new()).unwrap();
    let findings = session.sanitizer_report().expect("sanitize was requested");
    assert!(
        !findings.passed(),
        "swapping the writes changes the final value; the sanitizer must object"
    );
    let violation = &findings.violations[0];
    assert_eq!(violation.first, EventId::new(0));
    assert_eq!(violation.second, EventId::new(1));
    assert_ne!(violation.forward_hash, violation.swapped_hash);
}

/// Nightly: the full sanitizer-enabled catalogue sweep at all-core
/// parallelism (`cargo test --test sanitizer_equivalence -- --ignored`).
#[test]
#[ignore = "nightly: sanitizer-enabled catalogue sweep"]
fn nightly_sanitized_catalogue_sweep() {
    for bug in Bug::catalogue() {
        for stop in [false, true] {
            let reference = bug.replay_report_opts(&opts(stop, 1, false));
            let (sanitized, findings) =
                bug.replay_report_checked(&opts(stop, 0, true), Attachments::default());
            assert_eq!(
                reference.diff(&sanitized),
                None,
                "{} stop={stop}: sanitizer perturbed the all-core report",
                bug.name
            );
            assert!(
                findings.expect("sanitize was requested").passed(),
                "{} stop={stop}: catalogue independence declarations must be sound",
                bug.name
            );
        }
    }
}
