//! The system-under-test abstraction.

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

use er_pi_model::{Event, ReplicaId, Value};

thread_local! {
    /// Encoding buffer of [`encoding_digest`].
    static DIGEST_SCRATCH: std::cell::Cell<Vec<u8>> = const { std::cell::Cell::new(Vec::new()) };
}

/// The outcome of applying one event during recording or replay.
///
/// The engine copies outcomes between the run it is on, the paths it may
/// resume from, subsumption memos and stitched tails, so a clone allocates
/// nothing: a failure [`Reason`] is a `&'static str` or a string shared with
/// the outcome it was cloned from, and an observation is shared by `Arc`.
/// Equality and `Debug` compare and print the reason and the value, not the
/// handles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpOutcome {
    /// The event executed and changed (or legitimately read) state.
    Applied,
    /// The event failed — e.g. a data-structure constraint refused it, or
    /// an execute-sync ran before its send under an aggressive interleaving.
    /// Failed ops are first-class in ER-π: Algorithm 4 prunes around them.
    Failed {
        /// Human-readable reason.
        reason: Reason,
    },
    /// The event produced an observable value (reads, transmissions).
    Observed(Arc<Value>),
}

impl OpOutcome {
    /// Convenience constructor for failures: a `&'static str` reason
    /// allocates nothing, an owned `String` moves behind a reference count.
    pub fn failed(reason: impl Into<Cow<'static, str>>) -> Self {
        let reason = match reason.into() {
            Cow::Borrowed(text) => Reason(Text::Static(text)),
            Cow::Owned(text) => Reason(Text::Shared(text.into())),
        };
        OpOutcome::Failed { reason }
    }

    /// Convenience constructor for observations.
    pub fn observed(value: Value) -> Self {
        OpOutcome::Observed(Arc::new(value))
    }

    /// Returns `true` for [`OpOutcome::Failed`].
    pub fn is_failed(&self) -> bool {
        matches!(self, OpOutcome::Failed { .. })
    }
}

/// Why an event failed: a static string, or an owned one shared by every
/// clone — so cloning it allocates nothing. It reads as the `str` it holds,
/// through `Deref`, `Display`, `Debug` and equality; build one with
/// [`OpOutcome::failed`].
#[derive(Clone)]
pub struct Reason(Text);

#[derive(Clone)]
enum Text {
    Static(&'static str),
    Shared(Arc<str>),
}

impl std::ops::Deref for Reason {
    type Target = str;

    fn deref(&self) -> &str {
        match &self.0 {
            Text::Static(text) => text,
            Text::Shared(text) => text,
        }
    }
}

impl PartialEq for Reason {
    fn eq(&self, other: &Reason) -> bool {
        **self == **other
    }
}

impl Eq for Reason {}

impl fmt::Debug for Reason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl fmt::Display for Reason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self)
    }
}

/// A system under integration test: application logic + the RDL it uses.
///
/// This is the Rust equivalent of the paper's proxy boundary. The
/// language-specific proxies of the original (Go AST rewriting, JS monkey
/// patching, Java dynamic proxies) intercept RDL calls at runtime; here the
/// same call stream flows through [`SystemModel::apply`], which both the
/// recording phase and the replay engine drive. Implementations interpret
/// each [`Event`] against the replica states:
///
/// * `LocalUpdate` — invoke the corresponding RDL function at the event's
///   replica;
/// * `SyncSend` / `SyncExec` / `Sync` — move operations between replicas
///   (how is up to the model: state merge, delta shipping, or an explicit
///   message queue inside `State`);
/// * `External` — application-level effects (transmissions, reads).
///
/// `apply` receives *all* replica states because synchronization inherently
/// spans two of them.
pub trait SystemModel {
    /// Per-replica state. The `Clone` bound is the snapshot contract of the
    /// replay engine: checkpoint/reset clones states between runs, the
    /// [`IncrementalExecutor`](crate::IncrementalExecutor) keeps a cloned
    /// snapshot of every replica after every step it may resume from, and
    /// subsumption memoizes and hands out final states by cloning them. A
    /// clone must be an *observationally independent* copy: nothing
    /// [`apply`](SystemModel::apply) or [`recover`](SystemModel::recover)
    /// does to one may ever show through [`observe`](SystemModel::observe),
    /// [`state_encode`](SystemModel::state_encode) or a later `apply` on
    /// the other. It need not be a deep copy, and since an event writes one
    /// replica while a snapshot clones all of them, it should not be one.
    ///
    /// To adopt structural sharing, keep the replica's fields in a plain
    /// `#[derive(Clone)]` struct and declare
    /// `type State = `[`Shared`](er_pi_rdl::Shared)`<Replica>`: a snapshot is
    /// then one pointer bump per replica, and the first write after it
    /// copies the replica it touches (`state.field` reads and writes go
    /// through auto-deref; only `init` changes, to `Shared::new(Replica {
    /// .. })`). A field that is heavy and often left alone by writes to its
    /// neighbours can be a `Shared` of its own. Such a model should also
    /// forward [`replica_digest`](SystemModel::replica_digest) to the cell.
    /// The engine resets its states with `clone_from`, and a `Shared` keeps
    /// the value that displaces for the next copy to write into, with the
    /// replica's own `clone_from`: a hand-written one that copies field by
    /// field makes that copy touch only what differs.
    type State: Clone;

    /// Number of replicas in the system (the paper's setup uses three).
    fn replicas(&self) -> usize;

    /// Builds the initial state of one replica.
    fn init(&self, replica: ReplicaId) -> Self::State;

    /// Executes one event against the states. Must be deterministic given
    /// `(states, event)` — replay correctness depends on it.
    fn apply(&self, states: &mut [Self::State], event: &Event) -> OpOutcome;

    /// Projects a replica's state to a comparable [`Value`] — the basis for
    /// convergence assertions and cross-interleaving comparisons.
    fn observe(&self, state: &Self::State) -> Value;

    /// Builds all initial states: [`init`](SystemModel::init) of each
    /// replica, in order (scratch replay builds a run's states that way,
    /// replica by replica, into the buffer of the run before).
    fn init_all(&self) -> Vec<Self::State> {
        (0..self.replicas() as u16)
            .map(|i| self.init(ReplicaId::new(i)))
            .collect()
    }

    /// Recovers `replica` after a scheduled crash-restart fault
    /// ([`FaultKind::CrashRestart`](er_pi_model::FaultKind)).
    ///
    /// The default models a replica with no durable log: volatile state is
    /// lost and the replica restarts from [`init`](SystemModel::init).
    /// Models whose RDL keeps a durable op log should override this with
    /// log replay (e.g. re-apply `DeltaSync::missing_since(⊥)` into a
    /// fresh state) so recovery preserves acknowledged updates.
    ///
    /// Like [`apply`](SystemModel::apply), this must be deterministic in
    /// `(states, replica)` — replay correctness depends on it.
    fn recover(&self, states: &mut [Self::State], replica: ReplicaId) {
        states[replica.index()] = self.init(replica);
    }

    /// Writes a *canonical encoding* of one replica's state into `out` and
    /// returns `true`, or returns `false` (writing nothing) when the model
    /// cannot encode its state faithfully.
    ///
    /// This is the soundness gate of state-hash subsumption
    /// ([`Session::set_subsumption`](crate::Session::set_subsumption)):
    /// equal encodings must imply *behaviorally identical* states — same
    /// outcomes, observations, and reachable states under every suffix of
    /// events. [`observe`](SystemModel::observe) is deliberately NOT used
    /// as a fallback: it is a lossy projection (an OR-set's element view
    /// drops add-tags and tombstones that change future remove semantics),
    /// and hashing it would merge states that still behave differently.
    ///
    /// The default declines, which silently disables subsumption for the
    /// model — a safe no-op. Override it (typically via
    /// [`CanonicalEncode`](er_pi_model::CanonicalEncode)) only when the
    /// encoding covers every field that influences future behavior.
    fn state_encode(&self, _state: &Self::State, _out: &mut Vec<u8>) -> bool {
        false
    }

    /// A 128-bit digest of one replica's canonical encoding, or `None` when
    /// the model declines [`state_encode`](SystemModel::state_encode).
    ///
    /// The default is [`encoding_digest`]: encode, then hash. Subsumption
    /// asks for every replica's digest after every step, though a step
    /// writes one replica; a model whose state is a
    /// [`Shared`](er_pi_rdl::Shared) cell lets the cell remember the digest
    /// until the replica is next written:
    ///
    /// ```text
    /// fn replica_digest(&self, state: &Self::State) -> Option<u128> {
    ///     Shared::digest_with(state, || er_pi::encoding_digest(self, state))
    /// }
    /// ```
    ///
    /// Whatever is returned must be a function of the canonical encoding
    /// alone: equal digests stand for equal encodings.
    fn replica_digest(&self, state: &Self::State) -> Option<u128> {
        encoding_digest(self, state)
    }

    /// A 128-bit digest over all replicas, or `None` when the model declines
    /// [`state_encode`](SystemModel::state_encode).
    ///
    /// The default folds the fixed-width
    /// [`replica_digest`](SystemModel::replica_digest)s in replica order,
    /// from `0`, through [`digest128_fold`](er_pi_rdl::digest128_fold), so
    /// neither a reordering of replicas nor a shifted boundary between two
    /// of them can alias. Override only to swap the digest function; the
    /// subsumption layer treats the value as opaque.
    fn state_digest(&self, states: &[Self::State]) -> Option<u128> {
        states.iter().try_fold(0, |digest, state| {
            let replica = self.replica_digest(state)?;
            Some(er_pi_rdl::digest128_fold(digest, replica))
        })
    }

    /// A cheap estimate of one state's resident size in bytes — the unit
    /// the incremental executor's snapshot budget
    /// ([`DEFAULT_CACHE_BUDGET`](crate::DEFAULT_CACHE_BUDGET)) is accounted
    /// in, and the one input that can make it bind: a snapshot that would
    /// take the executor past it is not taken.
    ///
    /// The default is `size_of::<State>()`, which ignores heap payloads;
    /// models whose states own significant heap data (sets, logs,
    /// documents) should override it with a proportional estimate. Only
    /// *relative* accuracy matters: the budget bounds cache growth, it
    /// does not meter allocations.
    fn state_size_hint(&self, _state: &Self::State) -> usize {
        std::mem::size_of::<Self::State>()
    }
}

/// [`digest128`](er_pi_rdl::digest128) of `state`'s canonical encoding, or
/// `None` when `model` declines [`SystemModel::state_encode`] — the default
/// [`SystemModel::replica_digest`], for overrides to fall back on.
pub fn encoding_digest<M: SystemModel + ?Sized>(model: &M, state: &M::State) -> Option<u128> {
    // One call per replica per replayed step: the encoding goes into a
    // per-thread buffer that keeps its capacity. It is taken out for the
    // call, so a `state_encode` that itself asks for a digest finds an empty
    // buffer rather than this one.
    let mut buf = DIGEST_SCRATCH.take();
    buf.clear();
    let digest = model
        .state_encode(state, &mut buf)
        .then(|| er_pi_rdl::digest128(&buf));
    DIGEST_SCRATCH.set(buf);
    digest
}

/// Appends every replica's canonical encoding to `out`, each length-prefixed
/// so adjacent replicas can never alias. `false` when the model declines
/// [`SystemModel::state_encode`] (`out` is then unspecified).
pub(crate) fn encode_states<M: SystemModel + ?Sized>(
    model: &M,
    states: &[M::State],
    out: &mut Vec<u8>,
) -> bool {
    for state in states {
        let at = out.len();
        out.extend_from_slice(&[0u8; 8]); // length placeholder
        if !model.state_encode(state, out) {
            return false;
        }
        let len = (out.len() - at - 8) as u64;
        out[at..at + 8].copy_from_slice(&len.to_le_bytes());
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_outcome_constructors() {
        assert!(OpOutcome::failed("nope").is_failed());
        assert!(!OpOutcome::Applied.is_failed());
        assert!(!OpOutcome::observed(Value::from(1)).is_failed());
        match OpOutcome::failed("reason") {
            OpOutcome::Failed { reason } => assert_eq!(&*reason, "reason"),
            _ => unreachable!(),
        }
        // A reason reads as its text, however it is held.
        let owned = OpOutcome::failed(String::from("reason"));
        assert_eq!(owned, OpOutcome::failed("reason"));
        assert_eq!(format!("{owned:?}"), r#"Failed { reason: "reason" }"#);
        let OpOutcome::Failed { reason } = owned else {
            unreachable!()
        };
        assert_eq!(reason.to_string(), "reason");
    }

    struct Dummy;

    impl SystemModel for Dummy {
        type State = u32;

        fn replicas(&self) -> usize {
            3
        }

        fn init(&self, replica: ReplicaId) -> u32 {
            u32::from(replica.raw())
        }

        fn apply(&self, states: &mut [u32], event: &Event) -> OpOutcome {
            states[event.replica.index()] += 1;
            OpOutcome::Applied
        }

        fn observe(&self, state: &u32) -> Value {
            Value::from(i64::from(*state))
        }
    }

    #[test]
    fn init_all_builds_one_state_per_replica() {
        let states = Dummy.init_all();
        assert_eq!(states, vec![0, 1, 2]);
    }

    #[test]
    fn default_state_size_hint_is_shallow_size() {
        assert_eq!(Dummy.state_size_hint(&7), std::mem::size_of::<u32>());
    }

    #[test]
    fn default_state_digest_declines() {
        assert_eq!(Dummy.state_digest(&[1, 2, 3]), None);
    }

    struct Encodable;

    impl SystemModel for Encodable {
        type State = u32;

        fn replicas(&self) -> usize {
            2
        }

        fn init(&self, replica: ReplicaId) -> u32 {
            u32::from(replica.raw())
        }

        fn apply(&self, _states: &mut [u32], _event: &Event) -> OpOutcome {
            OpOutcome::Applied
        }

        fn observe(&self, state: &u32) -> Value {
            Value::from(i64::from(*state))
        }

        fn state_encode(&self, state: &u32, out: &mut Vec<u8>) -> bool {
            out.extend_from_slice(&state.to_le_bytes());
            true
        }
    }

    /// Encodes its state as the digest of a one-replica system holding it:
    /// `state_digest` re-entered from inside `state_encode`.
    struct Nested;

    impl SystemModel for Nested {
        type State = u32;

        fn replicas(&self) -> usize {
            2
        }

        fn init(&self, _replica: ReplicaId) -> u32 {
            0
        }

        fn apply(&self, _states: &mut [u32], _event: &Event) -> OpOutcome {
            OpOutcome::Applied
        }

        fn observe(&self, state: &u32) -> Value {
            Value::from(i64::from(*state))
        }

        fn state_encode(&self, state: &u32, out: &mut Vec<u8>) -> bool {
            let inner = Encodable.state_digest(&[*state]).expect("encodable");
            out.extend_from_slice(&inner.to_le_bytes());
            true
        }
    }

    #[test]
    fn state_digest_scratch_survives_reuse_and_reentry() {
        // A long encoding followed by a short one must not leak stale bytes.
        let long = Encodable.state_digest(&[1, 2]).expect("encodable");
        let short = Encodable.state_digest(&[1]).expect("encodable");
        assert_ne!(long, short);
        assert_eq!(Encodable.state_digest(&[1, 2]), Some(long));
        assert_eq!(Dummy.state_digest(&[1, 2, 3]), None);
        assert_eq!(Encodable.state_digest(&[1]), Some(short));

        let mut by_hand = 0;
        for state in [7u32, 9] {
            let encoded = er_pi_rdl::digest128(&state.to_le_bytes());
            let inner = er_pi_rdl::digest128_fold(0, encoded);
            assert_eq!(Encodable.state_digest(&[state]), Some(inner));
            let replica = er_pi_rdl::digest128(&inner.to_le_bytes());
            assert_eq!(Nested.replica_digest(&state), Some(replica));
            by_hand = er_pi_rdl::digest128_fold(by_hand, replica);
        }
        assert_eq!(Nested.state_digest(&[7, 9]), Some(by_hand));
    }

    /// Answers every replica from a fixed table: `state_digest` must be
    /// built from `replica_digest` alone, never from a fresh encoding.
    struct Remembering;

    impl SystemModel for Remembering {
        type State = u32;

        fn replicas(&self) -> usize {
            2
        }

        fn init(&self, _replica: ReplicaId) -> u32 {
            0
        }

        fn apply(&self, _states: &mut [u32], _event: &Event) -> OpOutcome {
            OpOutcome::Applied
        }

        fn observe(&self, state: &u32) -> Value {
            Value::from(i64::from(*state))
        }

        fn state_encode(&self, _state: &u32, _out: &mut Vec<u8>) -> bool {
            panic!("the digest was remembered: nothing to encode")
        }

        fn replica_digest(&self, state: &u32) -> Option<u128> {
            Encodable.replica_digest(state)
        }
    }

    #[test]
    fn state_digest_is_a_fold_of_replica_digests() {
        assert_eq!(
            Remembering.state_digest(&[3, 4]),
            Encodable.state_digest(&[3, 4])
        );
        assert_eq!(Dummy.replica_digest(&1), None);
    }

    #[test]
    fn state_digest_distinguishes_states_and_replica_boundaries() {
        let m = Encodable;
        let d1 = m.state_digest(&[1, 2]).expect("encodable");
        assert_eq!(m.state_digest(&[1, 2]), Some(d1), "deterministic");
        assert_ne!(m.state_digest(&[2, 1]), Some(d1), "per-replica placement");
        assert_ne!(m.state_digest(&[1, 3]), Some(d1));
    }
}
