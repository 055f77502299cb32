//! A single replica: state + checkpointing + host profile.

use er_pi_model::{HostProfile, ReplicaId};

/// One replica of the replicated data system.
///
/// Wraps an RDL state with the checkpoint/reset facility ER-π needs: the
/// replay engine snapshots all replicas before executing an interleaving and
/// restores them afterwards, so interleavings cannot contaminate each other
/// (paper §4.3).
///
/// ```
/// use er_pi_model::ReplicaId;
/// use er_pi_rdl::GSet;
/// use er_pi_replica::Replica;
///
/// let mut r = Replica::new(ReplicaId::new(0), GSet::<i32>::new());
/// r.checkpoint();
/// r.state_mut().insert(1);
/// r.reset();
/// assert!(r.state().is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct Replica<T> {
    id: ReplicaId,
    state: T,
    checkpoint: Option<T>,
    host: HostProfile,
}

impl<T: Clone> Replica<T> {
    /// Creates a replica with the default host profile.
    pub fn new(id: ReplicaId, state: T) -> Self {
        Replica {
            id,
            state,
            checkpoint: None,
            host: HostProfile::default(),
        }
    }

    /// Creates a replica hosted on `host`.
    pub fn with_host(id: ReplicaId, state: T, host: HostProfile) -> Self {
        Replica {
            id,
            state,
            checkpoint: None,
            host,
        }
    }

    /// This replica's id.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// The host profile this replica runs on.
    pub fn host(&self) -> &HostProfile {
        &self.host
    }

    /// Immutable access to the replicated state.
    pub fn state(&self) -> &T {
        &self.state
    }

    /// Mutable access to the replicated state.
    pub fn state_mut(&mut self) -> &mut T {
        &mut self.state
    }

    /// Snapshots the current state; a later [`Replica::reset`] restores it.
    pub fn checkpoint(&mut self) {
        self.checkpoint = Some(self.state.clone());
    }

    /// Returns `true` if a checkpoint exists.
    pub fn has_checkpoint(&self) -> bool {
        self.checkpoint.is_some()
    }

    /// Restores the last checkpoint (keeping it for further resets).
    ///
    /// # Panics
    ///
    /// Panics if no checkpoint was taken.
    pub fn reset(&mut self) {
        self.state = self
            .checkpoint
            .as_ref()
            .expect("reset requires a prior checkpoint")
            .clone();
    }

    /// Replaces the state outright (used when installing initial states).
    pub fn install(&mut self, state: T) {
        self.state = state;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_pi_rdl::GSet;

    #[test]
    fn checkpoint_reset_roundtrip() {
        let mut r = Replica::new(ReplicaId::new(1), GSet::<i32>::new());
        r.state_mut().insert(1);
        r.checkpoint();
        r.state_mut().insert(2);
        assert_eq!(r.state().len(), 2);
        r.reset();
        assert_eq!(r.state().len(), 1);
        assert!(r.state().contains(&1));
        // Reset is repeatable.
        r.state_mut().insert(3);
        r.reset();
        assert_eq!(r.state().len(), 1);
    }

    #[test]
    #[should_panic(expected = "reset requires a prior checkpoint")]
    fn reset_without_checkpoint_panics() {
        let mut r = Replica::new(ReplicaId::new(0), GSet::<i32>::new());
        r.reset();
    }

    #[test]
    fn install_replaces_state() {
        let mut r = Replica::new(ReplicaId::new(0), GSet::<i32>::new());
        let mut s = GSet::new();
        s.insert(9);
        r.install(s);
        assert!(r.state().contains(&9));
    }

    #[test]
    fn host_profile_is_accessible() {
        let r = Replica::with_host(
            ReplicaId::new(2),
            GSet::<i32>::new(),
            HostProfile::raspberry_pi3(),
        );
        assert_eq!(r.host().name, "raspbian-rpi3");
        assert_eq!(r.id(), ReplicaId::new(2));
    }
}
