//! The campaign submission schema: what a `POST /campaigns` body means.
//!
//! A spec names exactly one subject — a catalogue bug by name, or a
//! recorded trace as a [`FuzzCase`] (workload spec + fault schedule) — plus
//! the replay knobs the paper's campaigns vary: the interleaving cap (the
//! per-campaign run budget), stop-on-first, incremental replay and the two
//! deep-pruning layers. All are optional in the JSON and mean the same for
//! both subject kinds; [`CampaignSpec::validate`] resolves them over
//! [`ReplayConfig::default`] (DESIGN.md §3.1 has why the schema is not the
//! config itself) and rejects malformed submissions *before* a campaign ID
//! is assigned, so the queue only ever holds runnable work.

use er_pi::ReplayConfig;
use er_pi_fuzz::FuzzCase;
use er_pi_subjects::Bug;
use serde::Deserialize;

/// Default scheduling priority (0 is the most urgent; FIFO within equal
/// priority).
pub const DEFAULT_PRIORITY: u8 = 5;

/// A `POST /campaigns` request body, as deserialized. Every field is
/// optional except the subject choice: exactly one of `bug` / `trace`
/// must be present.
#[derive(Debug, Clone, Deserialize)]
pub struct CampaignSpec {
    /// Submitting tenant; campaigns from the same tenant share its queue
    /// position fairness. Defaults to `"anon"`.
    #[serde(default)]
    pub tenant: Option<String>,
    /// Scheduling priority, 0 (most urgent) .. 9. Defaults to 5.
    #[serde(default)]
    pub priority: Option<u8>,
    /// Replay a catalogue bug by name (e.g. `"Roshi-1"`).
    #[serde(default)]
    pub bug: Option<String>,
    /// Replay a recorded trace: a workload spec plus fault schedule in the
    /// fuzzer's exchange format.
    #[serde(default)]
    pub trace: Option<FuzzCase>,
    /// Per-campaign run budget: replay at most this many interleavings.
    #[serde(default)]
    pub cap: Option<usize>,
    /// Stop at the first violating interleaving.
    #[serde(default)]
    pub stop_on_first_violation: Option<bool>,
    /// Prefix-sharing incremental replay (default on).
    #[serde(default)]
    pub incremental: Option<bool>,
    /// State-hash subsumption (default off; reports are byte-identical
    /// either way, subsumed runs show up in the cache counters and the
    /// progress stream).
    #[serde(default)]
    pub subsumption: Option<bool>,
    /// Sleep-set (DPOR-style) pruning (default off; the violation set is
    /// unchanged, the replayed representatives may differ).
    #[serde(default)]
    pub sleep_sets: Option<bool>,
}

/// The subject a validated campaign replays.
#[derive(Debug)]
pub enum SubjectSpec {
    /// A catalogue bug.
    Bug(Box<Bug>),
    /// A submitted trace.
    Trace(Box<FuzzCase>),
}

impl SubjectSpec {
    /// Short display label for status payloads (`"bug:Roshi-1"`,
    /// `"trace:ledger"`).
    pub fn label(&self) -> String {
        match self {
            SubjectSpec::Bug(bug) => format!("bug:{}", bug.name),
            SubjectSpec::Trace(case) => format!("trace:{:?}", case.target).to_lowercase(),
        }
    }
}

/// A spec that passed validation: defaults filled, subject resolved.
#[derive(Debug)]
pub struct ValidSpec {
    /// Submitting tenant.
    pub tenant: String,
    /// Scheduling priority, clamped to 0..=9.
    pub priority: u8,
    /// What to replay.
    pub subject: SubjectSpec,
    /// How to replay it: the spec's replay keys over
    /// [`ReplayConfig::default`], for either subject kind.
    pub replay: ReplayConfig,
}

impl CampaignSpec {
    /// Resolves defaults and checks the spec is runnable. The returned
    /// error string is the HTTP 400 body — it names the offending field.
    pub fn validate(self) -> Result<ValidSpec, String> {
        let subject = match (self.bug, self.trace) {
            (Some(_), Some(_)) => {
                return Err("spec names both 'bug' and 'trace'; pick one".to_owned())
            }
            (None, None) => return Err("spec names neither 'bug' nor 'trace'".to_owned()),
            (Some(name), None) => match Bug::by_name(&name) {
                Some(bug) => SubjectSpec::Bug(Box::new(bug)),
                None => return Err(format!("unknown catalogue bug '{name}'")),
            },
            (None, Some(case)) => {
                // The fuzzer's validate covers intra-workload references;
                // the degenerate shapes and fault anchors below would only
                // surface as a panic inside `FuzzCase::build`, so the
                // daemon rejects them at admission.
                if case.spec.replicas == 0 {
                    return Err("invalid trace: replicas must be at least 1".to_owned());
                }
                if case.spec.entries.is_empty() {
                    return Err("invalid trace: workload has no entries".to_owned());
                }
                case.spec
                    .validate()
                    .map_err(|e| format!("invalid trace: {e}"))?;
                if let Some(fault) = case
                    .faults
                    .iter()
                    .find(|f| f.anchor >= case.spec.entries.len())
                {
                    return Err(format!(
                        "invalid trace: fault anchor {} out of range",
                        fault.anchor
                    ));
                }
                SubjectSpec::Trace(Box::new(case))
            }
        };
        let default = ReplayConfig::default();
        let replay = ReplayConfig {
            cap: self.cap.unwrap_or(default.cap),
            stop_on_first_violation: self
                .stop_on_first_violation
                .unwrap_or(default.stop_on_first_violation),
            incremental: self.incremental.unwrap_or(default.incremental),
            subsumption: self.subsumption.unwrap_or(default.subsumption),
            sleep_sets: self.sleep_sets.unwrap_or(default.sleep_sets),
            ..default
        };
        if replay.cap == 0 {
            return Err("cap must be at least 1".to_owned());
        }
        Ok(ValidSpec {
            tenant: self.tenant.unwrap_or_else(|| "anon".to_owned()),
            priority: self.priority.unwrap_or(DEFAULT_PRIORITY).min(9),
            subject,
            replay,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_bug_spec_fills_defaults() {
        let spec: CampaignSpec = serde_json::from_str(r#"{"bug": "Roshi-1"}"#).expect("parses");
        let valid = spec.validate().expect("valid");
        assert_eq!(valid.tenant, "anon");
        assert_eq!(valid.priority, DEFAULT_PRIORITY);
        assert_eq!(valid.replay, ReplayConfig::default());
        assert_eq!(valid.subject.label(), "bug:Roshi-1");
    }

    const LEDGER_TRACE: &str = r#""trace": {
        "target": "Ledger",
        "spec": {
            "replicas": 2,
            "entries": [
                {"Op": {"replica": 0, "function": "credit", "args": [5]}},
                {"SyncPair": {"from": 0, "to": 1, "of": 0}}
            ],
            "chain_from": null
        },
        "faults": [{"anchor": 1, "kind": "Duplicate"}]
    }"#;

    /// The wire-to-engine parity table: each of the five replay keys, set
    /// to a non-default value, moves exactly the `ReplayConfig` field of
    /// the same name and no other — for both subject kinds. A key added to
    /// the schema and forgotten in `validate()` fails here by name.
    #[test]
    fn each_wire_key_resolves_into_exactly_its_replay_field() {
        // Exhaustive on purpose: a key added to the schema stops this from
        // compiling until it has a row below.
        let CampaignSpec {
            tenant: _,
            priority: _,
            bug: _,
            trace: _,
            cap: _,
            stop_on_first_violation: _,
            incremental: _,
            subsumption: _,
            sleep_sets: _,
        } = serde_json::from_str("{}").expect("parses");
        let default = ReplayConfig::default();
        let table = [
            (r#""cap": 77"#, ReplayConfig { cap: 77, ..default }),
            (
                r#""stop_on_first_violation": true"#,
                ReplayConfig {
                    stop_on_first_violation: true,
                    ..default
                },
            ),
            (
                r#""incremental": false"#,
                ReplayConfig {
                    incremental: false,
                    ..default
                },
            ),
            (
                r#""subsumption": true"#,
                ReplayConfig {
                    subsumption: true,
                    ..default
                },
            ),
            (
                r#""sleep_sets": true"#,
                ReplayConfig {
                    sleep_sets: true,
                    ..default
                },
            ),
        ];
        for subject in [r#""bug": "Roshi-1""#, LEDGER_TRACE] {
            let bare: CampaignSpec =
                serde_json::from_str(&format!("{{{subject}}}")).expect("parses");
            assert_eq!(bare.validate().expect("valid").replay, default);
            for (key, expected) in &table {
                let spec: CampaignSpec =
                    serde_json::from_str(&format!("{{{subject}, {key}}}")).expect("parses");
                let valid = spec.validate().expect("valid");
                assert_ne!(*expected, default, "{key} must flip its field");
                assert_eq!(valid.replay, *expected, "{key}");
            }
        }
    }

    #[test]
    fn a_trace_spec_round_trips() {
        let json = format!(r#"{{"tenant": "team-a", "priority": 2, "cap": 500, {LEDGER_TRACE}}}"#);
        let spec: CampaignSpec = serde_json::from_str(&json).expect("parses");
        let valid = spec.validate().expect("valid");
        assert_eq!(valid.tenant, "team-a");
        assert_eq!(valid.priority, 2);
        assert_eq!(valid.replay.cap, 500);
        assert_eq!(valid.subject.label(), "trace:ledger");
    }

    #[test]
    fn malformed_specs_name_the_offence() {
        let both: CampaignSpec = serde_json::from_str(
            r#"{"bug": "Roshi-1", "trace": {"target": "Crdts", "spec": {"replicas": 2, "entries": [], "chain_from": null}, "faults": []}}"#,
        )
        .expect("parses");
        assert!(both.validate().unwrap_err().contains("pick one"));

        let neither: CampaignSpec = serde_json::from_str("{}").expect("parses");
        assert!(neither.validate().unwrap_err().contains("neither"));

        let unknown: CampaignSpec =
            serde_json::from_str(r#"{"bug": "No-Such-Bug"}"#).expect("parses");
        assert!(unknown.validate().unwrap_err().contains("No-Such-Bug"));

        let empty_trace: CampaignSpec = serde_json::from_str(
            r#"{"trace": {"target": "Crdts", "spec": {"replicas": 2, "entries": [], "chain_from": null}, "faults": []}}"#,
        )
        .expect("parses");
        assert!(empty_trace
            .validate()
            .unwrap_err()
            .contains("invalid trace"));

        let zero_cap: CampaignSpec =
            serde_json::from_str(r#"{"bug": "Roshi-1", "cap": 0}"#).expect("parses");
        assert!(zero_cap.validate().unwrap_err().contains("cap"));
    }
}
