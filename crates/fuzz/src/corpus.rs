//! The regression corpus: shrunk findings persisted as JSON files.
//!
//! Each corpus file holds one [`Finding`]; the filename embeds the case
//! fingerprint (`finding-<fingerprint:016x>.json`) so campaign runs can
//! match fresh findings against known ones without parsing. The corpus is
//! the fuzzing analogue of the bug catalogue: `tests/suite/fuzz_corpus.rs`
//! re-runs every file deterministically on each `cargo test`.

use std::fs;
use std::path::{Path, PathBuf};

use crate::oracle::Finding;

/// The filename a finding is stored under.
pub fn file_name(finding: &Finding) -> String {
    format!("finding-{:016x}.json", finding.fingerprint)
}

/// Loads every `*.json` finding in `dir`, sorted by filename so iteration
/// order (and thus campaign output) is stable. A missing directory is an
/// empty corpus.
pub fn load(dir: &Path) -> Result<Vec<(PathBuf, Finding)>, String> {
    let mut paths: Vec<PathBuf> = match fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
            .collect(),
        Err(_) => return Ok(Vec::new()),
    };
    paths.sort();
    let mut corpus = Vec::with_capacity(paths.len());
    for path in paths {
        let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let finding: Finding =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        corpus.push((path, finding));
    }
    Ok(corpus)
}

/// Saves a finding into `dir` (created if needed) under its canonical
/// filename. Returns the path written.
pub fn save(dir: &Path, finding: &Finding) -> Result<PathBuf, String> {
    fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(file_name(finding));
    let json = serde_json::to_string_pretty(finding).expect("findings are serializable");
    fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Returns `true` if the corpus already holds this fingerprint.
pub fn contains(corpus: &[(PathBuf, Finding)], fingerprint: u64) -> bool {
    corpus.iter().any(|(_, f)| f.fingerprint == fingerprint)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{FuzzCase, SpecEntry, SpecFault, Target, WorkloadSpec};
    use er_pi_model::FaultKind;

    fn finding() -> Finding {
        let case = FuzzCase {
            target: Target::Ledger,
            spec: WorkloadSpec {
                replicas: 2,
                entries: vec![
                    SpecEntry::Op {
                        replica: 0,
                        function: "credit".into(),
                        args: vec![5],
                    },
                    SpecEntry::SyncPair {
                        from: 0,
                        to: 1,
                        of: Some(0),
                    },
                ],
                chain_from: None,
            },
            faults: vec![SpecFault {
                anchor: 1,
                kind: FaultKind::Duplicate,
            }],
        };
        Finding {
            fingerprint: case.fingerprint(),
            case,
            assertion: "fuzz-exactly-once".into(),
            message: "replica 1 applied entry e0 twice".into(),
            fault_dependent: true,
        }
    }

    #[test]
    fn save_load_roundtrip_and_lookup() {
        let dir = std::env::temp_dir().join(format!("er-pi-corpus-{}", std::process::id()));
        let f = finding();
        let path = save(&dir, &f).unwrap();
        assert_eq!(path.file_name().unwrap().to_str().unwrap(), file_name(&f));
        let corpus = load(&dir).unwrap();
        assert_eq!(corpus.len(), 1);
        assert_eq!(corpus[0].1, f);
        assert!(contains(&corpus, f.fingerprint));
        assert!(!contains(&corpus, f.fingerprint ^ 1));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_directory_is_an_empty_corpus() {
        let corpus = load(Path::new("/nonexistent/er-pi-corpus")).unwrap();
        assert!(corpus.is_empty());
    }
}
