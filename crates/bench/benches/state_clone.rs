//! State-clone cost across the five subject models.
//!
//! Every snapshot the [`IncrementalExecutor`] keeps on its path is one
//! clone of the replica states (`Vec<State>`), resuming from one that is
//! still needed is another, and so are a subsumption memo and a stitched
//! tail. The subject states are copy-on-write cells
//! (`er_pi_rdl::Shared`), so each of those is one `Vec` of pointer bumps
//! (`tests/snapshot_allocs.rs` pins the one block); the copy is paid by the
//! next `apply`, for the one replica it writes. These benchmarks measure
//! the clone for a representative fully-populated state of each subject:
//! the four catalogue subjects via [`Bug::clone_probe`] (final states of
//! the bug's recorded order) and the `crdts` collection via a hand-built
//! workload, since Table 1 has no crdts bug.
//!
//! Observed scale: a full-workload snapshot of any subject clones in under
//! a tenth of a microsecond (`model.snapshot_clone_ns` of the benchmark's
//! traced run: 65–82 ns on all four workloads, where the deep copy took
//! 1.7–3.5 µs) and charges under a kilobyte of budget, and a path holds at
//! most `N - 1` of them per fault plan, so the 64 MiB
//! `DEFAULT_CACHE_BUDGET` never bites on these models (see DESIGN.md §10).
//!
//! [`IncrementalExecutor`]: er_pi::IncrementalExecutor

use criterion::{criterion_group, criterion_main, Criterion};

use er_pi::{InlineExecutor, SystemModel, TimeModel};
use er_pi_model::{ReplicaId, Value, Workload};
use er_pi_subjects::{Bug, CrdtsModel};

fn catalogue_probes(c: &mut Criterion) {
    let mut group = c.benchmark_group("state-clone");
    // One representative bug per catalogue subject, in Table 1 order.
    for name in ["Roshi-1", "OrbitDB-1", "ReplicaDB-1", "Yorkie-1"] {
        let probe = Bug::by_name(name).expect("catalogue bug").clone_probe();
        group.bench_function(name, |b| b.iter(|| probe.clone_states()));
    }
    group.finish();
}

fn crdts_probe(c: &mut Criterion) {
    // The fifth subject: a populated crdts-collection state (OR-set and
    // RGA entries across three replicas).
    let r = ReplicaId::new;
    let mut w = Workload::builder();
    for i in 0..8i64 {
        w.update(r((i % 3) as u16), "set_add", [Value::from(i)]);
        w.update(r((i % 3) as u16), "list_push", [Value::from(i)]);
    }
    let w: Workload = w.build();
    let model = CrdtsModel::new(3);
    let exec = InlineExecutor::execute(&model, &w, &w.recorded_order(), &TimeModel::paper_setup());
    let states = exec.states;

    let mut group = c.benchmark_group("state-clone");
    group.bench_function("crdts", |b| {
        b.iter(|| {
            let cloned = states.clone();
            cloned
                .iter()
                .map(|s| model.state_size_hint(s))
                .sum::<usize>()
        })
    });
    group.finish();
}

criterion_group!(benches, catalogue_probes, crdts_probe);
criterion_main!(benches);
