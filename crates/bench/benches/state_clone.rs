//! State-clone cost across the five subject models — the number that
//! justifies the incremental executor's default snapshot budget.
//!
//! Every snapshot the [`IncrementalExecutor`] keeps on its path is one
//! deep clone of the replica states (`Vec<State>`), and resuming from one
//! that is still needed is another clone on the way out — about 1.1 clones
//! per run under a lexicographic order with lookahead. Incremental replay
//! is only a win while that is cheaper than re-applying the skipped prefix
//! events. These benchmarks
//! measure that clone for a representative fully-populated state of each
//! subject: the four catalogue subjects via [`Bug::clone_probe`] (final
//! states of the bug's recorded order) and the `crdts` collection via a
//! hand-built workload, since Table 1 has no crdts bug.
//!
//! Observed scale: every subject's full-workload snapshot clones in about
//! a microsecond and charges under a kilobyte of budget, and a path holds
//! at most `N - 1` of them per fault plan, so the 64 MiB
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
