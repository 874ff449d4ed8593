//! The benchmark's own checks, on a tiny size of each workload:
//! decorated and bare runs agree exactly, the ledger closes, and every
//! layer is called on exactly the workloads the README table says.

use pi2_benchmark::grid::{self, GridSize};
use pi2_benchmark::ledger::Layer;
use pi2_benchmark::mice::{self, MiceSize};
use pi2_benchmark::observed::{self, ObservedSize};
use pi2_benchmark::report::{per_layer, LayerInputs};
use std::path::PathBuf;

const SEED: u64 = 7;
const GRID: GridSize = GridSize { secs: 2, cells: 4 };
const MICE: MiceSize = MiceSize {
    secs: 6,
    rate_scale: 1,
    mice_per_sec: 4.0,
};
const OBSERVED: ObservedSize = ObservedSize {
    rate: "10M",
    secs: 4,
    flows: "1xcubic,1xdctcp",
    bg_flows: "2xreno",
};

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn traced(workload: &str) -> LayerInputs {
    let (inp, ops) = match workload {
        "paper_grid" => grid::traced(SEED, GRID),
        "mice_multihop" => mice::traced(SEED, MICE),
        _ => {
            let bin = observed::pi2sim_binary().expect("pi2sim builds");
            observed::traced(&bin, SEED, OBSERVED, &scratch("observed_traced"))
        }
    };
    assert!(ops.attempted > 0);
    assert_eq!(ops.failed, 0, "{workload}: {:?}", ops.notes);
    inp
}

#[test]
fn decorated_and_bare_runs_agree() {
    // The grid and mice traced passes fail an operation whenever the
    // decorated run's counts or result digest differ from the bare run's
    // (and, for the grid, from `run_cell`'s); `traced` asserts none did.
    traced("paper_grid");
    traced("mice_multihop");
    let trace = scratch("replay").join("trace.jsonl");
    let bare = observed::replay(OBSERVED, SEED, false, &trace).unwrap();
    let timed = observed::replay(OBSERVED, SEED, true, &trace).unwrap();
    assert_eq!(bare.metrics_json, timed.metrics_json);
    assert_eq!(bare.loop_counts, timed.loop_counts);
    assert_eq!(bare.trace_bytes, timed.trace_bytes);
    assert_eq!(bare.ckpt_bytes, timed.ckpt_bytes);
}

#[test]
fn ledger_closes_on_every_workload() {
    for w in ["paper_grid", "mice_multihop", "observed_resume"] {
        let inp = traced(w);
        let t = &inp.totals;
        // Every loop event is one timed step.
        assert_eq!(t.layer(Layer::Step).calls, inp.counts.events, "{w}");
        // Self times exclude children and span overheads, so together
        // they cannot exceed the loop they ran in; the remainder closes
        // the books exactly.
        assert!(t.loop_ns > 0.0, "{w}");
        assert!(
            t.unattributed_ns() >= 0.0,
            "{w}: self times exceed the loop"
        );
        let sum = t.attributed_ns() + t.unattributed_ns();
        assert!((sum - t.loop_ns).abs() <= 1e-6 * t.loop_ns, "{w}");
        let m = per_layer(&inp);
        let get = |name: &str| m.iter().find(|x| x.name == name).unwrap().value;
        let frac = get("ledger.unattributed_frac");
        assert!((0.0..1.0).contains(&frac), "{w}: unattributed_frac {frac}");
        assert!(get("ledger.trace_overhead") > 0.0, "{w}");
    }
}

#[test]
fn layers_are_called_where_the_table_says() {
    use Layer::*;
    // (workload, layers with calls, layers without)
    let table: [(&str, &[Layer], &[Layer]); 3] = [
        (
            "paper_grid",
            &[
                OnAck, OnDeliver, OnTimer, OnStart, AqmEnqueue, AqmUpdate, QdiscOffer, QdiscPop,
                Step,
            ],
            &[ExtraHop, Trace, FluidTick],
        ),
        (
            "mice_multihop",
            &[
                OnAck, OnDeliver, OnTimer, OnStart, AqmEnqueue, AqmUpdate, QdiscOffer, QdiscPop,
                ExtraHop, Step,
            ],
            &[Trace, FluidTick],
        ),
        (
            "observed_resume",
            &[
                OnAck, OnDeliver, OnTimer, OnStart, AqmEnqueue, AqmUpdate, QdiscOffer, QdiscPop,
                Step, Trace, FluidTick,
            ],
            &[ExtraHop],
        ),
    ];
    for (w, used, unused) in table {
        let inp = traced(w);
        for l in used {
            assert!(
                inp.totals.layer(*l).calls > 0,
                "{w}: {} never called",
                l.name()
            );
        }
        for l in unused {
            assert_eq!(inp.totals.layer(*l).calls, 0, "{w}: {} called", l.name());
        }
        let observed = w == "observed_resume";
        assert_eq!(inp.trace_bytes > 0, observed, "{w}: trace bytes");
        assert_eq!(inp.ckpt_bytes > 0, observed, "{w}: checkpoint bytes");
        assert_eq!(!inp.scrape_ms.is_empty(), observed, "{w}: scrapes");
        assert!(inp.flows_added > 0 && inp.counts.enqueued > 0, "{w}");
    }
}
