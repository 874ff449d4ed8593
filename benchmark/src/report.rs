//! Turning samples and ledgers into the named metrics the benchmark
//! prints, and the JSON result line that ends every run.

use crate::ledger::{Layer, Totals};
use crate::{JobSample, Ops};
use pi2_bench::perf::{median, percentile_sorted};

/// One named metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// The end-to-end metrics of a run: the median over its repetitions of
/// each per-repetition reading (cells pooled across repetitions for the
/// per-cell median).
pub fn end_to_end(samples: &[JobSample]) -> Vec<Metric> {
    let med = |f: &dyn Fn(&JobSample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    let mut cells: Vec<f64> = samples
        .iter()
        .flat_map(|s| s.cell_ms.iter().copied())
        .collect();
    cells.sort_by(f64::total_cmp);
    vec![
        metric("wall_s", med(&|s| s.wall_s), "s"),
        metric("setup_s", med(&|s| s.setup_s), "s"),
        metric("events_per_s", med(&|s| s.events as f64 / s.wall_s), "1/s"),
        metric("cpu_s", med(&|s| s.cpu_s), "s"),
        metric("peak_rss_mb", med(&|s| s.peak_rss_mb), "MB"),
        metric("cell_ms_p50", percentile_sorted(&cells, 0.5), "ms"),
    ]
}

/// Everything a traced run measured, beside the ledger itself.
#[derive(Clone, Debug, Default)]
pub struct LayerInputs {
    /// The traced pass's spans and loop time.
    pub totals: Totals,
    /// Host time of the same loops in the untraced reference pass, ns.
    pub untraced_loop_ns: f64,
    /// Allocator calls inside the traced loops.
    pub loop_allocs: u64,
    /// Deterministic counts summed over the traced pass's runs.
    pub counts: crate::Counts,
    /// Mean set-up time per cell of the untraced reference pass, ms.
    pub setup_ms: f64,
    /// Flows registered by the traced pass.
    pub flows_added: u64,
    /// Worker idle share of the reference pass's sweep wall time.
    pub idle_frac: f64,
    /// P90 host ms per cell of the reference pass (0 below 100 cells).
    pub cell_ms_p90: f64,
    /// Bytes the traced pass's trace sinks wrote.
    pub trace_bytes: u64,
    /// `Sim::save` host ms per call.
    pub ckpt_save_ms: f64,
    /// `Sim::restore` host ms per call.
    pub ckpt_restore_ms: f64,
    /// Checkpoint size, bytes.
    pub ckpt_bytes: u64,
    /// Scrape latency from when each scrape was due, ms.
    pub scrape_ms: Vec<f64>,
    /// How late the scrape generator ran at worst, ms.
    pub scrape_lag_ms_max: f64,
}

/// The per-layer metrics of a traced run, in a fixed order and with a
/// fixed name set for every workload (layers a workload never calls read
/// zero).
pub fn per_layer(inp: &LayerInputs) -> Vec<Metric> {
    let mut out = Vec::new();
    for l in Layer::ALL {
        let s = inp.totals.layer(l);
        let [p50, p99] = s.hist.quantiles([0.5, 0.99]);
        let (p50, p99) = if s.calls == 0 {
            (0.0, 0.0)
        } else {
            (p50 as f64, p99 as f64)
        };
        out.push(metric(
            &format!("{}.calls", l.name()),
            s.calls as f64,
            "count",
        ));
        out.push(metric(
            &format!("{}.self_ns", l.name()),
            s.mean_self_ns(),
            "ns",
        ));
        out.push(metric(&format!("{}.p50_ns", l.name()), p50, "ns"));
        out.push(metric(&format!("{}.p99_ns", l.name()), p99, "ns"));
    }
    let per_event = |x: f64| {
        if inp.counts.events == 0 {
            0.0
        } else {
            x / inp.counts.events as f64
        }
    };
    let mut scrapes = inp.scrape_ms.clone();
    scrapes.sort_by(f64::total_cmp);
    let q = |p: f64| {
        if scrapes.is_empty() {
            0.0
        } else {
            percentile_sorted(&scrapes, p)
        }
    };
    let loop_ns = inp.totals.loop_ns;
    let frac = |x: f64, of: f64| if of > 0.0 { x / of } else { 0.0 };
    out.extend([
        metric("experiments.setup_ms", inp.setup_ms, "ms"),
        metric("experiments.flows_added", inp.flows_added as f64, "count"),
        metric("experiments.runner.idle_frac", inp.idle_frac, "ratio"),
        metric("experiments.cell_ms_p90", inp.cell_ms_p90, "ms"),
        metric("netsim.events", inp.counts.events as f64, "count"),
        metric(
            "netsim.allocs_per_event",
            per_event(inp.loop_allocs as f64),
            "1/event",
        ),
        metric("netsim.pkts_enqueued", inp.counts.enqueued as f64, "count"),
        metric("netsim.pkts_dropped", inp.counts.dropped as f64, "count"),
        metric("netsim.pkts_marked", inp.counts.marked as f64, "count"),
        metric("netsim.trace.bytes", inp.trace_bytes as f64, "bytes"),
        metric("netsim.ckpt.save_ms", inp.ckpt_save_ms, "ms"),
        metric("netsim.ckpt.restore_ms", inp.ckpt_restore_ms, "ms"),
        metric("netsim.ckpt.bytes", inp.ckpt_bytes as f64, "bytes"),
        metric("obs.scrape_ms_p50", q(0.5), "ms"),
        metric("obs.scrape_ms_p90", q(0.9), "ms"),
        metric("obs.scrapes", scrapes.len() as f64, "count"),
        metric("obs.gen_lag_ms_max", inp.scrape_lag_ms_max, "ms"),
        metric("ledger.loop_ms", loop_ns / 1e6, "ms"),
        metric(
            "ledger.unattributed_frac",
            frac(inp.totals.unattributed_ns(), loop_ns),
            "ratio",
        ),
        metric(
            "ledger.trace_overhead",
            frac(loop_ns, inp.untraced_loop_ns),
            "ratio",
        ),
    ]);
    out
}

/// Idle share of `workers` over a sweep's wall time, given the host
/// milliseconds each cell kept a worker busy.
pub(crate) fn idle_frac(cell_ms: &[f64], workers: usize, wall_s: f64) -> f64 {
    let busy_s: f64 = cell_ms.iter().sum::<f64>() / 1e3;
    let capacity_s = workers.min(cell_ms.len()).max(1) as f64 * wall_s;
    (1.0 - busy_s / capacity_s).max(0.0)
}

/// P90 of per-cell times, reported only with at least 100 cells (ten
/// samples beyond the percentile); 0 otherwise.
pub(crate) fn cell_p90(cell_ms: &[f64]) -> f64 {
    if cell_ms.len() < 100 {
        return 0.0;
    }
    let mut v = cell_ms.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, 0.9)
}

/// The JSON result line: `correct`, `attempted`, `failed`, and every
/// metric with its unit. Non-finite values cannot be JSON numbers; none
/// is expected, and one would print as 0.
pub fn result_line(ops: &Ops, correct: bool, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.attempted,
        ops.failed,
        body.join(", ")
    )
}
