//! `paper_grid`: the Fig 15–18 coexistence grid — {PIE, coupled PI2} ×
//! {Cubic/ECN-Cubic, Cubic/DCTCP} × 5 links × 5 RTTs — exactly as the
//! figures regenerate it (`grid_cells()` + `run_cell`, fanned out over
//! the sweep runner's workers).
//!
//! `run_cell` builds its simulator internally, so the traced pass
//! rebuilds each cell from the same public calls `Scenario::run` makes,
//! with the decorators in place; its counts must equal `run_cell`'s.

use crate::decor::{TimedAqm, TimedQdisc};
use crate::report::{cell_p90, idle_frac, LayerInputs};
use crate::{
    check_conservation, digest, guarded, host, ledger, run_traced, run_untraced, seed_offset, tcp,
    Counts, JobSample, LoopCost, Ops,
};
use pi2_experiments::grid::{grid_cells, run_cell, GridCell, Pair};
use pi2_experiments::runner::par_map_threads;
use pi2_experiments::AqmKind;
use pi2_netsim::{BottleneckQueue, MonitorConfig, PathConf, Qdisc, QueueConfig, Sim, SimConfig};
use pi2_simcore::{Duration, Time};
use pi2_transport::{CcKind, EcnSetting, TcpConfig};
use std::time::Instant;

/// How much simulated work the job holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GridSize {
    /// Simulated seconds per cell.
    pub secs: u64,
    /// Cells, spread evenly over the 100-cell grid.
    pub cells: usize,
}

impl GridSize {
    /// The benchmark's size: the full grid at 20 simulated s per cell.
    pub const STANDARD: GridSize = GridSize {
        secs: 20,
        cells: 100,
    };
}

/// Sweep workers, as on the 2-core host the figures are made on.
const WORKERS: usize = 2;

/// One grid cell: AQM, flow pair, link Mb/s, RTT ms, cell seed.
pub(crate) type Cell = (AqmKind, Pair, u64, i64, u64);

/// The job's cells: the figures' work list, every seed shifted by the
/// benchmark seed's offset.
pub(crate) fn cells(seed: u64, size: GridSize) -> Vec<Cell> {
    let all = grid_cells();
    let step = (all.len() / size.cells.clamp(1, all.len())).max(1);
    all.into_iter()
        .step_by(step)
        .take(size.cells)
        .map(|(aqm, pair, link, rtt, s)| (aqm, pair, link, rtt, s ^ seed_offset(seed)))
        .collect()
}

/// A cell's display name.
pub(crate) fn cell_name(c: &Cell) -> String {
    format!("{}/{}/{}M/{}ms", c.0.name(), c.1.ecn_label(), c.2, c.3)
}

fn grid_counts(g: &GridCell) -> Counts {
    Counts {
        events: g.events_processed,
        enqueued: g.counts.enqueued,
        marked: g.counts.marked,
        dropped: g.counts.dropped,
        dequeued: g.counts.dequeued,
        aqm_updates: g.aqm_updates,
    }
}

/// Buffer of every grid cell, packets (`Scenario`'s default).
const BUFFER_PKTS: u64 = 40_000;

/// `run_cell` hides the final queue, so conservation is bounded rather
/// than exact: departures never exceed admissions, and the difference
/// fits the buffer.
fn check_cell(g: &GridCell) -> Result<(), String> {
    let c = g.counts;
    if c.dequeued == 0 || g.events_processed == 0 {
        return Err("no packets served".to_string());
    }
    if c.dequeued > c.enqueued || c.enqueued - c.dequeued > BUFFER_PKTS || c.marked > c.enqueued {
        return Err(format!("conservation: {c:?}"));
    }
    Ok(())
}

/// The result digest: the cell's counts, both flows' throughput and the
/// sojourn median and P99, bit for bit.
fn result_digest(counts: &Counts, tputs: (f64, f64), sojourn_ms: (f64, f64)) -> u64 {
    let mut w = counts.words().to_vec();
    w.extend([tputs.0, tputs.1, sojourn_ms.0, sojourn_ms.1].map(f64::to_bits));
    digest(&w)
}

fn cell_digest(g: &GridCell) -> u64 {
    result_digest(
        &grid_counts(g),
        g.tputs,
        (g.sojourn_p50_ms, g.sojourn_p99_ms),
    )
}

/// `run_cell` over every cell on the sweep workers: results (or the
/// failure) and host ms per cell, plus the sweep's wall seconds.
/// One `run_cell` outcome and its host ms.
type CellOutcome = (Result<GridCell, String>, f64);

fn run_cells(cells: &[Cell], secs: u64) -> (Vec<CellOutcome>, f64) {
    let t0 = Instant::now();
    let out = par_map_threads(WORKERS, cells, |c| {
        let t = Instant::now();
        let r = guarded(|| Ok(run_cell(c.0.clone(), c.1, c.2, c.3, secs, c.4)));
        (r, t.elapsed().as_secs_f64() * 1e3)
    });
    (out, t0.elapsed().as_secs_f64())
}

/// Build a cell up to its first event with the calls `Scenario::run`
/// makes for `run_cell`; returns the simulator and the flows it added.
pub(crate) fn build(c: &Cell, secs: u64, traced: bool) -> (Sim, u64) {
    let (aqm, pair, link, rtt_ms, seed) = c;
    let rtt = Duration::from_millis(*rtt_ms);
    let queue = QueueConfig {
        rate_bps: link * 1_000_000,
        buffer_bytes: 40_000 * 1500,
    };
    let qdisc: Box<dyn Qdisc> = if traced {
        let fifo = BottleneckQueue::new(queue, Box::new(TimedAqm(aqm.build())));
        Box::new(TimedQdisc::at_hop(0, Box::new(fifo)))
    } else {
        aqm.build_qdisc(queue)
    };
    let mut sim = Sim::with_qdisc(
        SimConfig {
            queue,
            seed: *seed,
            monitor: MonitorConfig {
                sample_interval: Duration::from_secs(1),
                warmup: Duration::from_secs(secs as i64 / 3),
                ..MonitorConfig::default()
            },
        },
        qdisc,
    );
    sim.core.enable_metrics();
    let expected_samples = secs as usize + 2;
    let expected_pkts = (queue.rate_bps as f64 * secs as f64 / (8.0 * 1500.0)) as usize;
    sim.core
        .monitor
        .reserve(expected_samples, expected_pkts.min(1 << 21));
    let ecn_flow = match pair {
        Pair::CubicVsEcnCubic => (CcKind::Cubic, EcnSetting::Classic),
        Pair::CubicVsDctcp => (CcKind::Dctcp, EcnSetting::Scalable),
    };
    for (label, (cc, ecn)) in [
        ("cubic", (CcKind::Cubic, EcnSetting::NotEcn)),
        (pair.ecn_label(), ecn_flow),
    ] {
        sim.add_flow(PathConf::symmetric(rtt), label, Time::ZERO, move |id| {
            tcp(id, cc, ecn, TcpConfig::default(), traced)
        });
    }
    (sim, 2)
}

/// One repetition of the untraced job: a set-up pass over every cell
/// (each built to its first event, timed, then dropped), then the grid
/// through `run_cell`.
pub fn job(seed: u64, size: GridSize) -> JobSample {
    let cells = cells(seed, size);
    let mut setup_s = 0.0;
    for c in &cells {
        let t = Instant::now();
        let built = build(c, size.secs, false);
        setup_s += t.elapsed().as_secs_f64();
        drop(built);
    }
    let cpu0 = host::cpu_s("self").unwrap_or(0.0);
    let (results, wall_s) = run_cells(&cells, size.secs);
    let cpu_s = host::cpu_s("self").unwrap_or(0.0) - cpu0;
    let mut s = JobSample {
        wall_s,
        setup_s,
        cpu_s,
        peak_rss_mb: host::peak_rss_mb("self").unwrap_or(0.0),
        ..JobSample::default()
    };
    for (c, (r, ms)) in cells.iter().zip(results) {
        let name = cell_name(c);
        s.cell_ms.push(ms);
        let outcome = r.and_then(|g| {
            s.events += g.events_processed;
            s.digests.push((name.clone(), cell_digest(&g)));
            check_cell(&g)
        });
        s.ops.record(&name, outcome);
    }
    s
}

/// What one replica cell reports back from a worker.
struct Replica {
    counts: Counts,
    digest: u64,
    setup_ns: f64,
    cost: LoopCost,
    flows: u64,
    spans: ledger::Totals,
}

fn run_replica(c: &Cell, secs: u64, traced: bool) -> Result<Replica, String> {
    guarded(|| {
        ledger::take();
        let t = Instant::now();
        let (mut sim, flows) = build(c, secs, traced);
        let setup_ns = t.elapsed().as_nanos() as f64;
        let end = Time::from_secs(secs);
        let cost = if traced {
            run_traced(&mut sim, end)
        } else {
            run_untraced(&mut sim, end)
        };
        check_conservation(&sim)?;
        // `run_cell`'s readings, taken the way `run_cell` takes them.
        let m = &sim.core.monitor;
        let tput = |label: &str| {
            m.pooled_mean_tput_mbps(label) / m.flows_labelled(label).len().max(1) as f64
        };
        let tputs = (tput("cubic"), tput(c.1.ecn_label()));
        let sojourn_ms = sim.core.metrics().map_or((0.0, 0.0), |m| {
            let q = |p| m.sojourn().quantile(p) as f64 / 1e6;
            (q(0.5), q(0.99))
        });
        let counts = Counts::finish(&mut sim);
        Ok(Replica {
            counts,
            digest: result_digest(&counts, tputs, sojourn_ms),
            setup_ns,
            cost,
            flows,
            spans: ledger::take(),
        })
    })
}

/// The traced run: `run_cell` as the reference (worker idle share, cell
/// P90, counts, digests), an untraced rebuild of every cell (loop time,
/// set-up time), and the traced rebuild; both rebuilds must reproduce
/// `run_cell`'s counts and result digest exactly.
pub fn traced(seed: u64, size: GridSize) -> (LayerInputs, Ops) {
    let cells = cells(seed, size);
    ledger::calibration();
    let mut ops = Ops::default();
    let (reference, wall_s) = run_cells(&cells, size.secs);
    let cell_ms: Vec<f64> = reference.iter().map(|(_, ms)| *ms).collect();
    let mut inp = LayerInputs {
        idle_frac: idle_frac(&cell_ms, WORKERS, wall_s),
        cell_ms_p90: cell_p90(&cell_ms),
        ..LayerInputs::default()
    };
    let plain = par_map_threads(WORKERS, &cells, |c| run_replica(c, size.secs, false));
    let timed = par_map_threads(WORKERS, &cells, |c| run_replica(c, size.secs, true));
    let mut setup_ns = 0.0;
    for (((c, (r, _)), p), t) in cells.iter().zip(&reference).zip(plain).zip(timed) {
        let outcome = (|| {
            let r = r.as_ref().map_err(Clone::clone)?;
            let (p, t) = (p?, t?);
            p.counts.expect_eq(&grid_counts(r))?;
            t.counts.expect_eq(&grid_counts(r))?;
            if p.digest != cell_digest(r) || t.digest != p.digest {
                return Err("result digests differ from run_cell's".to_string());
            }
            setup_ns += p.setup_ns;
            inp.untraced_loop_ns += p.cost.ns;
            inp.loop_allocs += t.cost.allocs;
            inp.flows_added += t.flows;
            inp.counts = inp.counts.plus(&t.counts);
            inp.totals.merge(&t.spans);
            Ok(())
        })();
        ops.record(&cell_name(c), outcome);
    }
    inp.setup_ms = setup_ns / 1e6 / cells.len().max(1) as f64;
    (inp, ops)
}
