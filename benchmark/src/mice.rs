//! `mice_multihop`: parking-lot-3 and access-core-2 × {PI2, DualPI2},
//! assembled from the public `Topology`, `MiceWorkload`/`mice_arrivals`
//! and `TcpSource` APIs in the shape of the `--scenario topology` family,
//! with hop rates and the short-flow arrival rate scaled up until the job
//! runs for seconds: thousands of data-limited Cubic flows, each set up,
//! slow-started and retired, crossing up to three hops.
//!
//! The cells run one after another on a single worker: the sweep
//! runner's parallelism is `paper_grid`'s subject, and on a two-core host
//! a second worker would fold the other core's availability into every
//! figure here. Hop rates are scaled ×5 over 60 simulated s rather than
//! higher over less time: at larger windows a Cubic loss episode at the
//! DualPI2 core makes SACK recovery so costly that a cell's cost depends
//! on whether the seed happens to produce one.

use crate::decor::{TimedAqm, TimedQdisc};
use crate::report::{cell_p90, idle_frac, LayerInputs};
use crate::{
    check_conservation, digest, guarded, host, ledger, run_traced, run_untraced, seed_offset, tcp,
    Counts, JobSample, LoopCost, Ops,
};
use pi2_experiments::{mice_arrivals, AqmKind, MiceWorkload};
use pi2_netsim::{
    BottleneckQueue, MonitorConfig, PathConf, Qdisc, QueueConfig, Sim, SimConfig, Topology,
};
use pi2_simcore::{Duration, Time};
use pi2_transport::{CcKind, EcnSetting, TcpConfig};
use std::time::Instant;

/// How much simulated work the job holds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MiceSize {
    /// Simulated seconds per cell.
    pub secs: u64,
    /// Multiplier on the topology family's hop rates (20/40 Mb/s).
    pub rate_scale: u64,
    /// Mean short-flow arrivals per second on each entry path.
    pub mice_per_sec: f64,
}

impl MiceSize {
    /// The benchmark's size.
    pub const STANDARD: MiceSize = MiceSize {
        secs: 60,
        rate_scale: 5,
        mice_per_sec: 60.0,
    };
}

/// The two layouts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Shape {
    /// Three bottlenecks in series; long flows end to end, mice entering
    /// at every hop.
    ParkingLot3,
    /// Two access links into a shared core; mice entering at the core.
    AccessCore2,
}

/// One cell: layout and whether every hop runs DualPI2 (else PI2).
pub(crate) type Cell = (Shape, bool);

/// The job's four cells.
pub(crate) const CELLS: [Cell; 4] = [
    (Shape::ParkingLot3, false),
    (Shape::ParkingLot3, true),
    (Shape::AccessCore2, false),
    (Shape::AccessCore2, true),
];

/// Decorrelates each entry path's arrival stream from the others'.
const PATH_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// A cell's display name.
pub(crate) fn cell_name(c: &Cell) -> String {
    let shape = match c.0 {
        Shape::ParkingLot3 => "parking-lot-3",
        Shape::AccessCore2 => "access-core-2",
    };
    format!("{shape}/{}", if c.1 { "dualpi2" } else { "pi2" })
}

fn hop_rate_bps(shape: Shape, hop: u32, scale: u64) -> u64 {
    let mbps = match shape {
        Shape::AccessCore2 if hop < 2 => 40,
        _ => 20,
    };
    mbps * 1_000_000 * scale
}

fn qdisc(dualq: bool, hop: u32, rate_bps: u64, traced: bool) -> Box<dyn Qdisc> {
    let queue = QueueConfig {
        rate_bps,
        buffer_bytes: 40_000 * 1500,
    };
    if dualq {
        let q = AqmKind::dualq_default(rate_bps).build_qdisc(queue);
        return if traced {
            Box::new(TimedQdisc::at_hop(hop, q))
        } else {
            q
        };
    }
    let pi2 = AqmKind::pi2_default();
    if traced {
        let fifo = BottleneckQueue::new(queue, Box::new(TimedAqm(pi2.build())));
        Box::new(TimedQdisc::at_hop(hop, Box::new(fifo)))
    } else {
        pi2.build_qdisc(queue)
    }
}

/// A long flow: label, congestion control, ECN mode, path, base RTT ms.
type LongFlow = (&'static str, CcKind, EcnSetting, &'static str, i64);

/// Build a cell up to its first event: topology, long flows, and every
/// pre-generated mouse. Returns the simulator and the flows it added.
pub(crate) fn build(c: &Cell, seed: u64, size: MiceSize, traced: bool) -> (Sim, u64) {
    let (shape, dualq) = *c;
    let (topo, long_flows, mice_paths): (_, Vec<LongFlow>, &[&str]) = match shape {
        Shape::ParkingLot3 => (
            Topology::parking_lot(3, Duration::from_millis(5)),
            vec![
                ("classic", CcKind::Cubic, EcnSetting::NotEcn, "e2e", 40),
                ("classic", CcKind::Cubic, EcnSetting::NotEcn, "e2e", 40),
                ("scalable", CcKind::Dctcp, EcnSetting::Scalable, "e2e", 40),
                ("scalable", CcKind::Dctcp, EcnSetting::Scalable, "e2e", 40),
            ],
            &["cross0", "cross1", "cross2"],
        ),
        Shape::AccessCore2 => (
            Topology::access_core(2, Duration::from_millis(2)),
            vec![
                ("classic", CcKind::Cubic, EcnSetting::NotEcn, "leaf0", 20),
                ("scalable", CcKind::Dctcp, EcnSetting::Scalable, "leaf0", 20),
                ("classic", CcKind::Cubic, EcnSetting::NotEcn, "leaf1", 80),
                ("scalable", CcKind::Dctcp, EcnSetting::Scalable, "leaf1", 80),
            ],
            &["core"],
        ),
    };
    let rate0 = hop_rate_bps(shape, 0, size.rate_scale);
    let mut sim = Sim::with_qdisc(
        SimConfig {
            queue: QueueConfig {
                rate_bps: rate0,
                buffer_bytes: 40_000 * 1500,
            },
            seed: seed_offset(seed) ^ 1,
            monitor: MonitorConfig {
                sample_interval: Duration::from_millis(100),
                warmup: Duration::from_secs(size.secs as i64 / 6),
                ..MonitorConfig::default()
            },
        },
        qdisc(dualq, 0, rate0, traced),
    );
    sim.core.enable_metrics();
    topo.install(&mut sim.core, |hop| {
        qdisc(
            dualq,
            hop,
            hop_rate_bps(shape, hop, size.rate_scale),
            traced,
        )
    });
    let mut flows = 0u64;
    for (label, cc, ecn, path, rtt_ms) in long_flows {
        let id = sim.add_flow(
            PathConf::symmetric(Duration::from_millis(rtt_ms)),
            label,
            Time::ZERO,
            move |id| tcp(id, cc, ecn, TcpConfig::default(), traced),
        );
        sim.set_route(id, topo.path(path).to_vec());
        flows += 1;
    }
    let mice_rtt = PathConf::symmetric(Duration::from_millis(20));
    for (k, path) in mice_paths.iter().enumerate() {
        let w = MiceWorkload {
            arrivals_per_sec: size.mice_per_sec,
            ..MiceWorkload::web(
                Time::from_secs(size.secs / 6),
                Time::from_secs(size.secs * 11 / 12),
                seed_offset(seed) ^ (k as u64 + 1).wrapping_mul(PATH_STRIDE),
            )
        };
        let route = topo.path(path).to_vec();
        for m in mice_arrivals(&w) {
            let cfg = TcpConfig {
                data_limit: Some(m.size_pkts),
                ..TcpConfig::default()
            };
            let id = sim.add_flow(mice_rtt, "mice", m.at, move |id| {
                tcp(id, CcKind::Cubic, EcnSetting::NotEcn, cfg, traced)
            });
            sim.set_route(id, route.clone());
            flows += 1;
        }
    }
    (sim, flows)
}

/// What one cell reports back from a worker.
struct CellRun {
    counts: Counts,
    digest: u64,
    setup_ns: f64,
    cell_ms: f64,
    cost: LoopCost,
    flows: u64,
    spans: ledger::Totals,
}

fn run_cell(c: &Cell, seed: u64, size: MiceSize, traced: bool) -> Result<CellRun, String> {
    guarded(|| {
        ledger::take();
        let t = Instant::now();
        let (mut sim, flows) = build(c, seed, size, traced);
        let setup_ns = t.elapsed().as_nanos() as f64;
        let end = Time::from_secs(size.secs);
        let cost = if traced {
            run_traced(&mut sim, end)
        } else {
            run_untraced(&mut sim, end)
        };
        let cell_ms = t.elapsed().as_secs_f64() * 1e3;
        check_conservation(&sim)?;
        let completed = sim.core.monitor.completion_times("mice").len() as u64;
        if completed == 0 {
            return Err("no short flow completed".to_string());
        }
        let counts = Counts::finish(&mut sim);
        let mut words = counts.words().to_vec();
        words.push(completed);
        for hop in 0..sim.core.hop_count() as u32 {
            let s = sim.core.hop_qdisc(hop).stats();
            words.extend([
                s.enqueued,
                s.dequeued,
                s.aqm_dropped,
                s.aqm_marked,
                s.overflowed,
            ]);
            words.push(sim.core.hop_flow_bytes(hop).iter().sum());
        }
        Ok(CellRun {
            counts,
            digest: digest(&words),
            setup_ns,
            cell_ms,
            cost,
            flows,
            spans: ledger::take(),
        })
    })
}

fn run_all(seed: u64, size: MiceSize, traced: bool) -> (Vec<Result<CellRun, String>>, f64) {
    let t0 = Instant::now();
    let out = CELLS
        .iter()
        .map(|c| run_cell(c, seed, size, traced))
        .collect();
    (out, t0.elapsed().as_secs_f64())
}

/// One repetition of the untraced job.
pub fn job(seed: u64, size: MiceSize) -> JobSample {
    let cpu0 = host::cpu_s("self").unwrap_or(0.0);
    let (runs, wall_s) = run_all(seed, size, false);
    let cpu_s = host::cpu_s("self").unwrap_or(0.0) - cpu0;
    let mut s = JobSample {
        wall_s,
        cpu_s,
        peak_rss_mb: host::peak_rss_mb("self").unwrap_or(0.0),
        ..JobSample::default()
    };
    for (c, r) in CELLS.iter().zip(runs) {
        let name = cell_name(c);
        let outcome = r.map(|r| {
            s.setup_s += r.setup_ns / 1e9;
            s.events += r.counts.events;
            s.cell_ms.push(r.cell_ms);
            s.digests.push((name.clone(), r.digest));
        });
        s.ops.record(&name, outcome);
    }
    s
}

/// The traced run: the untraced job as the reference (counts, loop
/// time, set-up time, worker idle share), then the traced job, whose
/// counts and result digests must match cell for cell.
pub fn traced(seed: u64, size: MiceSize) -> (LayerInputs, Ops) {
    ledger::calibration();
    let mut ops = Ops::default();
    let (plain, wall_s) = run_all(seed, size, false);
    let (timed, _) = run_all(seed, size, true);
    let cell_ms: Vec<f64> = plain.iter().flatten().map(|r| r.cell_ms).collect();
    let mut inp = LayerInputs {
        idle_frac: idle_frac(&cell_ms, 1, wall_s),
        cell_ms_p90: cell_p90(&cell_ms),
        ..LayerInputs::default()
    };
    let mut setup_ns = 0.0;
    for ((c, p), t) in CELLS.iter().zip(plain).zip(timed) {
        let outcome = (|| {
            let (p, t) = (p?, t?);
            t.counts.expect_eq(&p.counts)?;
            if t.digest != p.digest {
                return Err("traced result digest differs from the untraced one".to_string());
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
    inp.setup_ms = setup_ns / 1e6 / CELLS.len() as f64;
    (inp, ops)
}
