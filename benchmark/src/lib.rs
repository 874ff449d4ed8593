//! The repository benchmark: three closed batch jobs the reproduction is
//! made of, timed end to end with tracing off, plus a traced pass that
//! splits the same work into per-layer self times from outside — through
//! timing decorators around the trait objects the simulator accepts.
//!
//! See `README.md` in this directory for the workloads, the metric →
//! layer → workload table, and how to read a traced run.

pub mod decor;
pub mod grid;
pub mod host;
pub mod ledger;
pub mod mice;
pub mod observed;
pub mod report;

use decor::TimedSource;
use ledger::{span, Layer};
use pi2_netsim::{FlowId, Sim, Source};
use pi2_simcore::Time;
use pi2_transport::{CcKind, EcnSetting, TcpConfig, TcpSource};
use std::time::Instant;

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

/// The seed the committed reference digests were made at.
pub const DEFAULT_SEED: u64 = 1;

/// What a benchmark seed adds to each cell's own seed: zero at
/// [`DEFAULT_SEED`], so the default run simulates exactly the cells the
/// figures use, and a pseudo-random offset for every other seed.
pub(crate) fn seed_offset(seed: u64) -> u64 {
    (seed ^ DEFAULT_SEED).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Operations attempted and failed, with a note per failure.
#[derive(Clone, Debug, Default)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failure.
    pub notes: Vec<String>,
}

impl Ops {
    /// Book one operation.
    pub fn record(&mut self, name: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.notes.push(format!("{name}: {e}"));
        }
    }

    /// Fold another batch in.
    pub fn merge(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
    }
}

/// One repetition of a workload's untraced job.
#[derive(Clone, Debug, Default)]
pub struct JobSample {
    /// Host seconds of the simulated work.
    pub wall_s: f64,
    /// Host seconds of set-up before the first event.
    pub setup_s: f64,
    /// Events the program's own counters report for the job.
    pub events: u64,
    /// User + system CPU seconds of the process(es) doing the work.
    pub cpu_s: f64,
    /// Peak resident memory of the process(es) doing the work, MB.
    pub peak_rss_mb: f64,
    /// Host milliseconds per cell (per run-plus-resume for
    /// `observed_resume`).
    pub cell_ms: Vec<f64>,
    /// The job's operations.
    pub ops: Ops,
    /// Per-cell result digests, keyed by cell name.
    pub digests: Vec<(String, u64)>,
}

impl JobSample {
    /// The sample as tab-separated lines, for handing a repetition run in
    /// a child process back to its parent.
    pub fn encode(&self) -> String {
        let clean = |t: &str| t.replace(['\t', '\n'], " ");
        let mut out = format!(
            "sample\t{:?}\t{:?}\t{}\t{:?}\t{:?}\n",
            self.wall_s, self.setup_s, self.events, self.cpu_s, self.peak_rss_mb
        );
        for ms in &self.cell_ms {
            out.push_str(&format!("cell\t{ms:?}\n"));
        }
        for (name, d) in &self.digests {
            out.push_str(&format!("digest\t{}\t{d}\n", clean(name)));
        }
        out.push_str(&format!(
            "ops\t{}\t{}\n",
            self.ops.attempted, self.ops.failed
        ));
        for n in &self.ops.notes {
            out.push_str(&format!("note\t{}\n", clean(n)));
        }
        out
    }

    /// Parse [`JobSample::encode`]'s output.
    pub fn decode(text: &str) -> Result<JobSample, String> {
        fn num<T: std::str::FromStr>(f: Option<&str>) -> Result<T, String> {
            f.and_then(|v| v.parse().ok())
                .ok_or("malformed sample field".to_string())
        }
        let mut s = JobSample::default();
        let mut seen = false;
        for line in text.lines() {
            let mut f = line.split('\t');
            match f.next() {
                Some("sample") => {
                    s.wall_s = num(f.next())?;
                    s.setup_s = num(f.next())?;
                    s.events = num(f.next())?;
                    s.cpu_s = num(f.next())?;
                    s.peak_rss_mb = num(f.next())?;
                    seen = true;
                }
                Some("cell") => s.cell_ms.push(num(f.next())?),
                Some("digest") => {
                    let name = f.next().ok_or("digest without a name")?.to_string();
                    s.digests.push((name, num(f.next())?));
                }
                Some("ops") => {
                    s.ops.attempted = num(f.next())?;
                    s.ops.failed = num(f.next())?;
                }
                Some("note") => s.ops.notes.push(f.next().unwrap_or("").to_string()),
                _ => {}
            }
        }
        if seen {
            Ok(s)
        } else {
            Err("no sample line".to_string())
        }
    }
}

/// Deterministic work counts of a run: what the traced and untraced
/// passes must agree on exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Events the dispatch loop processed.
    pub events: u64,
    /// Admissions, from the simulator's always-on counters.
    pub enqueued: u64,
    /// CE marks.
    pub marked: u64,
    /// Drops.
    pub dropped: u64,
    /// Departures.
    pub dequeued: u64,
    /// AQM update ticks at the primary bottleneck.
    pub aqm_updates: u64,
}

impl Counts {
    /// Read a finished run's counts, detaching its metrics registry.
    pub(crate) fn finish(sim: &mut Sim) -> Counts {
        let events = sim.core.take_metrics().map_or(0, |m| m.events_processed());
        let t = sim.core.counters.totals();
        Counts {
            events,
            enqueued: t.enqueued,
            marked: t.marked,
            dropped: t.dropped,
            dequeued: t.dequeued,
            aqm_updates: sim.core.counters.aqm_updates,
        }
    }

    /// Compare against a reference run.
    pub(crate) fn expect_eq(&self, reference: &Counts) -> Result<(), String> {
        if self == reference {
            Ok(())
        } else {
            Err(format!(
                "counts differ: {self:?} vs reference {reference:?}"
            ))
        }
    }

    /// Component-wise sum.
    pub(crate) fn plus(&self, o: &Counts) -> Counts {
        Counts {
            events: self.events + o.events,
            enqueued: self.enqueued + o.enqueued,
            marked: self.marked + o.marked,
            dropped: self.dropped + o.dropped,
            dequeued: self.dequeued + o.dequeued,
            aqm_updates: self.aqm_updates + o.aqm_updates,
        }
    }

    /// Component-wise difference (`self` taken later than `o`).
    pub(crate) fn minus(&self, o: &Counts) -> Counts {
        Counts {
            events: self.events - o.events,
            enqueued: self.enqueued - o.enqueued,
            marked: self.marked - o.marked,
            dropped: self.dropped - o.dropped,
            dequeued: self.dequeued - o.dequeued,
            aqm_updates: self.aqm_updates - o.aqm_updates,
        }
    }

    /// The words a digest folds in.
    pub(crate) fn words(&self) -> [u64; 6] {
        [
            self.events,
            self.enqueued,
            self.marked,
            self.dropped,
            self.dequeued,
            self.aqm_updates,
        ]
    }
}

/// A TCP source, decorated for the traced pass.
pub(crate) fn tcp(
    id: FlowId,
    cc: CcKind,
    ecn: EcnSetting,
    cfg: TcpConfig,
    traced: bool,
) -> Box<dyn Source> {
    let src = Box::new(TcpSource::new(id, cc, ecn, cfg));
    if traced {
        Box::new(TimedSource(src))
    } else {
        src
    }
}

/// Packet conservation at every hop of a finished run, from the public
/// counters: admissions minus departures is what is still queued, and on
/// a single hop the always-on counters agree with the qdisc's own.
pub(crate) fn check_conservation(sim: &Sim) -> Result<(), String> {
    for hop in 0..sim.core.hop_count() as u32 {
        let q = sim.core.hop_qdisc(hop);
        let s = q.stats();
        if s.enqueued != s.dequeued + q.len_pkts() as u64 {
            return Err(format!(
                "hop {hop}: {} admitted, {} departed, {} queued",
                s.enqueued,
                s.dequeued,
                q.len_pkts()
            ));
        }
    }
    let t = sim.core.counters.totals();
    let s = sim.core.hop_qdisc(0).stats();
    if sim.core.hop_count() == 1 && (t.enqueued, t.dequeued) != (s.enqueued, s.dequeued) {
        return Err(format!(
            "hop 0: counters {}/{} but qdisc {}/{} admitted/departed",
            t.enqueued, t.dequeued, s.enqueued, s.dequeued
        ));
    }
    Ok(())
}

/// FNV-1a over bytes: the per-cell result digest.
pub(crate) fn digest_bytes(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// [`digest_bytes`] over 64-bit words, little-endian.
pub(crate) fn digest(words: &[u64]) -> u64 {
    digest_bytes(words.iter().flat_map(|w| w.to_le_bytes()))
}

/// Host time and allocator calls of one event loop.
#[derive(Clone, Copy, Debug, Default)]
pub struct LoopCost {
    /// Host nanoseconds of the loop.
    pub ns: f64,
    /// Allocator calls this thread made during the loop.
    pub allocs: u64,
}

impl LoopCost {
    /// Fold another loop in.
    pub(crate) fn add(&mut self, other: LoopCost) {
        self.ns += other.ns;
        self.allocs += other.allocs;
    }
}

/// Run `sim` to `end` the way a user does (`Sim::run_until`), timed.
pub(crate) fn run_untraced(sim: &mut Sim, end: Time) -> LoopCost {
    let a0 = host::thread_allocs();
    let t0 = Instant::now();
    sim.run_until(end);
    LoopCost {
        ns: t0.elapsed().as_nanos() as f64,
        allocs: host::thread_allocs() - a0,
    }
}

/// Run `sim` to `end` with every `Sim::step` call in a span, the same
/// loop `Sim::run_until` runs; the loop's host time goes to the ledger.
pub(crate) fn run_traced(sim: &mut Sim, end: Time) -> LoopCost {
    let a0 = host::thread_allocs();
    let t0 = Instant::now();
    while let Some(t) = sim.core.events.peek_time() {
        if t > end {
            break;
        }
        span(Layer::Step, || sim.step());
    }
    sim.core.finish_audit();
    let ns = t0.elapsed().as_nanos() as f64;
    ledger::add_loop_ns(ns);
    LoopCost {
        ns,
        allocs: host::thread_allocs() - a0,
    }
}

/// Run `f`, turning a panic into a failed operation.
pub(crate) fn guarded<R>(f: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(p) => Err(match p.downcast_ref::<&str>() {
            Some(s) => format!("panicked: {s}"),
            None => match p.downcast_ref::<String>() {
                Some(s) => format!("panicked: {s}"),
                None => "panicked".to_string(),
            },
        }),
    }
}
