//! The per-layer ledger: outside-in spans around calls into each layer.
//!
//! A span brackets one call with two `Instant` reads. Spans nest the way
//! the calls do (a source's `on_ack` sends a packet, which offers it to
//! the qdisc, which asks the AQM), so a thread-local stack subtracts each
//! child's duration from its parent: a layer's *self* time is its span
//! minus the spans it caused. Each span's own clock reads are not free,
//! so the calibrated cost of an empty span, and of the bookkeeping one
//! child adds to its parent, are subtracted as well. Whatever the loop
//! took that no span accounts for is the unattributed remainder.
//!
//! Spans are only ever taken inside the traced pass; the untraced pass
//! that produces the end-to-end metrics runs the bare objects.

use pi2_obs::Histogram;
use std::cell::RefCell;
use std::sync::OnceLock;
use std::time::Instant;

/// A layer boundary the benchmark times from outside.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `Source::on_ack` of a TCP source.
    OnAck,
    /// `Source::on_deliver` of a TCP source.
    OnDeliver,
    /// `Source::on_timer` of a TCP source.
    OnTimer,
    /// `Source::on_start` of a TCP source.
    OnStart,
    /// `Aqm::on_enqueue`.
    AqmEnqueue,
    /// `Aqm::update`.
    AqmUpdate,
    /// `Qdisc::offer` at the primary bottleneck (hop 0).
    QdiscOffer,
    /// `Qdisc::pop` at the primary bottleneck (hop 0).
    QdiscPop,
    /// `Qdisc::offer` and `Qdisc::pop` at any hop past the primary one.
    ExtraHop,
    /// One `Sim::step` call: the engine's own dispatch work.
    Step,
    /// Any `TraceSink` callback.
    Trace,
    /// `BackgroundAggregate::on_tick`.
    FluidTick,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 12] = [
        Layer::OnAck,
        Layer::OnDeliver,
        Layer::OnTimer,
        Layer::OnStart,
        Layer::AqmEnqueue,
        Layer::AqmUpdate,
        Layer::QdiscOffer,
        Layer::QdiscPop,
        Layer::ExtraHop,
        Layer::Step,
        Layer::Trace,
        Layer::FluidTick,
    ];

    /// The metric prefix the layer reports under.
    pub fn name(self) -> &'static str {
        match self {
            Layer::OnAck => "transport.on_ack",
            Layer::OnDeliver => "transport.on_deliver",
            Layer::OnTimer => "transport.on_timer",
            Layer::OnStart => "transport.on_start",
            Layer::AqmEnqueue => "core.on_enqueue",
            Layer::AqmUpdate => "core.update",
            Layer::QdiscOffer => "netsim.qdisc.offer",
            Layer::QdiscPop => "netsim.qdisc.pop",
            Layer::ExtraHop => "netsim.qdisc.extra_hop",
            Layer::Step => "netsim.step",
            Layer::Trace => "netsim.trace",
            Layer::FluidTick => "fluid.on_tick",
        }
    }
}

/// Slot count: one per reported layer plus the calibration slot.
const SLOTS: usize = Layer::ALL.len() + 1;
const CALIBRATION_SLOT: usize = SLOTS - 1;

/// Accumulated spans of one layer.
#[derive(Clone, Debug, Default)]
pub struct LayerStats {
    /// Spans closed.
    pub calls: u64,
    /// Sum of calibrated self times, ns (may dip below zero per call when
    /// a call is cheaper than the calibrated overhead).
    pub self_ns: f64,
    /// Calibrated self time per call, clamped at zero, ns.
    pub hist: Histogram,
}

impl LayerStats {
    /// Mean calibrated self time per call, ns (0 without calls).
    pub fn mean_self_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns / self.calls as f64
        }
    }

    fn merge(&mut self, other: &LayerStats) {
        self.calls += other.calls;
        self.self_ns += other.self_ns;
        self.hist.merge(&other.hist);
    }
}

/// The span overheads subtracted from every self time, measured once per
/// process by running empty spans through the same code path.
#[derive(Clone, Copy, Debug)]
pub struct Calibration {
    /// Duration an empty span reads on its own clock, ns.
    pub pair_ns: f64,
    /// Time one empty child span adds to its parent outside the child's
    /// own clock reads, ns.
    pub child_ns: f64,
}

/// Totals of every layer plus the loop time the spans ran inside.
#[derive(Clone, Debug)]
pub struct Totals {
    /// Per-layer stats, indexed like [`Layer::ALL`].
    pub layers: Vec<LayerStats>,
    /// Host time of the traced event loops, ns.
    pub loop_ns: f64,
}

impl Default for Totals {
    fn default() -> Self {
        Totals {
            layers: vec![LayerStats::default(); Layer::ALL.len()],
            loop_ns: 0.0,
        }
    }
}

impl Totals {
    /// The stats of one layer.
    pub fn layer(&self, l: Layer) -> &LayerStats {
        &self.layers[l as usize]
    }

    /// Fold another thread's or pass's totals into these.
    pub fn merge(&mut self, other: &Totals) {
        for (a, b) in self.layers.iter_mut().zip(&other.layers) {
            a.merge(b);
        }
        self.loop_ns += other.loop_ns;
    }

    /// Sum of every layer's calibrated self time, ns.
    pub fn attributed_ns(&self) -> f64 {
        self.layers.iter().map(|l| l.self_ns).sum()
    }

    /// Loop time no layer's self time accounts for, ns: span overheads,
    /// the loop's own bookkeeping between steps, and calibration error.
    pub fn unattributed_ns(&self) -> f64 {
        self.loop_ns - self.attributed_ns()
    }
}

#[derive(Clone, Copy, Default)]
struct Frame {
    child_ns: u64,
    children: u32,
}

struct ThreadLedger {
    stack: Vec<Frame>,
    slots: Vec<LayerStats>,
    loop_ns: f64,
    /// Picked up from [`CAL`] once it is published; spans closed before
    /// that (only the calibration's own) subtract nothing.
    cal: Option<Calibration>,
}

impl ThreadLedger {
    fn new() -> Self {
        ThreadLedger {
            stack: Vec::with_capacity(16),
            slots: vec![LayerStats::default(); SLOTS],
            loop_ns: 0.0,
            cal: None,
        }
    }

    #[inline]
    fn close(&mut self, slot: usize, d: u64) {
        if self.cal.is_none() {
            self.cal = CAL.get().copied();
        }
        let (pair_ns, child_ns) = self.cal.map_or((0.0, 0.0), |c| (c.pair_ns, c.child_ns));
        let f = self.stack.pop().expect("span closed without being opened");
        let own = d as f64 - f.child_ns as f64 - pair_ns - f.children as f64 * child_ns;
        let s = &mut self.slots[slot];
        s.calls += 1;
        s.self_ns += own;
        s.hist.record(own.max(0.0) as u64);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += d;
            parent.children += 1;
        }
    }
}

static CAL: OnceLock<Calibration> = OnceLock::new();

thread_local! {
    static LEDGER: RefCell<ThreadLedger> = RefCell::new(ThreadLedger::new());
}

#[inline]
fn span_slot<R>(slot: usize, f: impl FnOnce() -> R) -> R {
    LEDGER.with(|l| l.borrow_mut().stack.push(Frame::default()));
    let t0 = Instant::now();
    let r = f();
    let d = t0.elapsed().as_nanos() as u64;
    LEDGER.with(|l| l.borrow_mut().close(slot, d));
    r
}

/// Time `f` as one call into `layer`.
#[inline]
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    span_slot(layer as usize, f)
}

/// Add one traced loop's host time to this thread's ledger.
pub fn add_loop_ns(ns: f64) {
    LEDGER.with(|l| l.borrow_mut().loop_ns += ns);
}

/// Drain this thread's ledger, leaving it empty.
pub fn take() -> Totals {
    LEDGER.with(|l| {
        let mut l = l.borrow_mut();
        // Frames left open by a panicking (and already failed) operation.
        l.stack.clear();
        let mut t = Totals::default();
        for (i, s) in l.slots.iter_mut().take(Layer::ALL.len()).enumerate() {
            t.layers[i] = std::mem::take(s);
        }
        t.loop_ns = std::mem::take(&mut l.loop_ns);
        l.slots[CALIBRATION_SLOT] = LayerStats::default();
        t
    })
}

/// The process-wide span calibration, measured on first use. Call it
/// before a traced pass starts so no span of the pass goes uncalibrated.
pub fn calibration() -> Calibration {
    *CAL.get_or_init(|| {
        // A fresh thread, so the spans measured here go through the real
        // span path into a ledger nobody reads.
        std::thread::scope(|s| {
            s.spawn(measure_calibration)
                .join()
                .expect("span calibration panicked")
        })
    })
}

/// Median of a sample batch.
fn median_of(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Run empty spans through the real span path: the median duration of a
/// lone empty span is the pair cost; the median parent self time per
/// empty child, less the pair cost, is the child cost. Medians keep
/// preemption outliers out.
fn measure_calibration() -> Calibration {
    const ROUNDS: usize = 2000;
    const CHILDREN: u32 = 8;
    let mut lone = Vec::with_capacity(ROUNDS);
    let mut per_child = Vec::with_capacity(ROUNDS);
    let last_self = || LEDGER.with(|l| l.borrow().slots[CALIBRATION_SLOT].self_ns);
    // The first half of the lone spans only warms the clock path.
    for round in 0..2 * ROUNDS {
        let before = last_self();
        span_slot(CALIBRATION_SLOT, || {});
        if round >= ROUNDS {
            lone.push(last_self() - before);
        }
    }
    let pair = median_of(lone);
    for _ in 0..ROUNDS {
        let mut children_self = 0.0;
        let before = last_self();
        span_slot(CALIBRATION_SLOT, || {
            for _ in 0..CHILDREN {
                let b = last_self();
                span_slot(CALIBRATION_SLOT, || {});
                children_self += last_self() - b;
            }
        });
        let parent_self = last_self() - before - children_self;
        per_child.push((parent_self - pair) / CHILDREN as f64);
    }
    Calibration {
        pair_ns: pair,
        child_ns: median_of(per_child).max(0.0),
    }
}
