//! Timing decorators: each wraps one of the trait objects the simulator
//! already accepts, forwards every call unchanged, and brackets the
//! layer's hot calls with a ledger span. Every trait method is forwarded
//! explicitly, overridden defaults included, so a decorated object
//! behaves exactly like the bare one; the traced-vs-untraced count check
//! holds the benchmark to that.

use crate::ledger::{span, Layer};
use pi2_netsim::{
    Ack, Aqm, AqmState, BackgroundAggregate, Decision, Packet, Qdisc, QueueSnapshot, QueueStats,
    SimCore, Source, TimerKind, TraceEvent, TraceSink,
};
use pi2_simcore::{CkptError, CkptReader, CkptWriter, Duration, Rng, Time};
use std::cell::Cell;
use std::io::{self, Write};
use std::rc::Rc;

/// A timed [`Source`] (the benchmark wraps `TcpSource`).
pub(crate) struct TimedSource(pub(crate) Box<dyn Source>);

impl Source for TimedSource {
    fn on_start(&mut self, core: &mut SimCore) {
        span(Layer::OnStart, || self.0.on_start(core))
    }
    fn on_stop(&mut self, core: &mut SimCore) {
        self.0.on_stop(core)
    }
    fn on_deliver(&mut self, pkt: Packet, core: &mut SimCore) {
        span(Layer::OnDeliver, || self.0.on_deliver(pkt, core))
    }
    fn on_ack(&mut self, ack: Ack, core: &mut SimCore) {
        span(Layer::OnAck, || self.0.on_ack(ack, core))
    }
    fn on_timer(&mut self, kind: TimerKind, id: u64, core: &mut SimCore) {
        span(Layer::OnTimer, || self.0.on_timer(kind, id, core))
    }
    fn save_ckpt(&self, w: &mut CkptWriter) {
        self.0.save_ckpt(w)
    }
    fn restore_ckpt(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        self.0.restore_ckpt(r)
    }
}

/// A timed [`Aqm`].
pub(crate) struct TimedAqm(pub(crate) Box<dyn Aqm>);

impl Aqm for TimedAqm {
    fn on_enqueue(
        &mut self,
        pkt: &Packet,
        snap: &QueueSnapshot,
        now: Time,
        rng: &mut Rng,
    ) -> Decision {
        span(Layer::AqmEnqueue, || self.0.on_enqueue(pkt, snap, now, rng))
    }
    fn on_dequeue(&mut self, pkt: &Packet, sojourn: Duration, snap: &QueueSnapshot, now: Time) {
        self.0.on_dequeue(pkt, sojourn, snap, now)
    }
    fn update(&mut self, snap: &QueueSnapshot, now: Time) {
        span(Layer::AqmUpdate, || self.0.update(snap, now))
    }
    fn update_interval(&self) -> Option<Duration> {
        self.0.update_interval()
    }
    fn control_variable(&self) -> f64 {
        self.0.control_variable()
    }
    fn probe(&self) -> AqmState {
        self.0.probe()
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn save_ckpt(&self, w: &mut CkptWriter) {
        self.0.save_ckpt(w)
    }
    fn restore_ckpt(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        self.0.restore_ckpt(r)
    }
}

/// A timed [`Qdisc`]. At the primary bottleneck `offer` and `pop` report
/// as their own layers; at every later hop both report as `extra_hop`.
pub(crate) struct TimedQdisc {
    inner: Box<dyn Qdisc>,
    offer: Layer,
    pop: Layer,
}

impl TimedQdisc {
    /// Wrap hop `hop`'s qdisc.
    pub(crate) fn at_hop(hop: u32, inner: Box<dyn Qdisc>) -> Self {
        let (offer, pop) = if hop == 0 {
            (Layer::QdiscOffer, Layer::QdiscPop)
        } else {
            (Layer::ExtraHop, Layer::ExtraHop)
        };
        TimedQdisc { inner, offer, pop }
    }
}

impl Qdisc for TimedQdisc {
    fn offer(&mut self, pkt: Packet, now: Time, rng: &mut Rng) -> Decision {
        span(self.offer, || self.inner.offer(pkt, now, rng))
    }
    fn pop(&mut self, now: Time) -> Option<(Packet, Duration)> {
        span(self.pop, || self.inner.pop(now))
    }
    fn head_size(&self) -> Option<usize> {
        self.inner.head_size()
    }
    fn len_bytes(&self) -> usize {
        self.inner.len_bytes()
    }
    fn len_pkts(&self) -> usize {
        self.inner.len_pkts()
    }
    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
    fn rate_bps(&self) -> u64 {
        self.inner.rate_bps()
    }
    fn set_rate_bps(&mut self, rate_bps: u64) {
        self.inner.set_rate_bps(rate_bps)
    }
    fn update(&mut self, now: Time) {
        self.inner.update(now)
    }
    fn update_interval(&self) -> Option<Duration> {
        self.inner.update_interval()
    }
    fn control_variable(&self) -> f64 {
        self.inner.control_variable()
    }
    fn probe(&self) -> AqmState {
        self.inner.probe()
    }
    fn stats(&self) -> &QueueStats {
        self.inner.stats()
    }
    fn monitor_delay(&self) -> Duration {
        self.inner.monitor_delay()
    }
    fn save_ckpt(&self, w: &mut CkptWriter) {
        self.inner.save_ckpt(w)
    }
    fn restore_ckpt(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        self.inner.restore_ckpt(r)
    }
}

/// A timed [`TraceSink`].
pub(crate) struct TimedSink(pub(crate) Box<dyn TraceSink>);

impl TraceSink for TimedSink {
    fn on_event(&mut self, ev: &TraceEvent) {
        span(Layer::Trace, || self.0.on_event(ev))
    }
    fn on_aqm_state(&mut self, t: Time, state: &AqmState) {
        span(Layer::Trace, || self.0.on_aqm_state(t, state))
    }
    fn on_hop_event(&mut self, hop: u32, ev: &TraceEvent) {
        span(Layer::Trace, || self.0.on_hop_event(hop, ev))
    }
    fn on_hop_aqm_state(&mut self, hop: u32, t: Time, state: &AqmState) {
        span(Layer::Trace, || self.0.on_hop_aqm_state(hop, t, state))
    }
    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

/// A timed [`BackgroundAggregate`].
pub(crate) struct TimedBackground(pub(crate) Box<dyn BackgroundAggregate>);

impl BackgroundAggregate for TimedBackground {
    fn on_tick(
        &mut self,
        dt: Duration,
        classic_prob: f64,
        scalable_prob: f64,
        qdelay: Duration,
    ) -> u64 {
        span(Layer::FluidTick, || {
            self.0.on_tick(dt, classic_prob, scalable_prob, qdelay)
        })
    }
    fn flow_count(&self) -> u64 {
        self.0.flow_count()
    }
    fn schema_fingerprint(&self) -> u64 {
        self.0.schema_fingerprint()
    }
    fn save_ckpt(&self, w: &mut CkptWriter) {
        self.0.save_ckpt(w)
    }
    fn restore_ckpt(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        self.0.restore_ckpt(r)
    }
}

/// A byte count shared between a writer and its reader.
pub(crate) type ByteCounter = Rc<Cell<u64>>;

/// A writer that counts the bytes passing through it, so the trace
/// layer's output volume is read off the sink's own stream.
pub(crate) struct CountingWriter<W> {
    inner: W,
    bytes: ByteCounter,
}

impl<W: Write> CountingWriter<W> {
    /// Wrap `inner`; the returned counter keeps reading after the writer
    /// has been handed to a sink.
    pub(crate) fn new(inner: W) -> (Self, ByteCounter) {
        let bytes = Rc::new(Cell::new(0));
        (
            CountingWriter {
                inner,
                bytes: Rc::clone(&bytes),
            },
            bytes,
        )
    }
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes.set(self.bytes.get() + n as u64);
        Ok(n)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}
