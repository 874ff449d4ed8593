//! `observed_resume`: one long hybrid cell — Cubic and DCTCP packet
//! flows under the coupled PI2 against a small fluid background — run
//! the way a user runs it, through the `pi2sim` binary, with every
//! observer on: a JSONL trace, a metrics snapshot, a checkpoint at half
//! time, and the live HTTP server, scraped open-loop. A second `pi2sim`
//! resumes from the checkpoint; its metrics must equal the uninterrupted
//! run's byte for byte.
//!
//! The program's layers sit inside another process there, so the traced
//! pass also replays the same cell in-process from the same arguments
//! (parsed by `pi2sim`'s own parser), decorated, and must reproduce the
//! binary's metrics snapshot exactly.

use crate::decor::{ByteCounter, CountingWriter, TimedAqm, TimedBackground, TimedQdisc, TimedSink};
use crate::report::LayerInputs;
use crate::{
    check_conservation, digest_bytes, guarded, host, ledger, run_traced, run_untraced, seed_offset,
    tcp,
};
use crate::{Counts, JobSample, LoopCost, Ops};
use pi2_aqm::{CoupledPi2, CoupledPi2Config};
use pi2_bench::cli::{parse_args, CliArgs};
use pi2_bench::perf::Json;
use pi2_experiments::{AqmKind, BgGroup, FluidBackground};
use pi2_netsim::{
    Aqm, BackgroundAggregate, BottleneckQueue, JsonlSink, MonitorConfig, PathConf, QueueConfig,
    Sim, SimConfig, TraceSink,
};
use pi2_obs::{http_get, prom_lint};
use pi2_simcore::{Duration, Time};
use pi2_transport::TcpConfig;
use std::io::{BufRead, BufReader, BufWriter};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// The cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObservedSize {
    /// Bottleneck rate, `pi2sim --rate` syntax.
    pub rate: &'static str,
    /// Simulated seconds.
    pub secs: u64,
    /// Packet flows, `--flows` syntax.
    pub flows: &'static str,
    /// Fluid background, `--bg-flows` syntax: small enough that the
    /// packet foreground keeps a large share of the link.
    pub bg_flows: &'static str,
}

impl ObservedSize {
    /// The benchmark's size.
    pub const STANDARD: ObservedSize = ObservedSize {
        rate: "100M",
        secs: 60,
        flows: "2xcubic,2xdctcp",
        bg_flows: "4xreno",
    };

    /// The scenario arguments both `pi2sim` runs share.
    pub fn args(&self, seed: u64) -> Vec<String> {
        let sim_seed = seed_offset(seed) ^ 1;
        [
            "--aqm",
            "coupled",
            "--rate",
            self.rate,
            "--rtt",
            "20ms",
            "--flows",
            self.flows,
            "--secs",
            &self.secs.to_string(),
            "--warmup",
            &(self.secs / 6).to_string(),
            "--seed",
            &sim_seed.to_string(),
            "--backend",
            "hybrid",
            "--bg-flows",
            self.bg_flows,
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    }

    /// Simulated seconds at which the first run checkpoints.
    pub fn half(&self) -> u64 {
        self.secs / 2
    }
}

/// How often the scraper asks for `/metrics`.
const SCRAPE_EVERY: std::time::Duration = std::time::Duration::from_millis(10);

/// How long any single wait on a `pi2sim` process may take.
const PROC_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(60);

/// Build `pi2sim` from the repository's workspace with cargo (a no-op
/// when it is fresh) and return the executable's path.
pub fn pi2sim_binary() -> Result<PathBuf, String> {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let out = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string()))
        .current_dir(&repo)
        .args([
            "build",
            "--release",
            "--quiet",
            "--offline",
            "-p",
            "pi2-bench",
            "--bin",
            "pi2sim",
        ])
        .args(["--message-format", "json"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!("building pi2sim failed ({})", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    for line in text.lines() {
        let Ok(msg) = Json::parse(line) else { continue };
        let is_pi2sim = msg
            .get("target")
            .and_then(|t| t.get("name"))
            .and_then(Json::as_str)
            == Some("pi2sim");
        if let (true, Some(exe)) = (is_pi2sim, msg.get("executable").and_then(Json::as_str)) {
            return Ok(PathBuf::from(exe));
        }
    }
    Err("cargo reported no pi2sim executable".to_string())
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Stream {
    Out,
    Err,
}

/// A running `pi2sim` with its output lines timestamped as they arrive.
/// Dropping it kills the process if it is still running and waits for it.
struct Proc {
    child: Child,
    pid: String,
    spawned: Instant,
    rx: Receiver<(Instant, Stream, String)>,
    lines: Vec<(Instant, Stream, String)>,
    readers: Vec<JoinHandle<()>>,
}

impl Proc {
    fn spawn(bin: &Path, args: &[String]) -> Result<Proc, String> {
        let spawned = Instant::now();
        let mut child = Command::new(bin)
            .args(args)
            .env("PI2_SERVE_HOLD", "1")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let (tx, rx) = mpsc::channel();
        let mut readers = Vec::new();
        let out = child
            .stdout
            .take()
            .map(|p| (Stream::Out, Box::new(p) as Box<dyn std::io::Read + Send>));
        let err = child
            .stderr
            .take()
            .map(|p| (Stream::Err, Box::new(p) as Box<dyn std::io::Read + Send>));
        for (stream, pipe) in [out, err].into_iter().flatten() {
            let tx = tx.clone();
            readers.push(std::thread::spawn(move || {
                for line in BufReader::new(pipe).lines() {
                    let Ok(line) = line else { break };
                    if tx.send((Instant::now(), stream, line)).is_err() {
                        break;
                    }
                }
            }));
        }
        Ok(Proc {
            pid: child.id().to_string(),
            child,
            spawned,
            rx,
            lines: Vec::new(),
            readers,
        })
    }

    /// The first line on `stream` containing `needle`, with its arrival
    /// time, waiting for it if it has not arrived yet.
    fn wait_for(&mut self, stream: Stream, needle: &str) -> Result<(Instant, String), String> {
        let hit = |(t, s, l): &(Instant, Stream, String)| {
            (*s == stream && l.contains(needle)).then(|| (*t, l.clone()))
        };
        if let Some(found) = self.lines.iter().find_map(hit) {
            return Ok(found);
        }
        let deadline = Instant::now() + PROC_TIMEOUT;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.rx.recv_timeout(left) {
                Ok(entry) => {
                    let found = hit(&entry);
                    self.lines.push(entry);
                    if let Some(found) = found {
                        return Ok(found);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    return Err(format!("timed out waiting for {needle:?}"))
                }
                Err(RecvTimeoutError::Disconnected) => {
                    let tail: Vec<&str> = self
                        .lines
                        .iter()
                        .rev()
                        .take(3)
                        .map(|l| l.2.as_str())
                        .collect();
                    return Err(format!(
                        "pi2sim exited before {needle:?}; last output {tail:?}"
                    ));
                }
            }
        }
    }

    /// The bound address from the `--serve` announcement.
    fn served_addr(&mut self) -> Result<(Instant, SocketAddr), String> {
        let (t, line) = self.wait_for(Stream::Err, "serving http://")?;
        let addr = line
            .split("http://")
            .nth(1)
            .and_then(|r| r.split('/').next())
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unparsable serve line {line:?}"))?;
        Ok((t, addr))
    }

    /// Release a held process and require a clean exit.
    fn quit(mut self, addr: SocketAddr) -> Result<Vec<(Instant, Stream, String)>, String> {
        http_get(addr, "/quit").map_err(|e| format!("GET /quit: {e}"))?;
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        for r in self.readers.drain(..) {
            let _ = r.join();
        }
        self.lines.extend(self.rx.try_iter());
        if !status.success() {
            return Err(format!("pi2sim exited with {status}"));
        }
        Ok(std::mem::take(&mut self.lines))
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        for r in self.readers.drain(..) {
            let _ = r.join();
        }
    }
}

/// Scrape results: latency of each scrape from when it was due.
#[derive(Clone, Debug, Default)]
pub(crate) struct Scrapes {
    /// Latency per scrape, ms.
    pub lat_ms: Vec<f64>,
    /// Worst lateness of a scrape's start behind its schedule, ms.
    pub lag_ms_max: f64,
    /// One line per failed scrape.
    pub failures: Vec<String>,
}

impl Scrapes {
    fn merge(&mut self, o: Scrapes) {
        self.lat_ms.extend(o.lat_ms);
        self.lag_ms_max = self.lag_ms_max.max(o.lag_ms_max);
        self.failures.extend(o.failures);
    }
}

/// An open-loop `/metrics` scraper: scrape `k` is due `k` intervals
/// after the start whether or not earlier ones have returned, and is
/// timed from when it was due, so a stalled server shows as latency.
/// (The server answers one request per connection, so each scrape opens
/// its own loopback connection.)
pub(crate) struct Scraper {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Scrapes>,
}

impl Scraper {
    /// Start scraping `addr` every `every`.
    pub(crate) fn start(addr: SocketAddr, every: std::time::Duration) -> Scraper {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut s = Scrapes::default();
            let t0 = Instant::now();
            for k in 0u32.. {
                let due = t0 + every * k;
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                if flag.load(Ordering::SeqCst) {
                    break;
                }
                s.lag_ms_max = s.lag_ms_max.max(due.elapsed().as_secs_f64() * 1e3);
                let verdict = match http_get(addr, "/metrics") {
                    Ok((status, _)) if !status.contains(" 200 ") => Err(status),
                    Ok((_, body)) => prom_lint(&body).map(|_| ()),
                    Err(e) => Err(e.to_string()),
                };
                s.lat_ms.push(due.elapsed().as_secs_f64() * 1e3);
                if let Err(e) = verdict {
                    s.failures.push(format!("scrape {k}: {e}"));
                }
            }
            s
        });
        Scraper { stop, handle }
    }

    /// Stop after the scrape in flight and return what was measured.
    pub(crate) fn finish(self) -> Scrapes {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().unwrap_or_else(|_| Scrapes {
            failures: vec!["scraper panicked".to_string()],
            ..Scrapes::default()
        })
    }
}

/// One process of an operation, measured while it is held after its run.
struct Held {
    /// Spawn to the end of its run (the hold announcement), s.
    run_s: f64,
    /// Spawn to its first event, s.
    setup_s: f64,
    cpu_s: f64,
    rss_mb: f64,
    lines: Vec<(Instant, Stream, String)>,
}

/// Run `pi2sim` held and served, scraping it until it has finished its
/// run. `first_event` names the output line printed just before its
/// first event; `None` means the serve announcement is the last set-up
/// output (the few-flow build after it takes microseconds).
fn run_held(
    bin: &Path,
    args: &[String],
    first_event: Option<&str>,
    scrapes: &mut Scrapes,
) -> Result<Held, String> {
    let mut p = Proc::spawn(bin, args)?;
    let (t_served, addr) = p.served_addr()?;
    let scraper = Scraper::start(addr, SCRAPE_EVERY);
    let held = p.wait_for(Stream::Err, "holding for GET /quit");
    scrapes.merge(scraper.finish());
    let (t_done, _) = held?;
    let t_first = match first_event {
        Some(needle) => p.wait_for(Stream::Out, needle)?.0,
        None => t_served,
    };
    let cpu_s = host::cpu_s(&p.pid).ok_or("pi2sim vanished while held")?;
    let rss_mb = host::peak_rss_mb(&p.pid).ok_or("pi2sim vanished while held")?;
    let spawned = p.spawned;
    let lines = p.quit(addr)?;
    Ok(Held {
        run_s: (t_done - spawned).as_secs_f64(),
        setup_s: (t_first - spawned).as_secs_f64(),
        cpu_s,
        rss_mb,
        lines,
    })
}

fn counter(metrics: &Json, name: &str) -> Result<u64, String> {
    metrics
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_f64)
        .map(|v| v as u64)
        .ok_or_else(|| format!("metrics snapshot has no {name}"))
}

/// The counts a `pi2sim` metrics snapshot reports.
fn snapshot_counts(text: &str) -> Result<Counts, String> {
    let m = Json::parse(text).map_err(|e| format!("metrics snapshot: {e}"))?;
    Ok(Counts {
        events: counter(&m, "pi2_events_processed_total")?,
        enqueued: counter(&m, "pi2_enqueued_total")?,
        marked: counter(&m, "pi2_marked_total")?,
        dropped: counter(&m, "pi2_dropped_total")?,
        dequeued: counter(&m, "pi2_dequeued_total")?,
        aqm_updates: counter(&m, "pi2_aqm_updates_total")?,
    })
}

/// Everything one run-plus-resume measured.
pub(crate) struct OpResult {
    /// Host seconds of both runs, spawn to end of run.
    pub wall_s: f64,
    /// Host seconds of both runs before their first event.
    pub setup_s: f64,
    /// CPU seconds of both processes.
    pub cpu_s: f64,
    /// Peak resident memory of the larger process, MB.
    pub rss_mb: f64,
    /// The uninterrupted run's metrics snapshot.
    pub metrics_json: String,
    /// Its counts.
    pub counts: Counts,
}

fn must_read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// One operation: the observed run with a half-time checkpoint, then the
/// resume; checks the trace self-verification, the bounded queue
/// balance, every scrape, and resumed ≡ uninterrupted metrics.
pub(crate) fn op(
    bin: &Path,
    size: ObservedSize,
    seed: u64,
    dir: &Path,
    scrapes: &mut Scrapes,
) -> Result<OpResult, String> {
    let p = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (full, resumed, ckpt, trace) = (
        p("full.json"),
        p("resumed.json"),
        p("run.ckpt"),
        p("trace.jsonl"),
    );
    let base = size.args(seed);
    let mut a_args = base.clone();
    a_args.extend(
        [
            "--trace-out",
            &trace,
            "--metrics-out",
            &full,
            "--checkpoint-out",
            &ckpt,
            "--checkpoint-at",
            &format!("{}s", size.half()),
            "--serve",
            "127.0.0.1:0",
        ]
        .map(String::from),
    );
    let mut b_args = base;
    b_args.extend(
        [
            "--restore",
            &ckpt,
            "--metrics-out",
            &resumed,
            "--serve",
            "127.0.0.1:0",
        ]
        .map(String::from),
    );
    let before = scrapes.failures.len();
    let result = (|| {
        let a = run_held(bin, &a_args, None, scrapes)?;
        if !a
            .lines
            .iter()
            .any(|(_, s, l)| *s == Stream::Out && l.starts_with("trace verified:"))
        {
            return Err("pi2sim did not verify its trace".to_string());
        }
        let b = run_held(bin, &b_args, Some("# restored"), scrapes)?;
        let metrics_json = must_read(Path::new(&full))?;
        if must_read(Path::new(&resumed))? != metrics_json {
            return Err("resumed metrics differ from the uninterrupted run's".to_string());
        }
        let counts = snapshot_counts(&metrics_json)?;
        let c = counts;
        if c.dequeued == 0
            || c.dequeued > c.enqueued
            || c.enqueued - c.dequeued > 40_000
            || c.marked > c.enqueued
        {
            return Err(format!("conservation: {c:?}"));
        }
        Ok(OpResult {
            wall_s: a.run_s + b.run_s,
            setup_s: a.setup_s + b.setup_s,
            cpu_s: a.cpu_s + b.cpu_s,
            rss_mb: a.rss_mb.max(b.rss_mb),
            metrics_json,
            counts,
        })
    })();
    for f in [&full, &resumed, &ckpt, &trace] {
        let _ = std::fs::remove_file(f);
    }
    let r = result?;
    match scrapes.failures.get(before) {
        Some(f) => Err(format!("failed scrape: {f}")),
        None => Ok(r),
    }
}

/// One repetition of the untraced job: one operation.
pub fn job(bin: &Path, seed: u64, size: ObservedSize, dir: &Path) -> JobSample {
    let mut s = JobSample::default();
    let mut scrapes = Scrapes::default();
    match op(bin, size, seed, dir, &mut scrapes) {
        Ok(r) => {
            s.wall_s = r.wall_s;
            s.setup_s = r.setup_s;
            s.cpu_s = r.cpu_s;
            s.peak_rss_mb = r.rss_mb;
            s.events = r.counts.events;
            s.cell_ms.push(r.wall_s * 1e3);
            s.digests.push((
                "hybrid-cell".to_string(),
                digest_bytes(r.metrics_json.bytes()),
            ));
            s.ops.record("run+resume", Ok(()));
        }
        Err(e) => s.ops.record("run+resume", Err(e)),
    }
    s
}

/// What the in-process replay measured.
pub struct Replay {
    /// The uninterrupted run's metrics snapshot JSON.
    pub metrics_json: String,
    /// Counts of the work the loops did (the full run plus the resumed
    /// second half).
    pub loop_counts: Counts,
    /// Set-up time of the first build, ns.
    pub setup_ns: f64,
    /// Loop time and allocations.
    pub cost: LoopCost,
    /// Flows registered across both builds.
    pub flows: u64,
    /// Trace bytes written.
    pub trace_bytes: u64,
    /// `Sim::save` host ns.
    pub save_ns: f64,
    /// `Sim::restore` host ns.
    pub restore_ns: f64,
    /// Checkpoint size.
    pub ckpt_bytes: u64,
}

/// Build the cell as `pi2sim` does for these arguments, decorated when
/// `traced`, with a JSONL trace when `trace` is given.
fn build(
    a: &CliArgs,
    traced: bool,
    trace: Option<&Path>,
) -> Result<(Sim, u64, Option<ByteCounter>), String> {
    let queue = QueueConfig {
        rate_bps: a.rate_bps,
        buffer_bytes: 40_000 * 1500,
    };
    let cfg = SimConfig {
        queue,
        seed: a.seed,
        monitor: MonitorConfig {
            warmup: Duration::from_secs(a.warmup_secs as i64),
            record_flow_sojourns: true,
            ..MonitorConfig::default()
        },
    };
    let coupled = CoupledPi2Config {
        target: a.target,
        ..CoupledPi2Config::default()
    };
    let aqm: Box<dyn Aqm> = Box::new(CoupledPi2::new(coupled));
    let mut sim = if traced {
        let fifo = BottleneckQueue::new(queue, Box::new(TimedAqm(aqm)));
        Sim::with_qdisc(cfg, Box::new(TimedQdisc::at_hop(0, Box::new(fifo))))
    } else {
        Sim::new(cfg, aqm)
    };
    sim.core.enable_metrics();
    let mut bytes = None;
    if let Some(path) = trace {
        let f = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let (w, counter) = CountingWriter::new(BufWriter::new(f));
        let sink: Box<dyn TraceSink> = Box::new(JsonlSink::new(w));
        sim.core.add_trace_sink(if traced {
            Box::new(TimedSink(sink))
        } else {
            sink
        });
        bytes = Some(counter);
    }
    let mut flows = 0;
    for spec in &a.flows {
        for _ in 0..spec.count {
            let (cc, ecn) = (spec.cc, spec.ecn);
            sim.add_flow(
                PathConf::symmetric(a.rtt),
                &spec.label,
                Time::ZERO,
                move |id| tcp(id, cc, ecn, TcpConfig::default(), traced),
            );
            flows += 1;
        }
    }
    let groups: Vec<BgGroup> = a
        .bg_flows
        .iter()
        .map(|s| BgGroup::new(s.count, s.cc, a.rtt, &s.label))
        .collect();
    let bg: Box<dyn BackgroundAggregate> = Box::new(FluidBackground::new(
        &groups,
        &AqmKind::Coupled(coupled),
        a.rate_bps,
    )?);
    sim.attach_background(if traced {
        Box::new(TimedBackground(bg))
    } else {
        bg
    });
    Ok((sim, flows, bytes))
}

fn counts_now(sim: &Sim) -> Counts {
    let t = sim.core.counters.totals();
    Counts {
        events: sim.core.events.popped(),
        enqueued: t.enqueued,
        marked: t.marked,
        dropped: t.dropped,
        dequeued: t.dequeued,
        aqm_updates: sim.core.counters.aqm_updates,
    }
}

/// Replay the operation in-process: the traced run with its half-time
/// checkpoint, then a fresh build restored from it and run to the end.
/// The resumed snapshot must equal the uninterrupted one.
pub fn replay(size: ObservedSize, seed: u64, traced: bool, trace: &Path) -> Result<Replay, String> {
    let a = parse_args(&size.args(seed))?;
    let run = |sim: &mut Sim, end: Time| {
        if traced {
            run_traced(sim, end)
        } else {
            run_untraced(sim, end)
        }
    };
    let (half, end) = (Time::from_secs(size.half()), Time::from_secs(a.secs));
    let t = Instant::now();
    let (mut sim, flows_a, bytes) = build(&a, traced, Some(trace))?;
    let setup_ns = t.elapsed().as_nanos() as f64;
    let mut cost = run(&mut sim, half);
    let t = Instant::now();
    let blob = sim.save();
    let save_ns = t.elapsed().as_nanos() as f64;
    let at_half = counts_now(&sim);
    cost.add(run(&mut sim, end));
    sim.core
        .flush_trace_sinks()
        .map_err(|e| format!("trace: {e}"))?;
    check_conservation(&sim)?;
    let full = counts_now(&sim);
    let metrics_json = sim
        .core
        .take_metrics()
        .ok_or("no metrics")?
        .registry()
        .to_json();
    let (mut resumed, flows_b, _) = build(&a, traced, None)?;
    let t = Instant::now();
    resumed
        .restore(&blob)
        .map_err(|e| format!("restore: {e:?}"))?;
    let restore_ns = t.elapsed().as_nanos() as f64;
    cost.add(run(&mut resumed, end));
    let resumed_counts = counts_now(&resumed);
    let resumed_json = resumed
        .core
        .take_metrics()
        .ok_or("no metrics")?
        .registry()
        .to_json();
    if resumed_json != metrics_json {
        return Err("replayed resume differs from the replayed uninterrupted run".to_string());
    }
    Ok(Replay {
        metrics_json,
        loop_counts: full.plus(&resumed_counts.minus(&at_half)),
        setup_ns,
        cost,
        flows: flows_a + flows_b,
        trace_bytes: bytes.map_or(0, |b| b.get()),
        save_ns,
        restore_ns,
        ckpt_bytes: blob.len() as u64,
    })
}

/// The traced run: one operation through `pi2sim` (scrape latency, the
/// reference snapshot), the untraced replay (loop time) and the traced
/// replay; both replays must reproduce the binary's snapshot exactly.
pub fn traced(bin: &Path, seed: u64, size: ObservedSize, dir: &Path) -> (LayerInputs, Ops) {
    ledger::calibration();
    let mut ops = Ops::default();
    let mut inp = LayerInputs::default();
    let mut scrapes = Scrapes::default();
    let reference = op(bin, size, seed, dir, &mut scrapes);
    ops.record(
        "run+resume",
        reference.as_ref().map(|_| ()).map_err(Clone::clone),
    );
    inp.scrape_ms = scrapes.lat_ms;
    inp.scrape_lag_ms_max = scrapes.lag_ms_max;
    let trace = dir.join("replay.jsonl");
    let outcome = guarded(|| {
        let reference = reference.map_err(|_| "no reference snapshot".to_string())?;
        ledger::take();
        let plain = replay(size, seed, false, &trace)?;
        let timed = replay(size, seed, true, &trace)?;
        for r in [&plain, &timed] {
            if r.metrics_json != reference.metrics_json {
                return Err("in-process replay differs from pi2sim's snapshot".to_string());
            }
        }
        inp.totals = ledger::take();
        inp.untraced_loop_ns = plain.cost.ns;
        inp.loop_allocs = timed.cost.allocs;
        inp.counts = timed.loop_counts;
        inp.setup_ms = plain.setup_ns / 1e6;
        inp.flows_added = timed.flows;
        inp.trace_bytes = timed.trace_bytes;
        inp.ckpt_save_ms = timed.save_ns / 1e6;
        inp.ckpt_restore_ms = timed.restore_ns / 1e6;
        inp.ckpt_bytes = timed.ckpt_bytes;
        Ok(())
    });
    let _ = std::fs::remove_file(&trace);
    ops.record("replay", outcome);
    (inp, ops)
}
