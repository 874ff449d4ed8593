//! The benchmark's command line:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload paper_grid --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` repeats the workload's untraced job until `--seconds`
//! have passed and reports the end-to-end metrics (medians over the
//! repetitions); `--trace 1` runs the traced pass once and reports the
//! per-layer ledger. Either way the last stdout line is the JSON result.
//! `--bless` rewrites `reference/digests.txt` from the default seed.

use pi2_benchmark::grid::{self, GridSize};
use pi2_benchmark::mice::{self, MiceSize};
use pi2_benchmark::observed::{self, ObservedSize};
use pi2_benchmark::report::{self, LayerInputs, Metric};
use pi2_benchmark::{host, JobSample, Ops, DEFAULT_SEED};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const USAGE: &str = "usage: pi2-benchmark --workload <paper_grid|mice_multihop|observed_resume> \
                     --seed <n> --seconds <n> --trace <0|1>\n       pi2-benchmark --bless";

const WORKLOADS: [&str; 3] = ["paper_grid", "mice_multihop", "observed_resume"];

/// Reference digests of every cell at the default seed.
const REFERENCE: &str = include_str!("../reference/digests.txt");

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(argv: &[String]) -> Result<Option<Args>, String> {
    if argv == ["--bless"] {
        return Ok(None);
    }
    let mut kv = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(k) = it.next() {
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        if kv.insert(k.as_str(), v.as_str()).is_some() {
            return Err(format!("{k} given twice"));
        }
    }
    let mut take = |k: &str| kv.remove(k).ok_or_else(|| format!("missing {k}"));
    let workload = take("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let num = |k: &str, v: &str| {
        v.parse::<u64>()
            .map_err(|_| format!("{k} must be a whole number"))
    };
    let seed = num("--seed", take("--seed")?)?;
    let seconds = num("--seconds", take("--seconds")?)?;
    let trace = match take("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    if let Some(k) = kv.keys().next() {
        return Err(format!("unknown argument {k}"));
    }
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

/// Where runs keep their scratch files: inside the checkout, per process.
fn work_dir() -> PathBuf {
    let dir = Path::new(".bench_runs").join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        fail(&format!("cannot create {}: {e}", dir.display()));
    }
    dir
}

fn fail(msg: &str) -> ! {
    eprintln!("pi2-benchmark: {msg}");
    std::process::exit(1);
}

fn pi2sim() -> PathBuf {
    observed::pi2sim_binary().unwrap_or_else(|e| fail(&e))
}

/// One repetition of a workload's untraced job.
fn job(workload: &str, seed: u64, bin: Option<&Path>, dir: &Path) -> JobSample {
    match workload {
        "paper_grid" => grid::job(seed, GridSize::STANDARD),
        "mice_multihop" => mice::job(seed, MiceSize::STANDARD),
        _ => observed::job(
            bin.expect("pi2sim built"),
            seed,
            ObservedSize::STANDARD,
            dir,
        ),
    }
}

fn traced(workload: &str, seed: u64, bin: Option<&Path>, dir: &Path) -> (LayerInputs, Ops) {
    match workload {
        "paper_grid" => grid::traced(seed, GridSize::STANDARD),
        "mice_multihop" => mice::traced(seed, MiceSize::STANDARD),
        _ => observed::traced(
            bin.expect("pi2sim built"),
            seed,
            ObservedSize::STANDARD,
            dir,
        ),
    }
}

fn references() -> BTreeMap<(String, String), String> {
    REFERENCE
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() == 3).then(|| ((f[0].to_string(), f[1].to_string()), f[2].to_string()))
        })
        .collect()
}

/// At the default seed every cell's digest must match the committed
/// reference; a mismatch fails that cell.
fn check_digests(workload: &str, samples: &[JobSample], ops: &mut Ops) {
    let refs = references();
    for (cell, d) in samples.iter().flat_map(|s| &s.digests) {
        let key = (workload.to_string(), cell.clone());
        let got = format!("{d:016x}");
        match refs.get(&key) {
            Some(want) if *want == got => {}
            want => {
                ops.failed += 1;
                ops.notes
                    .push(format!("{cell}: digest {got}, reference {want:?}"));
            }
        }
    }
}

fn bless() {
    let dir = work_dir();
    let bin = pi2sim();
    let mut out =
        format!("# workload cell digest, at --seed {DEFAULT_SEED} (regenerate: --bless)\n");
    for w in WORKLOADS {
        let s = job(w, DEFAULT_SEED, Some(&bin), &dir);
        if s.ops.failed > 0 {
            fail(&format!("{w} failed, not blessing: {:?}", s.ops.notes));
        }
        for (cell, d) in &s.digests {
            out.push_str(&format!("{w} {cell} {d:016x}\n"));
        }
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("reference/digests.txt");
    std::fs::write(&path, out).unwrap_or_else(|e| fail(&format!("{}: {e}", path.display())));
    let _ = std::fs::remove_dir_all(&dir);
    println!("wrote {}", path.display());
}

/// Run one repetition in a fresh process (this executable in `--job`
/// mode), so every job starts from a clean heap and its peak memory and
/// CPU time are its own.
fn job_in_child(w: &str, seed: u64, bin: Option<&Path>, dir: &Path) -> JobSample {
    let exe = std::env::current_exe().unwrap_or_else(|e| fail(&format!("own executable: {e}")));
    let mut cmd = Command::new(exe);
    cmd.args(["--job", w, &seed.to_string()]).arg(dir);
    if let Some(b) = bin {
        cmd.arg(b);
    }
    let decoded = match cmd.stderr(Stdio::inherit()).output() {
        Ok(out) if out.status.success() => JobSample::decode(&String::from_utf8_lossy(&out.stdout)),
        Ok(out) => Err(format!("repetition exited with {}", out.status)),
        Err(e) => Err(format!("cannot start a repetition: {e}")),
    };
    decoded.unwrap_or_else(|e| {
        let mut s = JobSample::default();
        s.ops.record("repetition", Err(e));
        s
    })
}

/// `--job <workload> <seed> <dir> [<pi2sim>]`: one repetition, printed
/// for the parent.
fn child(argv: &[String]) {
    let (w, seed, dir) = match argv {
        [w, seed, dir, ..] => (
            w,
            seed.parse().unwrap_or_else(|_| fail("bad --job seed")),
            Path::new(dir),
        ),
        _ => fail("--job needs <workload> <seed> <dir> [<pi2sim>]"),
    };
    let bin = argv.get(3).map(Path::new);
    print!("{}", job(w, seed, bin, dir).encode());
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--job") {
        return child(&argv[1..]);
    }
    let args = match parse(&argv) {
        Ok(Some(a)) => a,
        Ok(None) => return bless(),
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let dir = work_dir();
    let bin = (args.workload == "observed_resume").then(pi2sim);
    let mode_before = host::host_mode();
    let started = Instant::now();
    let mut ops = Ops::default();
    let metrics: Vec<Metric>;
    let mut reps = 0usize;
    if args.trace {
        let (inp, o) = traced(&args.workload, args.seed, bin.as_deref(), &dir);
        ops.merge(o);
        metrics = report::per_layer(&inp);
    } else {
        let budget = Duration::from_secs(args.seconds);
        let mut samples = Vec::new();
        // Repeat while the next repetition would end inside the budget,
        // give or take half a repetition.
        let mut last = Duration::ZERO;
        while samples.is_empty() || started.elapsed() + last / 2 < budget {
            let rep = Instant::now();
            let s = job_in_child(&args.workload, args.seed, bin.as_deref(), &dir);
            println!(
                "# repetition {}: wall {:.4} s, cpu {:.3} s, setup {:.6} s, {:.1} MB, {} events, {}/{} ops failed",
                samples.len() + 1,
                s.wall_s,
                s.cpu_s,
                s.setup_s,
                s.peak_rss_mb,
                s.events,
                s.ops.failed,
                s.ops.attempted
            );
            ops.merge(s.ops.clone());
            samples.push(s);
            last = rep.elapsed();
        }
        reps = samples.len();
        if args.seed == DEFAULT_SEED {
            check_digests(&args.workload, &samples, &mut ops);
        }
        let ok: Vec<JobSample> = samples.into_iter().filter(|s| s.ops.failed == 0).collect();
        metrics = if ok.is_empty() {
            Vec::new()
        } else {
            report::end_to_end(&ok)
        };
    }
    let mode_after = host::host_mode();
    let _ = std::fs::remove_dir_all(&dir);

    let correct = ops.failed == 0 && !metrics.is_empty();
    println!(
        "# pi2-benchmark: workload={} seed={} trace={} repetitions={reps} elapsed={:.3}s",
        args.workload,
        args.seed,
        u8::from(args.trace),
        started.elapsed().as_secs_f64()
    );
    for m in &metrics {
        println!(
            "{:<34} {:>18} {}",
            m.name,
            format!("{:.6}", m.value),
            m.unit
        );
    }
    println!(
        "fail_frac {}/{} operations failed",
        ops.failed, ops.attempted
    );
    for n in &ops.notes {
        println!("FAILED {n}");
    }
    // The host-mode diagnostic: fixed kernels timed before and after the
    // run. They are not metrics of the program; a jump between runs marks
    // a host speed-mode switch, not a code change.
    let diag = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"before\": {}, \"after\": {}}}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        mode_before.json(),
        mode_after.json()
    );
    println!("# host-mode diagnostic: {diag}");
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(Path::new(".bench_runs").join("host_mode.jsonl"))
    {
        let _ = writeln!(f, "{diag}");
    }
    if metrics.is_empty() {
        fail("no operation succeeded; no result");
    }
    println!("{}", report::result_line(&ops, correct, &metrics));
}
