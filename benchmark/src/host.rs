//! Host-side readings: process CPU time and peak memory from `/proc`,
//! a thread-local allocation counter, and the reference kernels that
//! show which speed mode the host is in.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::time::Instant;

/// Kernel clock ticks per second of `/proc/<pid>/stat` times (USER_HZ,
/// 100 on every Linux ABI this runs on).
const TICKS_PER_SEC: f64 = 100.0;

/// User plus system CPU seconds of a process (`"self"` or a pid),
/// threads included; `None` once the process is gone.
pub(crate) fn cpu_s(pid: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = &stat[stat.rfind(')')? + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line.
    let utime: f64 = f.get(11)?.parse().ok()?;
    let stime: f64 = f.get(12)?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SEC)
}

/// Peak resident set (VmHWM) of a process in MB; `None` once it is gone.
pub(crate) fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Fixed reference kernels that touch no repository code, so their
/// timings move only when the host does. Printed beside every run, they
/// make a host speed-mode switch visible next to the figures it moved.
#[derive(Clone, Copy, Debug)]
pub struct HostMode {
    /// Integer kernel (xorshift chain into a 64 KiB table), ns/iteration.
    pub compute_ns: f64,
    /// Dependent pointer walk over 4 MiB — cache-bound like the
    /// simulator's working set — ns/step.
    pub walk_ns: f64,
    /// One `Instant::now()` read, ns (what every span pays).
    pub clock_ns: f64,
}

impl HostMode {
    /// The readings as a JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"compute_ns\": {:?}, \"walk_ns\": {:?}, \"clock_ns\": {:?}}}",
            self.compute_ns, self.walk_ns, self.clock_ns
        )
    }
}

/// Time the reference kernels (median of five timings each).
pub fn host_mode() -> HostMode {
    fn median5(mut f: impl FnMut() -> f64) -> f64 {
        let mut v: Vec<f64> = (0..5).map(|_| f()).collect();
        v.sort_by(f64::total_cmp);
        v[2]
    }
    const ITERS: u32 = 1_000_000;
    let mut table = vec![0u32; 16 * 1024];
    let compute_ns = median5(|| {
        let t0 = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..ITERS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = (x as usize) & (table.len() - 1);
            table[k] = table[k].wrapping_add(i);
        }
        black_box(&table);
        t0.elapsed().as_nanos() as f64 / f64::from(ITERS)
    });
    // A single random cycle through 4 MiB of slots (Sattolo's shuffle),
    // so every step is a dependent load the prefetcher cannot guess.
    let n = (4 << 20) / std::mem::size_of::<usize>();
    let mut next: Vec<usize> = (0..n).collect();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for i in (1..n).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        next.swap(i, (x % i as u64) as usize);
    }
    let mut p = 0usize;
    let walk_ns = median5(|| {
        let t0 = Instant::now();
        for _ in 0..ITERS {
            p = next[p];
        }
        black_box(p);
        t0.elapsed().as_nanos() as f64 / f64::from(ITERS)
    });
    let clock_ns = median5(|| {
        let t0 = Instant::now();
        for _ in 0..ITERS / 10 {
            black_box(Instant::now());
        }
        t0.elapsed().as_nanos() as f64 / f64::from(ITERS / 10)
    });
    HostMode {
        compute_ns,
        walk_ns,
        clock_ns,
    }
}

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// A `System` allocator that counts allocator calls per thread, so a
/// worker's event-loop allocations are read exactly while another worker
/// is building its next cell.
pub(crate) struct CountingAlloc;

fn note_alloc() {
    // `try_with`: the slot is const-initialised and has no destructor,
    // but stay silent rather than panic inside the allocator.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the only addition is a thread-local counter bump, which
// neither allocates nor touches the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from `System` via `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: forwarded verbatim; `ptr` came from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocator calls (alloc, alloc_zeroed, realloc) made by this thread.
pub(crate) fn thread_allocs() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}
