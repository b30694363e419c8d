//! One measurement window: `WORKERS` pinned closed-loop threads run one
//! instance's ops until the window ends, timing each call.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

use gls::CacheStats;
use gls_runtime::{topology, SystemLoadMonitor};

use crate::clock::{now, Clock};
use crate::hist::Histogram;
use crate::procfs;
use crate::trace::{SpanBuf, Tracer, NO_PARENT, WINDOW_SPANS};
use crate::workload::{kind_of, Instance, WorkerState, RING};

/// Tracing context of a traced window.
pub struct Trace<'a> {
    pub tracer: &'a Tracer,
    /// Window sequence number, the high bits of every op's request id.
    pub window: u64,
    pub op_names: [&'static str; 3],
}

#[derive(Default)]
pub struct Window {
    pub ops: u64,
    pub failed: u64,
    pub ops_per_s: f64,
    pub pinned: bool,
    /// Latency of every op, in ticks.
    pub all: Histogram,
    /// Traced windows: latency by op kind, in ticks.
    pub kinds: Vec<Histogram>,
    /// Traced windows: the workers' lock-cache counters.
    pub cache: CacheStats,
    /// Traced windows: the workers' voluntary context switches.
    pub vol_switches: u64,
    /// Traced windows: wall time, process and load-monitor CPU time.
    pub wall_ns: f64,
    pub cpu_ns: u64,
    pub monitor_cpu_ns: u64,
    /// Traced windows: 1 ms polls of the load monitor, and how many read
    /// "multiprogrammed".
    pub polls: u64,
    pub multiprogrammed_polls: u64,
}

struct Sync {
    stop: AtomicBool,
    start: Barrier,
    /// Workers have left their loop but are still alive, so their CPU time
    /// is still in `/proc`.
    finished: Barrier,
    release: Barrier,
}

const MONITOR_THREAD: &str = "gls-sysload";

/// Runs one window of `duration` over `inst`, continuing each worker's
/// state. `trace` turns on per-kind latencies, spans and counter reads.
pub fn run(
    inst: &Instance,
    states: &mut [WorkerState],
    rings: &[Vec<u32>],
    duration: Duration,
    clock: &Clock,
    trace: Option<&Trace>,
) -> Window {
    let n = states.len();
    let sync = Sync {
        stop: AtomicBool::new(false),
        start: Barrier::new(n + 1),
        finished: Barrier::new(n + 1),
        release: Barrier::new(n + 1),
    };
    let mut window = Window {
        pinned: true,
        kinds: if trace.is_some() {
            vec![Histogram::default(); 3]
        } else {
            Vec::new()
        },
        ..Window::default()
    };
    thread::scope(|s| {
        let sync = &sync;
        let handles: Vec<_> = states
            .iter_mut()
            .zip(rings)
            .enumerate()
            .map(|(w, (state, ring))| {
                s.spawn(move || match trace {
                    Some(t) => worker::<true>(w, inst, state, ring, sync, Some(t)),
                    None => worker::<false>(w, inst, state, ring, sync, None),
                })
            })
            .collect();
        sync.start.wait();
        let t0 = Instant::now();
        if trace.is_some() {
            let (cpu0, mon0) = (
                procfs::process_cpu_ns(),
                procfs::named_threads_cpu_ns(MONITOR_THREAD),
            );
            let monitor = SystemLoadMonitor::global();
            while t0.elapsed() < duration {
                sleep(Duration::from_millis(1));
                window.polls += 1;
                window.multiprogrammed_polls += u64::from(monitor.is_multiprogrammed());
            }
            sync.stop.store(true, Ordering::Relaxed);
            sync.finished.wait();
            window.wall_ns = t0.elapsed().as_nanos() as f64;
            let (cpu1, mon1) = (
                procfs::process_cpu_ns(),
                procfs::named_threads_cpu_ns(MONITOR_THREAD),
            );
            window.cpu_ns = cpu1.zip(cpu0).map_or(0, |(b, a)| b.saturating_sub(a));
            window.monitor_cpu_ns = mon1.zip(mon0).map_or(0, |(b, a)| b.saturating_sub(a));
        } else {
            sleep(duration);
            sync.stop.store(true, Ordering::Relaxed);
            sync.finished.wait();
        }
        sync.release.wait();
        for h in handles {
            let out = h.join().expect("worker panicked");
            window.ops += out.ops;
            window.failed += out.failed;
            window.ops_per_s += out.ops as f64 / (clock.ns(out.ticks as f64) * 1e-9);
            window.pinned &= out.pinned;
            window.all.merge(&out.all);
            for (a, b) in window.kinds.iter_mut().zip(&out.kinds) {
                a.merge(b);
            }
            window.cache = window.cache + out.cache;
            window.vol_switches += out.vol_switches;
            if let (Some(t), Some(buf)) = (trace, out.spans) {
                t.tracer.submit(buf);
            }
        }
    });
    window
}

// The window length is wall-clock time by definition.
#[allow(clippy::disallowed_methods)]
fn sleep(d: Duration) {
    thread::sleep(d);
}

#[derive(Default)]
struct WorkerOut {
    ops: u64,
    failed: u64,
    ticks: u64,
    pinned: bool,
    all: Histogram,
    kinds: Vec<Histogram>,
    cache: CacheStats,
    vol_switches: u64,
    spans: Option<SpanBuf>,
}

fn worker<const TRACED: bool>(
    w: usize,
    inst: &Instance,
    state: &mut WorkerState,
    ring: &[u32],
    sync: &Sync,
    trace: Option<&Trace>,
) -> WorkerOut {
    let pinned = topology::pin_worker(w);
    // Count this worker towards the load monitor's runnable threads, as
    // the systems' own drivers do, so GLK's load source sees it.
    let _runnable = SystemLoadMonitor::global().runnable_guard();
    let mut out = WorkerOut {
        pinned,
        kinds: if TRACED {
            vec![Histogram::default(); 3]
        } else {
            Vec::new()
        },
        spans: trace.map(|t| t.tracer.buffer(WINDOW_SPANS)),
        ..WorkerOut::default()
    };
    let (names, window_id) = trace.map_or(([""; 3], 0), |t| (t.op_names, t.window));
    gls::reset_thread_cache_stats();
    let vol0 = if TRACED {
        procfs::thread_voluntary_switches().unwrap_or(0)
    } else {
        0
    };
    sync.start.wait();
    let start = now();
    let mut window_span = NO_PARENT;
    if let Some(buf) = out.spans.as_mut() {
        window_span = buf.open("window", NO_PARENT, window_id << 40, start);
    }
    let mut i = 0u64;
    while !sync.stop.load(Ordering::Relaxed) {
        let op = ring[i as usize & (RING - 1)];
        let t0 = now();
        let ok = inst.execute(op, state);
        let t1 = now();
        out.all.record(t1 - t0);
        if TRACED {
            let kind = kind_of(op);
            out.kinds[kind].record(t1 - t0);
            if let Some(buf) = out.spans.as_mut() {
                let request = (window_id << 40) | ((w as u64) << 32) | (i & 0xFFFF_FFFF);
                buf.record(names[kind], window_span, request, t0, t1);
            }
        }
        out.failed += u64::from(!ok);
        i += 1;
    }
    let end = now();
    out.ops = i;
    out.ticks = end - start;
    if TRACED {
        let t = now();
        out.cache = gls::thread_cache_stats();
        out.vol_switches = procfs::thread_voluntary_switches()
            .unwrap_or(0)
            .saturating_sub(vol0);
        if let Some(buf) = out.spans.as_mut() {
            buf.record("counter.worker", window_span, window_id << 40, t, now());
            buf.close(window_span, end);
        }
    }
    sync.finished.wait();
    sync.release.wait();
    out
}
