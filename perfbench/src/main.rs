//! The repository benchmark. One run drives one workload under the MUTEX,
//! GLK and GLS lock providers and a std-lock reference, checks its outputs
//! and prints one JSON object as the last line of stdout:
//!
//! ```text
//! perfbench --workload <addr-locks|hamsterdb-mixed|kyoto-cache>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ledger (and writes the spans it recorded). See README.md.

mod clock;
mod driver;
mod hist;
mod probes;
mod procfs;
mod reference;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use gls::{GlkLock, GlkMode, ModeTransition};
use gls_clht::Clht;
use gls_locks::{FutexLock, McsLock, MutexLock, RawLock, RawRwLock, RwTtasRaw, TicketLock};
use gls_runtime::sysload::SystemLoadConfig;
use gls_runtime::SystemLoadMonitor;

use clock::Clock;
use hist::Histogram;
use probes::Probes;
use trace::{SpanBuf, Tracer, NO_PARENT};
use workload::{Inputs, Instance, OpKind, Provider, Rng, WorkerState, Workload, WORKERS};

/// Set-ups timed per provider; `setup_s` sums the per-provider medians.
const SETUP_REPS: usize = 9;
/// Measurement rounds; each round gives every provider one window, in an
/// order rotated from round to round.
const ROUNDS: usize = 30;
/// Untimed warm-up window per provider, before the rounds.
const WARMUP: Duration = Duration::from_millis(300);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let name = value("--workload")?;
    let args = Args {
        workload: Workload::parse(name).ok_or(format!("unknown workload {name}"))?,
        seed: number("--seed")?,
        seconds: number("--seconds")?,
        trace: match number("--trace")? {
            0 => false,
            1 => true,
            t => return Err(format!("--trace must be 0 or 1, not {t}")),
        },
    };
    if !(1..=600).contains(&args.seconds) {
        return Err("--seconds must be within 1..=600".into());
    }
    Ok(args)
}

/// Median over rounds of `a[r] / b[r]`: each round's windows of two
/// providers run back to back, so the ratio cancels drift in machine speed.
fn paired_ratio(a: &[f64], b: &[f64]) -> f64 {
    let ratios: Vec<f64> = a.iter().zip(b).map(|(x, y)| x / y).collect();
    median(&ratios)
}

fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// What the rounds record for one provider.
struct Run {
    inst: Instance,
    states: Vec<WorkerState>,
    checks: u64,
    setup_s: Vec<f64>,
    ops_per_s: Vec<f64>,
    p50_ns: Vec<f64>,
    p99_ns: Vec<f64>,
    samples: u64,
    traced_ops_per_s: Vec<f64>,
    traced_ops: u64,
    kinds: Vec<Histogram>,
    cache: gls::CacheStats,
    vol_switches: u64,
    cpu_ns: u64,
    wall_ns: f64,
}

/// Run-wide accumulators.
#[derive(Default)]
struct Totals {
    attempted: u64,
    failed: u64,
    pinned: bool,
    windows: u64,
    polls: u64,
    multiprogrammed_polls: u64,
    monitor_cpu_ns: u64,
    wall_ns: f64,
}

struct Metrics {
    list: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.list.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .list
            .iter()
            .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", json_num(*v)))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    match parse_args() {
        Ok(args) => {
            run(&args);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <addr-locks|hamsterdb-mixed|kyoto-cache> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            ExitCode::from(2)
        }
    }
}

fn run(args: &Args) {
    let clock = Clock::calibrate();
    let tracer = Tracer::default();
    let mut main_spans = tracer.buffer(1 << 12);
    // The process-wide load monitor and parking lot outlive every
    // provider's run: start both before any set-up, so no provider pays
    // their start-up.
    SystemLoadMonitor::global();
    gls_locks::ParkingLot::global();
    let inputs = Inputs::generate(args.workload, args.seed);
    let fresh_states = || -> Vec<WorkerState> {
        (0..WORKERS)
            .map(|w| WorkerState::new(args.workload, w))
            .collect()
    };

    // Set-up: SETUP_REPS builds per provider, interleaved; the last build
    // of each is the one measured.
    let mut built: Vec<Option<Instance>> = Provider::ALL.iter().map(|_| None).collect();
    let mut setup_s = vec![Vec::new(); Provider::ALL.len()];
    for rep in 0..SETUP_REPS {
        for k in 0..Provider::ALL.len() {
            let p = (rep + k) % Provider::ALL.len();
            built[p] = None;
            let t0 = Instant::now();
            let inst = Instance::build(args.workload, Provider::ALL[p], args.trace);
            setup_s[p].push(t0.elapsed().as_secs_f64());
            built[p] = Some(inst);
        }
    }
    let mut runs: Vec<Run> = built
        .into_iter()
        .zip(setup_s)
        .map(|(inst, setup_s)| Run {
            inst: inst.expect("built"),
            states: fresh_states(),
            checks: 0,
            setup_s,
            ops_per_s: Vec::new(),
            p50_ns: Vec::new(),
            p99_ns: Vec::new(),
            samples: 0,
            traced_ops_per_s: Vec::new(),
            traced_ops: 0,
            kinds: vec![Histogram::default(); 3],
            cache: gls::CacheStats::default(),
            vol_switches: 0,
            cpu_ns: 0,
            wall_ns: 0.0,
        })
        .collect();

    let mut totals = Totals {
        pinned: true,
        ..Totals::default()
    };
    let window_len = Duration::from_secs(args.seconds)
        / (ROUNDS * Provider::ALL.len() * if args.trace { 2 } else { 1 }) as u32;
    let mut window_no = 0u64;
    let mut run_window = |run: &mut Run, len: Duration, traced: bool, keep: bool| {
        window_no += 1;
        let ctx = driver::Trace {
            tracer: &tracer,
            window: window_no,
            op_names: args.workload.op_names(),
        };
        let w = driver::run(
            &run.inst,
            &mut run.states,
            &inputs.rings,
            len,
            &clock,
            traced.then_some(&ctx),
        );
        let t0 = clock::now();
        let read_hist = &mut run.kinds[OpKind::Read as usize];
        let (check_ops, check_failed) = run.inst.check(&run.states, |ticks| {
            if traced {
                read_hist.record(ticks);
            }
        });
        main_spans.record("check", NO_PARENT, window_no << 40, t0, clock::now());
        run.checks += 1;
        totals.attempted += w.ops + check_ops;
        totals.failed += w.failed + check_failed;
        totals.pinned &= w.pinned;
        totals.windows += 1;
        if !keep {
            return;
        }
        if traced {
            run.traced_ops_per_s.push(w.ops_per_s);
            run.traced_ops += w.ops;
            for (a, b) in run.kinds.iter_mut().zip(&w.kinds) {
                a.merge(b);
            }
            run.cache = run.cache + w.cache;
            run.vol_switches += w.vol_switches;
            run.cpu_ns += w.cpu_ns;
            run.wall_ns += w.wall_ns;
            totals.polls += w.polls;
            totals.multiprogrammed_polls += w.multiprogrammed_polls;
            totals.monitor_cpu_ns += w.monitor_cpu_ns;
            totals.wall_ns += w.wall_ns;
        } else {
            run.ops_per_s.push(w.ops_per_s);
            run.p50_ns
                .push(clock.ns(w.all.quantile(0.5).unwrap_or(0.0)));
            run.p99_ns
                .push(clock.ns(w.all.quantile(0.99).unwrap_or(0.0)));
            run.samples += w.all.count();
        }
    };

    for run in runs.iter_mut() {
        run_window(run, WARMUP, false, false);
    }
    for round in 0..ROUNDS {
        for k in 0..Provider::ALL.len() {
            let run = &mut runs[(round + k) % Provider::ALL.len()];
            if !args.trace {
                run_window(run, window_len, false, true);
            } else {
                // Traced and untraced windows alternate which goes first.
                let first = round % 2 == 1;
                run_window(run, window_len, first, true);
                run_window(run, window_len, !first, true);
            }
        }
    }

    let hardware_contexts = gls_runtime::hardware_contexts();
    let mut metrics = Metrics { list: Vec::new() };
    let mut meta = vec![
        format!("\"workload\":\"{}\"", args.workload.name()),
        format!("\"seed\":{}", args.seed),
        format!("\"seconds\":{}", args.seconds),
        format!("\"trace\":{}", u8::from(args.trace)),
        format!("\"hardware_contexts\":{hardware_contexts}"),
        format!("\"workers\":{WORKERS}"),
        format!("\"pinned\":{}", totals.pinned),
        format!("\"oversubscribed\":{}", WORKERS > hardware_contexts),
        format!("\"rounds\":{ROUNDS}"),
        format!("\"window_s\":{}", window_len.as_secs_f64()),
        format!("\"windows\":{}", totals.windows),
    ];
    if !args.trace {
        let reference = &runs[Provider::Std as usize];
        for (p, run) in Provider::ALL.iter().zip(&runs) {
            let name = p.name();
            if *p != Provider::Std {
                metrics.add(
                    format!("ops_vs_std.{name}"),
                    paired_ratio(&run.ops_per_s, &reference.ops_per_s),
                    "x",
                );
                metrics.add(
                    format!("p50_vs_std.{name}"),
                    paired_ratio(&run.p50_ns, &reference.p50_ns),
                    "x",
                );
            }
            // Absolute figures are printed, not gated: see README.md.
            let absolute = [
                ("ops_per_s", median(&run.ops_per_s), "ops/s"),
                ("p50_ns", median(&run.p50_ns), "ns"),
                ("p99_ns", median(&run.p99_ns), "ns"),
            ];
            for (metric, value, unit) in absolute {
                eprintln!(
                    "{:<42} {value:>16.4} {unit} (not gated)",
                    format!("{metric}.{name}")
                );
                meta.push(format!("\"{metric}.{name}\":{}", json_num(value)));
            }
            meta.push(format!(
                "\"samples.{name}\":{},\"beyond_p99.{name}\":{}",
                run.samples,
                run.samples / 100
            ));
        }
        // Set-up of the system under test: the reference is not part of it.
        let setup: f64 = Provider::ALL
            .iter()
            .zip(&runs)
            .filter(|(p, _)| **p != Provider::Std)
            .map(|(_, r)| median(&r.setup_s))
            .sum();
        metrics.add("setup_s", setup, "s");
        metrics.add("peak_rss_mb", procfs::peak_rss_mib().unwrap_or(0.0), "MiB");
    } else {
        ledger(
            args,
            &clock,
            &tracer,
            &mut main_spans,
            &inputs,
            &runs,
            &totals,
            &mut metrics,
        );
        tracer.submit(main_spans);
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"));
        let path = dir.join("perfbench-trace").join(format!(
            "{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        match tracer.write(&path, &clock) {
            Ok((written, dropped)) => meta.push(format!(
                "\"trace_file\":\"{}\",\"spans\":{written},\"spans_dropped\":{dropped}",
                path.display()
            )),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }

    for (name, value, unit) in &metrics.list {
        eprintln!("{name:<42} {value:>16.4} {unit}");
    }
    println!("{{\"meta\":{{{}}}}}", meta.join(","));
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        totals.failed == 0,
        totals.attempted,
        totals.failed,
        metrics.json()
    );
}

/// Share of acquisitions the hot lock spent in each GLK mode, from its
/// transition log and the benchmark's count of its acquisitions.
fn mode_shares(log: &[ModeTransition], acquisitions: u64) -> [f64; 3] {
    let index = |m: GlkMode| GlkMode::ALL.iter().position(|&x| x == m).expect("mode");
    let total = log
        .last()
        .map_or(acquisitions, |t| acquisitions.max(t.at_acquisition));
    let mut spent = [0u64; 3];
    let mut mode = log.first().map_or(GlkMode::Ticket, |t| t.from);
    let mut at = 0;
    for t in log {
        spent[index(mode)] += t.at_acquisition.saturating_sub(at);
        at = t.at_acquisition;
        mode = t.to;
    }
    spent[index(mode)] += total - at;
    spent.map(|s| s as f64 / total.max(1) as f64)
}

/// The per-layer metrics of the traced run.
#[allow(clippy::too_many_arguments)]
fn ledger(
    args: &Args,
    clock: &Clock,
    tracer: &Tracer,
    spans: &mut SpanBuf,
    inputs: &Inputs,
    runs: &[Run],
    totals: &Totals,
    m: &mut Metrics,
) {
    let workload = args.workload;
    let probes = Probes { clock, tracer };
    let ns = |h: &Histogram, q: f64| clock.ns(h.quantile(q).unwrap_or(0.0));

    // gls_systems: spans around the workload's own ops.
    for (p, run) in Provider::ALL.iter().zip(runs) {
        let p = p.name();
        m.add(
            format!("gls_systems.read_op_p50_ns.{p}"),
            ns(&run.kinds[OpKind::Read as usize], 0.5),
            "ns",
        );
        m.add(
            format!("gls_systems.write_op_p50_ns.{p}"),
            ns(&run.kinds[OpKind::Write as usize], 0.5),
            "ns",
        );
        let mut excl = Histogram::default();
        for &k in workload.exclusive_kinds() {
            excl.merge(&run.kinds[k as usize]);
        }
        m.add(
            format!("gls_systems.excl_op_p99_ns.{p}"),
            ns(&excl, 0.99),
            "ns",
        );
        // The absolute end-to-end figures, from the untraced windows.
        m.add(format!("ops_per_s.{p}"), median(&run.ops_per_s), "ops/s");
        m.add(format!("p50_ns.{p}"), median(&run.p50_ns), "ns");
        m.add(format!("p99_ns.{p}"), median(&run.p99_ns), "ns");
    }

    // gls: the lock cache, as the workers saw it; the service's lookup
    // cost over the workload's own population and skew.
    let gls_run = &runs[Provider::ALL
        .iter()
        .position(|&p| p == Provider::Gls)
        .expect("gls")];
    let service = gls_run.inst.service.as_ref().expect("gls service");
    let cache = gls_run.cache;
    m.add("gls.cache.hit_ratio", cache.hit_rate(), "ratio");
    m.add(
        "gls.cache.misses_per_op",
        cache.misses as f64 / gls_run.traced_ops.max(1) as f64,
        "count/op",
    );
    let t0 = clock::now();
    let entries = service.lock_count();
    let snapshot = service.telemetry_snapshot();
    let transitions_log = service.glk_transitions();
    let expansions = service.table_stats().expansions;
    spans.record("counter.gls.service", NO_PARENT, 0, t0, clock::now());

    let population = gls_run.inst.gls_population();
    const SEQ: usize = 1 << 14;
    let sequence: Vec<usize> = if workload == Workload::AddrLocks {
        inputs.rings[0][..SEQ]
            .iter()
            .map(|&op| population[(op & 0xFFFF) as usize])
            .collect()
    } else {
        let mut rng = Rng::new(args.seed);
        (0..SEQ)
            .map(|_| population[rng.below(population.len() as u64) as usize])
            .collect()
    };
    let gls_pair = probes.per_call("probe.gls.lock_unlock", 10_000, |i| {
        let addr = sequence[i & (SEQ - 1)];
        service.lock_addr(addr).expect("probe lock");
        service.unlock_addr(addr).expect("probe unlock");
    });
    let glk = GlkLock::new();
    let glk_pair = probes.per_call("probe.glk.lock_unlock", 10_000, |_| {
        glk.lock();
        glk.unlock();
    });
    m.add("gls.lock_unlock_ns", gls_pair, "ns");
    m.add("gls.glk.lock_unlock_ns", glk_pair, "ns");
    m.add("gls.lookup_overhead_ns", gls_pair - glk_pair, "ns");
    m.add("gls.entries", entries as f64, "count");
    let probe_obj = Box::new(0u64);
    let rw_addr = gls::GlsService::address_of(&*probe_obj);
    m.add(
        "gls.rw_read_pair_ns",
        probes.per_call("probe.gls.rw_read_pair", 10_000, |_| {
            service.read_lock_addr(rw_addr).expect("probe read lock");
            service
                .read_unlock_addr(rw_addr)
                .expect("probe read unlock");
        }),
        "ns",
    );

    // gls_clht: a table holding the workload's entry count.
    let table = Clht::new();
    for &addr in &population {
        table.put_if_absent(addr, || addr);
    }
    m.add(
        "gls_clht.get_ns",
        probes.per_call("probe.clht.get", 10_000, |i| {
            std::hint::black_box(table.get(sequence[i & (SEQ - 1)]));
        }),
        "ns",
    );
    m.add("gls_clht.expansions", expansions as f64, "count");

    // gls::glk: handoff, transitions and the hot lock's time in each mode.
    m.add(
        "gls.glk.handoff_ns",
        probes.handoff_ns(
            "probe.glk.handoff",
            &GlkLock::new(),
            GlkLock::lock,
            GlkLock::unlock,
        ),
        "ns",
    );
    m.add(
        "gls.glk.transitions",
        snapshot.glk_transitions as f64,
        "count",
    );
    let hot_addr = gls_run.inst.object_addr(inputs.hot_object);
    let hot_log = transitions_log
        .iter()
        .filter(|(addr, _)| hot_addr.is_none_or(|hot| hot == *addr))
        .max_by_key(|(_, log)| log.len())
        .map_or(&[][..], |(_, log)| &log[..]);
    let shares = mode_shares(
        hot_log,
        gls_run
            .inst
            .hot_acquisitions(workload, &gls_run.states, inputs.hot_object, gls_run.checks),
    );
    for (mode, share) in GlkMode::ALL.iter().zip(shares) {
        m.add(
            format!("gls.glk.hot_mode_share.{}", mode.name()),
            share,
            "share",
        );
    }

    // gls_locks: raw lock pairs, then the 2-thread handoff probe.
    fn raw<L: RawLock>(probes: &Probes, m: &mut Metrics, name: &str) {
        let lock = L::default();
        let pair = probes.per_call("probe.raw.lock_unlock", 10_000, |_| {
            lock.lock();
            lock.unlock();
        });
        m.add(format!("gls_locks.{name}.lock_unlock_ns"), pair, "ns");
        let handoff = probes.handoff_ns("probe.raw.handoff", &L::default(), L::lock, L::unlock);
        m.add(format!("gls_locks.{name}.handoff_ns"), handoff, "ns");
    }
    raw::<TicketLock>(&probes, m, "ticket");
    raw::<McsLock>(&probes, m, "mcs");
    raw::<MutexLock>(&probes, m, "mutex");
    let handoffs_before = gls_locks::cohort_stats().handoffs;
    raw::<FutexLock>(&probes, m, "futex");
    let rw = RwTtasRaw::new();
    m.add(
        "gls_locks.rwttas.read_pair_ns",
        probes.per_call("probe.rwttas.read_pair", 10_000, |_| {
            rw.read_lock();
            rw.read_unlock();
        }),
        "ns",
    );
    m.add("gls_locks.park.wake_ns", probes.park_wake_ns(), "ns");
    m.add(
        "gls_locks.futex.handoffs",
        (gls_locks::cohort_stats().handoffs - handoffs_before) as f64,
        "count",
    );
    for (p, run) in Provider::ALL.iter().zip(runs) {
        m.add(
            format!("gls_locks.vol_switches_per_kop.{}", p.name()),
            run.vol_switches as f64 * 1000.0 / run.traced_ops.max(1) as f64,
            "count/kop",
        );
    }

    // gls_runtime: the load monitor, as the workers ran beside it.
    m.add(
        "gls_runtime.sysload.multiprog_share",
        totals.multiprogrammed_polls as f64 / totals.polls.max(1) as f64,
        "share",
    );
    m.add(
        "gls_runtime.sysload.monitor_cpu_share",
        totals.monitor_cpu_ns as f64 / totals.wall_ns.max(1.0),
        "share",
    );
    let manual = SystemLoadMonitor::manual(SystemLoadConfig::default());
    m.add(
        "gls_runtime.sysload.poll_ns",
        probes.per_call("probe.sysload.poll", 10_000, |_| manual.poll_once()),
        "ns",
    );

    // Process: CPU use and the cost of tracing itself.
    for (p, run) in Provider::ALL.iter().zip(runs) {
        let p = p.name();
        m.add(
            format!("cpu_util.{p}"),
            run.cpu_ns as f64 / (run.wall_ns.max(1.0) * WORKERS as f64),
            "share",
        );
        m.add(
            format!("trace_overhead.{p}"),
            1.0 - median(&run.traced_ops_per_s) / median(&run.ops_per_s),
            "share",
        );
    }
    drop(probe_obj);
}
