//! The closed-loop runner shared by every workload: repeated set-up, the
//! timed loop, call timing from outside the library, count windows,
//! probes, the closing audit and the result line.

use obiwan_core::wire::WireFormatKind;
use obiwan_core::Middleware;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Result of one op or one set-up step; the error says what went wrong.
pub type Outcome<T> = Result<T, String>;

/// Turn any displayable error into an [`Outcome`] error with context.
pub fn ctx<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// The library entry points the traced run times from outside.
#[derive(Debug, Clone, Copy)]
pub enum Span {
    /// `Middleware::invoke*`.
    Invoke,
    /// `Middleware::make_cursor`.
    MakeCursor,
    /// Explicit `Middleware::run_gc` calls.
    Gc,
    /// `Middleware::swap_out` and `Middleware::swap_out_victim`.
    SwapOut,
    /// `Middleware::swap_in`.
    SwapIn,
}

const SPANS: [(Span, &str); 5] = [
    (Span::Invoke, "replication.invoke_us"),
    (Span::MakeCursor, "core.make_cursor_us"),
    (Span::Gc, "heap.gc_us"),
    (Span::SwapOut, "core.swap_out_us"),
    (Span::SwapIn, "core.swap_in_us"),
];

/// Accumulates the time spent inside each [`Span`] while switched on.
/// Switched off, [`Tracer::span`] is a plain call, so the untraced ops run
/// the same code as the traced ones.
#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    spent: [Duration; SPANS.len()],
}

impl Tracer {
    /// Run `f`, charging its wall time to `span` when tracing is on.
    #[inline]
    pub fn span<T>(&mut self, span: Span, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.spent[span as usize] += start.elapsed();
        out
    }
}

/// The watchdog's view of progress: the time of the latest heartbeat.
#[derive(Debug, Clone)]
pub struct Heartbeat {
    origin: Instant,
    last_ms: Arc<AtomicU64>,
}

impl Heartbeat {
    /// Record progress.
    pub fn beat(&self) {
        let ms = self.origin.elapsed().as_millis() as u64;
        self.last_ms.store(ms, Ordering::Relaxed);
    }
}

/// Ends the process with an error when no heartbeat arrives within
/// `stall`, or when the whole run outlives `limit`. A run whose daemon
/// dies or whose op hangs then fails within seconds instead of waiting
/// out the client's retry budget.
pub struct Watchdog {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<()>,
}

impl Watchdog {
    /// Start watching; returns the watchdog and the heartbeat to feed it.
    pub fn start(stall: Duration, limit: Duration) -> (Watchdog, Heartbeat) {
        let beat = Heartbeat {
            origin: Instant::now(),
            last_ms: Arc::new(AtomicU64::new(0)),
        };
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let beat = beat.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(50));
                    let now = beat.origin.elapsed();
                    let idle = now.saturating_sub(Duration::from_millis(
                        beat.last_ms.load(Ordering::Relaxed),
                    ));
                    if idle > stall || now > limit {
                        eprintln!(
                            "perfbench: watchdog: no progress for {:.1} s \
                             ({:.1} s into the run); aborting",
                            idle.as_secs_f64(),
                            now.as_secs_f64()
                        );
                        std::process::exit(3);
                    }
                }
            })
        };
        (Watchdog { stop, thread }, beat)
    }

    /// Stop watching and join the watchdog thread.
    pub fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = self.thread.join();
    }
}

/// Sizes of a workload's list.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// List length.
    pub nodes: usize,
    /// Objects per swap-cluster.
    pub cluster: usize,
}

/// One workload's world, built by its own `build` function.
pub trait Workload: Sized {
    /// Run one op and check its result.
    fn op(&mut self, t: &mut Tracer) -> Outcome<()>;
    /// The middleware under test.
    fn mw(&mut self) -> &mut Middleware;
    /// The wire format the workload swaps in.
    fn format(&self) -> WireFormatKind;
    /// Requests the workload's daemon has served, if it has one.
    fn daemon_requests(&self) -> u64 {
        0
    }
    /// Whether the fabric clock is the virtual link-model clock.
    fn virtual_clock(&self) -> bool {
        true
    }
    /// Release what the world holds outside the process heap (daemons).
    fn finish(self) {}
}

/// Run-wide settings from the command line.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// How long the timed loop runs (it also runs at least `MIN_OPS` ops).
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// Identical set-ups timed per run; `setup_s` is their median and the
/// last one is measured.
const SETUPS: usize = 9;

/// Fewest ops a run makes, so p90 has at least ten samples beyond it.
/// The traced run reports count deltas over the first `MIN_OPS` ops: a
/// fixed window, so they repeat exactly for one seed.
const MIN_OPS: usize = 100;

/// After this many failed ops in a row the loop gives up.
const MAX_CONSECUTIVE_FAILURES: usize = 10;

/// The printed result.
#[derive(Debug, Default)]
pub struct Report {
    /// Every op succeeded and the closing audit was clean.
    pub correct: bool,
    /// Ops run in the timed loop.
    pub attempted: usize,
    /// Ops that errored or returned a wrong result.
    pub failed: usize,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// Append a metric.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// The result as one JSON line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Counters read from the program between ops, as `(metric, running
/// total, unit)`; the traced run reports their per-op deltas.
fn counters<W: Workload>(w: &mut W) -> Vec<(&'static str, f64, &'static str)> {
    let daemon_requests = w.daemon_requests() as f64;
    let virtual_clock = w.virtual_clock();
    let s = w.mw().stats();
    let airtime_ms = if virtual_clock {
        s.now.as_micros() as f64 / 1e3
    } else {
        0.0
    };
    let count = |name, v: u64| (name, v as f64, "count");
    vec![
        (
            "wire_bytes_per_op",
            (s.swap.bytes_swapped_out + s.swap.bytes_swapped_in) as f64,
            "bytes",
        ),
        ("airtime_ms_per_op", airtime_ms, "ms"),
        ("blobd.requests", daemon_requests, "count"),
        count("proxy.created", s.swap.proxies_created),
        count("proxy.reused", s.swap.proxies_reused),
        count("proxy.dismantled", s.swap.proxies_dismantled),
        count("proxy.assign_patches", s.swap.assign_patches),
        count("proxy.crossings", s.swap.crossings),
        count("victim.swap_outs", s.swap.swap_outs),
        count("reload.swap_ins", s.swap.swap_ins),
        count("gc_bridge.blobs_dropped", s.swap.blobs_dropped),
        count("heap.gc_runs", s.heap.gc_runs),
        count("heap.allocs", s.heap.total_allocs),
        count("replication.invocations", s.process.0),
        count("replication.faults", s.process.1),
    ]
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Median of a sample (the mean of the two middle values when even).
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q` quantile of a sample, by linear interpolation between order
/// statistics.
fn quantile(mut v: Vec<f64>, q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil().min((v.len() - 1) as f64) as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Build the world `SETUPS` times, timing each build, and keep the last
/// one.
fn set_up<W: Workload>(beat: &Heartbeat, build: &dyn Fn() -> Outcome<W>) -> Outcome<(W, f64)> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut world: Option<W> = None;
    for _ in 0..SETUPS {
        if let Some(old) = world.take() {
            old.finish();
        }
        let start = Instant::now();
        let w = build()?;
        times.push(start.elapsed().as_secs_f64());
        world = Some(w);
        beat.beat();
    }
    let world = world.ok_or("no set-up ran")?;
    Ok((world, median(times)))
}

/// Build, run the timed loop, probe (traced run only), audit and report.
pub fn run<W: Workload>(
    cfg: RunConfig,
    beat: &Heartbeat,
    build: &dyn Fn() -> Outcome<W>,
) -> Outcome<Report> {
    let (mut w, setup_s) = set_up(beat, build)?;
    let mut report = Report::default();
    let mut tracer = Tracer::default();
    // Untraced op latencies, and (traced run) the latencies of the ops
    // run with the tracer on, interleaved one for one with untraced ops.
    let mut plain: Vec<f64> = Vec::new();
    let mut traced: Vec<f64> = Vec::new();
    let mut consecutive_failures = 0;
    let c0 = counters(&mut w);
    let mut c1 = c0.clone();
    let run_for = Duration::from_secs_f64(cfg.seconds);
    let loop_start = Instant::now();
    while report.attempted < MIN_OPS || loop_start.elapsed() < run_for {
        tracer.on = cfg.trace && report.attempted % 2 == 1;
        let start = Instant::now();
        let out = w.op(&mut tracer);
        let took = us(start.elapsed());
        beat.beat();
        report.attempted += 1;
        if let Err(e) = out {
            report.failed += 1;
            consecutive_failures += 1;
            if report.failed <= 5 {
                eprintln!("perfbench: op {} failed: {e}", report.attempted);
            }
            if consecutive_failures >= MAX_CONSECUTIVE_FAILURES {
                eprintln!("perfbench: {consecutive_failures} failed ops in a row; stopping");
                break;
            }
        } else {
            consecutive_failures = 0;
        }
        if tracer.on {
            traced.push(took);
        } else {
            plain.push(took);
        }
        if report.attempted == MIN_OPS {
            c1 = counters(&mut w);
        }
    }
    let loop_s = loop_start.elapsed().as_secs_f64();

    if cfg.trace {
        let traced_ops = traced.len().max(1) as f64;
        let traced_total: f64 = traced.iter().sum();
        let mut spans_total = 0.0;
        for (span, name) in SPANS {
            let t = us(tracer.spent[span as usize]);
            spans_total += t;
            report.put(name, t / traced_ops, "us");
        }
        let plain_p50 = median(plain.clone());
        let traced_p50 = median(traced.clone());
        report.put(
            "trace.overhead_pct",
            (traced_p50 - plain_p50) / plain_p50 * 100.0,
            "%",
        );
        report.put(
            "trace.attributed_pct",
            spans_total / traced_total * 100.0,
            "%",
        );
        for ((name, a, unit), (_, b, _)) in c0.into_iter().zip(c1) {
            report.put(name, (b - a) / MIN_OPS as f64, unit);
        }
        let format = w.format();
        crate::probes::run_all(w.mw(), format, beat, &mut report)?;
    } else {
        report.put("setup_s", setup_s, "s");
        report.put("op_us_p50", median(plain.clone()), "us");
        report.put("op_us_p90", quantile(plain, 0.9), "us");
        report.put("ops_per_s", report.attempted as f64 / loop_s, "1/s");
        let heap_peak = w.mw().stats().heap.peak_bytes;
        report.put("heap_peak_bytes", heap_peak as f64, "bytes");
    }

    let audit = w.mw().audit();
    beat.beat();
    let audit_clean = !audit.has_errors();
    if !audit_clean {
        eprintln!("perfbench: audit found error-severity violations:\n{audit}");
    }
    w.finish();
    report.correct = report.failed == 0 && audit_clean;
    Ok(report)
}
