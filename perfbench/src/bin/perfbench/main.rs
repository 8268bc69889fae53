//! Closed-loop, single-client benchmark of the object-swapping stack.
//!
//! ```text
//! perfbench --workload <fig5|cycle-tcp|pressure> --seed <n> --seconds <s>
//!           --trace <0|1> [--size <full|tiny>]
//! ```
//!
//! Prints a summary line, then one JSON object as the last line of
//! standard output: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Exits 2 on bad arguments or a
//! failed set-up, 3 when the watchdog ends a stalled run.

mod cycle_tcp;
mod fig5;
mod harness;
mod pressure;
mod probes;

use harness::{run, Outcome, Report, RunConfig, Watchdog};
use std::time::Duration;

/// No run may outlive this, whatever it is waiting for.
const RUN_LIMIT: Duration = Duration::from_secs(170);

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse_args() -> Outcome<Args> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 30.0,
        trace: false,
        tiny: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds <= 120.0) {
                    return Err("--seconds must be between 0 and 120".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            "--size" => {
                args.tiny = match value.as_str() {
                    "full" => false,
                    "tiny" => true,
                    _ => return Err("--size must be full or tiny".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// Run the named workload at full or tiny size.
fn dispatch(args: &Args, cfg: RunConfig, beat: &harness::Heartbeat) -> Outcome<Report> {
    let pick = |full, tiny| if args.tiny { tiny } else { full };
    let seed = args.seed;
    match args.workload.as_str() {
        "fig5" => {
            let sizes = pick(fig5::FULL, fig5::TINY);
            run(cfg, beat, &|| fig5::build(sizes))
        }
        "cycle-tcp" => {
            let sizes = pick(cycle_tcp::FULL, cycle_tcp::TINY);
            run(cfg, beat, &|| cycle_tcp::build(sizes, seed))
        }
        "pressure" => {
            let sizes = pick(pressure::FULL, pressure::TINY);
            run(cfg, beat, &|| pressure::build(sizes))
        }
        other => Err(format!(
            "unknown workload {other:?} (fig5, cycle-tcp or pressure)"
        )),
    }
}

/// How long one op or one set-up may go without progress: a few hundred
/// times its usual length, and well under the live client's retry budget
/// on `cycle-tcp`.
fn stall_limit(workload: &str) -> Duration {
    match workload {
        "cycle-tcp" => Duration::from_secs(3),
        _ => Duration::from_secs(15),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (watchdog, beat) = Watchdog::start(stall_limit(&args.workload), RUN_LIMIT);
    let cfg = RunConfig {
        seconds: args.seconds,
        trace: args.trace,
    };
    // Tests A1 and A2 recurse once per list node through the interpreter.
    let outcome = {
        let args = args.clone();
        obiwan_bench::with_big_stack(move || dispatch(&args, cfg, &beat))
            .map_err(|e| e.to_string())
            .and_then(|r| r)
    };
    watchdog.stop();
    match outcome {
        Ok(report) => {
            println!(
                "perfbench workload={} seed={} size={} trace={} attempted={} failed={}",
                args.workload,
                args.seed,
                if args.tiny { "tiny" } else { "full" },
                u8::from(args.trace),
                report.attempted,
                report.failed
            );
            println!("{}", report.to_json());
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(2);
        }
    }
}
