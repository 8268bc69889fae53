//! Scripted workload replay with a whole-graph audit after every step.
//!
//! The trace is the paper's Test B1 shape — a PDA walking a linked
//! structure through a swap-cluster-0 cursor under memory pressure —
//! interleaved with explicit swap-outs, reloads and collections chosen by
//! a deterministic pseudo-random schedule. After *every* operation the
//! auditor checks boundary soundness, detach integrity and blob
//! accounting, so a single corrupting operation is caught at the step
//! that introduced it, not at the end of the run.

use obiwan_core::audit::AuditReport;
use obiwan_core::{Middleware, SwapError};
use obiwan_heap::Value;
use obiwan_net::Transport as _;
use obiwan_replication::{standard_classes, Server};

/// Parameters of a replayed trace.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// List length (the paper's element count knob).
    pub nodes: usize,
    /// Payload bytes per node.
    pub payload: usize,
    /// Objects per replication cluster (= swap-cluster granularity).
    pub cluster_size: usize,
    /// Device heap capacity in bytes; small values force evictions.
    pub device_memory: usize,
    /// Operations to replay.
    pub steps: usize,
    /// Seed of the deterministic schedule.
    pub seed: u64,
    /// Wire format for swapped-out blobs.
    pub wire_format: obiwan_core::WireFormatKind,
    /// Holder devices per swap-out blob (1 = the paper's single copy).
    pub replication_factor: usize,
    /// Scripted churn: every [`CHURN_PERIOD`] steps one storage device
    /// departs (round-robin) and the previously departed one returns, so
    /// the policy pump's `HolderLost` → repair path runs under audit.
    pub churn: bool,
    /// Shards in the manager's lock table. `1` collapses the table to the
    /// pre-shard single-lock shape; larger values spread the same
    /// workload's clusters across shards so per-step audits cover the
    /// cross-shard paths.
    pub shards: usize,
    /// Which transport the replay runs over. `Sim` (the default) is the
    /// deterministic simulation; `Tcp` spawns one in-process
    /// `obiwan-blobd` daemon per storage device and drives the identical
    /// workload through the live transport over real sockets. Step
    /// schedules stay deterministic either way (the schedule is seeded);
    /// wall-clock timestamps in the exported trace do not.
    pub transport: obiwan_net::TransportKind,
}

/// Steps between scripted depart/arrive pairs when [`TraceConfig::churn`]
/// is on.
pub const CHURN_PERIOD: usize = 25;

/// Storage devices in the room under churn: one may be away at any time,
/// leaving two candidates so `replication_factor = 2` stays repairable.
const CHURN_STORES: usize = 3;

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            nodes: 200,
            payload: 64,
            cluster_size: 20,
            device_memory: 24 * 1024,
            steps: 300,
            seed: 7,
            wire_format: obiwan_core::WireFormatKind::default(),
            replication_factor: 1,
            churn: false,
            shards: obiwan_core::SwapConfig::default().shard_count,
            transport: obiwan_net::TransportKind::Sim,
        }
    }
}

/// The audit outcome of one replayed operation.
#[derive(Debug, Clone)]
pub struct StepRecord {
    /// Step index (0-based).
    pub step: usize,
    /// What was replayed (`"invoke next"`, `"swap_out sc3"`, …).
    pub op: String,
    /// Error-severity violations found right after the operation.
    pub errors: usize,
    /// Warning-severity violations found right after the operation.
    pub warnings: usize,
}

/// The result of a full trace replay.
#[derive(Debug)]
pub struct TraceOutcome {
    /// Per-step audit summaries, in replay order.
    pub steps: Vec<StepRecord>,
    /// The full report of the final audit pass.
    pub final_report: AuditReport,
    /// Swap-outs the workload triggered (explicit + memory pressure).
    pub swap_outs: u64,
    /// Reloads the workload triggered (explicit + transparent faults).
    pub swap_ins: u64,
    /// The lifecycle trace the run recorded, already exported.
    pub trace: obiwan_trace::Trace,
}

impl TraceOutcome {
    /// Whether any step (or the final pass) found an error-severity
    /// violation.
    pub fn has_errors(&self) -> bool {
        self.final_report.has_errors() || self.steps.iter().any(|s| s.errors > 0)
    }
}

/// Splitmix-style step for the deterministic schedule.
fn next_rand(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Replay a trace, auditing after every operation.
///
/// # Errors
///
/// Setup failures (replication of the root) and unexpected operation
/// failures; expected per-operation outcomes (bad state, retired victim,
/// data loss after an explicit drop) are tolerated and recorded in the
/// step's `op` string instead.
pub fn replay(cfg: &TraceConfig) -> Result<TraceOutcome, SwapError> {
    let mut server = Server::new(standard_classes());
    let head = server
        .build_list("Node", cfg.nodes, cfg.payload)
        .map_err(SwapError::Repl)?;
    let mut builder = Middleware::builder()
        .cluster_size(cfg.cluster_size)
        .device_memory(cfg.device_memory)
        .wire_format(cfg.wire_format)
        .replication_factor(cfg.replication_factor)
        .shard_count(cfg.shards)
        .transport(cfg.transport);
    // Enough storage devices that one can be away while k = 2 copies
    // still have somewhere to live (and be repaired to).
    let store_count = if cfg.churn || cfg.replication_factor > 1 {
        CHURN_STORES
    } else {
        1
    };
    if cfg.transport == obiwan_net::TransportKind::Sim {
        builder = builder.stores(
            (0..store_count)
                .map(|i| {
                    obiwan_core::StoreSpec::new(
                        format!("store-{i}"),
                        obiwan_net::DeviceKind::Laptop,
                        16 << 20,
                    )
                })
                .collect(),
        );
    }
    // Over TCP the room is assembled externally: one in-process
    // `obiwan-blobd` daemon per storage device, fronted by the live
    // transport. The daemon handles keep the processes alive for the whole
    // replay and shut them down at the end.
    let mut daemons: Vec<obiwan_blobd::BlobdHandle> = Vec::new();
    let mut mw = match cfg.transport {
        obiwan_net::TransportKind::Sim => builder.build(server),
        obiwan_net::TransportKind::Tcp => {
            let universe = server.classes().clone();
            let mut net = obiwan_netd::ActorNet::new();
            let home = net.add_device("pda", obiwan_net::DeviceKind::Pda, 0);
            for i in 0..store_count {
                let handle = obiwan_blobd::Blobd::spawn_local(16 << 20).map_err(|e| {
                    SwapError::Net(obiwan_net::NetError::Protocol {
                        device: home,
                        detail: format!("spawning loopback obiwan-blobd: {e}"),
                    })
                })?;
                let d = net.add_remote_device(
                    format!("store-{i}"),
                    obiwan_net::DeviceKind::Laptop,
                    16 << 20,
                    handle.addr(),
                );
                net.connect(home, d, obiwan_net::LinkSpec::bluetooth())?;
                daemons.push(handle);
            }
            let shared = std::sync::Arc::new(std::sync::Mutex::new(
                obiwan_net::NetFabric::backend(Box::new(net)),
            ));
            builder.build_in_world(universe, server.into_shared(), shared, home)
        }
    };
    let storage: Vec<obiwan_net::DeviceId> = {
        let net = mw.net();
        let nearby = net
            .lock()
            .map_err(|_| SwapError::LockPoisoned {
                what: "net",
                shard: None,
            })?
            .nearby(mw.home_device());
        nearby
    };
    let root = mw.replicate_root(head)?;
    mw.set_global("cursor", Value::Ref(root));
    mw.set_global("root", Value::Ref(root));

    let mut rng = cfg.seed;
    let mut steps = Vec::with_capacity(cfg.steps);
    let mut away: Option<obiwan_net::DeviceId> = None;
    let mut churn_cursor = 0usize;
    for step in 0..cfg.steps {
        // Scripted churn: one device is out of the room at a time; every
        // period the absentee returns and the next one (round-robin)
        // leaves. The pump right after lets `HolderLost` fire and the
        // builtin repair rule re-replicate while the audit watches.
        if cfg.churn && step > 0 && step % CHURN_PERIOD == 0 {
            {
                let net = mw.net();
                let mut net = net.lock().map_err(|_| SwapError::LockPoisoned {
                    what: "net",
                    shard: None,
                })?;
                if let Some(back) = away.take() {
                    net.arrive(back)?;
                }
                // `storage` is empty only when the builder added no
                // stores; then there is nobody to churn.
                if let Some(&leaver) = storage.get(churn_cursor % storage.len().max(1)) {
                    churn_cursor += 1;
                    net.depart(leaver)?;
                    away = Some(leaver);
                }
            }
            mw.pump()?;
        }
        let op = match next_rand(&mut rng) % 10 {
            0..=5 => match traverse_step(&mut mw) {
                Ok(s) => s,
                // A brutally small heap can fail to fit even one reloaded
                // cluster plus the cursor proxy; that is memory exhaustion,
                // not graph corruption — park the cursor back at the root
                // and keep replaying (the audit below still runs).
                Err(e) if e.is_out_of_memory() => {
                    let root = mw.global("root")?.expect_ref()?;
                    mw.set_global("cursor", Value::Ref(root));
                    format!("invoke next (tolerated heap exhaustion: {e})")
                }
                // Under churn every holder of the next cluster may be out
                // of the room at once; the cluster stays swapped out and
                // becomes reachable again when a holder returns. The
                // transparent-fault path reports the same condition
                // wrapped in `Repl`, hence the string fallback.
                Err(e)
                    if matches!(e, SwapError::BlobUnavailable { .. })
                        || e.to_string().contains("unavailable") =>
                {
                    let root = mw.global("root")?.expect_ref()?;
                    mw.set_global("cursor", Value::Ref(root));
                    format!("invoke next (tolerated unavailability: {e})")
                }
                Err(e) => return Err(e),
            },
            6 => match mw.swap_out_victim() {
                Ok(Some(sc)) => format!("swap_out_victim -> sc{sc}"),
                Ok(None) => "swap_out_victim -> none evictable".into(),
                // Detaching mints a replacement-object; on a tiny heap even
                // that allocation can fail.
                Err(e) if e.is_out_of_memory() => {
                    format!("swap_out_victim (tolerated heap exhaustion: {e})")
                }
                Err(e) => return Err(e),
            },
            7 => {
                let collected = mw.run_gc()?;
                format!("run_gc ({} objects freed)", collected.freed_objects)
            }
            8 => swap_one(&mut mw, &mut rng, true)?,
            _ => swap_one(&mut mw, &mut rng, false)?,
        };
        let report = mw.audit();
        steps.push(StepRecord {
            step,
            op,
            errors: report.errors().count(),
            warnings: report.warnings().count(),
        });
    }

    let stats = mw.swap_stats();
    let outcome = TraceOutcome {
        steps,
        final_report: mw.audit(),
        swap_outs: stats.swap_outs,
        swap_ins: stats.swap_ins,
        trace: mw.export_trace(),
    };
    // Stop the loopback daemons a TCP replay spawned (no-op for sim).
    for handle in &daemons {
        handle.shutdown();
    }
    Ok(outcome)
}

/// Advance the cursor one hop (reloading transparently under the hood);
/// wrap back to the root at the end of the list.
///
/// The hop is re-mediated through [`Middleware::make_cursor`] — a raw
/// member handle parked in a global would dangle when its cluster is
/// swapped out (the auditor's W1 hazard); the cursor proxy instead gets
/// patched onto the replacement-object and reloads transparently.
fn traverse_step(mw: &mut Middleware) -> Result<String, SwapError> {
    let cur = mw.global("cursor")?.expect_ref()?;
    match mw.invoke_resilient(cur, "next", vec![], 1_000)? {
        Value::Ref(next) => {
            let cursor = mw.make_cursor(next)?;
            mw.set_global("cursor", Value::Ref(cursor));
            Ok("invoke next".into())
        }
        _ => {
            let root = mw.global("root")?.expect_ref()?;
            mw.set_global("cursor", Value::Ref(root));
            Ok("invoke next (end of list, cursor reset)".into())
        }
    }
}

/// Explicitly swap one cluster in or out, picked from the respective
/// registry snapshot; tolerate the expected state races.
fn swap_one(mw: &mut Middleware, rng: &mut u64, reload: bool) -> Result<String, SwapError> {
    let candidates: Vec<u32> = {
        let manager = mw.manager();
        if reload {
            manager.swapped_clusters()
        } else {
            manager.loaded_clusters()
        }
    };
    if candidates.is_empty() {
        return Ok(if reload {
            "swap_in (nothing swapped out)".into()
        } else {
            "swap_out (nothing loaded)".into()
        });
    }
    let pick = (next_rand(rng) % candidates.len() as u64) as usize;
    let Some(&sc) = candidates.get(pick) else {
        return Ok("skip (no candidates)".into());
    };
    let outcome = if reload {
        mw.swap_in(sc).map(|b| format!("swap_in sc{sc} ({b} B)"))
    } else {
        mw.swap_out(sc).map(|b| format!("swap_out sc{sc} ({b} B)"))
    };
    match outcome {
        Ok(s) => Ok(s),
        Err(
            SwapError::BadState { .. }
            | SwapError::UnknownSwapCluster { .. }
            | SwapError::NothingToSwap { .. }
            | SwapError::NoStorageDevice { .. }
            | SwapError::DataLost { .. }
            | SwapError::BlobUnavailable { .. },
        ) => Ok(format!(
            "{} sc{sc} (tolerated state race)",
            if reload { "swap_in" } else { "swap_out" }
        )),
        // Reloading a cluster (or minting its replacement on the way out)
        // allocates; a tiny heap may simply not fit it.
        Err(e) if e.is_out_of_memory() => Ok(format!(
            "{} sc{sc} (tolerated heap exhaustion: {e})",
            if reload { "swap_in" } else { "swap_out" }
        )),
        Err(e) => Err(e),
    }
}
