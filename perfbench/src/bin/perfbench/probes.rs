//! Standalone probes of single layers on the workload's own loaded world:
//! a collection, the codec in the workload's format, and the three
//! transport verbs on the workload's own fabric. Each reports the median
//! of `REPS` calls, in microseconds.

use crate::harness::{ctx, median, Heartbeat, Outcome, Report};
use obiwan_core::materialize::ClusterMaterializer;
use obiwan_core::wire::{self, WireFormatKind};
use obiwan_core::{codec, Middleware};
use obiwan_heap::ObjRef;
use std::time::Instant;

/// Calls per probe.
const REPS: usize = 31;

/// Key the transport probes store under; no swap-cluster blob uses it.
const PROBE_KEY: &str = "perfbench-probe";

/// Time one call of `f`, appending its wall time in microseconds.
fn time_into(samples: &mut Vec<f64>, f: impl FnOnce() -> Outcome<()>) -> Outcome<()> {
    let start = Instant::now();
    f()?;
    samples.push(start.elapsed().as_secs_f64() * 1e6);
    Ok(())
}

/// Median wall time of `REPS` calls of `f`.
fn probe(beat: &Heartbeat, mut f: impl FnMut() -> Outcome<()>) -> Outcome<f64> {
    let mut samples = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        time_into(&mut samples, &mut f)?;
        beat.beat();
    }
    Ok(median(samples))
}

/// Run every probe and add its median to `report`.
pub fn run_all(
    mw: &mut Middleware,
    format: WireFormatKind,
    beat: &Heartbeat,
    report: &mut Report,
) -> Outcome<()> {
    let collect = probe(beat, || mw.run_gc().map(drop).map_err(ctx("run_gc")))?;
    report.put("heap.collect_probe_us", collect, "us");

    // The lowest-numbered loaded swap-cluster with members stands for
    // the workload's clusters.
    let manager = mw.manager();
    let (sc, members) = manager
        .loaded_clusters()
        .into_iter()
        .filter(|&sc| sc != 0)
        .find_map(|sc| {
            let entry = manager.cluster(sc).ok()?;
            let members: Vec<ObjRef> = entry.members.iter().map(|&(_, r)| r).collect();
            (!members.is_empty()).then_some((sc, members))
        })
        .ok_or("no loaded swap-cluster to probe the codec with")?;
    let process = mw.process();
    let encode = || -> Outcome<obiwan_net::Bytes> {
        let blob = codec::capture(process, sc, 0, &members).map_err(ctx("capture"))?;
        wire::encode_blob(format, &blob).map_err(ctx("encode_blob"))
    };
    let data = encode()?;
    let encode_us = probe(beat, || encode().map(|b| drop(std::hint::black_box(b))))?;
    report.put("codec.encode_us", encode_us, "us");
    let registry = &process.universe().registry;
    let decode_us = probe(beat, || {
        let mut sink = ClusterMaterializer::new(registry.clone(), sc);
        wire::decode_blob_into(&data, &mut sink).map_err(ctx("decode_blob_into"))?;
        std::hint::black_box(sink.into_parts());
        Ok(())
    })?;
    report.put("codec.decode_us", decode_us, "us");

    // Store, fetch and drop a blob of the workload's size in turn, so the
    // store never holds more than one probe blob.
    let home = mw.home_device();
    let net = mw.net();
    let mut net = net.lock().map_err(|_| "net lock poisoned".to_string())?;
    let store = *net
        .nearby(home)
        .first()
        .ok_or("no storage device near the home device")?;
    let (mut store_us, mut fetch_us, mut drop_us) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS {
        time_into(&mut store_us, || {
            net.send_blob(home, store, PROBE_KEY, data.clone())
                .map(drop)
                .map_err(ctx("send_blob"))
        })?;
        time_into(&mut fetch_us, || {
            let got = net
                .fetch_blob(home, store, PROBE_KEY)
                .map_err(ctx("fetch_blob"))?;
            if got == data {
                Ok(())
            } else {
                Err("fetched probe blob differs from the stored one".into())
            }
        })?;
        time_into(&mut drop_us, || {
            net.drop_blob(home, store, PROBE_KEY)
                .map_err(ctx("drop_blob"))
        })?;
        beat.beat();
    }
    report.put("transport.store_us", median(store_us), "us");
    report.put("transport.fetch_us", median(fetch_us), "us");
    report.put("transport.drop_us", median(drop_us), "us");
    Ok(())
}
