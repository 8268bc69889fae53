//! `pressure`: the paper's use case on the deterministic sim. The list is
//! 2.5 times the device heap; one op walks it from head to tail through
//! an assign-marked cursor, so the builtin policies, the LRU victim policy
//! and fault-in reload evict and reload every swap-cluster once per walk.

use crate::harness::{ctx, Outcome, Sizes, Span, Tracer, Workload};
use obiwan_bench::workloads::PAYLOAD_FOR_64B;
use obiwan_core::wire::WireFormatKind;
use obiwan_core::{Middleware, StoreSpec, SwapError};
use obiwan_heap::{ObjRef, Value};
use obiwan_net::DeviceKind;
use obiwan_replication::{standard_classes, Server};

/// 200 swap-clusters of 20 nodes.
pub const FULL: Sizes = Sizes {
    nodes: 4_000,
    cluster: 20,
};

/// A world small enough for the smoke check.
pub const TINY: Sizes = Sizes {
    nodes: 400,
    cluster: 20,
};

/// Device memory as a percentage of the list's bytes.
const MEMORY_PCT: usize = 40;

/// Retries `invoke_resilient` may spend on one step.
const INVOKE_RETRIES: usize = 1_000;

/// Evictions `make_cursor` may recover from before the walk fails.
const CURSOR_RETRIES: usize = 3;

/// A list larger than the heap, with one Bluetooth store beside it.
pub struct Pressure {
    mw: Middleware,
    nodes: usize,
}

/// Build the world and warm up with one full walk.
pub fn build(sizes: Sizes) -> Outcome<Pressure> {
    let mut server = Server::new(standard_classes());
    let head = server
        .build_list("Node", sizes.nodes, PAYLOAD_FOR_64B)
        .map_err(ctx("build_list"))?;
    let mut mw = Middleware::builder()
        .cluster_size(sizes.cluster)
        .clusters_per_swap_cluster(1)
        .device_memory(sizes.nodes * 64 * MEMORY_PCT / 100)
        .stores(vec![StoreSpec::new(
            "store-0",
            DeviceKind::Laptop,
            16 << 20,
        )])
        .build(server);
    let root = mw.replicate_root(head).map_err(ctx("replicate_root"))?;
    mw.set_global("head", Value::Ref(root));
    let mut w = Pressure {
        mw,
        nodes: sizes.nodes,
    };
    w.op(&mut Tracer::default())?;
    Ok(w)
}

impl Pressure {
    /// A cursor proxy on the list head, recovering from out-of-memory
    /// with a collection and one eviction.
    fn cursor(&mut self, t: &mut Tracer) -> Outcome<ObjRef> {
        let mw = &mut self.mw;
        let head = mw
            .global("head")
            .and_then(|v| Ok(v.expect_ref()?))
            .map_err(ctx("global head"))?;
        let mut attempt = 0;
        loop {
            match t.span(Span::MakeCursor, || mw.make_cursor(head)) {
                Ok(cursor) => return Ok(cursor),
                Err(e) if e.is_out_of_memory() && attempt < CURSOR_RETRIES => {
                    attempt += 1;
                    t.span(Span::Gc, || mw.run_gc()).map_err(ctx("run_gc"))?;
                    t.span(Span::SwapOut, || mw.swap_out_victim())
                        .map_err(ctx("swap_out_victim"))?;
                }
                Err(e) => return Err(format!("make_cursor: {e}")),
            }
        }
    }
}

impl Workload for Pressure {
    fn op(&mut self, t: &mut Tracer) -> Outcome<()> {
        let cursor = self.cursor(t)?;
        let mw = &mut self.mw;
        mw.set_global("cursor", Value::Ref(cursor));
        let mut steps = 0;
        loop {
            let cur = mw
                .global("cursor")
                .and_then(|v| Ok(v.expect_ref()?))
                .map_err(ctx("global cursor"))?;
            let next = t.span(Span::Invoke, || {
                mw.invoke_resilient(cur, "next", vec![], INVOKE_RETRIES)
            });
            match next.map_err(|e: SwapError| format!("next after {steps} steps: {e}"))? {
                Value::Ref(next) => {
                    mw.set_global("cursor", Value::Ref(next));
                    steps += 1;
                }
                _ => break,
            }
        }
        if steps + 1 == self.nodes {
            Ok(())
        } else {
            Err(format!(
                "walk took {steps} steps, expected {}",
                self.nodes - 1
            ))
        }
    }

    fn mw(&mut self) -> &mut Middleware {
        &mut self.mw
    }

    fn format(&self) -> WireFormatKind {
        WireFormatKind::default()
    }
}
