//! `fig5`: the paper's Figure 5. One op is a round of tests A1, A2, B1 and
//! B2 on the fully loaded 10,000-node list at swap-cluster 20, with ample
//! memory and no policies. It never detaches or reloads a swap-cluster.

use crate::harness::{ctx, Outcome, Sizes, Span, Tracer, Workload};
use obiwan_bench::workloads::{build_fig5, Fig5Config, Fig5World};
use obiwan_core::wire::WireFormatKind;
use obiwan_core::Middleware;
use obiwan_heap::{ObjRef, Value};

/// The paper's sizes.
pub const FULL: Sizes = Sizes {
    nodes: 10_000,
    cluster: 20,
};

/// A world small enough for the smoke check.
pub const TINY: Sizes = Sizes {
    nodes: 200,
    cluster: 20,
};

/// Build the world and run one untimed round, so the timed rounds start
/// from the steady proxy population.
pub fn build(sizes: Sizes) -> Outcome<Fig5> {
    let world = build_fig5(Fig5Config::with_clusters(sizes.cluster, sizes.nodes))
        .map_err(ctx("build_fig5"))?;
    let mut w = Fig5 { world };
    w.op(&mut Tracer::default())?;
    Ok(w)
}

/// A loaded Figure 5 world.
pub struct Fig5 {
    world: Fig5World,
}

impl Fig5 {
    /// Every test must end at depth (or step count) `nodes - 1`.
    fn check(&self, test: &str, got: i64) -> Outcome<()> {
        let want = self.world.config.list_len as i64 - 1;
        if got == want {
            Ok(())
        } else {
            Err(format!("{test} returned {got}, expected {want}"))
        }
    }

    /// Tests B1 and B2: iterate with a global cursor starting at `start`,
    /// then collect. Returns the number of steps.
    fn iterate(&mut self, t: &mut Tracer, start: ObjRef) -> Outcome<i64> {
        let mw = &mut self.world.mw;
        mw.set_global("cursor", Value::Ref(start));
        let mut steps = 0;
        loop {
            let cur = mw
                .global("cursor")
                .and_then(|v| Ok(v.expect_ref()?))
                .map_err(ctx("global cursor"))?;
            match t
                .span(Span::Invoke, || mw.invoke(cur, "next", vec![]))
                .map_err(ctx("next"))?
            {
                Value::Ref(next) => {
                    mw.set_global("cursor", Value::Ref(next));
                    steps += 1;
                }
                _ => break,
            }
        }
        t.span(Span::Gc, || mw.run_gc()).map_err(ctx("run_gc"))?;
        Ok(steps)
    }
}

impl Workload for Fig5 {
    fn op(&mut self, t: &mut Tracer) -> Outcome<()> {
        let root = self.world.root;
        // A1: recursive traversal.
        let mw = &mut self.world.mw;
        let a1 = t
            .span(Span::Invoke, || {
                mw.invoke_i64(root, "visit", vec![Value::Int(0)])
            })
            .map_err(ctx("A1"))?;
        self.check("A1", a1)?;
        // A2: A1 with an inner recursion returning references, then the
        // collection that reclaims the transient proxies.
        let mw = &mut self.world.mw;
        let a2 = t
            .span(Span::Invoke, || {
                mw.invoke_i64(root, "deep_visit", vec![Value::Int(0)])
            })
            .map_err(ctx("A2"))?;
        t.span(Span::Gc, || mw.run_gc()).map_err(ctx("A2 run_gc"))?;
        self.check("A2", a2)?;
        // B1: iteration minting a proxy per returned reference.
        let b1 = self.iterate(t, root)?;
        self.check("B1", b1)?;
        // B2: iteration through an assign-marked cursor proxy.
        let mw = &mut self.world.mw;
        let cursor = t
            .span(Span::MakeCursor, || mw.make_cursor(root))
            .map_err(ctx("B2 make_cursor"))?;
        let b2 = self.iterate(t, cursor)?;
        self.check("B2", b2)
    }

    fn mw(&mut self) -> &mut Middleware {
        &mut self.world.mw
    }

    fn format(&self) -> WireFormatKind {
        WireFormatKind::default()
    }
}
