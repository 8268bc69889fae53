//! `cycle-tcp`: the paper's swap cycle over the live fabric. One op swaps
//! one swap-cluster out to a loopback `obiwan-blobd` daemon and back in;
//! the clusters are visited in a permutation drawn from the seed.

use crate::harness::{ctx, Outcome, Sizes, Span, Tracer, Workload};
use obiwan_bench::workloads::PAYLOAD_FOR_64B;
use obiwan_blobd::{Blobd, BlobdHandle};
use obiwan_core::wire::WireFormatKind;
use obiwan_core::Middleware;
use obiwan_heap::Value;
use obiwan_net::{DeviceKind, LinkSpec, NetFabric, Transport, TransportKind};
use obiwan_netd::ActorNet;
use obiwan_replication::{standard_classes, Server};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// 40 swap-clusters of 100 nodes.
pub const FULL: Sizes = Sizes {
    nodes: 4_000,
    cluster: 100,
};

/// A world small enough for the smoke check.
pub const TINY: Sizes = Sizes {
    nodes: 400,
    cluster: 100,
};

/// The daemon's storage quota.
const QUOTA: usize = 16 << 20;

/// A loaded list whose swap-clusters cycle through one daemon.
pub struct CycleTcp {
    mw: Middleware,
    daemon: BlobdHandle,
    /// Swap-cluster visiting order.
    order: Vec<u32>,
    next: usize,
    /// Bytes each swap-cluster ships and objects it reloads, as the
    /// warm-up measured them.
    expected: BTreeMap<u32, (usize, usize)>,
}

/// A seeded generator for the visiting order (SplitMix64).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Spawn the daemon, build the world in front of it, replicate the whole
/// list and warm up with one swap cycle of every swap-cluster.
pub fn build(sizes: Sizes, seed: u64) -> Outcome<CycleTcp> {
    let mut server = Server::new(standard_classes());
    let head = server
        .build_list("Node", sizes.nodes, PAYLOAD_FOR_64B)
        .map_err(ctx("build_list"))?;
    let universe = server.classes().clone();
    let daemon = Blobd::spawn_local(QUOTA).map_err(ctx("spawn obiwan-blobd"))?;
    let mut net = ActorNet::new();
    // No pacing sleeps: the op time is host time only.
    net.set_latency_divisor(0);
    let home = net.add_device("pda", DeviceKind::Pda, 0);
    let store = net.add_remote_device("store-0", DeviceKind::Laptop, QUOTA, daemon.addr());
    let connected = net
        .connect(home, store, LinkSpec::bluetooth())
        .map_err(ctx("connect"));
    if let Err(e) = connected {
        daemon.shutdown();
        return Err(e);
    }
    let fabric = Arc::new(Mutex::new(NetFabric::backend(Box::new(net))));
    let mw = Middleware::builder()
        .cluster_size(sizes.cluster)
        .clusters_per_swap_cluster(1)
        .device_memory(sizes.nodes * 64 * 8 + (1 << 20))
        .no_builtin_policies()
        .wire_format(WireFormatKind::Binary)
        .replication_factor(1)
        .transport(TransportKind::Tcp)
        .build_in_world(universe, server.into_shared(), fabric, home);
    let mut w = CycleTcp {
        mw,
        daemon,
        order: Vec::new(),
        next: 0,
        expected: BTreeMap::new(),
    };
    if let Err(e) = w.load(head, sizes.nodes, seed) {
        w.finish();
        return Err(e);
    }
    Ok(w)
}

impl CycleTcp {
    fn load(&mut self, head: obiwan_heap::Oid, nodes: usize, seed: u64) -> Outcome<()> {
        let mw = &mut self.mw;
        let root = mw.replicate_root(head).map_err(ctx("replicate_root"))?;
        mw.set_global("head", Value::Ref(root));
        let len = mw
            .invoke_i64(root, "length", vec![])
            .map_err(ctx("length"))?;
        if len != nodes as i64 {
            return Err(format!("warm-up saw {len} nodes, expected {nodes}"));
        }
        let mut clusters: Vec<u32> = mw
            .manager()
            .loaded_clusters()
            .into_iter()
            .filter(|&sc| sc != 0)
            .collect();
        clusters.sort_unstable();
        for &sc in &clusters {
            let bytes = mw.swap_out(sc).map_err(ctx("warm-up swap_out"))?;
            let objects = mw.swap_in(sc).map_err(ctx("warm-up swap_in"))?;
            self.expected.insert(sc, (bytes, objects));
        }
        let mut state = seed;
        for i in (1..clusters.len()).rev() {
            let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
            clusters.swap(i, j);
        }
        self.order = clusters;
        Ok(())
    }
}

impl Workload for CycleTcp {
    fn op(&mut self, t: &mut Tracer) -> Outcome<()> {
        let sc = *self
            .order
            .get(self.next % self.order.len().max(1))
            .ok_or("no swap-clusters to cycle")?;
        self.next += 1;
        let mw = &mut self.mw;
        let bytes = t
            .span(Span::SwapOut, || mw.swap_out(sc))
            .map_err(ctx("swap_out"))?;
        let objects = t
            .span(Span::SwapIn, || mw.swap_in(sc))
            .map_err(ctx("swap_in"))?;
        match self.expected.get(&sc) {
            Some(&want) if want == (bytes, objects) => Ok(()),
            want => Err(format!(
                "sc{sc}: shipped {bytes} B and reloaded {objects} objects, expected {want:?}"
            )),
        }
    }

    fn mw(&mut self) -> &mut Middleware {
        &mut self.mw
    }

    fn format(&self) -> WireFormatKind {
        WireFormatKind::Binary
    }

    fn daemon_requests(&self) -> u64 {
        self.daemon.ops_served()
    }

    fn virtual_clock(&self) -> bool {
        false
    }

    fn finish(self) {
        self.daemon.shutdown();
    }
}
