//! Multi-hop routing — the paper's closing vision includes devices
//! "available to any user either to store data **or to relay
//! communications**". This module adds relay paths on top of the direct
//! links: a blob can reach a storage device several radio hops away, at
//! the cost of every hop's airtime.

use crate::{DeviceId, NetError, Result, SimDuration, SimNet, TraceKind};
use bytes::Bytes;

/// A relay path: the intermediate devices between source and destination
/// (exclusive of both), plus the total transfer cost model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Source device.
    pub from: DeviceId,
    /// Destination device.
    pub to: DeviceId,
    /// Intermediate relays, in order (empty for a direct link).
    pub relays: Vec<DeviceId>,
}

impl Route {
    /// Number of radio hops (1 for a direct link).
    pub fn hops(&self) -> usize {
        self.relays.len() + 1
    }

    /// The fewest-hops route from `from` to `to` over the link graph that
    /// `nearby` describes (ties broken by device id: each relay is the
    /// lowest-id device one hop closer to `from`). Both transports route
    /// with this, so a live world picks the same relays as the simulation.
    ///
    /// Returns `None` when `to` is unreachable. Presence is the caller's:
    /// `nearby` lists present devices only, and `from`/`to` are checked by
    /// the transport before it asks.
    pub fn shortest(
        from: DeviceId,
        to: DeviceId,
        nearby: impl Fn(DeviceId) -> Vec<DeviceId>,
    ) -> Option<Route> {
        let reached = rings(from, Some(to), nearby);
        let parent = |of: DeviceId| reached.iter().find(|r| r.0 == of).map(|r| r.2);
        let mut relays = Vec::new();
        if from != to {
            let mut cur = parent(to)?;
            while cur != from {
                relays.push(cur);
                cur = parent(cur)?;
            }
            relays.reverse();
        }
        Some(Route { from, to, relays })
    }
}

/// Devices reachable from `of` over any number of hops of the link graph
/// that `nearby` describes, with their hop counts, in (hops, id) order.
/// The single-hop prefix equals `nearby(of)`.
pub fn reachable(
    of: DeviceId,
    nearby: impl Fn(DeviceId) -> Vec<DeviceId>,
) -> Vec<(DeviceId, usize)> {
    rings(of, None, nearby)
        .into_iter()
        .map(|(device, hops, _)| (device, hops))
        .collect()
}

/// Breadth-first search from `of`, one ring of equal hop count at a time:
/// every device reached, with its hop count and the device it was first
/// reached from. Each ring is sorted by id before it is expanded, so the
/// output is in (hops, id) order and the parent of a device is its
/// lowest-id neighbour in the ring before. Stops after the ring holding
/// `until`.
fn rings(
    of: DeviceId,
    until: Option<DeviceId>,
    nearby: impl Fn(DeviceId) -> Vec<DeviceId>,
) -> Vec<(DeviceId, usize, DeviceId)> {
    let mut out = Vec::new();
    let mut seen = std::collections::HashSet::from([of]);
    let mut frontier = vec![of];
    let mut hops = 0;
    while !frontier.is_empty() && until.is_none_or(|to| !seen.contains(&to)) {
        hops += 1;
        let mut ring = Vec::new();
        for &cur in &frontier {
            for next in nearby(cur) {
                if seen.insert(next) {
                    ring.push((next, cur));
                }
            }
        }
        ring.sort();
        out.extend(ring.iter().map(|&(device, parent)| (device, hops, parent)));
        frontier = ring.into_iter().map(|(device, _)| device).collect();
    }
    out
}

impl SimNet {
    /// Find the fewest-hops route from `from` to `to` over present devices
    /// ([`Route::shortest`]).
    ///
    /// Returns `None` when `to` is unreachable (or either side is absent).
    pub fn route(&self, from: DeviceId, to: DeviceId) -> Option<Route> {
        if !self.is_present(from) || !self.is_present(to) {
            return None;
        }
        Route::shortest(from, to, |d| self.nearby(d))
    }

    /// Devices reachable from `of` over any number of hops, with their hop
    /// counts, in (hops, id) order ([`reachable`]). The single-hop prefix
    /// equals [`SimNet::nearby`].
    pub fn reachable(&self, of: DeviceId) -> Vec<(DeviceId, usize)> {
        reachable(of, |d| self.nearby(d))
    }

    /// Send a blob along a relay route: every hop pays its link's transfer
    /// time, and only the destination stores the bytes (relays forward,
    /// they do not keep copies — they "relay communications").
    ///
    /// # Errors
    ///
    /// [`NetError::NotConnected`] if no route exists, plus the
    /// destination's store errors. Airtime for traversed hops is spent even
    /// when a later hop or the final store fails.
    pub fn send_blob_routed(
        &mut self,
        from: DeviceId,
        to: DeviceId,
        key: &str,
        data: Bytes,
    ) -> Result<(Route, SimDuration)> {
        let route = self
            .route(from, to)
            .ok_or(NetError::NotConnected { from, to })?;
        if route.relays.is_empty() {
            let cost = self.send_blob(from, to, key, data)?;
            return Ok((route, cost));
        }
        let mut total = SimDuration::ZERO;
        let mut cur = from;
        for &relay in &route.relays {
            let link = self.link(cur, relay).ok_or(NetError::NotConnected {
                from: cur,
                to: relay,
            })?;
            let cost = link.transfer_time(data.len());
            self.advance(cost);
            total += cost;
            self.push_route_trace(cur, relay, key, data.len(), cost);
            cur = relay;
        }
        let cost = self.send_blob(cur, to, key, data)?;
        total += cost;
        Ok((route, total))
    }

    /// Fetch a blob back along a relay route. Symmetric cost model.
    ///
    /// # Errors
    ///
    /// As [`SimNet::send_blob_routed`].
    pub fn fetch_blob_routed(
        &mut self,
        from: DeviceId,
        to: DeviceId,
        key: &str,
    ) -> Result<(Route, Bytes)> {
        let route = self
            .route(from, to)
            .ok_or(NetError::NotConnected { from, to })?;
        if route.relays.is_empty() {
            let data = self.fetch_blob(from, to, key)?;
            return Ok((route, data));
        }
        // The last relay talks to the storing device (non-empty: the
        // direct case returned above).
        let last_relay = match route.relays.last() {
            Some(&relay) => relay,
            None => return Err(NetError::NotConnected { from, to }),
        };
        let data = self.fetch_blob(last_relay, to, key)?;
        // Then the bytes travel back across the relays to `from`.
        let mut cur = last_relay;
        for &relay in route.relays.iter().rev().skip(1) {
            let link = self.link(cur, relay).ok_or(NetError::NotConnected {
                from: cur,
                to: relay,
            })?;
            let cost = link.transfer_time(data.len());
            self.advance(cost);
            self.push_route_trace(cur, relay, key, data.len(), cost);
            cur = relay;
        }
        let link = self.link(cur, from).ok_or(NetError::NotConnected {
            from: cur,
            to: from,
        })?;
        let cost = link.transfer_time(data.len());
        self.advance(cost);
        self.push_route_trace(cur, from, key, data.len(), cost);
        Ok((route, data))
    }

    /// Instruct a (possibly multi-hop) storing device to drop a blob. The
    /// control message pays one link latency per hop.
    ///
    /// # Errors
    ///
    /// [`NetError::NotConnected`] if no route exists, plus store errors.
    pub fn drop_blob_routed(&mut self, from: DeviceId, to: DeviceId, key: &str) -> Result<()> {
        let route = self
            .route(from, to)
            .ok_or(NetError::NotConnected { from, to })?;
        if route.relays.is_empty() {
            return self.drop_blob(from, to, key);
        }
        let mut cur = from;
        for &relay in &route.relays {
            let link = self.link(cur, relay).ok_or(NetError::NotConnected {
                from: cur,
                to: relay,
            })?;
            self.advance(link.latency);
            cur = relay;
        }
        self.drop_blob(cur, to, key)
    }

    fn push_route_trace(
        &mut self,
        from: DeviceId,
        to: DeviceId,
        key: &str,
        bytes: usize,
        airtime: SimDuration,
    ) {
        let at = self.now();
        self.push_trace_at(
            at,
            TraceKind::BlobRelayed {
                from,
                to,
                key: key.to_string(),
                bytes,
                airtime,
            },
        );
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may panic on impossible states
mod tests {
    use crate::{DeviceKind, LinkSpec, SimNet};

    /// pda — m1 — m2 — desktop, plus a direct pda—laptop link.
    fn chain_world() -> (SimNet, Vec<crate::DeviceId>) {
        let mut net = SimNet::new();
        let pda = net.add_device("pda", DeviceKind::Pda, 0);
        let m1 = net.add_device("m1", DeviceKind::Mote, 1 << 16);
        let m2 = net.add_device("m2", DeviceKind::Mote, 1 << 16);
        let desktop = net.add_device("desktop", DeviceKind::Desktop, 1 << 20);
        let laptop = net.add_device("laptop", DeviceKind::Laptop, 1 << 20);
        net.connect(pda, m1, LinkSpec::mote_radio()).unwrap();
        net.connect(m1, m2, LinkSpec::mote_radio()).unwrap();
        net.connect(m2, desktop, LinkSpec::wifi()).unwrap();
        net.connect(pda, laptop, LinkSpec::bluetooth()).unwrap();
        (net, vec![pda, m1, m2, desktop, laptop])
    }

    #[test]
    fn bfs_route_finds_fewest_hops() {
        let (net, d) = chain_world();
        let r = net.route(d[0], d[3]).unwrap();
        assert_eq!(r.relays, vec![d[1], d[2]]);
        assert_eq!(r.hops(), 3);
        let direct = net.route(d[0], d[4]).unwrap();
        assert!(direct.relays.is_empty());
    }

    #[test]
    fn reachable_orders_by_hops() {
        let (net, d) = chain_world();
        let r = net.reachable(d[0]);
        assert_eq!(r[0].1, 1);
        assert!(r.contains(&(d[3], 3)));
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn routed_send_and_fetch_roundtrip_with_hop_costs() {
        let (mut net, d) = chain_world();
        let t0 = net.now();
        let (route, cost) = net
            .send_blob_routed(d[0], d[3], "k", bytes::Bytes::from("x".repeat(500)))
            .unwrap();
        assert_eq!(route.hops(), 3);
        // Three hops: two mote-radio transfers + one wifi transfer.
        let expected = LinkSpec::mote_radio().transfer_time(500)
            + LinkSpec::mote_radio().transfer_time(500)
            + LinkSpec::wifi().transfer_time(500);
        assert_eq!(cost, expected);
        assert_eq!(net.now() - t0, expected);
        // Relays hold nothing; the destination holds the blob.
        assert!(!net.holds_blob(d[1], "k"));
        assert!(!net.holds_blob(d[2], "k"));
        assert!(net.holds_blob(d[3], "k"));
        let (route_back, data) = net.fetch_blob_routed(d[0], d[3], "k").unwrap();
        assert_eq!(route_back.hops(), 3);
        assert_eq!(data.len(), 500);
    }

    #[test]
    fn departed_relay_breaks_the_route() {
        let (mut net, d) = chain_world();
        net.depart(d[1]).unwrap();
        assert!(net.route(d[0], d[3]).is_none());
        assert!(matches!(
            net.send_blob_routed(d[0], d[3], "k", "x".into()),
            Err(crate::NetError::NotConnected { .. })
        ));
        // The laptop is still directly reachable.
        assert!(net.route(d[0], d[4]).is_some());
    }

    #[test]
    fn routed_drop_reaches_distant_store() {
        let (mut net, d) = chain_world();
        net.send_blob_routed(d[0], d[3], "k", "data".into())
            .unwrap();
        net.drop_blob_routed(d[0], d[3], "k").unwrap();
        assert!(!net.holds_blob(d[3], "k"));
    }

    #[test]
    fn route_to_self_is_empty() {
        let (net, d) = chain_world();
        let r = net.route(d[0], d[0]).unwrap();
        assert_eq!(r.hops(), 1);
        assert!(r.relays.is_empty());
    }
}
