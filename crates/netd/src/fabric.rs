//! [`ActorNet`]: a live world of devices implementing
//! [`obiwan_net::Transport`].
//!
//! The control tables (profiles, links, presence, traffic, churn) and the
//! devices' stores live in the `ActorNet` itself, and every verb runs on
//! the caller's thread under the `Arc<Mutex<NetFabric>>` guard the core
//! already holds for each transport call. A blob verb calls the device's
//! store directly: a [`MemStore`] in this process, or a [`RemoteStore`]
//! doing one framed request/response with an `obiwan-blobd` daemon.
//! Semantics mirror the simulation verb for verb: errors use the same
//! [`NetError`] vocabulary in the same order (unknown device, departed,
//! not connected, store errors), transfer costs use the same [`LinkSpec`]
//! arithmetic, airtime is charged even when the far store refuses the
//! blob, and routes come from the simulation's own router
//! ([`Route::shortest`], [`obiwan_net::reachable`]).
//!
//! What is *not* preserved: determinism. The clock is the sanctioned
//! [`obiwan_net::clock::real`] seam, remote stores answer over real
//! sockets, and traces are not replayable — which is exactly why
//! `TransportKind::Sim` remains the default everywhere.

use obiwan_blobd::RemoteStore;
use obiwan_net::clock::RealClock;
use obiwan_net::{
    BlobStore, Bytes, DeviceId, DeviceKind, DeviceProfile, FailurePlan, LinkSpec, MemStore,
    NetError, Result, Route, SimDuration, SimTime, Transport,
};
use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;

/// Where a device's blobs live.
enum Store {
    /// In this process.
    Local(MemStore),
    /// In an `obiwan-blobd` daemon.
    Remote(RemoteStore),
}

impl Store {
    /// The three-verb protocol, whichever side of a socket the bytes are.
    fn verbs(&mut self) -> &mut dyn BlobStore {
        match self {
            Store::Local(s) => s,
            Store::Remote(s) => s,
        }
    }

    fn contains(&self, key: &str) -> bool {
        match self {
            Store::Local(s) => s.contains(key),
            Store::Remote(s) => s.contains(key),
        }
    }

    /// The bytes under `key`, read without the transfer verbs' accounting.
    fn peek(&self, key: &str) -> Option<Bytes> {
        match self {
            Store::Local(s) => s.peek(key),
            Store::Remote(s) => s.peek(key),
        }
    }

    /// Bytes charged against the quota. A daemon that does not answer is
    /// [`NetError::Departed`], never an empty store.
    fn used_bytes(&self) -> Result<usize> {
        match self {
            Store::Local(s) => Ok(s.used_bytes()),
            Store::Remote(s) => s
                .stat()
                .map(|(used, _, _)| usize::try_from(used).unwrap_or(usize::MAX)),
        }
    }
}

struct DeviceSlot {
    profile: DeviceProfile,
    present: bool,
    store: Store,
    /// `BlobStore` cannot enumerate keys, so the slot mirrors them: updated
    /// only on verbs that succeeded against the store.
    keys: BTreeSet<String>,
    /// Failure injection, evaluated at dispatch against `ops`, the count of
    /// store/fetch/drop calls this device has been sent.
    plan: FailurePlan,
    ops: u64,
}

/// A live transport world: per-device stores called directly under the
/// fabric lock, the simulation's router and per-device failure injection.
pub struct ActorNet {
    clock: RealClock,
    devices: Vec<DeviceSlot>,
    links: BTreeMap<(u32, u32), LinkSpec>,
    churn: u64,
    bytes_sent: u64,
    bytes_fetched: u64,
}

fn norm(a: DeviceId, b: DeviceId) -> (u32, u32) {
    let (x, y) = (a.index(), b.index());
    if x <= y {
        (x, y)
    } else {
        (y, x)
    }
}

impl ActorNet {
    /// An empty live world.
    pub fn new() -> ActorNet {
        ActorNet {
            clock: obiwan_net::clock::real(),
            devices: Vec::new(),
            links: BTreeMap::new(),
            churn: 0,
            bytes_sent: 0,
            bytes_fetched: 0,
        }
    }

    /// Add a device whose blobs live in local memory (a [`MemStore`] with
    /// `quota`).
    pub fn add_device(
        &mut self,
        name: impl Into<String>,
        kind: DeviceKind,
        quota: usize,
    ) -> DeviceId {
        let id = DeviceId::from_index(self.devices.len() as u32);
        self.push_slot(
            DeviceProfile::new(name, kind, quota),
            Store::Local(MemStore::new(id, quota)),
        );
        id
    }

    /// Add a device whose blobs live in a remote `obiwan-blobd` process at
    /// `addr`. `quota` must match the daemon's configured quota — the
    /// profile advertises it for placement ranking, while enforcement
    /// happens in the daemon itself.
    pub fn add_remote_device(
        &mut self,
        name: impl Into<String>,
        kind: DeviceKind,
        quota: usize,
        addr: SocketAddr,
    ) -> DeviceId {
        let id = DeviceId::from_index(self.devices.len() as u32);
        self.push_slot(
            DeviceProfile::new(name, kind, quota),
            Store::Remote(RemoteStore::connect(id, addr)),
        );
        id
    }

    fn push_slot(&mut self, profile: DeviceProfile, store: Store) {
        self.devices.push(DeviceSlot {
            profile,
            present: true,
            store,
            keys: BTreeSet::new(),
            plan: FailurePlan::none(),
            ops: 0,
        });
    }

    /// Ignored. A live op takes host time only: link costs are reported
    /// and charged as airtime, never slept out.
    pub fn set_latency_divisor(&mut self, _divisor: u64) {}

    fn slot(&self, device: DeviceId) -> Result<&DeviceSlot> {
        self.devices
            .get(device.index() as usize)
            .ok_or(NetError::UnknownDevice { device })
    }

    fn slot_mut(&mut self, device: DeviceId) -> Result<&mut DeviceSlot> {
        self.devices
            .get_mut(device.index() as usize)
            .ok_or(NetError::UnknownDevice { device })
    }

    /// Mirror of the simulation's reachability check, same error order.
    fn require_link(&self, from: DeviceId, to: DeviceId) -> Result<LinkSpec> {
        self.slot(from)?;
        self.slot(to)?;
        if !self.is_present(from) {
            return Err(NetError::Departed { device: from });
        }
        if !self.is_present(to) {
            return Err(NetError::Departed { device: to });
        }
        self.links
            .get(&norm(from, to))
            .copied()
            .ok_or(NetError::NotConnected { from, to })
    }

    /// Deterministic per-device failure injection, evaluated at dispatch
    /// (the live analogue of the simulation's store-level plans).
    fn check_plan(&mut self, device: DeviceId, op: &'static str) -> Result<()> {
        let slot = self.slot_mut(device)?;
        let n = slot.ops;
        slot.ops += 1;
        if slot.plan.should_fail(n) {
            return Err(NetError::InjectedFailure { device, op });
        }
        Ok(())
    }

    /// Hop-by-hop modelled cost of moving `bytes` along `route`.
    fn route_cost(&self, route: &Route, bytes: usize) -> Result<SimDuration> {
        let mut total = SimDuration::ZERO;
        let mut cur = route.from;
        for &next in route.relays.iter().chain(std::iter::once(&route.to)) {
            let link = self
                .links
                .get(&norm(cur, next))
                .copied()
                .ok_or(NetError::NotConnected {
                    from: cur,
                    to: next,
                })?;
            total += link.transfer_time(bytes);
            cur = next;
        }
        Ok(total)
    }

    /// Hand `data` to `to`'s store once the route to it checked out. The
    /// airtime is spent before the store accepts or refuses — the same
    /// accounting the simulation uses.
    fn deliver(&mut self, to: DeviceId, key: &str, data: Bytes) -> Result<()> {
        self.bytes_sent = self.bytes_sent.saturating_add(data.len() as u64);
        self.check_plan(to, "store")?;
        let slot = self.slot_mut(to)?;
        slot.store.verbs().store(key, data)?;
        slot.keys.insert(key.to_owned());
        Ok(())
    }

    /// Read `key` back from `to`'s store once the route to it checked out.
    fn retrieve(&mut self, to: DeviceId, key: &str) -> Result<Bytes> {
        self.check_plan(to, "fetch")?;
        let data = self.slot_mut(to)?.store.verbs().fetch(key)?;
        self.bytes_fetched = self.bytes_fetched.saturating_add(data.len() as u64);
        Ok(data)
    }

    /// Drop `key` from `to`'s store once the route to it checked out.
    fn discard(&mut self, to: DeviceId, key: &str) -> Result<()> {
        self.check_plan(to, "drop")?;
        let slot = self.slot_mut(to)?;
        slot.store.verbs().drop_blob(key)?;
        slot.keys.remove(key);
        Ok(())
    }
}

impl Default for ActorNet {
    fn default() -> Self {
        ActorNet::new()
    }
}

impl std::fmt::Debug for ActorNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActorNet")
            .field("devices", &self.devices.len())
            .field("links", &self.links.len())
            .field("churn", &self.churn)
            .finish_non_exhaustive()
    }
}

impl Transport for ActorNet {
    fn now(&self) -> SimTime {
        self.clock.now()
    }

    fn advance(&mut self, _d: SimDuration) -> SimTime {
        // Real time cannot be scripted forward; reads are the clock.
        self.clock.now()
    }

    fn profile(&self, device: DeviceId) -> Result<&DeviceProfile> {
        self.slot(device).map(|s| &s.profile)
    }

    fn set_failure_plan(&mut self, device: DeviceId, plan: FailurePlan) -> Result<()> {
        // Like the simulation's store, the op count runs on: a new plan's
        // indices count from the device's first op, not from now.
        self.slot_mut(device)?.plan = plan;
        Ok(())
    }

    fn connect(&mut self, a: DeviceId, b: DeviceId, link: LinkSpec) -> Result<()> {
        self.slot(a)?;
        self.slot(b)?;
        self.links.insert(norm(a, b), link);
        self.churn += 1;
        Ok(())
    }

    fn disconnect(&mut self, a: DeviceId, b: DeviceId) {
        if self.links.remove(&norm(a, b)).is_some() {
            self.churn += 1;
        }
    }

    fn link(&self, a: DeviceId, b: DeviceId) -> Option<LinkSpec> {
        if self.is_present(a) && self.is_present(b) {
            self.links.get(&norm(a, b)).copied()
        } else {
            None
        }
    }

    fn nearby(&self, of: DeviceId) -> Vec<DeviceId> {
        let mut out: Vec<DeviceId> = self
            .links
            .keys()
            .filter_map(|&(a, b)| {
                if a == of.index() {
                    Some(DeviceId::from_index(b))
                } else if b == of.index() {
                    Some(DeviceId::from_index(a))
                } else {
                    None
                }
            })
            .filter(|&id| self.link(of, id).is_some())
            .collect();
        out.sort();
        out.dedup();
        out
    }

    fn reachable(&self, of: DeviceId) -> Vec<(DeviceId, usize)> {
        obiwan_net::reachable(of, |d| self.nearby(d))
    }

    fn route(&self, from: DeviceId, to: DeviceId) -> Option<Route> {
        if !self.is_present(from) || !self.is_present(to) {
            return None;
        }
        Route::shortest(from, to, |d| self.nearby(d))
    }

    fn free_storage(&self, device: DeviceId) -> Result<usize> {
        let slot = self.slot(device)?;
        let used = slot.store.used_bytes()?;
        Ok(slot.profile.storage_quota.saturating_sub(used))
    }

    fn depart(&mut self, device: DeviceId) -> Result<()> {
        self.slot_mut(device)?.present = false;
        self.churn += 1;
        Ok(())
    }

    fn arrive(&mut self, device: DeviceId) -> Result<()> {
        self.slot_mut(device)?.present = true;
        self.churn += 1;
        Ok(())
    }

    fn churn_seq(&self) -> u64 {
        self.churn
    }

    fn is_present(&self, device: DeviceId) -> bool {
        self.devices
            .get(device.index() as usize)
            .map(|s| s.present)
            .unwrap_or(false)
    }

    fn send_blob(
        &mut self,
        from: DeviceId,
        to: DeviceId,
        key: &str,
        data: Bytes,
    ) -> Result<SimDuration> {
        let link = self.require_link(from, to)?;
        let cost = link.transfer_time(data.len());
        self.deliver(to, key, data)?;
        Ok(cost)
    }

    fn fetch_blob(&mut self, from: DeviceId, to: DeviceId, key: &str) -> Result<Bytes> {
        self.require_link(from, to)?;
        self.retrieve(to, key)
    }

    fn drop_blob(&mut self, from: DeviceId, to: DeviceId, key: &str) -> Result<()> {
        self.require_link(from, to)?;
        self.discard(to, key)
    }

    fn send_blob_routed(
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
        let total = self.route_cost(&route, data.len())?;
        self.deliver(to, key, data)?;
        Ok((route, total))
    }

    fn fetch_blob_routed(
        &mut self,
        from: DeviceId,
        to: DeviceId,
        key: &str,
    ) -> Result<(Route, Bytes)> {
        let route = self
            .route(from, to)
            .ok_or(NetError::NotConnected { from, to })?;
        let data = if route.relays.is_empty() {
            self.fetch_blob(from, to, key)?
        } else {
            self.retrieve(to, key)?
        };
        Ok((route, data))
    }

    fn drop_blob_routed(&mut self, from: DeviceId, to: DeviceId, key: &str) -> Result<()> {
        let route = self
            .route(from, to)
            .ok_or(NetError::NotConnected { from, to })?;
        if route.relays.is_empty() {
            self.drop_blob(from, to, key)
        } else {
            self.discard(to, key)
        }
    }

    fn holds_blob(&self, to: DeviceId, key: &str) -> bool {
        self.slot(to).is_ok_and(|s| s.store.contains(key))
    }

    fn holders_of_key(&self, key: &str) -> Vec<DeviceId> {
        // Present holders only, like the simulation: a departed device keeps
        // its blobs but offers none of them until it arrives again.
        (0..self.devices.len() as u32)
            .map(DeviceId::from_index)
            .filter(|&d| self.is_present(d) && self.holds_blob(d, key))
            .collect()
    }

    fn blob_keys(&self, device: DeviceId) -> Vec<String> {
        self.slot(device)
            .map(|s| s.keys.iter().cloned().collect())
            .unwrap_or_default()
    }

    fn blob_data(&self, device: DeviceId, key: &str) -> Option<Bytes> {
        self.slot(device).ok()?.store.peek(key)
    }

    fn stored_bytes(&self, device: DeviceId) -> Result<usize> {
        self.slot(device)?.store.used_bytes()
    }

    fn device_ids(&self) -> Vec<DeviceId> {
        (0..self.devices.len() as u32)
            .map(DeviceId::from_index)
            .collect()
    }

    fn traffic(&self) -> (u64, u64) {
        (self.bytes_sent, self.bytes_fetched)
    }
}
