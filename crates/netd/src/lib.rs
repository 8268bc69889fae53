//! `obiwan-netd`: the live transport behind `TransportKind::Tcp`.
//!
//! Where `obiwan-net`'s `SimNet` *models* a room full of devices under a
//! scripted clock, this crate *runs* one: [`ActorNet`] is a world whose
//! devices each own a blob store, and every transport verb calls that
//! store directly on the caller's thread, under the fabric lock the core
//! already holds. Stores are either in-memory ([`obiwan_net::MemStore`],
//! for devices hosted inside this process) or remote
//! ([`obiwan_blobd::RemoteStore`], fronting an `obiwan-blobd` daemon over
//! TCP); only the quota and peek reads tell them apart.
//!
//! What carries over from the simulation, verb for verb:
//!
//! - the [`obiwan_net::NetError`] vocabulary and its ordering (unknown
//!   device before departed before not-connected before store errors),
//!   so the core's ordered failover and repair sweeps work unchanged;
//! - the router: [`obiwan_net::Route::shortest`] and
//!   [`obiwan_net::reachable`], so a live world picks the simulation's
//!   relays;
//! - [`obiwan_net::LinkSpec`] transfer-cost arithmetic, charged *before*
//!   the far store accepts or refuses a blob ("errors still cost
//!   airtime");
//! - deterministic per-device [`obiwan_net::FailurePlan`] injection,
//!   evaluated at the dispatch layer;
//! - churn sequencing on connect/disconnect/depart/arrive, and departed
//!   devices keeping their blobs until they arrive again.
//!
//! What does not: determinism itself. The clock is the sanctioned
//! [`obiwan_net::clock::real`] seam and remote stores answer over real
//! sockets. That is why `TransportKind::Sim` stays the default and golden
//! traces are only ever cut there.

mod fabric;

pub use fabric::ActorNet;

#[cfg(test)]
mod tests {
    use super::*;
    use obiwan_net::{Bytes, DeviceKind, LinkSpec, NetError, SimDuration, Transport};

    fn two_device_world() -> (ActorNet, obiwan_net::DeviceId, obiwan_net::DeviceId) {
        let mut net = ActorNet::new();
        let a = net.add_device("pda", DeviceKind::Pda, 1 << 20);
        let b = net.add_device("laptop", DeviceKind::Laptop, 1 << 20);
        net.connect(
            a,
            b,
            LinkSpec::new(1_000_000, SimDuration::from_micros(500)),
        )
        .unwrap();
        (net, a, b)
    }

    #[test]
    fn mailbox_orders_store_then_fetch_then_drop() {
        let (mut net, a, b) = two_device_world();
        // Same device, strict send order: a later fetch must observe the
        // earlier store, and a drop after that must leave nothing behind.
        net.send_blob(a, b, "k1", Bytes::copy_from_slice(b"payload"))
            .unwrap();
        let got = net.fetch_blob(a, b, "k1").unwrap();
        assert_eq!(&got[..], b"payload");
        net.drop_blob(a, b, "k1").unwrap();
        assert!(matches!(
            net.fetch_blob(a, b, "k1"),
            Err(NetError::UnknownBlob { .. })
        ));
        assert!(!net.holds_blob(b, "k1"));
    }

    #[test]
    fn departed_devices_keep_their_blobs() {
        let (mut net, a, b) = two_device_world();
        net.send_blob(a, b, "k", Bytes::copy_from_slice(b"x"))
            .unwrap();
        net.depart(b).unwrap();
        assert!(matches!(
            net.send_blob(a, b, "k2", Bytes::copy_from_slice(b"y")),
            Err(NetError::Departed { .. })
        ));
        // The bytes walked away with the device, not into the void: it
        // offers them again once it is back.
        assert!(net.holders_of_key("k").is_empty());
        net.arrive(b).unwrap();
        assert_eq!(net.holders_of_key("k"), vec![b]);
        assert_eq!(&net.fetch_blob(a, b, "k").unwrap()[..], b"x");
    }

    #[test]
    fn airtime_is_charged_even_when_the_store_refuses() {
        let mut net = ActorNet::new();
        let a = net.add_device("pda", DeviceKind::Pda, 1 << 20);
        let b = net.add_device("tiny", DeviceKind::Mote, 4);
        net.connect(
            a,
            b,
            LinkSpec::new(1_000_000, SimDuration::from_micros(100)),
        )
        .unwrap();
        let err = net.send_blob(a, b, "big", Bytes::copy_from_slice(&[0u8; 64]));
        assert!(matches!(err, Err(NetError::QuotaExceeded { .. })));
        let (sent, _) = net.traffic();
        assert_eq!(sent, 64, "refused transfers still cost airtime");
    }

    #[test]
    fn failure_plans_inject_at_dispatch() {
        let (mut net, a, b) = two_device_world();
        net.set_failure_plan(b, obiwan_net::FailurePlan::fail_once_at(0))
            .unwrap();
        assert!(matches!(
            net.send_blob(a, b, "k", Bytes::copy_from_slice(b"x")),
            Err(NetError::InjectedFailure { .. })
        ));
        // The plan consumed its shot; the retry lands.
        net.send_blob(a, b, "k", Bytes::copy_from_slice(b"x"))
            .unwrap();
    }

    #[test]
    fn routing_relays_across_a_middle_device() {
        let mut net = ActorNet::new();
        let a = net.add_device("a", DeviceKind::Pda, 1 << 20);
        let m = net.add_device("m", DeviceKind::Laptop, 1 << 20);
        let c = net.add_device("c", DeviceKind::Desktop, 1 << 20);
        let link = LinkSpec::new(1_000_000, SimDuration::from_micros(200));
        net.connect(a, m, link).unwrap();
        net.connect(m, c, link).unwrap();
        let (route, _cost) = net
            .send_blob_routed(a, c, "k", Bytes::copy_from_slice(b"hop"))
            .unwrap();
        assert_eq!(route.relays, vec![m]);
        let (route_back, data) = net.fetch_blob_routed(a, c, "k").unwrap();
        assert_eq!(route_back.relays, vec![m]);
        assert_eq!(&data[..], b"hop");
    }
}
