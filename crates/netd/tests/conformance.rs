//! Sim/live conformance: the same topology built on the simulation
//! (`SimNet`) and on the live transport (`ActorNet`, in-process stores)
//! answers every routing, presence and storage query alike, and every verb
//! succeeds or fails with the same result, error for error, as the world
//! churns underneath.

#![allow(clippy::disallowed_methods)] // tests may panic on impossible states

use obiwan_net::{Bytes, DeviceId, DeviceKind, FailurePlan, LinkSpec, NetError, SimNet, Transport};
use obiwan_netd::ActorNet;
use std::fmt::Debug;

/// One world, built twice.
struct Twins {
    sim: SimNet,
    live: ActorNet,
    devices: Vec<DeviceId>,
}

impl Twins {
    /// `quotas.len()` laptops, linked pairwise as `links` says.
    fn new(quotas: &[usize], links: &[(usize, usize)]) -> Twins {
        let mut sim = SimNet::new();
        let mut live = ActorNet::new();
        let mut devices = Vec::new();
        for (i, &quota) in quotas.iter().enumerate() {
            let a = sim.add_device(format!("d{i}"), DeviceKind::Laptop, quota);
            let b = live.add_device(format!("d{i}"), DeviceKind::Laptop, quota);
            assert_eq!(a, b, "both worlds number devices alike");
            devices.push(a);
        }
        let mut twins = Twins { sim, live, devices };
        for &(a, b) in links {
            let (a, b) = (twins.devices[a], twins.devices[b]);
            twins.same("connect", |t| t.connect(a, b, LinkSpec::wifi()));
        }
        twins
    }

    /// Run `f` on both worlds, require the same answer and return it.
    fn answer<R: PartialEq + Debug>(
        &mut self,
        what: &str,
        f: impl Fn(&mut dyn Transport) -> R,
    ) -> R {
        let sim = f(&mut self.sim);
        let live = f(&mut self.live);
        assert_eq!(sim, live, "{what}: sim and live disagree");
        sim
    }

    /// As [`Twins::answer`], for steps whose outcome only has to agree.
    fn same<R: PartialEq + Debug>(&mut self, what: &str, f: impl Fn(&mut dyn Transport) -> R) {
        self.answer(what, f);
    }

    /// Every device id both worlds know, plus one neither does.
    fn ids(&self) -> Vec<DeviceId> {
        let mut ids = self.devices.clone();
        ids.push(DeviceId::from_index(self.devices.len() as u32 + 3));
        ids
    }

    /// Compare every read-only query, for every device and pair of devices.
    fn same_view(&mut self, keys: &[&str]) {
        let ids = self.ids();
        self.same("device_ids", |t| t.device_ids());
        self.same("traffic", |t| t.traffic());
        self.same("churn_seq", |t| t.churn_seq());
        for &a in &ids {
            self.same("is_present", |t| t.is_present(a));
            self.same("nearby", |t| t.nearby(a));
            self.same("reachable", |t| t.reachable(a));
            self.same("free_storage", |t| t.free_storage(a));
            self.same("stored_bytes", |t| t.stored_bytes(a));
            self.same("blob_keys", |t| t.blob_keys(a));
            self.same("profile", |t| t.profile(a).map(|p| p.storage_quota));
            for &b in &ids {
                self.same("link", |t| t.link(a, b));
                self.same("route", |t| t.route(a, b));
            }
            for &key in keys {
                self.same("holds_blob", |t| t.holds_blob(a, key));
                self.same("blob_data", |t| t.blob_data(a, key));
            }
        }
        for &key in keys {
            self.same("holders_of_key", |t| t.holders_of_key(key));
        }
    }

    /// Drive every blob verb from `from` to every device (known or not)
    /// and compare each result, then compare the whole view.
    fn same_verbs(&mut self, from: DeviceId, key: &str, data: &Bytes) {
        for to in self.ids() {
            let what = format!("{from:?} -> {to:?} `{key}`");
            self.same(&format!("send {what}"), |t| {
                t.send_blob(from, to, key, data.clone())
            });
            self.same(&format!("send again {what}"), |t| {
                t.send_blob(from, to, key, data.clone())
            });
            self.same(&format!("fetch {what}"), |t| t.fetch_blob(from, to, key));
            self.same(&format!("drop {what}"), |t| t.drop_blob(from, to, key));
            self.same(&format!("fetch dropped {what}"), |t| {
                t.fetch_blob(from, to, key)
            });
            self.same(&format!("send routed {what}"), |t| {
                t.send_blob_routed(from, to, key, data.clone())
            });
            self.same(&format!("fetch routed {what}"), |t| {
                t.fetch_blob_routed(from, to, key)
            });
            self.same(&format!("drop routed {what}"), |t| {
                t.drop_blob_routed(from, to, key)
            });
            self.same(&format!("drop routed again {what}"), |t| {
                t.drop_blob_routed(from, to, key)
            });
        }
        self.same_view(&[key]);
    }
}

/// Links 0–1, 0–2, 1–5, 2–3; device 4 is alone. Device 5 is discovered
/// before device 3, so a router that lists rings in discovery order gets
/// the second ring wrong.
fn six_devices() -> Twins {
    Twins::new(&[1 << 16; 6], &[(0, 1), (0, 2), (1, 5), (2, 3)])
}

#[test]
fn six_device_routing_agrees_in_hops_then_id_order() {
    let mut w = six_devices();
    let d = w.devices.clone();
    let reach = w.answer("reachable", |t| t.reachable(d[0]));
    assert_eq!(reach, vec![(d[1], 1), (d[2], 1), (d[3], 2), (d[5], 2)]);
    let route = w.answer("route", |t| t.route(d[0], d[5]));
    assert_eq!(route.map(|r| r.relays), Some(vec![d[1]]));
    let route = w.answer("route", |t| t.route(d[5], d[3]));
    assert_eq!(route.map(|r| r.relays), Some(vec![d[1], d[0], d[2]]));
    let loner = w.answer("route", |t| t.route(d[0], d[4]));
    assert!(loner.is_none());
    w.same_view(&[]);
}

#[test]
fn every_verb_fails_alike_on_a_relayed_world() {
    let mut w = six_devices();
    let d = w.devices.clone();
    let data = Bytes::copy_from_slice(b"<swap-cluster/>");
    for &from in &d {
        w.same_verbs(from, "k", &data);
    }
}

#[test]
fn every_verb_fails_alike_under_churn() {
    let mut w = six_devices();
    let d = w.devices.clone();
    let data = Bytes::copy_from_slice(b"payload");
    // Copies on a relay and on a far device, then both walk away.
    w.same("seed relay", |t| {
        t.send_blob(d[0], d[1], "kept", data.clone())
    });
    w.same("seed far", |t| {
        t.send_blob_routed(d[0], d[3], "kept", data.clone())
    });
    w.same("depart relay", |t| t.depart(d[1]));
    w.same("depart far", |t| t.depart(d[3]));
    w.same_view(&["kept"]);
    w.same_verbs(d[0], "k", &data);
    w.same_verbs(d[1], "k", &data);
    // Departed holders keep their bytes and offer them again on return.
    w.same("arrive relay", |t| t.arrive(d[1]));
    w.same("arrive far", |t| t.arrive(d[3]));
    let holders = w.answer("holders", |t| t.holders_of_key("kept"));
    assert_eq!(holders, vec![d[1], d[3]]);
    w.same("fetch returned", |t| {
        t.fetch_blob_routed(d[0], d[3], "kept")
    });
    w.same("unlink", |t| {
        t.disconnect(d[0], d[2]);
        t.disconnect(d[0], d[2]);
    });
    w.same_verbs(d[0], "k", &data);
    let ghost = DeviceId::from_index(40);
    w.same("depart unknown", |t| t.depart(ghost));
    w.same("arrive unknown", |t| t.arrive(ghost));
    w.same("connect unknown", |t| {
        t.connect(d[0], ghost, LinkSpec::wifi())
    });
    w.same("plan unknown", |t| {
        t.set_failure_plan(ghost, FailurePlan::none())
    });
}

#[test]
fn quota_and_injected_failures_agree() {
    let mut w = Twins::new(&[0, 40, 1 << 16], &[(0, 1), (1, 2)]);
    let d = w.devices.clone();
    let big = Bytes::copy_from_slice(&[7u8; 64]);
    let err = w.answer("over quota", |t| {
        t.send_blob(d[0], d[1], "big", big.clone())
    });
    assert!(matches!(err, Err(NetError::QuotaExceeded { .. })));
    // Plans count every store/fetch/drop the device has been sent, the
    // refused store above included.
    w.same("plan", |t| {
        t.set_failure_plan(d[2], FailurePlan::fail_with_rate(5, 0.5))
    });
    w.same("plan", |t| {
        t.set_failure_plan(d[1], FailurePlan::fail_once_at(2))
    });
    for from in [d[0], d[1]] {
        w.same_verbs(from, "k", &big);
        w.same_verbs(from, "s", &Bytes::copy_from_slice(b"small"));
    }
}
