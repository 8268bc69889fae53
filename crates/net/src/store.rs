//! The dumb blob store: store / fetch / drop keyed bytes.
//!
//! This is deliberately the *entire* interface the paper requires of a
//! device that receives swapped objects: "They need only be able to store
//! and return a textual representation of the serialized objects". No VM,
//! no middleware, no object model — just keyed bytes with a quota. The
//! store is format-agnostic: the default wire format is still the paper's
//! self-describing XML text, but a dumb device never inspects what it
//! holds, so compact binary or compressed blobs ride the same three verbs.

use crate::{DeviceId, NetError, Result};
use bytes::Bytes;
use std::collections::HashMap;

/// The three-verb protocol spoken by storage devices.
///
/// Implementations must be deterministic; fault injection is expressed
/// through [`FailurePlan`] rather than randomness at the trait level.
pub trait BlobStore {
    /// Store `data` under `key`.
    ///
    /// # Errors
    ///
    /// [`NetError::QuotaExceeded`] when full, [`NetError::DuplicateBlob`] if
    /// the key is already present, or [`NetError::InjectedFailure`].
    fn store(&mut self, key: &str, data: Bytes) -> Result<()>;

    /// Return the bytes stored under `key` (a cheap refcounted handle, not
    /// a deep copy).
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownBlob`] or [`NetError::InjectedFailure`].
    fn fetch(&mut self, key: &str) -> Result<Bytes>;

    /// Drop the blob stored under `key`. Dropping an absent key is an error
    /// so that the middleware's bookkeeping bugs surface loudly.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownBlob`] or [`NetError::InjectedFailure`].
    fn drop_blob(&mut self, key: &str) -> Result<()>;

    /// Whether a blob with this key is stored.
    fn contains(&self, key: &str) -> bool;

    /// Bytes currently stored (keys + payloads).
    fn used_bytes(&self) -> usize;

    /// Number of blobs currently stored.
    fn blob_count(&self) -> usize;
}

/// Deterministic fault-injection plan for a [`MemStore`].
///
/// Operations are counted across all three verbs; when the counter reaches
/// an entry in `fail_at`, that operation fails with
/// [`NetError::InjectedFailure`] (and still consumes the count).
///
/// A plan may additionally carry a *seeded probabilistic* mode
/// ([`FailurePlan::fail_with_rate`]): each operation index is hashed with
/// the seed and fails when the hash lands under the rate threshold. The
/// outcome is a pure function of `(seed, op index)` — replaying the same
/// operation sequence reproduces the same failures, so churn/repair tests
/// and benches stay deterministic without hand-placed indices.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailurePlan {
    /// 0-based operation indices that must fail.
    pub fail_at: Vec<u64>,
    /// Probabilistic mode: `(seed, threshold)` — operation `n` fails when
    /// `mix(seed, n) < threshold`. `None` disables the mode.
    rate: Option<(u64, u64)>,
}

impl FailurePlan {
    /// A plan that never fails.
    pub fn none() -> Self {
        Self::default()
    }

    /// Fail the n-th operation (0-based), once.
    pub fn fail_once_at(n: u64) -> Self {
        FailurePlan {
            fail_at: vec![n],
            rate: None,
        }
    }

    /// Fail each operation independently with probability `rate` (clamped
    /// to `0.0..=1.0`), derived deterministically from `seed` and the
    /// operation index — same seed, same sequence, same failures.
    pub fn fail_with_rate(seed: u64, rate: f64) -> Self {
        let threshold = (rate.clamp(0.0, 1.0) * u64::MAX as f64) as u64;
        FailurePlan {
            fail_at: Vec::new(),
            rate: Some((seed, threshold)),
        }
    }

    /// Whether the `op_counter`-th operation must fail under this plan.
    ///
    /// Public so transport backends outside this crate (the `obiwan-netd`
    /// live transport) can evaluate the same deterministic plan at their own
    /// dispatch layer instead of inside a store they may not own.
    pub fn should_fail(&self, op_counter: u64) -> bool {
        if self.fail_at.contains(&op_counter) {
            return true;
        }
        match self.rate {
            Some((seed, threshold)) => {
                mix(seed ^ op_counter.wrapping_mul(0x9e37_79b9_7f4a_7c15)) < threshold
            }
            None => false,
        }
    }
}

/// Splitmix64 finalizer — the deterministic hash behind
/// [`FailurePlan::fail_with_rate`].
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// In-memory quota-enforcing blob store — what a laptop, desktop, PDA or
/// mote in the room runs on behalf of its neighbours.
///
/// Quota accounting charges key bytes as well as payload bytes: a real
/// device has to remember the key too, so many tiny blobs cannot sneak
/// past the quota for free. `drop_blob` frees the same amount it charged.
#[derive(Debug, Clone, Default)]
pub struct MemStore {
    device: DeviceId,
    blobs: HashMap<String, Bytes>,
    quota: usize,
    used: usize,
    ops: u64,
    failures: FailurePlan,
}

impl DeviceId {
    pub(crate) const UNSET: DeviceId = DeviceId(u32::MAX);
}

impl Default for DeviceId {
    fn default() -> Self {
        DeviceId::UNSET
    }
}

impl MemStore {
    /// Create a store with a quota, attributed to `device` in errors.
    pub fn new(device: DeviceId, quota: usize) -> Self {
        MemStore {
            device,
            blobs: HashMap::new(),
            quota,
            used: 0,
            ops: 0,
            failures: FailurePlan::none(),
        }
    }

    /// Install a fault-injection plan.
    pub fn set_failure_plan(&mut self, plan: FailurePlan) {
        self.failures = plan;
    }

    /// The quota in bytes.
    pub fn quota(&self) -> usize {
        self.quota
    }

    /// Keys currently stored (unordered).
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.blobs.keys().map(String::as_str)
    }

    /// Peek at the stored bytes without counting an operation (control
    /// plane — the auditor uses this; it is not part of the wire protocol).
    pub fn peek(&self, key: &str) -> Option<Bytes> {
        self.blobs.get(key).cloned()
    }

    fn bump_op(&mut self, op: &'static str) -> Result<()> {
        let n = self.ops;
        self.ops += 1;
        if self.failures.should_fail(n) {
            return Err(NetError::InjectedFailure {
                device: self.device,
                op,
            });
        }
        Ok(())
    }
}

impl BlobStore for MemStore {
    fn store(&mut self, key: &str, data: Bytes) -> Result<()> {
        self.bump_op("store")?;
        if self.blobs.contains_key(key) {
            return Err(NetError::DuplicateBlob {
                device: self.device,
                key: key.to_string(),
            });
        }
        let size = key.len() + data.len();
        if self.used.saturating_add(size) > self.quota {
            return Err(NetError::QuotaExceeded {
                device: self.device,
                requested: size,
                used: self.used,
                quota: self.quota,
            });
        }
        self.used = self.used.saturating_add(size);
        self.blobs.insert(key.to_string(), data);
        Ok(())
    }

    fn fetch(&mut self, key: &str) -> Result<Bytes> {
        self.bump_op("fetch")?;
        self.blobs
            .get(key)
            .cloned()
            .ok_or_else(|| NetError::UnknownBlob {
                device: self.device,
                key: key.to_string(),
            })
    }

    fn drop_blob(&mut self, key: &str) -> Result<()> {
        self.bump_op("drop")?;
        match self.blobs.remove_entry(key) {
            Some((key, data)) => {
                self.used = self.used.saturating_sub(key.len() + data.len());
                Ok(())
            }
            None => Err(NetError::UnknownBlob {
                device: self.device,
                key: key.to_string(),
            }),
        }
    }

    fn contains(&self, key: &str) -> bool {
        self.blobs.contains_key(key)
    }

    fn used_bytes(&self) -> usize {
        self.used
    }

    fn blob_count(&self) -> usize {
        self.blobs.len()
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may panic on impossible states
mod tests {
    use super::*;

    fn store() -> MemStore {
        MemStore::new(DeviceId(1), 100)
    }

    #[test]
    fn store_fetch_drop_roundtrip() {
        let mut s = store();
        s.store("k", "hello".into()).unwrap();
        assert!(s.contains("k"));
        // 1 key byte + 5 payload bytes.
        assert_eq!(s.used_bytes(), 6);
        assert_eq!(&s.fetch("k").unwrap()[..], b"hello");
        s.drop_blob("k").unwrap();
        assert!(!s.contains("k"));
        assert_eq!(s.used_bytes(), 0);
    }

    #[test]
    fn quota_is_enforced_and_freed_on_drop() {
        let mut s = store();
        s.store("a", Bytes::from("x".repeat(60))).unwrap();
        let err = s.store("b", Bytes::from("y".repeat(60))).unwrap_err();
        assert!(matches!(err, NetError::QuotaExceeded { .. }));
        s.drop_blob("a").unwrap();
        s.store("b", Bytes::from("y".repeat(60))).unwrap();
    }

    #[test]
    fn keys_are_charged_against_the_quota() {
        let mut s = MemStore::new(DeviceId(1), 10);
        // Payload alone (4 B) fits; key (7 B) + payload does not.
        let err = s.store("big-key", "1234".into()).unwrap_err();
        assert!(matches!(err, NetError::QuotaExceeded { requested: 11, .. }));
        s.store("k", "1234".into()).unwrap();
        assert_eq!(s.used_bytes(), 5);
        s.drop_blob("k").unwrap();
        assert_eq!(s.used_bytes(), 0);
    }

    #[test]
    fn duplicate_key_rejected() {
        let mut s = store();
        s.store("k", "1".into()).unwrap();
        assert!(matches!(
            s.store("k", "2".into()),
            Err(NetError::DuplicateBlob { .. })
        ));
        // Original value untouched.
        assert_eq!(&s.fetch("k").unwrap()[..], b"1");
    }

    #[test]
    fn missing_key_fetch_and_drop_error() {
        let mut s = store();
        assert!(matches!(s.fetch("nope"), Err(NetError::UnknownBlob { .. })));
        assert!(matches!(
            s.drop_blob("nope"),
            Err(NetError::UnknownBlob { .. })
        ));
    }

    #[test]
    fn injected_failure_fires_on_exact_operation() {
        let mut s = store();
        s.set_failure_plan(FailurePlan::fail_once_at(1));
        s.store("a", "1".into()).unwrap(); // op 0
        let err = s.fetch("a").unwrap_err(); // op 1 fails
        assert!(matches!(err, NetError::InjectedFailure { op: "fetch", .. }));
        assert_eq!(&s.fetch("a").unwrap()[..], b"1"); // op 2 succeeds
    }

    #[test]
    fn rate_plan_is_deterministic_for_a_seed() {
        // The same (seed, rate) fails the same operation indices on every
        // run; a different seed picks a different set.
        let failures = |seed: u64, rate: f64| -> Vec<u64> {
            let plan = FailurePlan::fail_with_rate(seed, rate);
            (0..200).filter(|&n| plan.should_fail(n)).collect()
        };
        let a = failures(7, 0.25);
        assert_eq!(a, failures(7, 0.25), "same seed must replay identically");
        assert_ne!(a, failures(8, 0.25), "different seed, different plan");
        // Roughly a quarter of 200 ops fail — wide deterministic bounds.
        assert!((20..=80).contains(&a.len()), "got {} failures", a.len());
    }

    #[test]
    fn rate_plan_extremes_never_and_always_fail() {
        let never = FailurePlan::fail_with_rate(3, 0.0);
        let always = FailurePlan::fail_with_rate(3, 1.0);
        assert!((0..100).all(|n| !never.should_fail(n)));
        // A threshold of u64::MAX leaves at most a rounding sliver; every
        // index we probe must fail.
        assert!((0..100).all(|n| always.should_fail(n)));
    }

    #[test]
    fn rate_plan_injects_through_the_store() {
        let mut s = store();
        s.set_failure_plan(FailurePlan::fail_with_rate(11, 1.0));
        assert!(matches!(
            s.store("k", "1".into()),
            Err(NetError::InjectedFailure { op: "store", .. })
        ));
    }

    #[test]
    fn blob_count_tracks_contents() {
        let mut s = store();
        assert_eq!(s.blob_count(), 0);
        s.store("a", "1".into()).unwrap();
        s.store("b", "2".into()).unwrap();
        assert_eq!(s.blob_count(), 2);
        assert_eq!(s.keys().count(), 2);
    }
}
