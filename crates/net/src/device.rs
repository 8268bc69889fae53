//! Devices in the simulated world.

use std::fmt;

/// Identifier of a device inside a [`crate::SimNet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub(crate) u32);

impl DeviceId {
    /// The raw numeric id (stable within one `SimNet`).
    pub fn index(self) -> u32 {
        self.0
    }

    /// Construct an id from a raw dense index.
    ///
    /// The simulation allocates its own ids in [`crate::SimNet::add_device`];
    /// this constructor exists for transport backends *outside* this crate
    /// (the `obiwan-netd` live transport) that host their own device tables
    /// and must mint ids consistent with their dense ordering.
    pub fn from_index(raw: u32) -> DeviceId {
        DeviceId(raw)
    }
}

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dev#{}", self.0)
    }
}

/// What sort of hardware a device is, following the paper's cast of
/// characters ("desktop and laptop PCs, other PDAs, or future wireless
/// devices, with extended memory capacity, present in the room").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// A memory-constrained handheld running applications (the swapper).
    Pda,
    /// A laptop PC offering storage.
    Laptop,
    /// A desktop PC offering storage.
    Desktop,
    /// A tiny memory-enabled wireless device (the paper's envisioned
    /// "myriad of small memory-enabled devices scattered all-over").
    Mote,
    /// A fixed access point / kiosk with storage.
    AccessPoint,
}

impl DeviceKind {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            DeviceKind::Pda => "pda",
            DeviceKind::Laptop => "laptop",
            DeviceKind::Desktop => "desktop",
            DeviceKind::Mote => "mote",
            DeviceKind::AccessPoint => "access-point",
        }
    }
}

impl fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Static description of a device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceProfile {
    /// Friendly name (unique inside a net is conventional, not enforced).
    pub name: String,
    /// Hardware class.
    pub kind: DeviceKind,
    /// Bytes of blob storage this device offers to neighbours
    /// (0 = offers none, e.g. the swapping PDA itself).
    pub storage_quota: usize,
}

impl DeviceProfile {
    /// Create a profile.
    pub fn new(name: impl Into<String>, kind: DeviceKind, storage_quota: usize) -> Self {
        DeviceProfile {
            name: name.into(),
            kind,
            storage_quota,
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may panic on impossible states
mod tests {
    use super::*;

    #[test]
    fn kinds_have_distinct_names() {
        use std::collections::HashSet;
        let names: HashSet<_> = [
            DeviceKind::Pda,
            DeviceKind::Laptop,
            DeviceKind::Desktop,
            DeviceKind::Mote,
            DeviceKind::AccessPoint,
        ]
        .iter()
        .map(|k| k.name())
        .collect();
        assert_eq!(names.len(), 5);
    }

    #[test]
    fn display_forms() {
        assert_eq!(DeviceId(3).to_string(), "dev#3");
        assert_eq!(DeviceKind::Mote.to_string(), "mote");
    }
}
