//! Dense identifiers for locks, variables and program locations.

use std::fmt;

macro_rules! dense_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash,
        )]
        pub struct $name(u32);

        impl $name {
            /// Creates an id from a dense index.
            pub const fn new(index: u32) -> Self {
                $name(index)
            }

            /// Returns the dense index backing this id.
            pub const fn index(self) -> usize {
                self.0 as usize
            }

            /// Returns the raw `u32` value.
            pub const fn raw(self) -> u32 {
                self.0
            }
        }

        impl From<u32> for $name {
            fn from(value: u32) -> Self {
                $name(value)
            }
        }

        impl From<$name> for u32 {
            fn from(value: $name) -> Self {
                value.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

dense_id!(
    /// A dense identifier for a lock (synchronization object).
    LockId,
    "L"
);

dense_id!(
    /// A dense identifier for a shared memory location ("variable").
    VarId,
    "x"
);

dense_id!(
    /// A dense identifier for a program location (source line / pc).
    ///
    /// The paper counts *distinct race pairs* as unordered pairs of program
    /// locations (§4, "Race detection capability"), so every event carries a
    /// `Location`.
    Location,
    "pc"
);

impl Location {
    /// The unknown/unspecified program location.
    pub const UNKNOWN: Location = Location(u32::MAX);

    /// Returns true for [`Location::UNKNOWN`].
    pub const fn is_unknown(self) -> bool {
        self.0 == u32::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_id_roundtrip() {
        let l = LockId::new(4);
        assert_eq!(l.index(), 4);
        assert_eq!(l.raw(), 4);
        assert_eq!(LockId::from(4u32), l);
        assert_eq!(u32::from(l), 4);
        assert_eq!(l.to_string(), "L4");
    }

    #[test]
    fn var_id_display() {
        assert_eq!(VarId::new(0).to_string(), "x0");
        assert!(VarId::new(1) > VarId::new(0));
    }

    #[test]
    fn location_unknown_sentinel() {
        assert!(Location::UNKNOWN.is_unknown());
        assert!(!Location::new(3).is_unknown());
        assert_eq!(Location::new(3).to_string(), "pc3");
    }
}
