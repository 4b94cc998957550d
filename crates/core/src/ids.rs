//! Strongly-typed identifiers used throughout the model.
//!
//! Every entity of the formal model (services, versions, users, automaton
//! states, checks, strategies) is referenced by a dedicated newtype so that
//! the compiler rules out mixing them up (e.g. passing a [`StateId`] where a
//! [`CheckId`] is expected).

use std::fmt;

macro_rules! numeric_id {
    ($(#[$meta:meta])* $name:ident, $prefix:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(u64);

        impl $name {
            /// Creates an identifier from its raw numeric value.
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// Returns the raw numeric value.
            pub const fn raw(self) -> u64 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u64> for $name {
            fn from(raw: u64) -> Self {
                Self(raw)
            }
        }

        impl From<$name> for u64 {
            fn from(id: $name) -> u64 {
                id.0
            }
        }
    };
}

numeric_id!(
    /// Identifies a [`Service`](crate::Service) (`bᵢ ∈ B` in the paper).
    ServiceId,
    "svc-"
);
numeric_id!(
    /// Identifies a concrete [`ServiceVersion`](crate::ServiceVersion) (`vⱼ` of a service).
    VersionId,
    "ver-"
);
numeric_id!(
    /// Identifies a [`User`](crate::User) (`uₖ ∈ U`).
    UserId,
    "user-"
);
numeric_id!(
    /// Identifies a [`State`](crate::State) (`sᵢ ∈ S`) of the automaton.
    StateId,
    "state-"
);
numeric_id!(
    /// Identifies a [`Check`](crate::Check) (`cᵢ ∈ C`) inside a state.
    CheckId,
    "check-"
);
numeric_id!(
    /// Identifies a complete [`Strategy`](crate::Strategy) (`S = ⟨B, A⟩`).
    StrategyId,
    "strategy-"
);

/// A small helper that hands out monotonically increasing identifiers.
///
/// Builders use this to assign ids deterministically, which keeps model
/// construction reproducible (important for the simulation substrate).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IdAllocator {
    next: u64,
}

impl IdAllocator {
    /// Creates an allocator starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an allocator starting at `first`.
    pub fn starting_at(first: u64) -> Self {
        Self { next: first }
    }

    /// Returns the next raw id and advances the allocator.
    pub fn next_raw(&mut self) -> u64 {
        let id = self.next;
        self.next += 1;
        id
    }

    /// Returns the next id converted into the requested newtype.
    pub fn next_id<T: From<u64>>(&mut self) -> T {
        T::from(self.next_raw())
    }

    /// Number of identifiers handed out so far (when starting at zero).
    pub fn allocated(&self) -> u64 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_uses_prefixes() {
        assert_eq!(ServiceId::new(3).to_string(), "svc-3");
        assert_eq!(VersionId::new(0).to_string(), "ver-0");
        assert_eq!(UserId::new(42).to_string(), "user-42");
        assert_eq!(StateId::new(7).to_string(), "state-7");
        assert_eq!(CheckId::new(9).to_string(), "check-9");
        assert_eq!(StrategyId::new(1).to_string(), "strategy-1");
    }

    #[test]
    fn roundtrip_raw_conversion() {
        let id = StateId::from(17u64);
        assert_eq!(id.raw(), 17);
        assert_eq!(u64::from(id), 17);
    }

    #[test]
    fn ids_are_ordered_by_raw_value() {
        assert!(CheckId::new(1) < CheckId::new(2));
        assert!(StateId::new(10) > StateId::new(3));
    }

    #[test]
    fn allocator_is_monotonic() {
        let mut alloc = IdAllocator::new();
        let a: StateId = alloc.next_id();
        let b: StateId = alloc.next_id();
        let c: StateId = alloc.next_id();
        assert_eq!(a.raw(), 0);
        assert_eq!(b.raw(), 1);
        assert_eq!(c.raw(), 2);
        assert_eq!(alloc.allocated(), 3);
    }

    #[test]
    fn allocator_starting_at_offset() {
        let mut alloc = IdAllocator::starting_at(100);
        let id: VersionId = alloc.next_id();
        assert_eq!(id.raw(), 100);
    }
}
