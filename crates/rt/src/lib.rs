//! # quakeviz-rt
//!
//! A message-passing runtime with an MPI-shaped API where every *rank* is an
//! OS thread.
//!
//! The SC'04 pipeline is an MPI program on the PSC LeMieux AlphaServer. This
//! crate substitutes that substrate: the pipeline code is written against a
//! [`Comm`] handle offering the MPI operations the paper uses — point-to-point
//! send/receive with tag matching (including the non-blocking sends used for
//! block distribution, §4), sub-communicators (the input / rendering /
//! output processor groups of Figure 2 and the 2DIP input groups of §5.2),
//! and the collectives the readers rely on (§5.3).
//!
//! Sends are buffered and never block (the `std::sync::mpsc` channels are
//! unbounded), which gives the same overlap semantics as `MPI_Isend` with
//! eager delivery; receives match on `(communicator, source, tag)` with
//! out-of-order arrivals parked in a per-thread pending queue.
//!
//! Beyond the runtime itself the crate hosts the workspace's shared
//! utilities: the observability layer ([`obs`] — per-rank phase spans,
//! metrics, Chrome-trace/CSV export), traffic accounting with a
//! per-`(src, dst, tag-class)` matrix ([`stats`]), and the in-repo
//! replacements for registry crates under the offline-build policy
//! ([`par`] for data-parallel loops, [`rng`] for deterministic random
//! numbers, [`fnv`] for the one FNV-1a digest).
//!
//! ```
//! use quakeviz_rt::World;
//!
//! let sums = World::run(4, |comm| {
//!     // ring: send rank to the right neighbour, receive from the left
//!     let right = (comm.rank() + 1) % comm.size();
//!     let left = (comm.rank() + comm.size() - 1) % comm.size();
//!     comm.send(right, 7, comm.rank());
//!     let got: usize = comm.recv(left, 7);
//!     got + comm.rank()
//! });
//! assert_eq!(sums.len(), 4);
//! ```

#![forbid(unsafe_code)]

/// Declares a field-less enum once, one row per variant — its doc comment
/// and its name — and derives the rest from that one list: `COUNT`, `ALL`
/// in declaration order (so a variant's position is `variant as usize`)
/// and `as_str()`. A row of [`obs::Phase`] adds its Gantt glyph and
/// whether it is a stage, which give `gantt_char()`, `is_stage()` and
/// `STAGES`.
macro_rules! enum_table {
    (
        $(#[$meta:meta])*
        pub enum $ty:ident {
            $($(#[$doc:meta])* $variant:ident => $name:literal, $glyph:literal, $stage:literal;)*
        }
    ) => {
        enum_table! {
            $(#[$meta])*
            pub enum $ty {
                $($(#[$doc])* $variant => $name;)*
            }
        }

        impl $ty {
            const GLYPHS: [char; $ty::COUNT] = [$($glyph),*];
            const IS_STAGE: [bool; $ty::COUNT] = [$($stage),*];
            const N_STAGES: usize = {
                let (mut n, mut i) = (0, 0);
                while i < $ty::COUNT {
                    n += $ty::IS_STAGE[i] as usize;
                    i += 1;
                }
                n
            };

            /// The stage variants, in declaration order.
            pub const STAGES: [$ty; $ty::N_STAGES] = {
                let mut out = [$ty::ALL[0]; $ty::N_STAGES];
                let (mut i, mut j) = (0, 0);
                while i < $ty::COUNT {
                    if $ty::IS_STAGE[i] {
                        out[j] = $ty::ALL[i];
                        j += 1;
                    }
                    i += 1;
                }
                out
            };

            /// One-character key for ASCII Gantt rendering.
            pub fn gantt_char(self) -> char {
                $ty::GLYPHS[self as usize]
            }

            /// Whether this is a stage variant.
            pub fn is_stage(self) -> bool {
                $ty::IS_STAGE[self as usize]
            }
        }
    };
    (
        $(#[$meta:meta])*
        pub enum $ty:ident {
            $($(#[$doc:meta])* $variant:ident => $name:literal;)*
        }
    ) => {
        $(#[$meta])*
        pub enum $ty {
            $($(#[$doc])* $variant,)*
        }

        impl $ty {
            const NAMES: &'static [&'static str] = &[$($name),*];
            pub const COUNT: usize = $ty::NAMES.len();
            pub const ALL: [$ty; $ty::COUNT] = [$($ty::$variant),*];

            pub fn as_str(self) -> &'static str {
                $ty::NAMES[self as usize]
            }
        }
    };
}

pub mod chaos;
pub mod comm;
pub mod fault;
pub mod fnv;
pub mod obs;
pub mod par;
pub mod rng;
pub mod stats;
pub mod wire;

pub use comm::{wait_all, Comm, SendHandle, World};
pub use fault::{
    FaultEvent, FaultKind, FaultPlan, FaultSpec, MembershipEvent, ReadFault, RecoveryStats,
    SendFault,
};
pub use fnv::{Fnv1a, FnvLanes};
pub use stats::{TagClass, TrafficEdge, TrafficStats};
pub use wire::{Codec, WireClassStats, WireLedger, WireSpec};
