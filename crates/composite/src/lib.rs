//! # quakeviz-composite
//!
//! Sort-last parallel image compositing (paper §4.4).
//!
//! The renderer is sort-last: every rendering processor produces fragments
//! for its own blocks, and a final inter-processor compositing step builds
//! the frame. This crate implements the paper's choice and its baselines:
//!
//! * [`direct_send`] — the classic direct-send
//!   compositor: the image is cut into one row strip per rank; every rank
//!   ships each fragment row to the strip owner. Worst case `n(n−1)`
//!   messages — "for low-bandwidth networks, care should be taken".
//! * [`slic`] — SLIC (Stompel et al. 2003): a
//!   view-dependent **schedule** is precomputed from the globally known
//!   fragment rectangles; scanline runs where only one fragment is present
//!   bypass compositing entirely, runs with overlap are assigned to
//!   exactly one compositor (the owner of the front-most fragment), and
//!   all traffic between a pair of ranks travels in a single batched
//!   message. This minimizes both message count and exchanged bytes.
//! * [`binary_swap`] — the classic log-round
//!   compositor, as the scalability baseline (power-of-two ranks).
//! * [`rle`] — run-length compression of pixel payloads, the optimization
//!   the paper's §7 reports cutting compositing time by ~50%.
//!
//! Direct-send and SLIC share one span format: each message between a
//! pair of ranks is its spans back to back in an order both sides derive
//! from the shared [`FrameInfo`] (raw, or RLE per span), so no keys travel.
//! Direct-send and binary swap deliver finished row ranges to the
//! collector the same way.
//!
//! All algorithms are *collective* over a [`quakeviz_rt::Comm`] and
//! produce the identical final image (the property tests verify SLIC and
//! direct-send bit for bit against a sequential reference, binary swap on
//! disjoint layouts).

#![forbid(unsafe_code)]

pub mod algorithms;
pub mod rle;
pub mod schedule;

pub use algorithms::{
    binary_swap, direct_send, sequential_reference, slic, CompositeOptions, CompositeResult,
};
pub use rle::{rle_decode, rle_encode};
pub use schedule::{FrameInfo, Run, Schedule};
