//! Umbrella crate: re-exports every workspace crate under one roof so
//! examples and downstream users write `quakeviz::pipeline::…` instead of
//! depending on the individual `quakeviz-*` crates.

#![forbid(unsafe_code)]

pub use quakeviz_composite as composite;
pub use quakeviz_core as pipeline;
pub use quakeviz_lic as lic;
pub use quakeviz_mesh as mesh;
pub use quakeviz_parfs as parfs;
pub use quakeviz_render as render;
pub use quakeviz_rt as rt;
pub use quakeviz_seismic as seismic;
