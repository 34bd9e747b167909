//! # quakeviz-lic
//!
//! Surface vector-field visualization with Line Integral Convolution
//! (paper §4.3, Figures 13/14).
//!
//! The earthquake mesh is densest near the ground surface (>20% of nodes),
//! and scientists care about the surface motion. Per frame:
//!
//! 1. the 2D horizontal velocity field on the surface is **extracted**
//!    from the 3D node data ([`field2d::extract_surface_field`]) — the
//!    irregular surface points are organized by the static quadtree
//!    built once at startup, and resampled onto a regular grid whose
//!    resolution follows the image size and adaptive level;
//! 2. [`lic::compute_lic`] convolves a white [`noise`] texture along
//!    streamlines of that field (Cabral & Leedom), yielding the streaky
//!    gray texture; a periodic phase shift animates the flow direction;
//! 3. the texture is colorized by velocity magnitude and handed to the
//!    output processors, which composite it with the volume rendering.
//!
//! All of this runs on the *input* processors: "since the I/O processors
//! execute concurrently with the rendering processors, it is possible to
//! hide the cost of vector field rendering" — the claim Figure 12
//! reproduces.

#![forbid(unsafe_code)]

pub mod field2d;
pub mod lic;
pub mod noise;

#[cfg(test)]
mod equivalence;
#[cfg(test)]
mod reference;

pub use field2d::{extract_surface_field, RegularField2D, SurfaceSampler};
pub use lic::{colorize, compute_lic, compute_lic_with_max, LicParams};
pub use noise::white_noise;
