//! Shared plumbing for the figure-regeneration binaries: canonical
//! datasets, table printing, PPM output, and a JSON parser ([`json`]).
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper; EXPERIMENTS.md records the paper-vs-measured comparison. The
//! binaries print machine-greppable rows (`col1 col2 …`) after a `#`
//! header line.

#![forbid(unsafe_code)]

pub mod json;

use quakeviz_seismic::{Dataset, SimulationBuilder};

/// The canonical small dataset used by the real-pipeline figures
/// (deterministic; ~30k cells at resolution 32).
pub fn standard_dataset() -> Dataset {
    SimulationBuilder::new()
        .resolution(32)
        .steps(12)
        .frequency(0.15)
        .run_to_dataset()
        .expect("standard dataset simulation failed")
}

/// A deeper-octree dataset for adaptive-rendering experiments
/// (resolution 64 → 6 octree levels).
pub fn deep_dataset() -> Dataset {
    SimulationBuilder::new()
        .resolution(64)
        .steps(8)
        .frequency(0.15)
        .run_to_dataset()
        .expect("deep dataset simulation failed")
}

/// A tiny dataset for fast sanity runs.
pub fn tiny_dataset() -> Dataset {
    SimulationBuilder::new()
        .resolution(16)
        .steps(6)
        .frequency(0.3)
        .run_to_dataset()
        .expect("tiny dataset simulation failed")
}

/// Write an image as PPM under `out/`.
pub fn write_ppm(name: &str, img: &quakeviz_render::RgbaImage) {
    std::fs::create_dir_all("out").expect("mkdir out");
    let path = format!("out/{name}.ppm");
    std::fs::write(&path, img.to_ppm([0.05, 0.05, 0.08])).expect("write ppm");
    eprintln!("wrote {path}");
}

/// Print a header comment line.
pub fn header(cols: &[&str]) {
    println!("# {}", cols.join("\t"));
}

/// Print one row of tab-separated values.
pub fn row(values: &[String]) {
    println!("{}", values.join("\t"));
}

/// Format seconds with 3 decimals.
pub fn s3(v: f64) -> String {
    format!("{v:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_dataset_builds() {
        let ds = tiny_dataset();
        assert!(ds.steps() == 6);
        assert!(ds.mesh().cell_count() > 100);
    }
}
