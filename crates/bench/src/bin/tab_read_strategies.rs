//! §5.3 — the file-reading strategies compared on the virtual parallel
//! file system:
//!
//! * **collective** — derived datatypes + two-phase `MPI_FILE_READ_ALL`
//!   (requests merged across readers, data sieving inside each
//!   aggregator's domain, pieces exchanged between ranks);
//! * **indep-indexed** — each reader issues its own noncontiguous
//!   indexed read (with/without sieving), no exchange;
//! * **indep-contig** — §5.3.2: each reader takes a contiguous `1/m`
//!   slice of the node array and routes pieces in memory. "This strategy
//!   is superior if the overhead of collective I/O would become too
//!   high."
//!
//! The patterns are the *adaptive-fetch* node sets (two levels above the
//! finest) of interleaved renderers — sparse and scattered, the case
//! where the strategies genuinely differ. Columns: readers, strategy,
//! sieve, simulated seconds, disk MB (incl. sieve waste), requests,
//! exchanged MB.

use quakeviz_bench::{header, row, standard_dataset};
use quakeviz_core::reader::{block_level_nodes, member_node_range};
use quakeviz_mesh::{Partition, WorkloadModel};
use quakeviz_parfs::{IndexedBlockType, PFile};
use quakeviz_rt::World;
use quakeviz_seismic::Dataset;
use std::sync::Arc;

fn main() {
    let ds = standard_dataset();
    let mesh = Arc::clone(ds.mesh());
    let disk = Arc::clone(ds.disk());
    let blocks = mesh.octree().blocks(3);
    let level = mesh.octree().max_leaf_level().saturating_sub(2);

    header(&["readers", "strategy", "sieve", "sim_s", "disk_mb", "requests", "exchanged_mb"]);
    for m in [2usize, 4, 8] {
        // reader j feeds renderers j, j+m, …: sparse, interleaved patterns
        let partition = Partition::balanced(&mesh, &blocks, m * 2, WorkloadModel::CellCount);
        let reader_ids: Vec<Vec<u32>> = (0..m)
            .map(|j| {
                let mut ids: Vec<u32> = (j..m * 2)
                    .step_by(m)
                    .flat_map(|r| {
                        partition.blocks_of(r).iter().flat_map(|&bid| {
                            block_level_nodes(&mesh, &blocks[bid as usize], Some(level))
                        })
                    })
                    .collect();
                ids.sort_unstable();
                ids.dedup();
                ids
            })
            .collect();
        let reader_ids = Arc::new(reader_ids);

        // collective two-phase, with and without sieving
        for sieve in [0u64, 1 << 14] {
            let ids = Arc::clone(&reader_ids);
            let disk = Arc::clone(&disk);
            let outcomes = World::run(m, move |comm| {
                let f = PFile::open(Arc::clone(&disk), Dataset::step_path(3)).unwrap();
                let dt = IndexedBlockType::from_node_ids(&ids[comm.rank()], 12);
                let out = f.lend_all(&comm, &dt, sieve, |_, _| {}).unwrap();
                (out.sim_seconds, out.disk_bytes, out.requests, out.bytes_exchanged)
            });
            let (sim, bytes, reqs, exch) = outcomes[0];
            row(&[
                m.to_string(),
                "collective".into(),
                sieve.to_string(),
                format!("{sim:.4}"),
                format!("{:.2}", bytes as f64 / 1e6),
                reqs.to_string(),
                format!("{:.2}", exch as f64 / 1e6),
            ]);
        }

        // independent indexed reads (each rank alone, no merging)
        for sieve in [0u64, 1 << 14] {
            let ids = Arc::clone(&reader_ids);
            let disk = Arc::clone(&disk);
            let outcomes = World::run(m, move |comm| {
                let f = PFile::open(Arc::clone(&disk), Dataset::step_path(3)).unwrap();
                let dt = IndexedBlockType::from_node_ids(&ids[comm.rank()], 12);
                let out = f.lend(&dt.extents(), sieve, None, 0, |_, _| {}).unwrap();
                (out.sim_seconds, out.disk_bytes, out.requests)
            });
            let sim = outcomes.iter().map(|o| o.0).fold(0.0f64, f64::max);
            let bytes: u64 = outcomes.iter().map(|o| o.1).sum();
            let reqs: u64 = outcomes.iter().map(|o| o.2).sum();
            row(&[
                m.to_string(),
                "indep-indexed".into(),
                sieve.to_string(),
                format!("{sim:.4}"),
                format!("{:.2}", bytes as f64 / 1e6),
                reqs.to_string(),
                "0.00".into(),
            ]);
        }

        // independent contiguous slices (routing happens in memory)
        {
            let disk = Arc::clone(&disk);
            let node_count = mesh.node_count();
            let outcomes = World::run(m, move |comm| {
                let f = PFile::open(Arc::clone(&disk), Dataset::step_path(3)).unwrap();
                let (a, b) = member_node_range(node_count, comm.rank(), comm.size());
                let slice = [(a as u64 * 12, (b - a) as u64 * 12)];
                let out = f.lend(&slice, 0, None, 0, |_, _| {}).unwrap();
                (out.sim_seconds, out.disk_bytes, out.requests)
            });
            let sim = outcomes.iter().map(|o| o.0).fold(0.0f64, f64::max);
            let bytes: u64 = outcomes.iter().map(|o| o.1).sum();
            let reqs: u64 = outcomes.iter().map(|o| o.2).sum();
            row(&[
                m.to_string(),
                "indep-contig".into(),
                "-".into(),
                format!("{sim:.4}"),
                format!("{:.2}", bytes as f64 / 1e6),
                reqs.to_string(),
                "0.00".into(),
            ]);
        }
    }
    eprintln!("expect: indexed reads without sieving issue many requests; sieving and");
    eprintln!("collective merging trade waste bytes / exchange for request count;");
    eprintln!("contiguous slices read more bytes but in m single requests");
}
