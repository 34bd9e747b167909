//! The traced staged walk: one frame's critical path, stage by stage.
//!
//! For each step the walk does what the pipeline's ranks do between them
//! — fetch, route, enhance, encode, send/receive, decode, ingest, build
//! bricks, ray-cast, composite, synthesize the LIC overlay, assemble —
//! on one thread, calling the same public functions with the workload's
//! real dataset, partition, camera and codec. Only the collective layers
//! (`comm.sendrecv`, `composite.*`) run on rank threads. Every call is
//! wrapped in a span; the spans under a step's `frame` span must account
//! for its duration (`walk.residual_pct`), which is the serial form of
//! the budget that closes. Kernel tick counters are read at the same
//! boundaries, so rates are computed where the work happens.
//!
//! What the pipeline keeps private (magnitudes, the per-block gather,
//! quantization, the XOR delta and the piece checksum of its pack and
//! ingest code) is re-done here in a few lines of the same arithmetic;
//! those lines sit in the `reader.route` and `walk.ingest` spans and the
//! README says so. The frames the walk assembles are compared with the
//! serial oracle's, so a walk that drifts from the program shows.
//!
//! Measurements that are not on a frame's path — a raw parfs read, a
//! collective read, a checkpoint-sized write, a message round trip, the
//! ray-cast with lighting flipped — are taken per step in a `side` span
//! outside the `frame` span and do not count towards `walk.frame_ms`.

use crate::span::{self, Tracer};
use crate::spec::{Workload, RENDERERS};
use crate::stats::median;
use quakeviz::composite::{slic, CompositeOptions, FrameInfo};
use quakeviz::lic::{colorize, compute_lic, extract_surface_field, white_noise, LicParams};
use quakeviz::mesh::{
    HexMesh, NodeField, NodeId, OctreeBlock, Partition, Quadtree, Vec3, VectorField, WorkloadModel,
};
use quakeviz::parfs::Disk;
use quakeviz::pipeline::reader::{
    block_level_nodes, member_node_range, read_step_ids, read_step_ids_collective, FetchPlan,
};
use quakeviz::pipeline::{checkpoint, wire_checksum};
use quakeviz::render::{
    front_to_back_order, render_brick, AdaptivePolicy, Brick, Camera, Fragment, LightingParams,
    RenderParams, RgbaImage, TemporalEnhance, TransferFunction,
};
use quakeviz::rt::obs::prof;
use quakeviz::rt::wire::{xor_in_place, Codec, WireSpec};
use quakeviz::rt::{TagClass, TrafficStats, World};
use quakeviz::seismic::Dataset;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

const SIEVE_WINDOW: u64 = 1 << 16;
const PING_PONGS: usize = 200;
const TAG_WALK: u64 = 0x77a1_0000;

/// One block piece as the walk ships it: the slice `[offset, offset+n)`
/// of block `bid`'s node list, raw or coded.
struct Piece {
    bid: u32,
    offset: u32,
    quantized: bool,
    coded: bool,
    /// The step whose raw bytes `body` XORs against, if it is a delta.
    base: Option<u32>,
    raw_len: u32,
    checksum: u64,
    body: Vec<u8>,
}

impl Piece {
    fn checksum(&self) -> u64 {
        wire_checksum(self.bid, self.offset, self.quantized as u8, self.body.iter().copied())
    }

    fn stride(&self) -> usize {
        if self.quantized {
            1
        } else {
            4
        }
    }
}

/// `batches[sender][renderer]` on the way out, `[renderer][sender]` on
/// the way in.
type Batches = Vec<Vec<Vec<Piece>>>;

/// Last raw payload per (input member, block, offset), with its step:
/// one end of a temporal-delta stream.
type DeltaState = BTreeMap<(usize, u32, u32), (u32, Vec<u8>)>;

/// What `run_pipeline` computes once before it spawns ranks, rebuilt
/// from the same public parts with the pipeline's defaults: blocks cut at
/// octree level 2, opacity per 1/64 of the longest edge, the seismic
/// transfer function, cell-count balancing.
struct Scene<'a> {
    w: &'a Workload,
    camera: &'a Camera,
    mesh: &'a HexMesh,
    disk: &'a Arc<Disk>,
    extent: Vec3,
    size: u32,
    level: u8,
    blocks: Vec<OctreeBlock>,
    partition: Partition,
    order_ids: Vec<u32>,
    ids_per_block: Vec<Vec<NodeId>>,
    /// Surface quadtree, surface node ids and noise texture, with LIC on.
    surface: Option<(Quadtree, Vec<NodeId>, Vec<f32>)>,
    /// Each input member's fetch plan and the node range it covers.
    fetch_plans: Vec<(FetchPlan, (usize, usize))>,
    tf: TransferFunction,
    opacity_unit: f64,
    norm: (f32, f32),
    wire: WireSpec,
}

impl<'a> Scene<'a> {
    fn new(w: &'a Workload, ds: &'a Dataset, camera: &'a Camera, tracer: &mut Tracer) -> Scene<'a> {
        let mesh: &HexMesh = ds.mesh();
        let octree = mesh.octree();
        let extent = octree.extent();
        let max_level = octree.max_leaf_level();
        let blocks = octree.blocks(2.min(max_level));
        let partition = tracer.scope("mesh.partition", |_| {
            Partition::balanced(mesh, &blocks, RENDERERS, WorkloadModel::CellCount)
        });
        let members = w.width_of_input_group();
        Scene {
            w,
            camera,
            mesh,
            disk: ds.disk(),
            extent,
            size: w.image,
            level: AdaptivePolicy::default().choose_level(octree, w.image, w.image).min(max_level),
            order_ids: front_to_back_order(&blocks, extent, camera.eye)
                .into_iter()
                .map(|i| blocks[i].id)
                .collect(),
            ids_per_block: blocks.iter().map(|b| block_level_nodes(mesh, b, None)).collect(),
            surface: w.lic.then(|| {
                let (qt, ids) = Quadtree::from_surface_nodes(mesh);
                (qt, ids, white_noise(w.image, w.image, 0x5eed))
            }),
            fetch_plans: (0..members)
                .map(|j| {
                    let range = member_node_range(mesh.node_count(), j, members);
                    (FetchPlan { ids: None, range: (members > 1).then_some(range) }, range)
                })
                .collect(),
            blocks,
            partition,
            tf: TransferFunction::seismic(),
            opacity_unit: extent.max_component() / 64.0,
            norm: (0.0, ds.vmag_max()),
            wire: w.wire_spec(),
        }
    }

    fn render_params(&self, lit: bool) -> RenderParams {
        RenderParams {
            lighting: lit.then(LightingParams::default),
            opacity_unit: Some(self.opacity_unit),
            ..Default::default()
        }
    }
}

/// State that lives across steps: each render rank's resident field and
/// both ends of the temporal-delta streams.
struct Streams {
    fields: Vec<NodeField>,
    tx_prev: DeltaState,
    rx_prev: DeltaState,
}

/// Per-step samples of everything that is not a span duration.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    /// Add to the step's running total under `name`.
    fn add(&mut self, name: &'static str, step: usize, v: f64) {
        let series = self.0.entry(name).or_default();
        series.resize(series.len().max(step + 1), 0.0);
        series[step] += v;
    }

    fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| median(v))
    }
}

/// Kernel tick counters, read at a stage boundary.
struct Ticks(BTreeMap<String, u64>);

impl Ticks {
    fn now() -> Ticks {
        Ticks(prof::snapshot().into_iter().collect())
    }

    fn since(&self, name: &str) -> f64 {
        let get = |t: &Ticks| t.0.get(name).copied().unwrap_or(0);
        (get(&Ticks::now()) - get(self)) as f64
    }
}

pub struct WalkResult {
    /// Per-layer metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// The frames the walk assembled, step order.
    pub frames: Vec<RgbaImage>,
    /// Median per-frame self time by span name, microseconds, under the
    /// frame span (the frame span's own entry is the residual).
    pub self_us: BTreeMap<&'static str, f64>,
}

/// Walk `steps` frames of `w` over `ds` and record every span in `tracer`.
pub fn walk(
    w: &Workload,
    ds: &Dataset,
    camera: &Camera,
    steps: usize,
    tracer: &mut Tracer,
) -> WalkResult {
    prof::set_enabled(true);
    tracer.set_frame(span::NO_FRAME);
    let scene = Scene::new(w, ds, camera, tracer);
    let mut streams = Streams {
        fields: (0..RENDERERS).map(|_| NodeField::zeros(scene.mesh)).collect(),
        tx_prev: DeltaState::new(),
        rx_prev: DeltaState::new(),
    };
    let mut samples = Samples::default();
    let mut frames = Vec::with_capacity(steps);
    let mut frame_roots = Vec::with_capacity(steps);
    for t in 0..steps {
        tracer.set_frame(t as u32);
        frame_roots.push(tracer.spans().len());
        let (frame, bricks) = tracer.scope("frame", |tr| {
            let batches = pack(&scene, &mut streams, t, tr, &mut samples);
            deliver(&scene, &mut streams, batches, t, tr);
            let (frags, bricks) = render(&scene, &streams, tr, &mut samples);
            let mut vol = composite(&scene, frags, t, tr, &mut samples);
            overlay(&scene, &mut vol, t, tr, &mut samples);
            (vol, bricks)
        });
        frames.push(frame);
        tracer.scope("side", |tr| side(&scene, &streams, &bricks, t, tr, &mut samples));
    }
    prof::set_enabled(false);
    let (metrics, self_us) = metrics(&scene, tracer, &frame_roots, &samples, steps);
    WalkResult { metrics, frames, self_us }
}

/// Input side of step `t`: fetch, magnitudes, enhancement, the per-block
/// gather, and the wire format.
fn pack(
    s: &Scene,
    streams: &mut Streams,
    t: usize,
    tr: &mut Tracer,
    samples: &mut Samples,
) -> Batches {
    let mut fetch = |tr: &mut Tracer, step: usize| -> Vec<NodeField> {
        let dense: Vec<Vec<[f32; 3]>> = s
            .fetch_plans
            .iter()
            .map(|(plan, _)| {
                tr.scope("reader.fetch", |_| {
                    let (dense, stats) = plan
                        .read(s.disk, s.mesh, step, SIEVE_WINDOW, None)
                        .expect("fault-free read of a generated step");
                    samples.add("fetch.useful_bytes", t, stats.useful_bytes as f64);
                    samples.add("fetch.disk_bytes", t, stats.disk_bytes as f64);
                    dense
                })
            })
            .collect();
        tr.scope("reader.route", |_| {
            dense.into_iter().map(|d| VectorField::new(d).magnitude()).collect()
        })
    };
    let mut mags = fetch(tr, t);
    if s.w.enhancement && t > 0 {
        // like the pipeline, re-fetch the previous step rather than keep it
        let prev = fetch(tr, t - 1);
        mags = tr.scope("render.enhance", |_| {
            mags.iter()
                .zip(&prev)
                .map(|(cur, prev)| TemporalEnhance::default().apply(cur, Some(prev), None))
                .collect()
        });
    }

    // per renderer, per block: the member's slice of the block's nodes,
    // quantized or as f32 bytes, checksummed
    let quant = if s.norm.1 > 0.0 { 255.0 / s.norm.1 } else { 0.0 };
    let mut batches: Batches = tr.scope("reader.route", |_| {
        mags.iter()
            .zip(&s.fetch_plans)
            .map(|(mag, (_, (lo, hi)))| {
                let mag = mag.values();
                (0..RENDERERS)
                    .map(|r| {
                        let mut batch = Vec::new();
                        for &bid in s.partition.blocks_of(r) {
                            let ids = &s.ids_per_block[bid as usize];
                            let a = ids.partition_point(|&id| (id as usize) < *lo);
                            let b = ids.partition_point(|&id| (id as usize) < *hi);
                            if a == b {
                                continue;
                            }
                            let values = ids[a..b].iter().map(|&id| mag[id as usize]);
                            let body: Vec<u8> = if s.w.quantize {
                                values.map(|v| (v * quant).clamp(0.0, 255.0) as u8).collect()
                            } else {
                                values.flat_map(f32::to_le_bytes).collect()
                            };
                            let mut p = Piece {
                                bid,
                                offset: a as u32,
                                quantized: s.w.quantize,
                                coded: false,
                                base: None,
                                raw_len: body.len() as u32,
                                checksum: 0,
                                body,
                            };
                            if !s.wire.is_active() {
                                p.checksum = p.checksum();
                            }
                            batch.push(p);
                        }
                        batch
                    })
                    .collect()
            })
            .collect()
    });
    drop(mags);

    // temporal XOR delta, codec, checksum of the coded bytes — only when
    // the workload configures a wire format
    if s.wire.is_active() {
        let raw_bytes = batches.iter().flatten().flatten().map(|p| p.raw_len as f64).sum();
        samples.add("wire.coded_raw_bytes", t, raw_bytes);
        let codec = s.wire.codec_for(TagClass::BlockData);
        let keyframe = (t as u32).is_multiple_of(s.wire.keyframe_every);
        tr.scope("wire.encode", |_| {
            for (j, per_renderer) in batches.iter_mut().enumerate() {
                for p in per_renderer.iter_mut().flatten() {
                    let raw = std::mem::take(&mut p.body);
                    let key = (j, p.bid, p.offset);
                    let mut input = raw.clone();
                    if s.wire.delta {
                        if let Some((step, prev)) = streams.tx_prev.get(&key) {
                            if !keyframe && prev.len() == raw.len() {
                                xor_in_place(&mut input, prev);
                                p.base = Some(*step);
                            }
                        }
                        streams.tx_prev.insert(key, (t as u32, raw));
                    }
                    let e = codec.encode(input, p.stride());
                    (p.coded, p.body) = (e.coded, e.body);
                    p.checksum = p.checksum();
                }
            }
        });
    }
    samples.add(
        "block.wire_bytes",
        t,
        batches.iter().flatten().flatten().map(|p| p.body.len() as f64).sum(),
    );
    batches
}

/// The input members send, the renderers receive, decode and ingest into
/// their resident fields.
fn deliver(s: &Scene, streams: &mut Streams, batches: Batches, t: usize, tr: &mut Tracer) {
    let members = batches.len();
    let outbox = Mutex::new(batches);
    let mut inbox: Batches = tr.scope("comm.sendrecv", |_| {
        World::run(members + RENDERERS, |comm| {
            let me = comm.rank();
            if me < members {
                let mine = std::mem::take(
                    &mut outbox.lock().expect("no rank panics holding the outbox")[me],
                );
                for (r, batch) in mine.into_iter().enumerate() {
                    let bytes = batch.iter().map(|p| p.body.len() as u64).sum();
                    comm.send_with_size(members + r, TAG_WALK + t as u64, batch, bytes);
                }
                Vec::new()
            } else {
                (0..members).map(|src| comm.recv(src, TAG_WALK + t as u64)).collect()
            }
        })
        .split_off(members)
    });

    if s.wire.is_active() {
        let codec = s.wire.codec_for(TagClass::BlockData);
        tr.scope("wire.decode", |_| {
            for per_src in inbox.iter_mut() {
                for (j, batch) in per_src.iter_mut().enumerate() {
                    for p in batch.iter_mut() {
                        assert_eq!(p.checksum(), p.checksum, "walk piece corrupted in flight");
                        let mut raw = codec
                            .decode(p.coded, &p.body, p.raw_len as usize, p.stride())
                            .expect("decode of a piece this walk encoded");
                        let key = (j, p.bid, p.offset);
                        if let Some(base) = p.base {
                            let (step, prev) =
                                streams.rx_prev.get(&key).expect("delta base received earlier");
                            assert_eq!(*step, base);
                            xor_in_place(&mut raw, prev);
                        }
                        if s.wire.delta {
                            streams.rx_prev.insert(key, (t as u32, raw.clone()));
                        }
                        p.body = raw;
                    }
                }
            }
        });
    }
    tr.scope("walk.ingest", |_| {
        for (field, per_src) in streams.fields.iter_mut().zip(&inbox) {
            for p in per_src.iter().flatten() {
                if !s.wire.is_active() {
                    assert_eq!(p.checksum(), p.checksum, "walk piece corrupted in flight");
                }
                let ids = &s.ids_per_block[p.bid as usize][p.offset as usize..];
                if p.quantized {
                    for (&id, &q) in ids.iter().zip(&p.body) {
                        field.set(id, q as f32 / 255.0 * s.norm.1);
                    }
                } else {
                    for (&id, c) in ids.iter().zip(p.body.chunks_exact(4)) {
                        field.set(id, f32::from_le_bytes([c[0], c[1], c[2], c[3]]));
                    }
                }
            }
        }
        drop(inbox);
    });
}

/// Per render rank, per visible block: resample a brick, cast its rays.
fn render(
    s: &Scene,
    streams: &Streams,
    tr: &mut Tracer,
    samples: &mut Samples,
) -> (Vec<Vec<Fragment>>, Vec<Brick>) {
    let before = Ticks::now();
    let params = s.render_params(s.w.lighting);
    let mut frags: Vec<Vec<Fragment>> = vec![Vec::new(); RENDERERS];
    let mut bricks = Vec::new();
    for (r, (mine, field)) in frags.iter_mut().zip(&streams.fields).enumerate() {
        for &bid in s.partition.blocks_of(r) {
            let block = &s.blocks[bid as usize];
            if s.camera.project_aabb(&block.root.bounds(s.extent)).is_none() {
                continue;
            }
            let brick = tr.scope("render.brick_build", |_| {
                Brick::from_field(s.mesh, field, block, s.level, s.norm)
            });
            mine.extend(
                tr.scope("render.raycast", |_| render_brick(&brick, s.camera, &s.tf, &params)),
            );
            bricks.push(brick);
        }
    }
    let rays = before.since("raycast.rays");
    samples.push("render.rays", rays);
    samples.push("render.samples", before.since("raycast.samples"));
    samples
        .push("render.early_term_share", before.since("raycast.early_terminated") / rays.max(1.0));
    (frags, bricks)
}

/// `FrameInfo::exchange` + SLIC over the render group, then the image's
/// trip to the output rank. The collector's own timings become the child
/// spans of the collective call.
fn composite(
    s: &Scene,
    frags: Vec<Vec<Fragment>>,
    t: usize,
    tr: &mut Tracer,
    samples: &mut Samples,
) -> RgbaImage {
    let before = Ticks::now();
    let traffic = TrafficStats::new();
    let mut vol = tr.scope("composite.world", |tr| {
        let mut out = World::run_traced(RENDERERS, traffic.clone(), |comm| {
            let mine = &frags[comm.rank()];
            let t0 = Instant::now();
            let info = FrameInfo::exchange(&comm, mine, &s.order_ids, s.size, s.size);
            let t1 = Instant::now();
            let res = slic(&comm, mine, &info, 0, CompositeOptions::default());
            (res.image, (t0, t1, Instant::now()))
        });
        let (image, (t0, t1, t2)) = out.swap_remove(0);
        tr.record("composite.exchange", t0, t1);
        tr.record("composite.slic", t1, t2);
        drop(frags);
        image.expect("rank 0 collects the frame")
    });
    samples.push("composite.msgs", traffic.messages() as f64);
    samples.push("composite.bytes", traffic.bytes() as f64);
    samples.push("composite.over_px", before.since("slic.over_px"));

    let codec = s.wire.codec_for(TagClass::VolumeImage);
    if codec != Codec::Raw {
        let raw_len = (s.size * s.size * 16) as usize;
        samples.add("wire.coded_raw_bytes", t, raw_len as f64);
        let e = tr.scope("wire.encode", |_| codec.encode(vol.to_bytes(), 16));
        vol = tr.scope("wire.decode", |_| {
            let raw = codec
                .decode(e.coded, &e.body, raw_len, 16)
                .expect("decode of an image this walk encoded");
            let mut img = RgbaImage::new(s.size, s.size);
            for (px, c) in img.pixels_mut().iter_mut().zip(raw.chunks_exact(16)) {
                for (k, ch) in px.iter_mut().enumerate() {
                    *ch = f32::from_le_bytes([c[4 * k], c[4 * k + 1], c[4 * k + 2], c[4 * k + 3]]);
                }
            }
            img
        });
    }
    vol
}

/// The LIC overlay of step `t` — surface read, field, convolution,
/// colour — laid behind the volume image.
fn overlay(s: &Scene, vol: &mut RgbaImage, t: usize, tr: &mut Tracer, samples: &mut Samples) {
    let Some((qt, surf_ids, noise)) = &s.surface else { return };
    let before = Ticks::now();
    let surf = tr.scope("reader.fetch", |_| {
        let (dense, stats) = read_step_ids(s.disk, s.mesh, t, surf_ids, SIEVE_WINDOW, None)
            .expect("fault-free read of a generated step");
        samples.add("fetch.useful_bytes", t, stats.useful_bytes as f64);
        samples.add("fetch.disk_bytes", t, stats.disk_bytes as f64);
        VectorField::new(dense)
    });
    let reg = tr.scope("lic.field", |_| extract_surface_field(s.mesh, &surf, qt, s.size, s.size));
    let params = LicParams { phase: Some((t as f64 * 0.08) % 1.0), ..Default::default() };
    let gray = tr.scope("lic.convolve", |_| compute_lic(&reg, noise, &params));
    let lic = tr.scope("lic.colorize", |_| colorize(&reg, &gray, &s.tf, reg.max_magnitude()));
    samples.push("lic.pixels", before.since("lic.pixels"));
    samples.push("lic.streamline_steps", before.since("lic.streamline_steps"));
    // the volume rendering sits in front of the surface
    tr.scope("walk.assemble", |_| vol.over_inplace(&lic));
}

/// Off the frame's path, once per step.
fn side(
    s: &Scene,
    streams: &Streams,
    bricks: &[Brick],
    t: usize,
    tr: &mut Tracer,
    samples: &mut Samples,
) {
    let path = Dataset::step_path(t);
    let (bytes, sim) =
        tr.scope("parfs.read", |_| s.disk.read_full(&path).expect("step file exists"));
    samples.push("parfs.read_bytes", bytes.len() as f64);
    samples.push("parfs.sim_read_ms", sim * 1e3);
    drop(bytes);

    let halves: Vec<Vec<NodeId>> = (0..2)
        .map(|j| {
            let (a, b) = member_node_range(s.mesh.node_count(), j, 2);
            (a as NodeId..b as NodeId).collect()
        })
        .collect();
    tr.scope("parfs.collective_read", |_| {
        World::run(2, |comm| {
            read_step_ids_collective(s.disk, s.mesh, t, &halves[comm.rank()], &comm, SIEVE_WINDOW)
                .expect("fault-free collective read")
                .1
                .useful_bytes
        })
    });

    // what a render rank writes at a checkpoint boundary
    let snapshot = checkpoint::encode_field(t + 1, streams.fields[0].values());
    tr.scope("parfs.write", |_| s.disk.write_file("walk/field.snap", snapshot));
    s.disk.remove_file("walk/field.snap");

    tr.scope("comm.rtt", |_| {
        World::run(2, |comm| {
            for i in 0..PING_PONGS as u64 {
                if comm.rank() == 0 {
                    comm.send_with_size(1, TAG_WALK + i, [0u8; 64], 64);
                    let _: [u8; 64] = comm.recv(1, TAG_WALK + i);
                } else {
                    let ping: [u8; 64] = comm.recv(0, TAG_WALK + i);
                    comm.send_with_size(0, TAG_WALK + i, ping, 64);
                }
            }
        })
    });

    // the same bricks with lighting flipped, for the lit/unlit ratio
    let flipped = s.render_params(!s.w.lighting);
    tr.scope("render.raycast_flipped", |_| {
        for brick in bricks {
            std::hint::black_box(render_brick(brick, s.camera, &s.tf, &flipped));
        }
    });
}

/// Spans and samples to metrics: per frame, the summed duration of each
/// span name and the summed self time of each name under the frame span;
/// medians across frames.
fn metrics(
    s: &Scene,
    tracer: &Tracer,
    frame_roots: &[usize],
    samples: &Samples,
    steps: usize,
) -> (BTreeMap<&'static str, f64>, BTreeMap<&'static str, f64>) {
    let spans = tracer.spans();
    let selfs = span::self_times_us(spans);
    let mut dur_by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut self_by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (i, sp) in spans.iter().enumerate() {
        if sp.frame == span::NO_FRAME {
            continue;
        }
        let t = sp.frame as usize;
        dur_by_name.entry(sp.name).or_insert_with(|| vec![0.0; steps])[t] += sp.duration_us();
        if span::descends_from(spans, i, frame_roots[t]) {
            self_by_name.entry(sp.name).or_insert_with(|| vec![0.0; steps])[t] += selfs[i];
        }
    }
    let ms = |name: &str| dur_by_name.get(name).map_or(0.0, |v| median(v) / 1e3);
    let stat = |name: &str| samples.median(name);
    let per_s = |amount: f64, millis: f64| if millis > 0.0 { amount / (millis / 1e3) } else { 0.0 };

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (metric, span_name) in [
        ("walk.frame_ms", "frame"),
        ("reader.fetch_ms", "reader.fetch"),
        ("reader.route_ms", "reader.route"),
        ("render.enhance_ms", "render.enhance"),
        ("render.brick_build_ms", "render.brick_build"),
        ("render.raycast_ms", "render.raycast"),
        ("lic.field_ms", "lic.field"),
        ("lic.convolve_ms", "lic.convolve"),
        ("lic.colorize_ms", "lic.colorize"),
        ("composite.exchange_ms", "composite.exchange"),
        ("composite.slic_ms", "composite.slic"),
        ("wire.encode_ms", "wire.encode"),
        ("wire.decode_ms", "wire.decode"),
        ("comm.sendrecv_ms", "comm.sendrecv"),
        ("walk.ingest_ms", "walk.ingest"),
        ("walk.assemble_ms", "walk.assemble"),
        ("parfs.read_ms", "parfs.read"),
        ("parfs.collective_read_ms", "parfs.collective_read"),
        ("parfs.write_ms", "parfs.write"),
    ] {
        m.insert(metric, ms(span_name));
    }
    // the worst frame, not the median: the budget has to close every time
    let worst = frame_roots.iter().map(|&root| span::residual_pct(spans, root)).fold(0.0, f64::max);
    m.insert("walk.residual_pct", worst);
    let partition_span = spans.iter().find(|sp| sp.name == "mesh.partition");
    m.insert("mesh.partition_ms", partition_span.map_or(0.0, |sp| sp.duration_us() / 1e3));
    m.insert("mesh.partition_imbalance", s.partition.imbalance());
    m.insert("mesh.blocks", s.blocks.len() as f64);

    m.insert("parfs.read_MBps", per_s(stat("parfs.read_bytes") / 1e6, ms("parfs.read")));
    m.insert("parfs.sim_read_ms", stat("parfs.sim_read_ms"));
    m.insert(
        "parfs.useful_byte_share",
        stat("fetch.useful_bytes") / stat("fetch.disk_bytes").max(1.0),
    );
    m.insert("reader.bytes_fetched", stat("fetch.useful_bytes"));
    m.insert("render.rays", stat("render.rays"));
    m.insert("render.samples", stat("render.samples"));
    m.insert("render.samples_per_ray", stat("render.samples") / stat("render.rays").max(1.0));
    m.insert("render.Msamples_per_s", per_s(stat("render.samples") / 1e6, ms("render.raycast")));
    m.insert("render.early_term_share", stat("render.early_term_share"));
    let (this, flipped) = (ms("render.raycast"), ms("render.raycast_flipped"));
    let (lit, unlit) = if s.w.lighting { (this, flipped) } else { (flipped, this) };
    m.insert("render.lit_over_unlit", if unlit > 0.0 { lit / unlit } else { 0.0 });
    m.insert("lic.pixels", stat("lic.pixels"));
    m.insert("lic.streamline_steps", stat("lic.streamline_steps"));
    m.insert("lic.Msteps_per_s", per_s(stat("lic.streamline_steps") / 1e6, ms("lic.convolve")));
    m.insert("composite.msgs", stat("composite.msgs"));
    m.insert("composite.bytes", stat("composite.bytes"));
    m.insert("composite.over_px", stat("composite.over_px"));
    // codec rates over the raw bytes that went in and came back out
    let coded_mb = stat("wire.coded_raw_bytes") / 1e6;
    m.insert("wire.encode_MBps", per_s(coded_mb, ms("wire.encode")));
    m.insert("wire.decode_MBps", per_s(coded_mb, ms("wire.decode")));
    m.insert("comm.MBps", per_s(stat("block.wire_bytes") / 1e6, ms("comm.sendrecv")));
    m.insert("comm.rtt_us", ms("comm.rtt") * 1e3 / PING_PONGS as f64);

    let self_us = self_by_name.into_iter().map(|(name, v)| (name, median(&v))).collect();
    (m, self_us)
}

/// The layer (module) a frame-path span is charged to. `reader.fetch` is
/// `FetchPlan::read`, parfs copy included: the two cannot be told apart
/// from outside, so they share a row.
pub fn layer_of(span_name: &str) -> &'static str {
    match span_name.split('.').next().unwrap_or("") {
        "reader" => "parfs+core.reader",
        "render" => "render",
        "lic" => "lic",
        "composite" => "composite",
        "wire" => "rt.wire",
        "comm" => "rt.comm",
        "walk" => "core.pipeline",
        _ => "(residual)",
    }
}
