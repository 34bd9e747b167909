//! Versioned, checksummed checkpoint/restart through the simulated
//! parallel file system.
//!
//! Every `K` steps the pipeline commits a checkpoint under
//! `PipelineConfig::checkpoint_path`:
//!
//! * each render rank writes its resident field snapshot to
//!   `{base}/step{S}/field-{rank}.bin` (`QVCF` file: magic, version,
//!   step, dense f32 node values, FNV-1a trailer), then acknowledges;
//! * the output rank, having collected every acknowledgement, writes the
//!   manifest `{base}/manifest.bin` (`QVCK` file: magic, version, config
//!   fingerprint, next step, block→renderer map, per-rank field
//!   checksums, FNV-1a trailer) **last**, and only then removes the
//!   previous checkpoint's field files.
//!
//! Commit order is the correctness argument: a crash between field
//! writes and the manifest leaves the *old* manifest pointing at the
//! *old* (still present) field files, so the latest resumable checkpoint
//! is always internally consistent. Resume validates magic, version,
//! trailer checksum, config fingerprint, and each field file's recorded
//! checksum before the pipeline starts; any mismatch is a typed
//! [`CheckpointError`], never a silently wrong frame.
//!
//! The fault plan needs no cursor in the checkpoint: every injection
//! decision is a pure function of `(seed, site, attempt)` where sites
//! are keyed by step, so a resumed run replays the exact post-resume
//! schedule of an uninterrupted one.
//!
//! The temporal-delta wire layer needs no cursor either: a resumed run
//! starts with empty delta state on both sender and receiver, which the
//! piece envelope resolves to ordinary keyframes (a state miss always
//! forces one). The wire spec is deliberately excluded from the config
//! fingerprint — checkpoints are interchangeable across codec
//! configurations, and `tests/delta_stream.rs` proves the spliced
//! kill-and-resume sequence bit-identical to an uninterrupted raw run.

use std::fmt;

use crate::control::ControlPlan;
use quakeviz_parfs::Disk;
use quakeviz_rt::Fnv1a;

/// Manifest file name under the checkpoint directory.
pub const MANIFEST_FILE: &str = "manifest.bin";
/// On-disk format version; bumped on any layout change.
/// v2: appended the committed elastic-plan history, so a resumed run
/// replays the same epoch sequence before running live.
pub const CHECKPOINT_VERSION: u32 = 2;

const MAGIC_MANIFEST: u32 = 0x5156_434b; // "QVCK"
const MAGIC_FIELD: u32 = 0x5156_4346; // "QVCF"

/// The committed checkpoint manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointManifest {
    /// Format version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Fingerprint of every config field that shapes the frame stream;
    /// resume refuses a mismatch.
    pub fingerprint: u64,
    /// First step the resumed run must execute (all steps `< next_step`
    /// were fully delivered before the checkpoint committed).
    pub next_step: usize,
    /// Block → renderer assignment at checkpoint time: for each render
    /// rank index, the sorted block ids it owned.
    pub block_map: Vec<Vec<u32>>,
    /// Per render-rank-index checksum of its field snapshot file, as
    /// acknowledged during the commit.
    pub fields: Vec<(u32, u64)>,
    /// Elastic control-plane history: every plan committed before
    /// `next_step`, in commit order. A resumed run replays these epochs
    /// (re-deriving the same routing and communicator groups) before its
    /// controller runs live; empty for static runs.
    pub plans: Vec<ControlPlan>,
}

/// Typed checkpoint failures, surfaced before the pipeline starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// No manifest at the configured path.
    Missing { path: String },
    /// Magic/structure mismatch — not a checkpoint file.
    BadMagic { path: String },
    /// Format version this build cannot read.
    BadVersion { path: String, found: u32, supported: u32 },
    /// Trailer checksum mismatch: the file is torn or corrupt.
    Corrupt { path: String },
    /// Manifest fingerprint differs from the current configuration.
    ConfigMismatch { expected: u64, found: u64 },
    /// A field snapshot named by the manifest is missing or fails its
    /// recorded checksum.
    FieldInvalid { path: String },
    /// The manifest's shape disagrees with the current world (e.g.
    /// renderer count changed).
    ShapeMismatch { detail: String },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Missing { path } => {
                write!(f, "no checkpoint manifest at '{path}'")
            }
            CheckpointError::BadMagic { path } => {
                write!(f, "'{path}' is not a checkpoint file (bad magic)")
            }
            CheckpointError::BadVersion { path, found, supported } => write!(
                f,
                "checkpoint '{path}' has version {found}, this build supports {supported}"
            ),
            CheckpointError::Corrupt { path } => {
                write!(f, "checkpoint '{path}' failed its checksum (torn or corrupt)")
            }
            CheckpointError::ConfigMismatch { expected, found } => write!(
                f,
                "checkpoint was written by a different configuration \
                 (fingerprint {found:#018x}, current {expected:#018x})"
            ),
            CheckpointError::FieldInvalid { path } => {
                write!(f, "checkpoint field snapshot '{path}' is missing or corrupt")
            }
            CheckpointError::ShapeMismatch { detail } => {
                write!(f, "checkpoint does not fit this run: {detail}")
            }
        }
    }
}

/// The pipeline's FNV-1a over a byte stream — the trailer checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    Fnv1a::pipeline().bytes(bytes.iter().copied()).finish()
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn u32(&mut self) -> Option<u32> {
        let b = self.data.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        Some(u32::from_le_bytes(b.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        let b = self.data.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(u64::from_le_bytes(b.try_into().unwrap()))
    }
}

/// Path of the manifest under `base`.
pub fn manifest_path(base: &str) -> String {
    format!("{base}/{MANIFEST_FILE}")
}

/// Path of render rank index `r`'s field snapshot for the checkpoint
/// committed after step `next_step - 1`.
pub fn field_path(base: &str, next_step: usize, r: usize) -> String {
    format!("{base}/step{next_step}/field-{r}.bin")
}

impl CheckpointManifest {
    /// Serialize with trailer checksum.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u32(&mut out, MAGIC_MANIFEST);
        put_u32(&mut out, self.version);
        put_u64(&mut out, self.fingerprint);
        put_u64(&mut out, self.next_step as u64);
        put_u32(&mut out, self.block_map.len() as u32);
        for blocks in &self.block_map {
            put_u32(&mut out, blocks.len() as u32);
            for &b in blocks {
                put_u32(&mut out, b);
            }
        }
        put_u32(&mut out, self.fields.len() as u32);
        for &(r, ck) in &self.fields {
            put_u32(&mut out, r);
            put_u64(&mut out, ck);
        }
        put_u32(&mut out, self.plans.len() as u32);
        for plan in &self.plans {
            put_u64(&mut out, plan.epoch);
            put_u32(&mut out, plan.apply_at);
            put_u32(&mut out, plan.active as u32);
            put_u32(&mut out, plan.input_width as u32);
            put_u32(&mut out, plan.assignment.len() as u32);
            for blocks in &plan.assignment {
                put_u32(&mut out, blocks.len() as u32);
                for &b in blocks {
                    put_u32(&mut out, b);
                }
            }
        }
        let trailer = fnv1a(&out);
        put_u64(&mut out, trailer);
        out
    }

    /// Parse and verify a manifest read from `path`.
    pub fn decode(data: &[u8], path: &str) -> Result<CheckpointManifest, CheckpointError> {
        let corrupt = || CheckpointError::Corrupt { path: path.to_string() };
        if data.len() < 8 {
            return Err(CheckpointError::BadMagic { path: path.to_string() });
        }
        let (body, trailer) = data.split_at(data.len() - 8);
        let mut c = Cursor { data: body, pos: 0 };
        // magic before checksum: a non-checkpoint file reports "wrong
        // kind of file", not "torn checkpoint"
        if c.u32() != Some(MAGIC_MANIFEST) {
            return Err(CheckpointError::BadMagic { path: path.to_string() });
        }
        if fnv1a(body) != u64::from_le_bytes(trailer.try_into().unwrap()) {
            return Err(corrupt());
        }
        let version = c.u32().ok_or_else(corrupt)?;
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::BadVersion {
                path: path.to_string(),
                found: version,
                supported: CHECKPOINT_VERSION,
            });
        }
        let fingerprint = c.u64().ok_or_else(corrupt)?;
        let next_step = c.u64().ok_or_else(corrupt)? as usize;
        let n_ranks = c.u32().ok_or_else(corrupt)? as usize;
        let mut block_map = Vec::with_capacity(n_ranks);
        for _ in 0..n_ranks {
            let n = c.u32().ok_or_else(corrupt)? as usize;
            let mut blocks = Vec::with_capacity(n);
            for _ in 0..n {
                blocks.push(c.u32().ok_or_else(corrupt)?);
            }
            block_map.push(blocks);
        }
        let n_fields = c.u32().ok_or_else(corrupt)? as usize;
        let mut fields = Vec::with_capacity(n_fields);
        for _ in 0..n_fields {
            let r = c.u32().ok_or_else(corrupt)?;
            let ck = c.u64().ok_or_else(corrupt)?;
            fields.push((r, ck));
        }
        let n_plans = c.u32().ok_or_else(corrupt)? as usize;
        let mut plans = Vec::with_capacity(n_plans.min(1024));
        for _ in 0..n_plans {
            let epoch = c.u64().ok_or_else(corrupt)?;
            let apply_at = c.u32().ok_or_else(corrupt)?;
            let active = c.u32().ok_or_else(corrupt)? as usize;
            let input_width = c.u32().ok_or_else(corrupt)? as usize;
            let n_ranks = c.u32().ok_or_else(corrupt)? as usize;
            let mut assignment = Vec::with_capacity(n_ranks.min(1024));
            for _ in 0..n_ranks {
                let n = c.u32().ok_or_else(corrupt)? as usize;
                let mut blocks = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    blocks.push(c.u32().ok_or_else(corrupt)?);
                }
                assignment.push(blocks);
            }
            plans.push(ControlPlan { epoch, apply_at, active, assignment, input_width });
        }
        if c.pos != body.len() {
            return Err(corrupt());
        }
        Ok(CheckpointManifest { version, fingerprint, next_step, block_map, fields, plans })
    }
}

/// Serialize a render rank's resident field snapshot (`QVCF`).
pub fn encode_field(next_step: usize, values: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + values.len() * 4 + 8);
    put_u32(&mut out, MAGIC_FIELD);
    put_u32(&mut out, CHECKPOINT_VERSION);
    put_u64(&mut out, next_step as u64);
    put_u32(&mut out, values.len() as u32);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    let trailer = fnv1a(&out);
    put_u64(&mut out, trailer);
    out
}

/// Parse and verify a field snapshot; returns `(next_step, values)`.
pub fn decode_field(data: &[u8], path: &str) -> Result<(usize, Vec<f32>), CheckpointError> {
    let invalid = || CheckpointError::FieldInvalid { path: path.to_string() };
    if data.len() < 8 {
        return Err(invalid());
    }
    let (body, trailer) = data.split_at(data.len() - 8);
    if fnv1a(body) != u64::from_le_bytes(trailer.try_into().unwrap()) {
        return Err(invalid());
    }
    let mut c = Cursor { data: body, pos: 0 };
    if c.u32() != Some(MAGIC_FIELD) || c.u32() != Some(CHECKPOINT_VERSION) {
        return Err(invalid());
    }
    let next_step = c.u64().ok_or_else(invalid)? as usize;
    let n = c.u32().ok_or_else(invalid)? as usize;
    if body.len() - c.pos != n * 4 {
        return Err(invalid());
    }
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        let b = &body[c.pos..c.pos + 4];
        values.push(f32::from_le_bytes(b.try_into().unwrap()));
        c.pos += 4;
    }
    Ok((next_step, values))
}

/// Checksum of an encoded field snapshot, as recorded in the manifest.
pub fn field_checksum(encoded: &[u8]) -> u64 {
    fnv1a(encoded)
}

/// Read and verify the manifest under `base`: present, well-formed, and
/// written by a run of this configuration `fingerprint`.
pub(crate) fn load_manifest(
    disk: &Disk,
    base: &str,
    fingerprint: u64,
) -> Result<CheckpointManifest, CheckpointError> {
    let path = manifest_path(base);
    let (bytes, _) =
        disk.read_full(&path).map_err(|_| CheckpointError::Missing { path: path.clone() })?;
    let manifest = CheckpointManifest::decode(&bytes, &path)?;
    if manifest.fingerprint != fingerprint {
        return Err(CheckpointError::ConfigMismatch {
            expected: fingerprint,
            found: manifest.fingerprint,
        });
    }
    Ok(manifest)
}

/// Read render rank index `rr`'s field snapshot of the checkpoint that
/// resumes at `next_step`, verified end to end: the checksum `ck` the
/// manifest recorded for it, the file's own trailer, the step it was taken
/// at and its length.
pub(crate) fn load_field(
    disk: &Disk,
    base: &str,
    next_step: usize,
    rr: u32,
    ck: u64,
    node_count: usize,
) -> Result<Vec<f32>, CheckpointError> {
    let path = field_path(base, next_step, rr as usize);
    let invalid = || CheckpointError::FieldInvalid { path: path.clone() };
    let (bytes, _) = disk.read_full(&path).map_err(|_| invalid())?;
    if field_checksum(&bytes) != ck {
        return Err(invalid());
    }
    let (step, values) = decode_field(&bytes, &path)?;
    if step != next_step || values.len() != node_count {
        return Err(invalid());
    }
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> CheckpointManifest {
        CheckpointManifest {
            version: CHECKPOINT_VERSION,
            fingerprint: 0xdead_beef_cafe_f00d,
            next_step: 6,
            block_map: vec![vec![0, 2, 5], vec![1, 3], vec![4]],
            fields: vec![(0, 11), (1, 22), (2, 33)],
            plans: vec![ControlPlan {
                epoch: 1,
                apply_at: 4,
                active: 3,
                assignment: vec![vec![0, 2], vec![1, 3, 5], vec![4]],
                input_width: 2,
            }],
        }
    }

    #[test]
    fn manifest_roundtrip() {
        let m = manifest();
        let bytes = m.encode();
        assert_eq!(CheckpointManifest::decode(&bytes, "x").unwrap(), m);
        // static runs carry no plan history
        let mut empty = manifest();
        empty.plans.clear();
        assert_eq!(CheckpointManifest::decode(&empty.encode(), "x").unwrap(), empty);
    }

    #[test]
    fn manifest_rejects_corruption() {
        let mut bytes = manifest().encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        assert!(matches!(
            CheckpointManifest::decode(&bytes, "x"),
            Err(CheckpointError::Corrupt { .. })
        ));
    }

    #[test]
    fn manifest_rejects_truncation_and_bad_magic() {
        let bytes = manifest().encode();
        assert!(CheckpointManifest::decode(&bytes[..bytes.len() - 3], "x").is_err());
        let mut wrong = bytes.clone();
        wrong[0] ^= 1;
        assert!(CheckpointManifest::decode(&wrong, "x").is_err());
    }

    #[test]
    fn manifest_rejects_future_version() {
        let mut m = manifest();
        m.version = CHECKPOINT_VERSION + 1;
        let bytes = m.encode();
        assert!(matches!(
            CheckpointManifest::decode(&bytes, "x"),
            Err(CheckpointError::BadVersion { found, .. }) if found == CHECKPOINT_VERSION + 1
        ));
    }

    #[test]
    fn field_roundtrip_and_corruption() {
        let vals: Vec<f32> = (0..257).map(|i| i as f32 * 0.5 - 3.0).collect();
        let bytes = encode_field(9, &vals);
        let (step, got) = decode_field(&bytes, "f").unwrap();
        assert_eq!(step, 9);
        assert_eq!(got, vals);
        let mut bad = bytes.clone();
        bad[20] ^= 0x40;
        assert!(matches!(decode_field(&bad, "f"), Err(CheckpointError::FieldInvalid { .. })));
    }

    #[test]
    fn paths_are_step_scoped() {
        assert_eq!(manifest_path("ckpt"), "ckpt/manifest.bin");
        assert_eq!(field_path("ckpt", 4, 1), "ckpt/step4/field-1.bin");
    }
}
