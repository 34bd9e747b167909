//! The pipeline's message alphabet and wire formats.
//!
//! Every message a pipeline rank sends is declared once, in [`TABLE`]: its
//! name, tag base, traffic class, payload type and the bytes it is charged.
//! A [`Channel`] is the only way the role loops touch a tag —
//! `DATA.send(comm, dst, t, batch)`, `CTL.recv(comm, src, t)` — so step
//! `t` always travels on `base + t` and [`classify_tag`] is a lookup in the
//! same table. Below it: block pieces (gather → delta → codec → checksum
//! and back), the image codec, and the degradation flags beside a frame.

use crate::control::{ControlPlan, EpochState};
use quakeviz_mesh::{NodeField, NodeId};
use quakeviz_render::RgbaImage;
use quakeviz_rt::obs::{self, Phase};
use quakeviz_rt::wire::{self, Codec, WireLedger, WireSpec};
use quakeviz_rt::{Comm, FnvLanes, SendHandle, TagClass};
use std::collections::HashMap;
use std::ops::RangeInclusive;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a message of a channel is charged in the traffic matrix.
pub(crate) enum Bytes<T> {
    /// Bookkeeping of a fixed nominal size.
    Fixed(u64),
    /// The payload's wire size.
    Of(fn(&T) -> u64),
}
use Bytes::{Fixed, Of};

/// One message kind: step `t`'s message travels on tag `base + t` and
/// carries a `T`.
pub(crate) struct Channel<T> {
    name: &'static str,
    base: u64,
    class: TagClass,
    bytes: Bytes<T>,
}

/// A channel's row of the protocol table: name, tag base, class, and the
/// fixed size it is charged (`None` = the payload's wire size).
pub(crate) type Row = (&'static str, u64, TagClass, Option<u64>);

impl<T: Send + 'static> Channel<T> {
    /// The tag of step `t`'s message — what the fault plan keys a send
    /// site by.
    pub fn tag(&self, t: usize) -> u64 {
        self.base + t as u64
    }

    fn bytes(&self, value: &T) -> u64 {
        match self.bytes {
            Fixed(n) => n,
            Of(size) => size(value),
        }
    }

    pub fn send(&self, comm: &Comm, dst: usize, t: usize, value: T) {
        let bytes = self.bytes(&value);
        comm.send_with_size(dst, self.tag(t), value, bytes);
    }

    /// Send under the fault plan's lossy transport; the handle completes
    /// when the receiver matches the message.
    pub fn isend_lossy(&self, comm: &Comm, dst: usize, t: usize, value: T) -> SendHandle {
        let bytes = self.bytes(&value);
        comm.isend_lossy_with_size(dst, self.tag(t), value, bytes)
    }

    pub fn recv(&self, comm: &Comm, src: usize, t: usize) -> T {
        comm.recv(src, self.tag(t))
    }

    pub fn try_recv_for(&self, comm: &Comm, src: usize, t: usize, wait: Duration) -> Option<T> {
        comm.try_recv_for(src, self.tag(t), wait)
    }

    /// The next message of any step in `steps`, from any source, as
    /// `(source, step, payload)`; `wait = None` blocks.
    pub fn recv_any_for(
        &self,
        comm: &Comm,
        steps: RangeInclusive<usize>,
        wait: Option<Duration>,
    ) -> Option<(usize, usize, T)> {
        let tags = self.tag(*steps.start())..=self.tag(*steps.end());
        let (src, tag, value) = comm.recv_any_for(tags, wait)?;
        Some((src, (tag - self.base) as usize, value))
    }

    const fn row(&self) -> Row {
        let fixed = match self.bytes {
            Fixed(n) => Some(n),
            Of(_) => None,
        };
        (self.name, self.base, self.class, fixed)
    }
}

/// Declares the channels — `NAME: payload = tag prefix, class, bytes;` —
/// and [`TABLE`], their rows in declaration order.
macro_rules! channels {
    ($($(#[$doc:meta])* $name:ident: $payload:ty = $prefix:literal, $class:ident, $bytes:expr;)*) => {
        $($(#[$doc])*
        pub(crate) const $name: Channel<$payload> = Channel {
            name: stringify!($name),
            base: $prefix << 40,
            class: TagClass::$class,
            bytes: $bytes,
        };)*
        pub(crate) const TABLE: &[Row] = &[$($name.row()),*];
    };
}

// Every channel has a tag base of its own.
channels! {
    /// Block batches, input → render.
    DATA: BlockBatch = 0x20, BlockData, Of(|batch| batch.iter().map(|p| p.body.len() as u64).sum());
    /// The LIC overlay and whether its read failed, lead input → frame assembler.
    LIC: (WireImage, bool) = 0x21, LicImage, Of(|(img, _)| img.wire_bytes());
    /// The composited frame and its merged degradation flags, render root → output.
    VOL: (WireImage, Vec<Degradation>) = 0x22, VolumeImage,
        Of(|(img, flags)| img.wire_bytes() + flags.len() as u64 * 8);
    /// Heartbeat beacons among group peers, and output → render root.
    HB: () = 0x24, Recovery, Fixed(8);
    /// Checkpoint acks `(render rank, field checksum)`, render → frame assembler.
    CKPT: (u32, u64) = 0x26, Recovery, Fixed(12);
    /// The plan committed this tick — or none — controller → participants.
    CTL: Option<ControlPlan> = 0x28, Recovery, Fixed(64);
    /// The controller's committed epoch state, output → a joiner at its
    /// rejoin step.
    CATCHUP: EpochState = 0x2a, Recovery, Fixed(64);
}

/// Map a wire tag to its traffic-matrix class (the runtime classifies its
/// own collective traffic before consulting this): a channel's, or the
/// compositing and collective-read layers' own tags.
pub(crate) fn classify_tag(tag: u64) -> TagClass {
    if let Some(&(_, _, class, _)) = TABLE.iter().find(|row| row.1 >> 40 == tag >> 40) {
        class
    } else if (0xc0de_0000..=0xc0de_ffff).contains(&tag) {
        TagClass::Composite
    } else if tag == quakeviz_parfs::mpiio::PIECES_TAG {
        TagClass::IoPieces
    } else {
        TagClass::Other
    }
}

/// Why a delivered frame is flagged degraded. Ordered so per-frame lists
/// sort deterministically (block entries first, frame-wide flags last).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Degradation {
    /// Block data arrived incomplete (deadline or checksum rejection):
    /// the block was rendered one octree level coarser over its
    /// last-known-good values.
    CoarserLevel { block: u32 },
    /// The input side exhausted its read retries and reported the
    /// block's data *missing* outright.
    MissingBlock { block: u32 },
    /// The LIC surface overlay could not be read; the frame shipped
    /// without it.
    MissingLic,
    /// An image payload (volume frame or LIC overlay) arrived with an
    /// undecodable wire body: the frame shipped blank or without the
    /// overlay instead of aborting the run.
    CorruptImage,
    /// The frame was assembled by the supervising render rank after the
    /// output processor died (output failover epoch).
    MigratedEpoch,
}

impl Degradation {
    /// The affected block id, for the block-scoped variants.
    pub fn block(&self) -> Option<u32> {
        match *self {
            Degradation::CoarserLevel { block } | Degradation::MissingBlock { block } => {
                Some(block)
            }
            Degradation::MissingLic | Degradation::CorruptImage | Degradation::MigratedEpoch => {
                None
            }
        }
    }
}

impl std::fmt::Display for Degradation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Degradation::CoarserLevel { block } => write!(f, "coarser:{block}"),
            Degradation::MissingBlock { block } => write!(f, "missing:{block}"),
            Degradation::MissingLic => write!(f, "no-lic"),
            Degradation::CorruptImage => write!(f, "corrupt-image"),
            Degradation::MigratedEpoch => write!(f, "migrated"),
        }
    }
}

/// Gather the values of `ids` out of a step's magnitudes into a piece's raw
/// bytes — the only form block values take between here and the receiver's
/// field: `f32` little-endian (`kind` 0), or 8-bit quantized against `scale`
/// (`kind` 1; paper §4 lists quantization among the input-processor
/// preprocessing tasks). A slice the sender could not read is not values
/// but a [`missing_piece`].
pub(crate) fn gather_values(
    mag: &[f32],
    ids: &[NodeId],
    quantize: bool,
    scale: f32,
) -> (u8, Vec<u8>) {
    if quantize {
        let q = if scale > 0.0 { 255.0 / scale } else { 0.0 };
        (1, ids.iter().map(|&id| (mag[id as usize] * q).clamp(0.0, 255.0) as u8).collect())
    } else {
        let mut raw = Vec::with_capacity(ids.len() * 4);
        for &id in ids {
            raw.extend_from_slice(&mag[id as usize].to_le_bytes());
        }
        (0, raw)
    }
}

/// The receive end of [`gather_values`]: write a piece's decoded raw bytes
/// into `field` at `ids`, dequantizing with `scale` when the kind says so.
pub(crate) fn scatter_values(
    field: &mut NodeField,
    ids: &[NodeId],
    kind: u8,
    raw: &[u8],
    scale: f32,
) {
    if kind == 0 {
        for (&id, c) in ids.iter().zip(raw.chunks_exact(4)) {
            field.set(id, f32::from_le_bytes([c[0], c[1], c[2], c[3]]));
        }
    } else {
        for (&id, &q) in ids.iter().zip(raw) {
            field.set(id, q as f32 / 255.0 * scale);
        }
    }
}

/// Bytes per value of a piece of `kind` — the codec shuffle stride.
fn kind_stride(kind: u8) -> usize {
    if kind == 0 {
        4
    } else {
        1
    }
}

/// The word-parallel pipeline digest ([`FnvLanes`]) started on a piece's
/// envelope: block id, offset, kind.
fn envelope_digest(bid: u32, offset: u32, kind: u8) -> FnvLanes {
    FnvLanes::new().slice(&bid.to_le_bytes()).slice(&offset.to_le_bytes()).slice(&[kind])
}

/// [`FnvLanes`] over a piece's wire representation, envelope first: any
/// single-bit difference changes the digest. Equal to what [`pack_piece`]
/// stores when `bytes` is the piece's header and encoded body.
pub fn wire_checksum(bid: u32, offset: u32, kind: u8, bytes: impl Iterator<Item = u8>) -> u64 {
    envelope_digest(bid, offset, kind).bytes(bytes).finish()
}

/// `base_step` sentinel for a self-contained keyframe piece.
pub(crate) const KEYFRAME: u32 = u32::MAX;

/// `kind` of a *missing* marker: the sender exhausted its read retries and
/// reports the slice length so the receiver can account for it without
/// waiting out its delivery deadline.
const KIND_MISSING: u8 = 2;

/// The checksum of a piece's *encoded* wire representation — header fields
/// plus the codec body exactly as transmitted, so verification happens
/// before any decode work touches the bytes. [`wire_checksum`] of the same
/// byte stream, fed as slices so the body goes to the lanes a block at a
/// time.
fn piece_checksum(p: &WirePiece) -> u64 {
    envelope_digest(p.bid, p.offset, p.kind)
        .slice(&[p.coded as u8])
        .slice(&p.base_step.to_le_bytes())
        .slice(&p.raw_len.to_le_bytes())
        .slice(&p.body)
        .finish()
}

/// One piece of a per-renderer data message: the values of `[offset,
/// offset + len)` of block `bid`'s id list, codec-encoded (and optionally
/// XOR-delta'd against the sender's previous step) and guarded by a wire
/// checksum over the encoded bytes, computed at pack time and verified on
/// receive *before* decode.
#[derive(Debug, Clone)]
pub(crate) struct WirePiece {
    pub bid: u32,
    pub offset: u32,
    /// Payload kind: 0 = f32 values, 1 = quantized u8, [`KIND_MISSING`].
    pub kind: u8,
    /// `body` is codec-compressed (vs stored raw verbatim after the
    /// no-expansion fallback).
    coded: bool,
    /// The sender-owned step whose raw payload `body` XORs against, or
    /// [`KEYFRAME`] for a self-contained piece.
    pub base_step: u32,
    /// Raw (decoded, un-delta'd) byte length.
    pub raw_len: u32,
    checksum: u64,
    pub body: Vec<u8>,
}

impl WirePiece {
    /// Declared node-value count, derived from envelope fields so a piece can
    /// be *accounted for* in degraded-frame bookkeeping even when its body is
    /// corrupt or its delta base is gone. (A missing marker stores its count
    /// in the 4-byte body; a corrupted one misreports, which only shifts the
    /// step toward its delivery deadline — same as a dropped message.)
    pub fn value_len(&self) -> usize {
        match self.kind {
            0 => self.raw_len as usize / 4,
            KIND_MISSING => self.missing_len().unwrap_or(0) as usize,
            _ => self.raw_len as usize,
        }
    }

    /// The slice length a missing marker's body reports.
    fn missing_len(&self) -> Option<u32> {
        <[u8; 4]>::try_from(&self.body[..]).ok().map(u32::from_le_bytes)
    }
}

/// The marker for `n` values of `[offset, offset + n)` of block `bid` the
/// sender could not read: 4 bytes of fault bookkeeping, never delta'd or
/// codec-encoded, so the receiver classifies it from the envelope alone and
/// the degradation flags stay codec-invariant.
pub(crate) fn missing_piece(bid: u32, offset: u32, n: u32) -> WirePiece {
    let mut piece = WirePiece {
        bid,
        offset,
        kind: KIND_MISSING,
        coded: false,
        base_step: KEYFRAME,
        raw_len: 4,
        checksum: 0,
        body: n.to_le_bytes().to_vec(),
    };
    piece.checksum = piece_checksum(&piece);
    piece
}

/// One per-renderer data message: a batch of block pieces.
pub(crate) type BlockBatch = Vec<WirePiece>;

/// Temporal-delta state, one side each and kept only while deltas travel
/// ([`WireSpec::delta`]): senders key by `(dst, bid, offset)` (a piece
/// re-routed by failover misses and forces a keyframe), receivers by
/// `(src, bid, offset)`. The value is the step and raw bytes of the last
/// successfully packed/decoded piece — missing markers, rejected pieces,
/// and sends the lossy transport reports dropped update neither side,
/// which is what keeps faulted delta runs bit-identical to raw ones.
pub(crate) type DeltaMap = HashMap<(usize, u32, u32), (u32, Vec<u8>)>;

/// Pack one piece's raw bytes ([`gather_values`]) for the wire: XOR-delta
/// against the sender's previous step when allowed (delta mode on, not a
/// keyframe boundary, same-length base available for this destination),
/// then codec-encode, then checksum the encoded bytes.
pub(crate) fn pack_piece(
    spec: &WireSpec,
    key: (usize, u32, u32), // (dst rank, block id, offset) — the delta-state lane
    kind: u8,
    raw: Vec<u8>,
    t: u32,
    state: &mut DeltaMap,
    advance: bool,
) -> WirePiece {
    let (_, bid, offset) = key;
    let raw_len = raw.len() as u32;
    let (base_step, input) = if !spec.delta {
        (KEYFRAME, raw)
    } else {
        let base = match state.get(&key) {
            Some((ps, prev))
                if !t.is_multiple_of(spec.keyframe_every) && prev.len() == raw.len() =>
            {
                let mut d = raw.clone();
                wire::xor_in_place(&mut d, prev);
                Some((*ps, d))
            }
            _ => None,
        };
        // a send the transport already reported lost (`advance = false`)
        // must not advance the sender's idea of what the receiver holds
        if advance {
            state.insert(key, (t, raw.clone()));
        }
        match base {
            Some((ps, d)) => (ps, d),
            None => (KEYFRAME, raw),
        }
    };
    let encoded = spec.codec_for(TagClass::BlockData).encode(input, kind_stride(kind));
    let mut piece = WirePiece {
        bid,
        offset,
        kind,
        coded: encoded.coded,
        base_step,
        raw_len,
        checksum: 0,
        body: encoded.body,
    };
    piece.checksum = piece_checksum(&piece);
    piece
}

/// Outcome of verifying + decoding one received piece.
pub(crate) enum Ingest<'a> {
    /// The decoded raw bytes ([`scatter_values`]) of the values at these
    /// node ids.
    Data(&'a [NodeId], Vec<u8>),
    Missing(u32),
    /// The checksum over the encoded bytes does not match: never fed to
    /// the codec, and no envelope field of it is to be trusted.
    Corrupt,
    /// Verified but unusable: an envelope that fits no block of this run,
    /// a malformed body, or a delta whose base this receiver does not hold
    /// (dropped/rejected earlier, or state lost to failover before the
    /// sender's next keyframe).
    Reject(&'static str),
}

/// The receive step of every piece of every run: verify the checksum on
/// the encoded bytes, place the piece in its block's id list, then
/// codec-decode the body (a stored one is moved, not copied) and resolve
/// the XOR delta against this receiver's stored base. Under
/// [`WireSpec::delta`] — the only mode a delta piece can arrive in — the
/// decoded bytes are kept as the lane's next base. Missing markers, corrupt
/// pieces and rejects leave the state untouched, mirroring the pack side.
/// No valid sender produces a failing piece without a fault to inject, but
/// the receiver does not enforce that with a panic: whatever comes back
/// other than `Data` degrades the block.
pub(crate) fn ingest_piece<'a>(
    spec: &WireSpec,
    piece: WirePiece,
    ids_per_block: &'a [Arc<Vec<NodeId>>],
    src: usize,
    t: u32,
    state: &mut DeltaMap,
) -> Ingest<'a> {
    if piece_checksum(&piece) != piece.checksum {
        return Ingest::Corrupt;
    }
    let n = piece.value_len();
    let Some(ids) = ids_per_block
        .get(piece.bid as usize)
        .and_then(|ids| ids.get(piece.offset as usize..)?.get(..n))
    else {
        return Ingest::Reject("piece outside its block");
    };
    if piece.kind == KIND_MISSING {
        return match piece.missing_len() {
            Some(n) if !piece.coded && piece.base_step == KEYFRAME => Ingest::Missing(n),
            _ => Ingest::Reject("malformed missing marker"),
        };
    }
    let (codec, stride) = (spec.codec_for(TagClass::BlockData), kind_stride(piece.kind));
    let raw_len = piece.raw_len as usize;
    let mut raw = if !piece.coded && piece.body.len() == raw_len {
        piece.body
    } else {
        match codec.decode(piece.coded, &piece.body, raw_len, stride) {
            Ok(r) => r,
            Err(_) => return Ingest::Reject("undecodable body"),
        }
    };
    let key = (src, piece.bid, piece.offset);
    if piece.base_step != KEYFRAME {
        match state.get(&key) {
            Some((ps, prev)) if *ps == piece.base_step && prev.len() == raw.len() => {
                wire::xor_in_place(&mut raw, prev)
            }
            _ => return Ingest::Reject("delta base unavailable"),
        }
    }
    if piece.kind > 1 || raw.len() != n * stride {
        return Ingest::Reject("raw payload inconsistent with kind");
    }
    if spec.delta {
        state.insert(key, (t, raw.clone()));
    }
    Ingest::Data(ids, raw)
}

/// What a render rank is owed at one step and what it got: the
/// degradation ladder's accounting rule, held as data. The rank waits while
/// anything is [`owed`](Self::owed); a block not fully got renders one
/// level coarser, flagged [`Degradation::MissingBlock`] if the input side
/// reported any of it missing, [`Degradation::CoarserLevel`] otherwise.
pub(crate) struct StepAccount {
    /// `(block, [owed, seen, got, missing])` of my blocks, sorted by block.
    blocks: Vec<(u32, [usize; 4])>,
}

impl StepAccount {
    pub fn new(my_blocks: &[u32], ids_per_block: &[Arc<Vec<NodeId>>]) -> StepAccount {
        let mut blocks: Vec<_> =
            my_blocks.iter().map(|&b| (b, [ids_per_block[b as usize].len(), 0, 0, 0])).collect();
        blocks.sort_unstable();
        StepAccount { blocks }
    }

    /// Account one piece by the block its envelope names and the length it
    /// declares — untrusted for a corrupt piece, which can so end a wait
    /// but never complete a block. A block not mine counts toward nothing.
    pub fn take(&mut self, bid: u32, declared_len: usize, outcome: &Ingest) {
        let Ok(i) = self.blocks.binary_search_by_key(&bid, |b| b.0) else {
            return;
        };
        let [_, seen, got, missing] = &mut self.blocks[i].1;
        match *outcome {
            Ingest::Data(..) => (*seen, *got) = (*seen + declared_len, *got + declared_len),
            Ingest::Missing(k) => (*seen, *missing) = (*seen + k as usize, *missing + k as usize),
            Ingest::Corrupt | Ingest::Reject(_) => *seen += declared_len,
        }
    }

    /// Whether some value of my blocks is not yet accounted for.
    pub fn owed(&self) -> bool {
        self.blocks.iter().any(|&(_, [owed, seen, ..])| seen < owed)
    }

    /// The blocks to render coarser (sorted) and their flags.
    pub fn finish(self) -> (Vec<u32>, Vec<Degradation>) {
        let incomplete = self.blocks.into_iter().filter(|&(_, [owed, _, got, _])| got < owed);
        incomplete
            .map(|(block, [.., missing])| match missing {
                0 => (block, Degradation::CoarserLevel { block }),
                _ => (block, Degradation::MissingBlock { block }),
            })
            .unzip()
    }
}

/// An image payload on the wire: `Plain` keeps the zero-copy path for
/// [`Codec::Raw`]; `Coded` carries codec-compressed little-endian pixel
/// bytes (stride 16 = one RGBA pixel). Images are never delta'd — each
/// frame's LIC/volume image stands alone, so failover and resume need no
/// image-side keyframe rules.
#[derive(Debug, Clone)]
pub(crate) enum WireImage {
    Plain(RgbaImage),
    Coded { width: u32, height: u32, coded: bool, body: Vec<u8> },
}

impl WireImage {
    /// Bytes this image occupies on the wire.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            WireImage::Plain(img) => img.pixels().len() as u64 * 16,
            WireImage::Coded { body, .. } => body.len() as u64,
        }
    }
}

/// Encode an outgoing image, recording raw/wire bytes and encode time to
/// the ledger.
pub(crate) fn encode_image(
    spec: &WireSpec,
    ledger: &WireLedger,
    class: TagClass,
    t: u32,
    img: RgbaImage,
) -> WireImage {
    let raw_len = img.pixels().len() as u64 * 16;
    let codec = spec.codec_for(class);
    if codec == Codec::Raw {
        ledger.record_send(class, raw_len, raw_len, 0);
        return WireImage::Plain(img);
    }
    let t0 = Instant::now();
    let mut span = obs::auto_span(Phase::Encode, t);
    let mut raw = Vec::with_capacity(raw_len as usize);
    for px in img.pixels() {
        for c in px {
            raw.extend_from_slice(&c.to_le_bytes());
        }
    }
    let e = codec.encode(raw, 16);
    let bytes = e.body.len() as u64;
    span.add_bytes(bytes);
    ledger.record_send(class, raw_len, bytes, t0.elapsed().as_nanos() as u64);
    WireImage::Coded { width: img.width(), height: img.height(), coded: e.coded, body: e.body }
}

/// Decode coded image bytes back to pixels. Split out of
/// [`decode_image`] so the corrupt-envelope path is unit-testable
/// without a full pipeline.
fn decode_image_bytes(
    codec: Codec,
    width: u32,
    height: u32,
    coded: bool,
    body: &[u8],
) -> Result<RgbaImage, &'static str> {
    let raw_len = width as usize * height as usize * 16;
    let raw = codec.decode(coded, body, raw_len, 16).map_err(|_| "undecodable image body")?;
    let mut img = RgbaImage::new(width, height);
    for (px, c) in img.pixels_mut().iter_mut().zip(raw.chunks_exact(16)) {
        for (k, ch) in px.iter_mut().enumerate() {
            *ch = f32::from_le_bytes([c[4 * k], c[4 * k + 1], c[4 * k + 2], c[4 * k + 3]]);
        }
    }
    Ok(img)
}

/// Decode a received image bit-identically. The fault plan never corrupts
/// image payloads (only block batches), but a receiver must not trust
/// that: an undecodable envelope is returned as `Err`, and the caller
/// degrades the frame ([`Degradation::CorruptImage`]) instead of
/// aborting the run.
pub(crate) fn decode_image(
    spec: &WireSpec,
    ledger: &WireLedger,
    class: TagClass,
    t: u32,
    msg: WireImage,
) -> Result<RgbaImage, &'static str> {
    match msg {
        WireImage::Plain(img) => Ok(img),
        WireImage::Coded { width, height, coded, body } => {
            let t0 = Instant::now();
            let _span = obs::auto_span(Phase::Decode, t);
            let img = decode_image_bytes(spec.codec_for(class), width, height, coded, &body)?;
            ledger.record_decode(class, t0.elapsed().as_nanos() as u64);
            Ok(img)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The table is the protocol: seven channels on seven distinct tag
    /// bases; every channel's class is what [`classify_tag`] says of its
    /// tags; and the table of DESIGN.md
    /// "Message channels" has these rows, in this order, each opening with
    /// the channel's name, tag, class and bytes.
    #[test]
    fn channel_table_is_consistent_and_documented() {
        let bases: BTreeSet<u64> = TABLE.iter().map(|row| row.1).collect();
        assert_eq!((TABLE.len(), bases.len()), (7, 7), "tag bases must be distinct");
        assert_eq!(classify_tag(0xc0de_0001), TagClass::Composite);
        assert_eq!(classify_tag(quakeviz_parfs::mpiio::PIECES_TAG), TagClass::IoPieces);
        assert_eq!(classify_tag(0x25 << 40), TagClass::Other);
        let design = include_str!("../../../DESIGN.md");
        let documented: Vec<&str> = design
            .lines()
            .skip_while(|line| !line.starts_with("| channel | tag `<< 40` | class | bytes |"))
            .skip(2)
            .take_while(|line| line.starts_with('|'))
            .collect();
        assert_eq!(documented.len(), TABLE.len(), "DESIGN.md lists other channels");
        for (line, &(name, base, class, fixed)) in documented.iter().zip(TABLE) {
            assert_eq!(base & ((1 << 40) - 1), 0, "{name}: steps live in the low 40 bits");
            for t in [0, 1, 1 << 20] {
                assert_eq!(classify_tag(base + t), class, "{name} step {t}");
            }
            let bytes = fixed.map_or("wire size".to_string(), |n| n.to_string());
            let row = format!("| `{name}` | `{:#x}` | {} | {bytes} |", base >> 40, class.as_str());
            assert!(line.starts_with(&row), "DESIGN.md says {line:?}, the table {row:?}");
        }
    }

    /// Degradation flags order blocks first and frame-level flags last,
    /// and print compactly for the report tooling.
    #[test]
    fn degradation_flags_order_and_display() {
        let mut flags = [
            Degradation::MigratedEpoch,
            Degradation::CorruptImage,
            Degradation::MissingLic,
            Degradation::MissingBlock { block: 7 },
            Degradation::CoarserLevel { block: 2 },
        ];
        flags.sort_unstable();
        let shown: Vec<String> = flags.iter().map(|d| d.to_string()).collect();
        assert_eq!(shown, ["coarser:2", "missing:7", "no-lic", "corrupt-image", "migrated"]);
        assert_eq!(flags[0].block(), Some(2));
        assert_eq!(flags[3].block(), None);
        assert_eq!(flags[4].block(), None);
    }

    /// A wire body that fails to decode must surface as an `Err`, never
    /// panic: the callers degrade the frame and count the reject.
    #[test]
    fn corrupt_image_bodies_are_rejected_not_fatal() {
        // RLE stream truncated mid-run: undecodable
        assert!(decode_image_bytes(Codec::Rle, 2, 2, true, &[7]).is_err());
        // raw body of the wrong length for the claimed geometry
        assert!(decode_image_bytes(Codec::Raw, 2, 2, false, &[0u8; 16]).is_err());
        // the happy path still round-trips a well-formed raw body
        let good = vec![0u8; 2 * 2 * 16];
        let img = decode_image_bytes(Codec::Raw, 2, 2, false, &good).expect("decodes");
        assert_eq!((img.width(), img.height()), (2, 2));
    }

    /// The raw bytes of four f32 values.
    fn four(values: [f32; 4]) -> Vec<u8> {
        values.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    /// The id lists of a run of eight blocks, of which only block 7 has
    /// nodes: `n` of them.
    fn ids(n: u32) -> Vec<Arc<Vec<NodeId>>> {
        (0..8).map(|b| Arc::new(if b == 7 { (10..10 + n).collect() } else { Vec::new() })).collect()
    }

    /// Pack f32 `raw` bytes for step `t` on the test lane `(dst 3, block 7,
    /// offset 0)`.
    fn pack(spec: &WireSpec, raw: Vec<u8>, t: u32, tx: &mut DeltaMap) -> WirePiece {
        pack_piece(spec, (3, 7, 0), 0, raw, t, tx, true)
    }

    /// The receive step of the one loop, from source rank 0.
    fn ingest<'a>(
        spec: &WireSpec,
        piece: &WirePiece,
        ids: &'a [Arc<Vec<NodeId>>],
        t: u32,
        rx: &mut DeltaMap,
    ) -> Ingest<'a> {
        ingest_piece(spec, piece.clone(), ids, 0, t, rx)
    }

    /// A well-formed piece round-trips through the receive step, and the
    /// receiver keeps it as a delta base iff deltas travel.
    #[test]
    fn ingest_piece_accepts_a_valid_piece() {
        let ids = ids(4);
        for (spec, bases) in [("rle", 0), ("rle,delta,keyframe=4", 1)] {
            let spec = WireSpec::parse(spec).unwrap();
            let raw = four([0.25, 0.5, 0.75, 1.0]);
            let piece = pack(&spec, raw.clone(), 1, &mut DeltaMap::new());
            let mut rx = DeltaMap::new();
            let Ingest::Data(at, got) = ingest(&spec, &piece, &ids, 1, &mut rx) else {
                panic!("valid piece ingests");
            };
            assert_eq!((at, got), (&ids[7][..], raw));
            assert_eq!(rx.len(), bases, "a base is kept iff `delta` is on ({spec:?})");
        }
    }

    /// What `pack_piece` stores is the public `wire_checksum` over header
    /// (coded flag, base step, raw length) ++ encoded body — for every
    /// codec, keyframes and deltas, both kinds and the missing marker.
    #[test]
    fn pack_piece_stores_the_public_wire_checksum() {
        let public = |p: &WirePiece| {
            let header = [p.coded as u8]
                .into_iter()
                .chain(p.base_step.to_le_bytes())
                .chain(p.raw_len.to_le_bytes());
            wire_checksum(p.bid, p.offset, p.kind, header.chain(p.body.iter().copied()))
        };
        let raw: Vec<u8> = (0..200u32).map(|i| (i * i % 7) as u8).collect();
        for spec in ["raw", "rle", "shuffle", "shuffle,delta,keyframe=3"] {
            let spec = WireSpec::parse(spec).unwrap();
            let mut tx = DeltaMap::new();
            for (t, kind) in [(1, 0), (2, 0), (3, 1)] {
                let p = pack_piece(&spec, (3, 7, 40), kind, raw.clone(), t, &mut tx, true);
                assert_eq!(p.checksum, public(&p), "{spec:?} step {t}");
            }
        }
        let marker = missing_piece(5, 17, 99);
        assert_eq!(marker.checksum, public(&marker));
    }

    /// Regression: a corrupt body — with or without a fault spec, there
    /// is one receive step — used to trip a receive-side `expect`. It must
    /// come back as a typed outcome the caller degrades on, never a panic,
    /// and never reach the codec.
    #[test]
    fn ingest_piece_rejects_corruption_instead_of_panicking() {
        let spec = WireSpec::parse("rle,delta").unwrap();
        let mut piece = pack(&spec, four([0.25, 0.5, 0.75, 1.0]), 1, &mut DeltaMap::new());
        piece.body[0] ^= 0x40;
        let mut rx = DeltaMap::new();
        assert!(matches!(ingest(&spec, &piece, &ids(4), 1, &mut rx), Ingest::Corrupt));
        assert!(rx.is_empty(), "a rejected piece must not advance receiver delta state");
    }

    /// A missing marker is bookkeeping, never values: it comes back as
    /// `Missing` with the length it reports — by type it cannot be
    /// ingested — and one whose envelope is off is rejected, not a panic.
    #[test]
    fn ingest_piece_never_ingests_a_missing_marker() {
        let spec = WireSpec::parse("raw,delta").unwrap();
        let ids = ids(16);
        let mut piece = missing_piece(7, 0, 16);
        assert_eq!(piece.value_len(), 16);
        let mut rx = DeltaMap::new();
        assert!(matches!(ingest(&spec, &piece, &ids, 1, &mut rx), Ingest::Missing(16)));
        piece.body.push(0);
        piece.checksum = piece_checksum(&piece);
        let Ingest::Reject(why) = ingest(&spec, &piece, &ids, 1, &mut rx) else {
            panic!("a marker with a 5-byte body must be rejected");
        };
        assert_eq!(why, "malformed missing marker");
        assert!(rx.is_empty(), "markers must not touch receiver delta state");
    }

    /// Regression: a delta piece whose base the receiver never decoded
    /// (e.g. state cleared at a rejoin boundary) is a typed rejection.
    #[test]
    fn ingest_piece_rejects_delta_with_unavailable_base() {
        let spec = WireSpec::parse("rle,delta,keyframe=4").unwrap();
        let mut tx = DeltaMap::new();
        // step 1 primes the sender lane, step 2 emits a true delta piece
        let _ = pack(&spec, four([0.25, 0.5, 0.75, 1.0]), 1, &mut tx);
        let piece = pack(&spec, four([0.5, 0.5, 0.75, 1.5]), 2, &mut tx);
        assert_ne!(piece.base_step, KEYFRAME, "step 2 must actually delta");
        let Ingest::Reject(why) = ingest(&spec, &piece, &ids(4), 2, &mut DeltaMap::new()) else {
            panic!("a delta without its base must be rejected");
        };
        assert_eq!(why, "delta base unavailable");
    }

    /// Regression: `(bid, offset, len)` come off the wire and used to index
    /// the block tables unchecked — for a corrupt piece, after it had
    /// failed its checksum. A verified piece that fits no block of the run
    /// is a typed rejection; a corrupt one stays `Corrupt`, whatever block
    /// its envelope names, and neither is indexed by.
    #[test]
    fn ingest_piece_rejects_a_piece_outside_its_block() {
        let spec = WireSpec::parse("raw").unwrap();
        let ids = ids(4);
        let outside = |edit: &dyn Fn(&mut WirePiece)| {
            let mut piece = pack(&spec, four([0.25, 0.5, 0.75, 1.0]), 1, &mut DeltaMap::new());
            edit(&mut piece);
            piece.checksum = piece_checksum(&piece);
            match ingest(&spec, &piece, &ids, 1, &mut DeltaMap::new()) {
                Ingest::Reject(why) => why,
                _ => panic!("a piece outside its block must be rejected"),
            }
        };
        assert_eq!(outside(&|p| p.bid = 8), "piece outside its block");
        assert_eq!(outside(&|p| p.bid = u32::MAX), "piece outside its block");
        assert_eq!(outside(&|p| p.offset = 1), "piece outside its block");
        assert_eq!(outside(&|p| p.offset = u32::MAX), "piece outside its block");
        // a block the run has, but with fewer nodes than the piece brings
        assert_eq!(outside(&|p| p.bid = 0), "piece outside its block");
        let mut piece = pack(&spec, four([0.25, 0.5, 0.75, 1.0]), 1, &mut DeltaMap::new());
        piece.bid = u32::MAX; // checksum left stale: corrupt on the wire
        assert!(matches!(ingest(&spec, &piece, &ids, 1, &mut DeltaMap::new()), Ingest::Corrupt));
    }

    /// One piece as the receive loop hands it to a [`StepAccount`]: the
    /// block its envelope names, the length it declares, its outcome.
    type Piece = (u32, usize, Ingest<'static>);

    fn data(bid: u32, n: usize) -> Piece {
        (bid, n, Ingest::Data(&[], Vec::new()))
    }

    fn corrupt(bid: u32, n: usize) -> Piece {
        (bid, n, Ingest::Corrupt)
    }

    /// The id lists of a run of four blocks of 8, 6, 4 and 0 nodes; the
    /// render rank of these tests owns blocks 2 and 0, listed unsorted.
    fn run_blocks() -> Vec<Arc<Vec<NodeId>>> {
        [8, 6, 4, 0].into_iter().map(|n| Arc::new((0..n).collect())).collect()
    }
    const MINE: [u32; 2] = [2, 0];

    /// Feed `pieces` to a fresh account of `mine`: whether anything was
    /// owed before the first piece and after each one, and the verdict.
    fn feed(mine: &[u32], pieces: &[Piece]) -> (Vec<bool>, (Vec<u32>, Vec<Degradation>)) {
        let mut account = StepAccount::new(mine, &run_blocks());
        let mut owed = vec![account.owed()];
        for (bid, n, outcome) in pieces {
            account.take(*bid, *n, outcome);
            owed.push(account.owed());
        }
        (owed, account.finish())
    }

    const CLEAN: (Vec<u32>, Vec<Degradation>) = (Vec::new(), Vec::new());

    fn coarser(bid: u32) -> (Vec<u32>, Vec<Degradation>) {
        (vec![bid], vec![Degradation::CoarserLevel { block: bid }])
    }

    /// All values delivered, in one batch or split over two — the account
    /// cannot tell, nor need to: batches write disjoint slices.
    #[test]
    fn step_account_completes_in_one_batch_or_across_two() {
        let one_batch = [data(0, 8), data(2, 4)];
        assert_eq!(feed(&MINE, &one_batch), (vec![true, true, false], CLEAN));
        // first batch: half of block 2 and all of block 0; second: the rest
        let two_batches = [data(2, 2), data(0, 8), data(2, 2)];
        assert_eq!(feed(&MINE, &two_batches), (vec![true, true, true, false], CLEAN));
    }

    /// The account counts values, not slices: it trusts the sender's
    /// tiling, so a duplicate of a delivered piece neither re-opens the
    /// wait nor flags the block.
    #[test]
    fn step_account_absorbs_a_duplicate_data_piece() {
        let pieces = [data(0, 8), data(2, 4), data(2, 4)];
        assert_eq!(feed(&MINE, &pieces), (vec![true, true, false, false], CLEAN));
    }

    /// A piece naming a block of another rank, or one the run does not
    /// have, counts toward nothing of mine.
    #[test]
    fn step_account_ignores_blocks_not_mine() {
        let pieces = [data(1, 6), data(99, 8), (u32::MAX, 8, Ingest::Reject("x")), data(0, 8)];
        assert_eq!(feed(&MINE, &pieces), (vec![true; 5], coarser(2)));
    }

    /// A corrupt piece ends its share of the wait but delivers nothing:
    /// the rest of the block arriving leaves it a block short of complete.
    #[test]
    fn step_account_degrades_a_block_with_a_corrupt_piece() {
        let pieces = [corrupt(0, 4), data(0, 4), data(2, 4)];
        assert_eq!(feed(&MINE, &pieces), (vec![true, true, true, false], coarser(0)));
        // a rejected piece counts the same way
        let pieces = [(0, 4, Ingest::Reject("x")), data(0, 4), data(2, 4)];
        assert_eq!(feed(&MINE, &pieces).1, coarser(0));
    }

    /// A missing marker after partial data: the block is accounted for,
    /// and flagged missing rather than merely coarser.
    #[test]
    fn step_account_flags_a_missing_marker_as_missing_block() {
        let pieces = [data(2, 4), data(0, 5), (0, 3, Ingest::Missing(3))];
        let missing = (vec![0], vec![Degradation::MissingBlock { block: 0 }]);
        assert_eq!(feed(&MINE, &pieces), (vec![true, true, true, false], missing));
    }

    /// A 2DIP slice that holds no value of my blocks arrives as an empty
    /// batch: with nothing owed, there is nothing to wait for or flag.
    #[test]
    fn step_account_owes_nothing_for_blocks_without_values() {
        assert_eq!(feed(&[3], &[]), (vec![false], CLEAN));
        assert_eq!(feed(&[], &[]), (vec![false], CLEAN));
    }

    /// A corrupt piece's envelope is untrusted, so it may name another of
    /// my blocks — and claim any length. It can end that block's wait
    /// early, never mark the block complete: a corrupt piece may cause a
    /// degraded frame, never a stale frame flagged clean.
    #[test]
    fn step_account_never_completes_a_block_from_a_corrupt_envelope() {
        // a corrupt piece of block 0 whose envelope names block 2
        let pieces = [data(0, 4), corrupt(2, 4), data(0, 4)];
        assert_eq!(feed(&MINE, &pieces), (vec![true, true, true, false], coarser(2)));
        // the same lie, declaring far more values than block 2 has
        let pieces = [corrupt(2, u32::MAX as usize), data(0, 8)];
        assert_eq!(feed(&MINE, &pieces), (vec![true, true, false], coarser(2)));
    }
}
