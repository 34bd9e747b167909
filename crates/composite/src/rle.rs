//! Run-length encoding of premultiplied-RGBA pixel spans.
//!
//! Rendered fragments are dominated by fully transparent pixels and long
//! constant runs (sky, saturated cores). RLE exploits this: the paper's
//! future-work section reports ~50% lower compositing time once pixel
//! exchanges are compressed, and Ahrens & Painter's compositing (cited as
//! \[1\]) is built on the same observation.
//!
//! Format: a sequence of `(u32 count, [f32; 4] value)` records, little
//! endian, 20 bytes per run.

use quakeviz_render::Rgba;

/// Encode a pixel span. Exact-equality runs; worst case (no runs) inflates
/// 16 B/pixel to 20 B/pixel.
pub fn rle_encode(pixels: &[Rgba]) -> Vec<u8> {
    let mut out = Vec::with_capacity(pixels.len() / 2 * 20 + 20);
    rle_encode_rows(&mut out, [pixels]);
    out
}

/// Append the encoding of one span, given as consecutive rows, to `out`:
/// the bytes [`rle_encode`] gives for the rows' concatenation.
pub(crate) fn rle_encode_rows<'a>(out: &mut Vec<u8>, rows: impl IntoIterator<Item = &'a [Rgba]>) {
    let mut record: Option<(Rgba, u32)> = None;
    for &p in rows.into_iter().flatten() {
        match &mut record {
            Some((v, count)) if *v == p && *count < u32::MAX => *count += 1,
            _ => {
                if let Some((v, count)) = record.replace((p, 1)) {
                    push_record(out, v, count);
                }
            }
        }
    }
    if let Some((v, count)) = record {
        push_record(out, v, count);
    }
}

fn push_record(out: &mut Vec<u8>, v: Rgba, count: u32) {
    out.extend_from_slice(&count.to_le_bytes());
    for c in v {
        out.extend_from_slice(&c.to_le_bytes());
    }
}

/// `(count, value)` of one 20-byte record.
fn read_record(rec: &[u8]) -> (usize, Rgba) {
    let count = u32::from_le_bytes(rec[0..4].try_into().unwrap()) as usize;
    let mut v = [0.0f32; 4];
    for (c, vslot) in v.iter_mut().enumerate() {
        let o = 4 + c * 4;
        *vslot = f32::from_le_bytes(rec[o..o + 4].try_into().unwrap());
    }
    (count, v)
}

/// Decode an RLE span (inverse of [`rle_encode`]).
pub fn rle_decode(bytes: &[u8]) -> Vec<Rgba> {
    assert_eq!(bytes.len() % 20, 0, "corrupt RLE stream");
    let mut out = Vec::new();
    for rec in bytes.chunks_exact(20) {
        let (count, v) = read_record(rec);
        out.resize(out.len() + count, v);
    }
    out
}

/// Decode the `len`-pixel span that starts at byte `at` of a stream of
/// separately encoded spans, appending it to `out`; returns the byte
/// offset of the next span.
pub(crate) fn rle_decode_span(
    bytes: &[u8],
    mut at: usize,
    len: usize,
    out: &mut Vec<Rgba>,
) -> usize {
    let end = out.len() + len;
    while out.len() < end {
        let (count, v) = read_record(bytes.get(at..at + 20).expect("corrupt RLE stream"));
        assert!(out.len() + count <= end, "corrupt RLE stream: record crosses a span");
        out.resize(out.len() + count, v);
        at += 20;
    }
    at
}

/// `encoded size / raw size` — below 1.0 means compression helped.
pub fn compression_ratio(pixels: &[Rgba]) -> f64 {
    if pixels.is_empty() {
        return 1.0;
    }
    rle_encode(pixels).len() as f64 / (pixels.len() * 16) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_empty() {
        assert_eq!(rle_decode(&rle_encode(&[])), Vec::<Rgba>::new());
    }

    #[test]
    fn roundtrip_constant_run() {
        let px = vec![[0.0f32, 0.0, 0.0, 0.0]; 1000];
        let enc = rle_encode(&px);
        assert_eq!(enc.len(), 20, "one record for a constant run");
        assert_eq!(rle_decode(&enc), px);
    }

    #[test]
    fn roundtrip_mixed() {
        let mut px = Vec::new();
        for i in 0..257 {
            let v = (i % 5) as f32 / 5.0;
            for _ in 0..(i % 7 + 1) {
                px.push([v, v * 0.5, 0.0, v]);
            }
        }
        assert_eq!(rle_decode(&rle_encode(&px)), px);
    }

    #[test]
    fn worst_case_inflation_bounded() {
        let px: Vec<Rgba> = (0..100).map(|i| [i as f32, 0.0, 0.0, 1.0]).collect();
        let enc = rle_encode(&px);
        assert_eq!(enc.len(), 100 * 20);
        assert_eq!(rle_decode(&enc), px);
    }

    #[test]
    fn transparent_heavy_compresses_well() {
        let mut px = vec![[0.0f32; 4]; 900];
        px.extend(vec![[0.5f32, 0.2, 0.1, 0.9]; 100]);
        let r = compression_ratio(&px);
        assert!(r < 0.01, "two runs over 1000 pixels should compress hard, got {r}");
    }

    #[test]
    fn spans_encode_and_decode_one_by_one() {
        let a: Vec<Rgba> = [[0.0; 4]; 5].into_iter().chain([[0.5, 0.0, 0.0, 0.5]; 3]).collect();
        let b = vec![[0.5f32, 0.0, 0.0, 0.5]; 4];
        let mut stream = Vec::new();
        // a span given as rows codes like its concatenation
        rle_encode_rows(&mut stream, a.chunks(2));
        assert_eq!(stream, rle_encode(&a));
        rle_encode_rows(&mut stream, [&b[..]]);
        // b's first pixel equals a's last, yet no record crosses the seam
        assert_eq!(stream.len(), rle_encode(&a).len() + rle_encode(&b).len());
        let mut out = Vec::new();
        let at = rle_decode_span(&stream, 0, a.len(), &mut out);
        assert_eq!(out, a);
        out.clear();
        assert_eq!(rle_decode_span(&stream, at, b.len(), &mut out), stream.len());
        assert_eq!(out, b);
    }

    #[test]
    #[should_panic(expected = "crosses a span")]
    fn decode_span_rejects_a_record_past_the_span() {
        rle_decode_span(&rle_encode(&[[0.0; 4]; 4]), 0, 3, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "corrupt")]
    fn corrupt_stream_panics() {
        rle_decode(&[1, 2, 3]);
    }
}
