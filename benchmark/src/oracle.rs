//! Frame-by-frame comparison against the serial oracle, on 8-bit RGBA.
//!
//! A frame passes when no channel differs by more than one level and at
//! most 0.1 % of its pixels differ at all. Where the oracle's frame shows
//! something, the frame must also differ from its predecessor. The
//! oracle's stream itself must show something on at least half its
//! frames ([`mostly_blank`]): the source is silent for the first output
//! steps, so a few blank frames are right; a renderer that draws nothing
//! agrees with itself and is still wrong.

use quakeviz::render::RgbaImage;

pub const MAX_CHANNEL_DIFF: u8 = 1;
pub const MAX_DIFFERING_PIXEL_SHARE: f64 = 0.001;

/// Premultiplied float RGBA to the 8-bit image a viewer would get.
pub fn to_rgba8(img: &RgbaImage) -> Vec<[u8; 4]> {
    img.pixels().iter().map(|p| p.map(|c| (c.clamp(0.0, 1.0) * 255.0 + 0.5) as u8)).collect()
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameVerdict {
    pub pass: bool,
    /// Every pixel equal on 8 bits.
    pub exact: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    pub frames: Vec<FrameVerdict>,
    /// First reason found per failing frame, for the report.
    pub reasons: Vec<String>,
}

impl Verdict {
    pub fn failed(&self) -> usize {
        self.frames.iter().filter(|f| !f.pass).count()
    }

    pub fn exact_share(&self) -> f64 {
        self.frames.iter().filter(|f| f.exact).count() as f64 / self.frames.len().max(1) as f64
    }
}

/// Compare `got` with `want` frame by frame. A missing frame fails.
pub fn compare(got: &[RgbaImage], want: &[RgbaImage]) -> Verdict {
    let mut verdict = Verdict { frames: Vec::new(), reasons: Vec::new() };
    let mut previous: Option<Vec<[u8; 4]>> = None;
    for (t, want) in want.iter().enumerate() {
        let fail = |verdict: &mut Verdict, why: String| {
            verdict.frames.push(FrameVerdict { pass: false, exact: false });
            verdict.reasons.push(format!("frame {t}: {why}"));
        };
        let Some(got) = got.get(t) else {
            fail(&mut verdict, "not delivered".into());
            continue;
        };
        if (got.width(), got.height()) != (want.width(), want.height()) {
            fail(&mut verdict, format!("size {}x{}", got.width(), got.height()));
            continue;
        }
        let (g, w) = (to_rgba8(got), to_rgba8(want));
        let mut differing = 0usize;
        let mut worst = 0u8;
        for (a, b) in g.iter().zip(&w) {
            if a != b {
                differing += 1;
                for c in 0..4 {
                    worst = worst.max(a[c].abs_diff(b[c]));
                }
            }
        }
        let share = differing as f64 / g.len().max(1) as f64;
        let shows_something = w.iter().any(|p| p[3] != 0);
        if shows_something && previous.as_ref() == Some(&g) {
            fail(&mut verdict, "identical to the previous frame".into());
        } else if worst > MAX_CHANNEL_DIFF {
            fail(&mut verdict, format!("channel differs from the oracle by {worst} levels"));
        } else if share > MAX_DIFFERING_PIXEL_SHARE {
            fail(&mut verdict, format!("{:.3} % of pixels differ from the oracle", share * 100.0));
        } else {
            verdict.frames.push(FrameVerdict { pass: true, exact: differing == 0 });
        }
        previous = Some(g);
    }
    verdict
}

/// Whether more than half of `frames` are fully transparent.
pub fn mostly_blank(frames: &[RgbaImage]) -> bool {
    let blank = frames.iter().filter(|f| to_rgba8(f).iter().all(|p| p[3] == 0)).count();
    blank * 2 > frames.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(seed: u32) -> RgbaImage {
        let mut img = RgbaImage::new(64, 64);
        for (i, p) in img.pixels_mut().iter_mut().enumerate() {
            let v = ((i as u32 + seed * 7919).wrapping_mul(2654435761) >> 24) as f32 / 255.0;
            *p = [v * 0.5, v * 0.25, v, 0.9];
        }
        img
    }

    #[test]
    fn identical_streams_pass_exactly() {
        let frames = vec![frame(1), frame(2), frame(3)];
        let v = compare(&frames, &frames.clone());
        assert_eq!(v.failed(), 0);
        assert_eq!(v.exact_share(), 1.0);
    }

    #[test]
    fn tolerance_is_one_level_on_a_thousandth_of_the_pixels() {
        let want = vec![frame(1)];
        // 4 of 4096 pixels off by one level: inside both limits
        let mut got = want.clone();
        for p in got[0].pixels_mut().iter_mut().take(4) {
            p[2] = (p[2] - 1.0 / 255.0).max(0.0);
        }
        let v = compare(&got, &want);
        assert_eq!((v.failed(), v.exact_share()), (0, 0.0), "{:?}", v.reasons);
        // 8 of 4096 pixels: too many
        for p in got[0].pixels_mut().iter_mut().take(8) {
            p[0] += 1.0 / 255.0;
        }
        assert_eq!(compare(&got, &want).failed(), 1);
        // a single pixel off by many levels
        let mut got = want.clone();
        got[0].pixels_mut()[100][1] += 0.2;
        let v = compare(&got, &want);
        assert_eq!(v.failed(), 1);
        assert!(v.reasons[0].contains("levels"), "{:?}", v.reasons);
    }

    #[test]
    fn missing_and_stale_frames_fail() {
        let want = vec![frame(1), frame(2), frame(3)];
        assert_eq!(compare(&want[..2], &want).failed(), 1);
        let mut got = want.clone();
        got[1] = RgbaImage::new(64, 64);
        assert!(compare(&got, &want).reasons[0].contains("levels"));
        // a stream that repeats a frame fails even against itself
        let stuck = vec![frame(1), frame(1)];
        assert!(compare(&stuck, &stuck.clone()).reasons[0].contains("previous"));
    }

    #[test]
    fn a_few_blank_frames_are_right_a_blank_stream_is_not() {
        let blank = || RgbaImage::new(64, 64);
        // the source is silent at first: blank where the oracle is blank
        let quiet_start = vec![blank(), blank(), frame(1), frame(2)];
        let v = compare(&quiet_start, &quiet_start.clone());
        assert_eq!((v.failed(), v.exact_share()), (0, 1.0), "{:?}", v.reasons);
        assert!(!mostly_blank(&quiet_start));
        // a renderer that draws nothing agrees with itself and is caught
        let dead = vec![blank(), blank(), blank(), frame(1)];
        assert_eq!(compare(&dead, &dead.clone()).failed(), 0);
        assert!(mostly_blank(&dead));
    }
}
