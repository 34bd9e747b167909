//! Level-tagged locational codes for linear octrees and quadtrees.
//!
//! The paper's mesh database (Etree, Tu et al. 2002) addresses octree cells
//! by *locational code*: the Morton (Z-order) interleave of the cell's
//! anchor coordinates together with its subdivision level. Sorting cells by
//! this code yields a space-filling-curve order in which every subtree is a
//! contiguous run — the property the input processors rely on when they map
//! contiguous slices of the on-disk node array onto octree blocks.
//!
//! A [`Loc3`] identifies one cell: `level` (0 = root, the whole domain) and
//! integer anchor coordinates `x, y, z` in *level-local units*, each in
//! `[0, 2^level)`. [`Loc2`] is the quadtree analogue used for the ground
//! surface.

/// Maximum supported octree level. 3 × 19 bits of Morton code plus the
/// level tag fit comfortably in a `u64` key.
pub const MAX_LEVEL: u8 = 19;

/// Spread the low 21 bits of `v` so that there are two zero bits between
/// consecutive data bits (the 3D Morton "part" operation).
#[inline]
const fn part3(v: u64) -> u64 {
    let mut x = v & 0x1f_ffff; // 21 bits
    x = (x | (x << 32)) & 0x1f00000000ffff;
    x = (x | (x << 16)) & 0x1f0000ff0000ff;
    x = (x | (x << 8)) & 0x100f00f00f00f00f;
    x = (x | (x << 4)) & 0x10c30c30c30c30c3;
    x = (x | (x << 2)) & 0x1249249249249249;
    x
}

/// Inverse of [`part3`]: compact every third bit into the low bits.
#[inline]
const fn compact3(v: u64) -> u64 {
    let mut x = v & 0x1249249249249249;
    x = (x | (x >> 2)) & 0x10c30c30c30c30c3;
    x = (x | (x >> 4)) & 0x100f00f00f00f00f;
    x = (x | (x >> 8)) & 0x1f0000ff0000ff;
    x = (x | (x >> 16)) & 0x1f00000000ffff;
    x = (x | (x >> 32)) & 0x1f_ffff;
    x
}

/// Spread the low 32 bits of `v` with one zero bit between data bits
/// (the 2D Morton "part" operation).
#[inline]
const fn part2(v: u64) -> u64 {
    let mut x = v & 0xffff_ffff;
    x = (x | (x << 16)) & 0x0000ffff0000ffff;
    x = (x | (x << 8)) & 0x00ff00ff00ff00ff;
    x = (x | (x << 4)) & 0x0f0f0f0f0f0f0f0f;
    x = (x | (x << 2)) & 0x3333333333333333;
    x = (x | (x << 1)) & 0x5555555555555555;
    x
}

/// Inverse of [`part2`].
#[inline]
const fn compact2(v: u64) -> u64 {
    let mut x = v & 0x5555555555555555;
    x = (x | (x >> 1)) & 0x3333333333333333;
    x = (x | (x >> 2)) & 0x0f0f0f0f0f0f0f0f;
    x = (x | (x >> 4)) & 0x00ff00ff00ff00ff;
    x = (x | (x >> 8)) & 0x0000ffff0000ffff;
    x = (x | (x >> 16)) & 0xffff_ffff;
    x
}

/// 3D Morton interleave of three ≤21-bit coordinates.
#[inline]
pub fn morton3(x: u32, y: u32, z: u32) -> u64 {
    part3(x as u64) | (part3(y as u64) << 1) | (part3(z as u64) << 2)
}

/// Inverse of [`morton3`].
#[inline]
pub fn demorton3(m: u64) -> (u32, u32, u32) {
    (compact3(m) as u32, compact3(m >> 1) as u32, compact3(m >> 2) as u32)
}

/// 2D Morton interleave of two ≤32-bit coordinates.
#[inline]
pub fn morton2(x: u32, y: u32) -> u64 {
    part2(x as u64) | (part2(y as u64) << 1)
}

/// Inverse of [`morton2`].
#[inline]
pub fn demorton2(m: u64) -> (u32, u32) {
    (compact2(m) as u32, compact2(m >> 1) as u32)
}

/// A locational code: one octree cell, identified by level and anchor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Loc3 {
    /// Subdivision level; 0 is the root cell covering the whole domain.
    pub level: u8,
    /// Anchor coordinates in level-local units, each in `[0, 2^level)`.
    pub x: u32,
    pub y: u32,
    pub z: u32,
}

impl Loc3 {
    /// The root cell (the entire domain).
    pub const ROOT: Loc3 = Loc3 { level: 0, x: 0, y: 0, z: 0 };

    /// Create a locational code, checking coordinate ranges in debug builds.
    #[inline]
    pub fn new(level: u8, x: u32, y: u32, z: u32) -> Self {
        debug_assert!(level <= MAX_LEVEL);
        debug_assert!(
            (x as u64) < (1u64 << level)
                && (y as u64) < (1u64 << level)
                && (z as u64) < (1u64 << level),
            "anchor out of range for level {level}: ({x},{y},{z})"
        );
        Loc3 { level, x, y, z }
    }

    /// A unique `u64` key: Morton code shifted to make room for the level.
    ///
    /// Keys are unique across levels but do **not** sort in space-filling
    /// curve order on their own; use [`Loc3::sfc_key`] for ordering.
    #[inline]
    pub fn key(&self) -> u64 {
        (morton3(self.x, self.y, self.z) << 5) | self.level as u64
    }

    /// Reconstruct a code from its [`Loc3::key`].
    #[inline]
    pub fn from_key(key: u64) -> Self {
        let level = (key & 0x1f) as u8;
        let (x, y, z) = demorton3(key >> 5);
        Loc3 { level, x, y, z }
    }

    /// A key that sorts cells in pre-order space-filling-curve order:
    /// ancestors sort immediately before their descendants, and disjoint
    /// subtrees are contiguous runs.
    #[inline]
    pub fn sfc_key(&self) -> u128 {
        let shift = (MAX_LEVEL - self.level) as u32;
        let m = morton3(self.x << shift, self.y << shift, self.z << shift);
        ((m as u128) << 8) | self.level as u128
    }

    /// Parent cell, or `None` at the root.
    #[inline]
    pub fn parent(&self) -> Option<Loc3> {
        if self.level == 0 {
            None
        } else {
            Some(Loc3 { level: self.level - 1, x: self.x >> 1, y: self.y >> 1, z: self.z >> 1 })
        }
    }

    /// The ancestor of this cell at `level` (which must not exceed
    /// `self.level`). The cell itself is returned when `level == self.level`.
    #[inline]
    pub fn ancestor_at(&self, level: u8) -> Loc3 {
        assert!(
            level <= self.level,
            "ancestor level {level} deeper than cell level {}",
            self.level
        );
        let shift = self.level - level;
        Loc3 { level, x: self.x >> shift, y: self.y >> shift, z: self.z >> shift }
    }

    /// The eight children, in Morton order (x fastest).
    #[inline]
    pub fn children(&self) -> [Loc3; 8] {
        let l = self.level + 1;
        let (x, y, z) = (self.x << 1, self.y << 1, self.z << 1);
        let mut out = [Loc3::ROOT; 8];
        for (i, slot) in out.iter_mut().enumerate() {
            let i = i as u32;
            *slot = Loc3 { level: l, x: x | (i & 1), y: y | ((i >> 1) & 1), z: z | ((i >> 2) & 1) };
        }
        out
    }

    /// True when `self` is `other` or an ancestor of `other`.
    #[inline]
    pub fn contains(&self, other: &Loc3) -> bool {
        other.level >= self.level && other.ancestor_at(self.level) == *self
    }

    /// The coarsest level ℓ at which this cell *starts* the level-ℓ cell
    /// holding it: is that cell, or shares its anchor. Of leaves that tile
    /// the domain, each level-ℓ tiling cell is started by exactly one —
    /// the first inside it in SFC order — and those are the leaves with
    /// `start_level() ≤ ℓ`.
    #[inline]
    pub fn start_level(&self) -> u8 {
        let shared = (self.x | self.y | self.z).trailing_zeros().min(self.level as u32);
        self.level - shared as u8
    }

    /// Anchor coordinates expressed on the grid of `level` (≥ self.level).
    #[inline]
    pub fn anchor_at_level(&self, level: u8) -> (u32, u32, u32) {
        assert!(level >= self.level);
        let s = level - self.level;
        (self.x << s, self.y << s, self.z << s)
    }

    /// Side length of this cell when the domain has unit extent.
    #[inline]
    pub fn unit_size(&self) -> f64 {
        1.0 / (1u64 << self.level) as f64
    }

    /// Axis-aligned bounds of this cell in a domain scaled to `extent`.
    pub fn bounds(&self, extent: crate::region::Vec3) -> crate::region::Aabb {
        let s = self.unit_size();
        let min = crate::region::Vec3::new(self.x as f64 * s, self.y as f64 * s, self.z as f64 * s);
        let max = crate::region::Vec3::new(
            (self.x + 1) as f64 * s,
            (self.y + 1) as f64 * s,
            (self.z + 1) as f64 * s,
        );
        crate::region::Aabb::new(min.mul_elem(extent), max.mul_elem(extent))
    }
}

impl PartialOrd for Loc3 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Loc3 {
    /// Space-filling-curve (pre-)order: ancestors before descendants.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.sfc_key().cmp(&other.sfc_key())
    }
}

/// A quadtree locational code over the ground surface (x, y only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Loc2 {
    pub level: u8,
    pub x: u32,
    pub y: u32,
}

impl Loc2 {
    pub const ROOT: Loc2 = Loc2 { level: 0, x: 0, y: 0 };

    #[inline]
    pub fn new(level: u8, x: u32, y: u32) -> Self {
        debug_assert!((x as u64) < (1u64 << level) && (y as u64) < (1u64 << level));
        Loc2 { level, x, y }
    }

    /// Unique `u64` key (Morton plus level tag).
    #[inline]
    pub fn key(&self) -> u64 {
        (morton2(self.x, self.y) << 6) | self.level as u64
    }

    #[inline]
    pub fn from_key(key: u64) -> Self {
        let level = (key & 0x3f) as u8;
        let (x, y) = demorton2(key >> 6);
        Loc2 { level, x, y }
    }

    #[inline]
    pub fn parent(&self) -> Option<Loc2> {
        if self.level == 0 {
            None
        } else {
            Some(Loc2 { level: self.level - 1, x: self.x >> 1, y: self.y >> 1 })
        }
    }

    /// The four children in Morton order.
    #[inline]
    pub fn children(&self) -> [Loc2; 4] {
        let l = self.level + 1;
        let (x, y) = (self.x << 1, self.y << 1);
        [
            Loc2 { level: l, x, y },
            Loc2 { level: l, x: x | 1, y },
            Loc2 { level: l, x, y: y | 1 },
            Loc2 { level: l, x: x | 1, y: y | 1 },
        ]
    }

    /// True when `self` is `other` or an ancestor of `other`.
    #[inline]
    pub fn contains(&self, other: &Loc2) -> bool {
        other.level >= self.level && {
            let s = other.level - self.level;
            (other.x >> s, other.y >> s) == (self.x, self.y)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn morton3_roundtrip_exhaustive_small() {
        for x in 0..8u32 {
            for y in 0..8u32 {
                for z in 0..8u32 {
                    assert_eq!(demorton3(morton3(x, y, z)), (x, y, z));
                }
            }
        }
    }

    #[test]
    fn morton3_roundtrip_large_coords() {
        let cases = [
            (0x1f_ffff, 0, 0),
            (0, 0x1f_ffff, 0),
            (0, 0, 0x1f_ffff),
            (0x155555, 0xaaaaa, 0x1ccccc),
        ];
        for (x, y, z) in cases {
            assert_eq!(demorton3(morton3(x, y, z)), (x, y, z));
        }
    }

    #[test]
    fn morton2_roundtrip() {
        for x in [0u32, 1, 2, 255, 1024, 0xffff_ffff] {
            for y in [0u32, 3, 77, 0xffff_ffff] {
                assert_eq!(demorton2(morton2(x, y)), (x, y));
            }
        }
    }

    #[test]
    fn morton_order_is_z_curve() {
        // The first 8 cells of a 2^1 grid in Morton order are the octants in
        // x-fastest order.
        let mut cells: Vec<(u32, u32, u32)> = vec![];
        for z in 0..2 {
            for y in 0..2 {
                for x in 0..2 {
                    cells.push((x, y, z));
                }
            }
        }
        let mut sorted = cells.clone();
        sorted.sort_by_key(|&(x, y, z)| morton3(x, y, z));
        assert_eq!(cells, sorted);
    }

    #[test]
    fn key_roundtrip() {
        let loc = Loc3::new(7, 100, 27, 3);
        assert_eq!(Loc3::from_key(loc.key()), loc);
        let loc2 = Loc2::new(9, 500, 2);
        assert_eq!(Loc2::from_key(loc2.key()), loc2);
    }

    #[test]
    fn parent_child_inverse() {
        let loc = Loc3::new(5, 17, 8, 30);
        for c in loc.children() {
            assert_eq!(c.parent(), Some(loc));
            assert!(loc.contains(&c));
        }
        assert_eq!(Loc3::ROOT.parent(), None);
    }

    #[test]
    fn ancestor_at_levels() {
        let loc = Loc3::new(6, 40, 41, 42);
        assert_eq!(loc.ancestor_at(6), loc);
        assert_eq!(loc.ancestor_at(5), Loc3::new(5, 20, 20, 21));
        assert_eq!(loc.ancestor_at(0), Loc3::ROOT);
    }

    #[test]
    fn contains_is_reflexive_and_respects_subtrees() {
        let a = Loc3::new(2, 1, 2, 3);
        assert!(a.contains(&a));
        let child = a.children()[5];
        let grandchild = child.children()[0];
        assert!(a.contains(&grandchild));
        let sibling = Loc3::new(2, 0, 2, 3);
        assert!(!sibling.contains(&grandchild));
        // descendants never contain ancestors
        assert!(!grandchild.contains(&a));
    }

    #[test]
    fn sfc_order_ancestor_first_and_subtrees_contiguous() {
        // Build all cells of levels 0..=2 and sort; verify pre-order.
        let mut all = vec![Loc3::ROOT];
        for c in Loc3::ROOT.children() {
            all.push(c);
            all.extend(c.children());
        }
        all.sort();
        assert_eq!(all[0], Loc3::ROOT);
        // Every cell's parent appears before it.
        for (i, c) in all.iter().enumerate() {
            if let Some(p) = c.parent() {
                let pi = all.iter().position(|x| *x == p).unwrap();
                assert!(pi < i, "parent after child in SFC order");
            }
        }
        // Subtree of each level-1 cell is contiguous.
        for c in Loc3::ROOT.children() {
            let idx: Vec<usize> =
                all.iter().enumerate().filter(|(_, l)| c.contains(l)).map(|(i, _)| i).collect();
            for w in idx.windows(2) {
                assert_eq!(w[1], w[0] + 1, "subtree not contiguous");
            }
        }
    }

    #[test]
    fn bounds_unit_domain() {
        let loc = Loc3::new(1, 1, 0, 1);
        let b = loc.bounds(crate::region::Vec3::ONE);
        assert_eq!(b.min, crate::region::Vec3::new(0.5, 0.0, 0.5));
        assert_eq!(b.max, crate::region::Vec3::new(1.0, 0.5, 1.0));
    }

    #[test]
    fn loc2_children_contain() {
        let a = Loc2::new(3, 5, 2);
        for c in a.children() {
            assert_eq!(c.parent(), Some(a));
            assert!(a.contains(&c));
        }
    }
}
