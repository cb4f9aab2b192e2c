//! Block addressing and replicated disk images.
//!
//! Image content is modeled as per-block 64-bit hashes, not bytes: enough
//! to verify that replicas stay bit-identical (determinism is part of the
//! defense) without storing gigabytes.

use simkit::fxhash::FxHashMap;

/// Bytes per block (a common 4 KiB).
pub const BLOCK_BYTES: u32 = 4096;

/// A block address on the virtual disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockAddr(pub u64);

/// A contiguous run of blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockRange {
    /// First block.
    pub start: BlockAddr,
    /// Number of blocks (>= 1).
    pub count: u32,
}

impl BlockRange {
    /// Creates a range.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`.
    pub fn new(start: u64, count: u32) -> Self {
        assert!(count > 0, "empty block range");
        BlockRange {
            start: BlockAddr(start),
            count,
        }
    }

    /// Total bytes covered.
    pub fn bytes(&self) -> u64 {
        u64::from(self.count) * u64::from(BLOCK_BYTES)
    }

    /// Iterates over the member block addresses.
    pub fn iter(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        (self.start.0..self.start.0 + u64::from(self.count)).map(BlockAddr)
    }

    /// One block past the end.
    pub fn end(&self) -> BlockAddr {
        BlockAddr(self.start.0 + u64::from(self.count))
    }
}

/// A virtual disk image: sparse map of block → content hash.
///
/// Cloning a `DiskImage` is exactly the paper's "we copied the disk file to
/// all three machines to provide identical disk state to the three
/// replicas".
///
/// # Examples
///
/// ```
/// use storage::block::{BlockRange, DiskImage};
/// let mut img = DiskImage::new(1024);
/// img.write(BlockRange::new(10, 2), 0xfeed);
/// let replica = img.clone();
/// assert_eq!(img.read(BlockRange::new(10, 2)), replica.read(BlockRange::new(10, 2)));
/// assert_eq!(img.content_fingerprint(), replica.content_fingerprint());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiskImage {
    size_blocks: u64,
    blocks: FxHashMap<u64, u64>,
}

impl DiskImage {
    /// Creates an all-zero image of `size_blocks` blocks.
    pub fn new(size_blocks: u64) -> Self {
        DiskImage {
            size_blocks,
            blocks: FxHashMap::default(),
        }
    }

    /// Image capacity in blocks.
    pub fn size_blocks(&self) -> u64 {
        self.size_blocks
    }

    /// Reads a range, returning one content hash per block (0 = never
    /// written).
    ///
    /// # Panics
    ///
    /// Panics if the range extends past the end of the image.
    pub fn read(&self, range: BlockRange) -> Vec<u64> {
        assert!(
            range.end().0 <= self.size_blocks,
            "read past end of image ({} > {})",
            range.end().0,
            self.size_blocks
        );
        range
            .iter()
            .map(|b| self.blocks.get(&b.0).copied().unwrap_or(0))
            .collect()
    }

    /// Writes `value_hash` to every block of the range.
    ///
    /// # Panics
    ///
    /// Panics if the range extends past the end of the image.
    pub fn write(&mut self, range: BlockRange, value_hash: u64) {
        assert!(range.end().0 <= self.size_blocks, "write past end of image");
        for b in range.iter() {
            // Mix the address in so two blocks written with the same value
            // still carry distinct content.
            let mixed = value_hash ^ b.0.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            self.blocks.insert(b.0, mixed);
        }
    }

    /// An order-independent fingerprint of all written content; two
    /// replicas whose guests behaved identically have equal fingerprints.
    pub fn content_fingerprint(&self) -> u64 {
        self.blocks.iter().fold(0u64, |acc, (addr, val)| {
            acc ^ addr.wrapping_mul(0x100_0000_01b3) ^ val.rotate_left((addr % 63) as u32)
        })
    }

    /// Number of blocks ever written.
    pub fn written_blocks(&self) -> usize {
        self.blocks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_math() {
        let r = BlockRange::new(10, 4);
        assert_eq!(r.bytes(), 4 * 4096);
        assert_eq!(r.end(), BlockAddr(14));
        assert_eq!(r.iter().count(), 4);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_range_panics() {
        BlockRange::new(0, 0);
    }

    #[test]
    fn unwritten_blocks_read_zero() {
        let img = DiskImage::new(100);
        assert_eq!(img.read(BlockRange::new(0, 3)), vec![0, 0, 0]);
    }

    #[test]
    fn write_then_read() {
        let mut img = DiskImage::new(100);
        img.write(BlockRange::new(5, 2), 42);
        let vals = img.read(BlockRange::new(5, 2));
        assert_ne!(vals[0], 0);
        assert_ne!(vals[0], vals[1], "same value at different addrs differs");
        assert_eq!(img.written_blocks(), 2);
    }

    #[test]
    fn clone_is_replica() {
        let mut img = DiskImage::new(100);
        img.write(BlockRange::new(0, 10), 7);
        let replica = img.clone();
        assert_eq!(img, replica);
        assert_eq!(img.content_fingerprint(), replica.content_fingerprint());
    }

    #[test]
    fn fingerprint_detects_divergence() {
        let mut a = DiskImage::new(100);
        let mut b = DiskImage::new(100);
        a.write(BlockRange::new(0, 1), 1);
        b.write(BlockRange::new(0, 1), 2);
        assert_ne!(a.content_fingerprint(), b.content_fingerprint());
    }

    #[test]
    fn fingerprint_is_order_independent() {
        let mut a = DiskImage::new(100);
        let mut b = DiskImage::new(100);
        a.write(BlockRange::new(0, 1), 1);
        a.write(BlockRange::new(5, 1), 2);
        b.write(BlockRange::new(5, 1), 2);
        b.write(BlockRange::new(0, 1), 1);
        assert_eq!(a.content_fingerprint(), b.content_fingerprint());
    }

    #[test]
    #[should_panic(expected = "past end")]
    fn read_past_end_panics() {
        DiskImage::new(10).read(BlockRange::new(8, 4));
    }
}
