//! Sealed, immutable storage blocks.
//!
//! A [`Block`] is a compressed run of consecutive points of one series plus
//! the summary metadata (time span, count, min/max/sum) that lets queries
//! skip non-overlapping blocks without decompressing them and lets bucketed
//! aggregations over whole blocks answer from the summary alone.

use crate::error::TsdbError;
use crate::gorilla::{CompressedChunk, GorillaEncoder};
use crate::point::DataPoint;

/// Summary statistics of a sealed block, computed at seal time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockSummary {
    /// Timestamp of the first point.
    pub start: i64,
    /// Timestamp of the last point (inclusive).
    pub end: i64,
    /// Number of points.
    pub count: usize,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Sum of values (for O(1) whole-block means).
    pub sum: f64,
}

/// Running [`BlockSummary`] of points pushed in order, checking the two
/// invariants every block holds: strictly increasing timestamps and
/// finite values.
struct SummaryBuilder(BlockSummary);

impl SummaryBuilder {
    fn new() -> Self {
        Self(BlockSummary {
            start: 0,
            end: 0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        })
    }

    fn push(&mut self, p: DataPoint) -> Result<(), &'static str> {
        let s = &mut self.0;
        if !p.value.is_finite() {
            return Err("non-finite value in block");
        }
        if s.count == 0 {
            s.start = p.timestamp;
        } else if p.timestamp <= s.end {
            return Err("block timestamps not strictly increasing");
        }
        s.end = p.timestamp;
        s.count += 1;
        s.min = s.min.min(p.value);
        s.max = s.max.max(p.value);
        s.sum += p.value;
        Ok(())
    }

    /// The summary; an empty block is an error.
    fn finish(self) -> Result<BlockSummary, TsdbError> {
        if self.0.count == 0 {
            return Err(TsdbError::InvalidParameter {
                name: "points",
                message: "cannot seal an empty block",
            });
        }
        Ok(self.0)
    }
}

/// An immutable compressed run of points with skip-scan metadata.
#[derive(Debug, Clone)]
pub struct Block {
    summary: BlockSummary,
    chunk: CompressedChunk,
}

impl Block {
    /// Seals `points` (strictly increasing timestamps, all finite values)
    /// into a compressed block.
    ///
    /// # Errors
    ///
    /// Returns [`TsdbError::InvalidParameter`] on empty input, on
    /// timestamps that do not strictly increase and on a non-finite value.
    pub fn seal(points: &[DataPoint]) -> Result<Self, TsdbError> {
        let invalid = |message| TsdbError::InvalidParameter {
            name: "points",
            message,
        };
        let mut enc = GorillaEncoder::new();
        let mut summary = SummaryBuilder::new();
        for &p in points {
            summary.push(p).map_err(invalid)?;
            enc.append(p);
        }
        Ok(Self {
            summary: summary.finish()?,
            chunk: enc.finish(),
        })
    }

    /// Rebuilds a block from its compressed payload, computing the summary
    /// in the same pass that decodes and validates it. The payload is kept
    /// as it is, never re-encoded.
    ///
    /// # Errors
    ///
    /// Returns [`TsdbError::CorruptBlock`] when the payload does not
    /// decode, or decodes into timestamps that do not strictly increase
    /// or a non-finite value; [`TsdbError::InvalidParameter`] when it
    /// holds no points.
    pub fn from_chunk(chunk: CompressedChunk) -> Result<Self, TsdbError> {
        let mut summary = SummaryBuilder::new();
        for p in chunk.iter() {
            summary
                .push(p?)
                .map_err(|reason| TsdbError::CorruptBlock { reason })?;
        }
        Ok(Self {
            summary: summary.finish()?,
            chunk,
        })
    }

    /// The block's summary metadata.
    pub fn summary(&self) -> &BlockSummary {
        &self.summary
    }

    /// The compressed payload (used by snapshot persistence).
    pub fn chunk(&self) -> &CompressedChunk {
        &self.chunk
    }

    /// Number of points in the block.
    pub fn len(&self) -> usize {
        self.summary.count
    }

    /// Always false: empty blocks cannot be sealed.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Compressed payload size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.chunk.size_bytes()
    }

    /// Mean compressed cost per point, in bits.
    pub fn bits_per_point(&self) -> f64 {
        self.chunk.bits_per_point()
    }

    /// True when the block's time span intersects `[start, end)`.
    pub fn overlaps(&self, start: i64, end: i64) -> bool {
        self.summary.start < end && self.summary.end >= start
    }

    /// Decompresses the whole block.
    pub fn decode(&self) -> Result<Vec<DataPoint>, TsdbError> {
        self.chunk.decode()
    }

    /// Decompresses only the points with timestamps in `[start, end)`.
    pub fn decode_range(&self, start: i64, end: i64) -> Result<Vec<DataPoint>, TsdbError> {
        let mut out = Vec::new();
        self.decode_range_into(start, end, &mut out)?;
        Ok(out)
    }

    /// Appends the points with timestamps in `[start, end)` to `out`. On
    /// error `out` may hold some of the block's points.
    pub fn decode_range_into(
        &self,
        start: i64,
        end: i64,
        out: &mut Vec<DataPoint>,
    ) -> Result<(), TsdbError> {
        for p in self.chunk.iter() {
            let p = p?;
            if p.timestamp >= end {
                break; // points are time-ordered; nothing later can match
            }
            if p.timestamp >= start {
                out.push(p);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::BitWriter;

    fn sample(n: i64) -> Vec<DataPoint> {
        (0..n).map(|i| DataPoint::new(i * 10, (i as f64) * 0.5)).collect()
    }

    #[test]
    fn seal_empty_errors() {
        assert!(matches!(
            Block::seal(&[]),
            Err(TsdbError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn summary_matches_input() {
        let pts = sample(100);
        let b = Block::seal(&pts).unwrap();
        let s = b.summary();
        assert_eq!(s.start, 0);
        assert_eq!(s.end, 990);
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 49.5);
        let expected_sum: f64 = (0..100).map(|i| i as f64 * 0.5).sum();
        assert!((s.sum - expected_sum).abs() < 1e-9);
        assert_eq!(b.len(), 100);
        assert!(!b.is_empty());
    }

    #[test]
    fn decode_round_trips() {
        let pts = sample(257);
        let b = Block::seal(&pts).unwrap();
        assert_eq!(b.decode().unwrap(), pts);
    }

    #[test]
    fn overlaps_is_half_open() {
        let b = Block::seal(&sample(10)).unwrap(); // spans [0, 90]
        assert!(b.overlaps(0, 1));
        assert!(b.overlaps(90, 91));
        assert!(b.overlaps(-5, 5));
        assert!(b.overlaps(50, 60));
        assert!(!b.overlaps(91, 200), "starts after the last point");
        assert!(!b.overlaps(-10, 0), "end bound is exclusive");
    }

    #[test]
    fn decode_range_filters_half_open() {
        let pts = sample(20); // ts 0,10,...,190
        let b = Block::seal(&pts).unwrap();
        let got = b.decode_range(30, 70).unwrap();
        let ts: Vec<_> = got.iter().map(|p| p.timestamp).collect();
        assert_eq!(ts, vec![30, 40, 50, 60]);
        assert!(b.decode_range(200, 300).unwrap().is_empty());
        assert_eq!(b.decode_range(0, i64::MAX).unwrap(), pts);
    }

    #[test]
    fn single_point_block() {
        let b = Block::seal(&[DataPoint::new(7, 3.5)]).unwrap();
        assert_eq!(b.summary().start, 7);
        assert_eq!(b.summary().end, 7);
        assert_eq!(b.summary().min, 3.5);
        assert_eq!(b.summary().max, 3.5);
        assert_eq!(b.decode().unwrap(), vec![DataPoint::new(7, 3.5)]);
    }

    /// A chunk of `count` points whose bit stream `write` builds by hand.
    fn hand_chunk(count: usize, write: impl FnOnce(&mut BitWriter)) -> CompressedChunk {
        let mut w = BitWriter::new();
        write(&mut w);
        let (data, len_bits) = w.finish();
        CompressedChunk {
            data,
            len_bits,
            count,
        }
    }

    fn assert_corrupt(chunk: CompressedChunk, expected: &str) {
        match Block::from_chunk(chunk) {
            Err(TsdbError::CorruptBlock { reason }) => assert_eq!(reason, expected),
            other => panic!("expected CorruptBlock({expected}), got {other:?}"),
        }
    }

    #[test]
    fn from_chunk_keeps_payload_and_matches_seal_summary() {
        let pts: Vec<_> = (0..300)
            .map(|i| DataPoint::new(i * 7 - 1000, ((i as f64) / 9.0).sin()))
            .collect();
        let sealed = Block::seal(&pts).unwrap();
        let loaded = Block::from_chunk(sealed.chunk().clone()).unwrap();
        assert_eq!(loaded.summary(), sealed.summary());
        assert_eq!(loaded.chunk(), sealed.chunk());
        assert!(matches!(
            Block::from_chunk(GorillaEncoder::new().finish()),
            Err(TsdbError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn from_chunk_rejects_non_increasing_timestamps() {
        // Header (ts 100, value 1.0), then a delta-of-delta of 0 on a zero
        // delta: the second point repeats timestamp 100.
        let repeated = hand_chunk(2, |w| {
            w.write_bits(100, 64);
            w.write_bits(1.0f64.to_bits(), 64);
            w.write_bit(false); // dod = 0
            w.write_bit(false); // same value
        });
        assert_corrupt(repeated, "block timestamps not strictly increasing");
        // A 64-bit escape record steps back by 5.
        let backwards = hand_chunk(2, |w| {
            w.write_bits(100, 64);
            w.write_bits(1.0f64.to_bits(), 64);
            w.write_bits(0b1111, 4);
            w.write_bits(-5i64 as u64, 64);
            w.write_bit(false);
        });
        assert_corrupt(backwards, "block timestamps not strictly increasing");
    }

    #[test]
    fn from_chunk_rejects_non_finite_values() {
        let nan_header = hand_chunk(1, |w| {
            w.write_bits(0, 64);
            w.write_bits(f64::NAN.to_bits(), 64);
        });
        assert_corrupt(nan_header, "non-finite value in block");
        // 1.0 XOR +inf = 1 << 62: a new window of leading 1, width 1.
        let infinite_second = hand_chunk(2, |w| {
            w.write_bits(0, 64);
            w.write_bits(1.0f64.to_bits(), 64);
            w.write_bits(0b10, 2);
            w.write_bits(1 + 63, 7); // dod = 1
            w.write_bits(0b11, 2); // non-zero XOR, new window
            w.write_bits(1, 5);
            w.write_bits(0, 6); // width - 1
            w.write_bits(1, 1);
        });
        assert_corrupt(infinite_second, "non-finite value in block");
    }

    #[test]
    fn seal_rejects_what_from_chunk_rejects() {
        for points in [
            vec![DataPoint::new(5, 1.0), DataPoint::new(5, 2.0)],
            vec![DataPoint::new(5, 1.0), DataPoint::new(4, 2.0)],
            vec![DataPoint::new(5, f64::INFINITY)],
            vec![DataPoint::new(5, 1.0), DataPoint::new(6, f64::NAN)],
        ] {
            assert!(matches!(
                Block::seal(&points),
                Err(TsdbError::InvalidParameter { .. })
            ));
        }
    }

    #[test]
    fn decode_range_into_appends() {
        let b = Block::seal(&sample(20)).unwrap(); // ts 0,10,...,190
        let mut out = vec![DataPoint::new(-1, 0.0)];
        b.decode_range_into(30, 60, &mut out).unwrap();
        let ts: Vec<_> = out.iter().map(|p| p.timestamp).collect();
        assert_eq!(ts, vec![-1, 30, 40, 50]);
    }

    #[test]
    fn compression_is_effective_on_telemetry() {
        let pts = sample(4096);
        let b = Block::seal(&pts).unwrap();
        let raw_bytes = 16 * pts.len();
        assert!(
            b.size_bytes() < raw_bytes / 2,
            "compressed {} vs raw {}",
            b.size_bytes(),
            raw_bytes
        );
    }
}
