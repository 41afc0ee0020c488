//! Bit-granular writer and reader over byte buffers.
//!
//! The Gorilla compressor ([`crate::gorilla`]) emits variable-width records
//! (1-bit controls, 7/9/12-bit deltas, arbitrary-width XOR windows). This
//! module provides the minimal substrate: append bits to a growable buffer,
//! and read them back sequentially. Bits are packed MSB-first within each
//! byte, matching the order used by the Gorilla paper's reference layout.
//!
//! Multi-bit fields move a word at a time: [`BitWriter::write_bits`] fills
//! whole bytes per step, and [`BitReader::read_bits`] takes one big-endian
//! 8-byte load plus a shift. The bytes are exactly those of a bit-by-bit
//! codec; the tests keep that codec as the reference model.

use bytes::{BufMut, Bytes, BytesMut};

use crate::error::TsdbError;

/// Append-only bit stream backed by a [`BytesMut`].
#[derive(Debug, Default)]
pub struct BitWriter {
    buf: BytesMut,
    /// Free bits remaining in the final byte of `buf` (0 means byte-aligned,
    /// so the next write starts a fresh byte).
    used: u8,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer with room for `bytes` bytes.
    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            buf: BytesMut::with_capacity(bytes),
            used: 0,
        }
    }

    /// Number of bits written so far.
    pub fn len_bits(&self) -> usize {
        if self.used == 0 {
            self.buf.len() * 8
        } else {
            // `used` counts free bits remaining in the final byte.
            (self.buf.len() - 1) * 8 + (8 - usize::from(self.used))
        }
    }

    /// True when no bits have been written.
    pub fn is_empty(&self) -> bool {
        self.len_bits() == 0
    }

    /// Appends a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        if self.used == 0 {
            self.buf.put_u8(0);
            self.used = 8;
        }
        if bit {
            let last = self.buf.len() - 1;
            self.buf[last] |= 1 << (self.used - 1);
        }
        self.used -= 1;
        // `used` now counts remaining free bits; normalize so that 0 free
        // bits reads as byte-aligned for the next call.
    }

    /// Appends the low `width` bits of `value`, most significant first.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`.
    pub fn write_bits(&mut self, value: u64, width: u8) {
        assert!(width <= 64, "bit width {width} exceeds u64");
        // `left` bits of `value` remain to be written; each step moves as
        // many of them as the final byte has free bits (at most 8).
        let mut left = width;
        while left > 0 {
            if self.used == 0 {
                self.buf.put_u8(0);
                self.used = 8;
            }
            let take = left.min(self.used);
            let bits = (value >> (left - take)) as u8 & (0xff >> (8 - take));
            let last = self.buf.len() - 1;
            self.buf[last] |= bits << (self.used - take);
            self.used -= take;
            left -= take;
        }
    }

    /// Finalizes the stream, returning the packed bytes and the total bit
    /// count (the final byte may carry up to 7 bits of zero padding).
    pub fn finish(self) -> (Bytes, usize) {
        let bits = self.len_bits();
        (self.buf.freeze(), bits)
    }
}

/// Sequential reader over a bit stream produced by [`BitWriter`].
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    data: &'a [u8],
    /// Next bit to read, counted from the start of `data`.
    pos: usize,
    /// Total number of valid bits in `data`.
    len: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `data` containing `len_bits` valid bits.
    ///
    /// A `len_bits` beyond the buffer is clamped: a truncated payload then
    /// surfaces as [`TsdbError::CorruptBlock`] at the read that runs out.
    pub fn new(data: &'a [u8], len_bits: usize) -> Self {
        Self {
            data,
            pos: 0,
            len: len_bits.min(data.len() * 8),
        }
    }

    /// Number of bits remaining.
    pub fn remaining(&self) -> usize {
        self.len - self.pos
    }

    /// Reads a single bit, failing if the stream is exhausted.
    pub fn read_bit(&mut self) -> Result<bool, TsdbError> {
        if self.pos >= self.len {
            return Err(TsdbError::CorruptBlock {
                reason: "bit stream exhausted mid-record",
            });
        }
        let byte = self.data[self.pos / 8];
        let bit = (byte >> (7 - (self.pos % 8))) & 1 == 1;
        self.pos += 1;
        Ok(bit)
    }

    /// Reads `width` bits into the low bits of a `u64`, MSB first.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`.
    pub fn read_bits(&mut self, width: u8) -> Result<u64, TsdbError> {
        assert!(width <= 64, "bit width {width} exceeds u64");
        let width = usize::from(width);
        if self.remaining() < width {
            return Err(TsdbError::CorruptBlock {
                reason: "bit stream exhausted mid-record",
            });
        }
        if width == 0 {
            return Ok(0);
        }
        // A field starting `shift` bits into its first byte spans at most
        // nine bytes: the 8-byte word at `pos / 8`, plus the next byte's
        // top `shift` bits when the field runs past the word. The length
        // check above keeps every needed byte inside `data`.
        let byte = self.pos / 8;
        let shift = self.pos % 8;
        let mut word = load_be(&self.data[byte..]) << shift;
        if shift + width > 64 {
            word |= u64::from(self.data[byte + 8]) >> (8 - shift);
        }
        self.pos += width;
        Ok(word >> (64 - width))
    }
}

/// The first 8 bytes of `bytes` as a big-endian word, zero-padded when
/// fewer remain.
fn load_be(bytes: &[u8]) -> u64 {
    match bytes.first_chunk::<8>() {
        Some(word) => u64::from_be_bytes(*word),
        None => {
            let mut word = [0u8; 8];
            word[..bytes.len()].copy_from_slice(bytes);
            u64::from_be_bytes(word)
        }
    }
}

/// The bit-at-a-time codec the format was defined with, kept as the
/// reference model the word-at-a-time paths must match exactly.
#[cfg(test)]
mod reference {
    use super::{BitReader, BitWriter};
    use crate::error::TsdbError;

    pub fn write_bits(w: &mut BitWriter, value: u64, width: u8) {
        assert!(width <= 64, "bit width {width} exceeds u64");
        for i in (0..width).rev() {
            w.write_bit((value >> i) & 1 == 1);
        }
    }

    pub fn read_bits(r: &mut BitReader<'_>, width: u8) -> Result<u64, TsdbError> {
        assert!(width <= 64, "bit width {width} exceeds u64");
        if r.remaining() < usize::from(width) {
            return Err(TsdbError::CorruptBlock {
                reason: "bit stream exhausted mid-record",
            });
        }
        let mut out = 0u64;
        for _ in 0..width {
            out = (out << 1) | u64::from(r.read_bit()?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn low_bits(value: u64, width: u8) -> u64 {
        if width == 64 {
            value
        } else {
            value & ((1 << width) - 1)
        }
    }

    /// Bytes and bit count of `fields` written by the word-at-a-time
    /// writer and by the reference model.
    fn write_both(fields: &[(u64, u8)]) -> ((Bytes, usize), (Bytes, usize)) {
        let (mut word, mut bit) = (BitWriter::new(), BitWriter::new());
        for &(value, width) in fields {
            word.write_bits(value, width);
            reference::write_bits(&mut bit, value, width);
            assert_eq!(word.len_bits(), bit.len_bits());
        }
        (word.finish(), bit.finish())
    }

    #[test]
    fn every_width_at_every_offset_matches_reference() {
        let value = 0xa5c3_0f96_5a3c_f069u64;
        for offset in 0..8u8 {
            for width in 0..=64u8 {
                // A prefix of `offset` ones puts the field at that bit
                // offset; a trailing 3-bit field follows it.
                let fields = [(u64::MAX, offset), (value, width), (0b101, 3)];
                let (word, bit) = write_both(&fields);
                assert_eq!(word, bit, "offset {offset} width {width}");
                let (bytes, len) = word;
                let mut r = BitReader::new(&bytes, len);
                let mut model = BitReader::new(&bytes, len);
                for &(v, w) in &fields {
                    let got = r.read_bits(w);
                    assert_eq!(got, reference::read_bits(&mut model, w));
                    assert_eq!(got, Ok(low_bits(v, w)), "offset {offset} width {width}");
                }
                assert_eq!(r.remaining(), 0);
            }
        }
    }

    #[test]
    fn read_ending_at_len_is_ok_and_one_past_is_corrupt() {
        for offset in 0..8u8 {
            for width in 1..=64u8 {
                let (bytes, len) = write_both(&[(0, offset), (u64::MAX, width)]).0;
                // Declared one bit short, the field runs past the end: the
                // read fails and consumes nothing.
                let mut short = BitReader::new(&bytes, len - 1);
                short.read_bits(offset).unwrap();
                assert!(matches!(
                    short.read_bits(width),
                    Err(TsdbError::CorruptBlock { .. })
                ));
                assert_eq!(short.remaining(), usize::from(width) - 1);
                // At the full length it ends exactly at `len_bits`.
                let mut r = BitReader::new(&bytes, len);
                r.read_bits(offset).unwrap();
                assert_eq!(r.read_bits(width), Ok(low_bits(u64::MAX, width)));
                assert_eq!(r.remaining(), 0);
                assert_eq!(r.read_bits(0), Ok(0));
                assert!(matches!(
                    r.read_bits(1),
                    Err(TsdbError::CorruptBlock { .. })
                ));
                assert!(matches!(r.read_bit(), Err(TsdbError::CorruptBlock { .. })));
            }
        }
    }

    #[test]
    fn padding_bits_are_never_readable() {
        // Every bit of the buffer is set, so any read that strayed past
        // the declared length would return ones it must not see.
        let data = [0xffu8; 11];
        for len in 0..=data.len() * 8 {
            for width in 1..=64u8 {
                let mut r = BitReader::new(&data, len);
                let mut read = 0;
                while let Ok(v) = r.read_bits(width) {
                    assert_eq!(v, low_bits(u64::MAX, width));
                    read += usize::from(width);
                }
                assert_eq!(read, len - len % usize::from(width));
                assert_eq!(r.remaining(), len % usize::from(width));
            }
        }
    }

    #[test]
    fn declared_length_beyond_buffer_is_clamped() {
        let data = [0x80u8, 0x01, 0xff];
        for len in [24, 25, 64, 1000, usize::MAX] {
            let mut r = BitReader::new(&data, len);
            assert_eq!(r.remaining(), 24);
            assert!(r.clone().read_bits(25).is_err());
            assert_eq!(r.read_bits(24), Ok(0x8001ff));
            assert!(matches!(
                r.read_bits(1),
                Err(TsdbError::CorruptBlock { .. })
            ));
        }
    }

    proptest! {
        /// Random `(value, width)` sequences: the word-at-a-time writer
        /// emits the reference model's bytes and bit count, and the
        /// word-at-a-time reader reads back the reference's values.
        #[test]
        fn word_codec_matches_reference_model(
            fields in prop::collection::vec((0u64..u64::MAX, 0u8..65), 0..120),
        ) {
            let (word, bit) = write_both(&fields);
            prop_assert_eq!(&word, &bit);
            let (bytes, len) = word;
            let mut r = BitReader::new(&bytes, len);
            let mut model = BitReader::new(&bytes, len);
            for &(value, width) in &fields {
                let got = r.read_bits(width);
                prop_assert_eq!(&got, &reference::read_bits(&mut model, width));
                prop_assert_eq!(got, Ok(low_bits(value, width)));
            }
            prop_assert_eq!(r.remaining(), 0);
        }

        /// Arbitrary bytes, an arbitrary declared length (possibly past
        /// the buffer) and arbitrary read widths: both readers agree on
        /// every value and on where the stream runs out.
        #[test]
        fn word_reader_matches_reference_on_arbitrary_input(
            data in prop::collection::vec(0u16..256, 0..24),
            len in 0usize..300,
            widths in prop::collection::vec(0u8..65, 0..40),
        ) {
            let data: Vec<u8> = data.into_iter().map(|b| b as u8).collect();
            let mut r = BitReader::new(&data, len);
            let mut model = BitReader::new(&data, len);
            for &width in &widths {
                prop_assert_eq!(r.read_bits(width), reference::read_bits(&mut model, width));
                prop_assert_eq!(r.remaining(), model.remaining());
            }
        }
    }

    #[test]
    fn single_bits_round_trip() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, true, false, true];
        for &b in &pattern {
            w.write_bit(b);
        }
        assert_eq!(w.len_bits(), pattern.len());
        let (bytes, bits) = w.finish();
        let mut r = BitReader::new(&bytes, bits);
        for &b in &pattern {
            assert_eq!(r.read_bit().unwrap(), b);
        }
        assert!(r.read_bit().is_err(), "reading past the end must error");
    }

    #[test]
    fn multi_bit_fields_round_trip() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(u64::MAX, 64);
        w.write_bits(0, 1);
        w.write_bits(0x1234_5678_9abc_def0, 64);
        w.write_bits(0x3f, 6);
        let (bytes, bits) = w.finish();
        let mut r = BitReader::new(&bytes, bits);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
        assert_eq!(r.read_bits(1).unwrap(), 0);
        assert_eq!(r.read_bits(64).unwrap(), 0x1234_5678_9abc_def0);
        assert_eq!(r.read_bits(6).unwrap(), 0x3f);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn zero_width_read_is_empty() {
        let mut w = BitWriter::new();
        w.write_bits(0b11, 2);
        let (bytes, bits) = w.finish();
        let mut r = BitReader::new(&bytes, bits);
        assert_eq!(r.read_bits(0).unwrap(), 0);
        assert_eq!(r.read_bits(2).unwrap(), 0b11);
    }

    #[test]
    fn len_bits_tracks_partial_bytes() {
        let mut w = BitWriter::new();
        assert!(w.is_empty());
        for i in 0..17 {
            w.write_bit(i % 2 == 0);
            assert_eq!(w.len_bits(), i + 1);
        }
    }

    #[test]
    fn reader_bounded_by_declared_bits_not_buffer() {
        // Final byte carries padding; the declared bit length must gate reads.
        let mut w = BitWriter::new();
        w.write_bits(0b1011, 4);
        let (bytes, bits) = w.finish();
        assert_eq!(bytes.len(), 1);
        let mut r = BitReader::new(&bytes, bits);
        assert_eq!(r.read_bits(4).unwrap(), 0b1011);
        assert!(r.read_bit().is_err());
    }

    #[test]
    fn exhaustive_two_byte_patterns() {
        // Round-trip every 16-bit value as one field and as 16 single bits.
        for v in (0..=u16::MAX).step_by(257) {
            let mut w = BitWriter::new();
            w.write_bits(u64::from(v), 16);
            let (bytes, bits) = w.finish();
            let mut r = BitReader::new(&bytes, bits);
            assert_eq!(r.read_bits(16).unwrap(), u64::from(v));
        }
    }
}
