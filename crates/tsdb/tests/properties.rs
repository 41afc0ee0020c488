//! Property-based tests for the storage substrate.
//!
//! Invariants checked:
//! * Gorilla compression is bit-lossless for arbitrary ordered `(i64, f64)`
//!   streams (including negative zero and subnormals);
//! * a [`SeriesStore`] scan equals the brute-force filter of the written
//!   points regardless of where block seals fall;
//! * bucketed mean aggregation equals the brute-force per-bucket mean;
//! * fill policies produce complete grids with the declared semantics;
//! * the Gorilla payload bytes are pinned, and decoding a truncated or
//!   bit-flipped payload reports corruption instead of panicking.

use asap_tsdb::query::{Aggregator, FillPolicy, RangeQuery};
use asap_tsdb::series::SeriesStore;
use asap_tsdb::{Block, CompressedChunk, DataPoint, GorillaEncoder, TsdbError};
use proptest::prelude::*;

/// Strategy: a strictly-increasing timestamp sequence with finite values.
fn ordered_points(max_len: usize) -> impl Strategy<Value = Vec<DataPoint>> {
    prop::collection::vec(
        (
            1i64..10_000,                   // positive gap to the previous point
            prop::num::f64::NORMAL | prop::num::f64::SUBNORMAL | prop::num::f64::ZERO,
        ),
        0..max_len,
    )
    .prop_map(|gaps| {
        let mut ts = -5_000i64; // exercise negative timestamps too
        gaps.into_iter()
            .map(|(gap, v)| {
                ts += gap;
                DataPoint::new(ts, v)
            })
            .collect()
    })
}

proptest! {
    #[test]
    fn gorilla_round_trips_bit_exactly(points in ordered_points(300)) {
        let mut enc = GorillaEncoder::new();
        for &p in &points {
            enc.append(p);
        }
        let chunk = enc.finish();
        let decoded = chunk.decode().unwrap();
        prop_assert_eq!(decoded.len(), points.len());
        for (a, b) in decoded.iter().zip(&points) {
            prop_assert_eq!(a.timestamp, b.timestamp);
            prop_assert_eq!(a.value.to_bits(), b.value.to_bits());
        }
    }

    #[test]
    fn store_scan_equals_brute_force(
        points in ordered_points(300),
        block_capacity in 1usize..64,
        window in (0i64..20_000).prop_flat_map(|a| (Just(a - 6_000), a - 6_000..15_000)),
    ) {
        let (start, end) = window;
        let mut store = SeriesStore::new(block_capacity);
        for &p in &points {
            store.append(p).unwrap();
        }
        let got = store.scan(start, end).unwrap();
        let want: Vec<DataPoint> = points
            .iter()
            .copied()
            .filter(|p| p.timestamp >= start && p.timestamp < end)
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn store_len_and_eviction_conserve_points(
        points in ordered_points(300),
        block_capacity in 1usize..32,
        cutoff in -6_000i64..20_000,
    ) {
        let mut store = SeriesStore::new(block_capacity);
        for &p in &points {
            store.append(p).unwrap();
        }
        prop_assert_eq!(store.len(), points.len());
        store.seal_active().unwrap();
        let evicted = store.evict_before(cutoff);
        prop_assert_eq!(evicted + store.len(), points.len());
        // Everything surviving is visible, and nothing before any sealed
        // block's end can have been lost within retained blocks.
        let survivors = store.scan(i64::MIN, i64::MAX).unwrap();
        prop_assert_eq!(survivors.len(), store.len());
        // Block-granular retention never evicts a point at/after cutoff.
        for p in &points {
            if p.timestamp >= cutoff {
                prop_assert!(survivors.contains(p));
            }
        }
    }

    #[test]
    fn bucketed_mean_equals_brute_force(
        points in ordered_points(200),
        bucket in 1i64..500,
    ) {
        let start = -5_000i64;
        let end = 15_000i64;
        let q = RangeQuery::bucketed(start, end, bucket);
        let inside: Vec<DataPoint> = points
            .iter()
            .copied()
            .filter(|p| p.timestamp >= start && p.timestamp < end)
            .collect();
        let got = q.shape(&inside).unwrap();
        for dp in &got {
            let lo = dp.timestamp;
            let hi = lo + bucket;
            let bucket_vals: Vec<f64> = inside
                .iter()
                .filter(|p| p.timestamp >= lo && p.timestamp < hi)
                .map(|p| p.value)
                .collect();
            prop_assert!(!bucket_vals.is_empty(), "emitted bucket must be non-empty");
            let mean = bucket_vals.iter().sum::<f64>() / bucket_vals.len() as f64;
            let tol = 1e-9 * mean.abs().max(1.0);
            prop_assert!((dp.value - mean).abs() <= tol);
        }
        // Skip fill: one output bucket per non-empty input bucket.
        let distinct: std::collections::BTreeSet<i64> = inside
            .iter()
            .map(|p| (p.timestamp - start).div_euclid(bucket))
            .collect();
        prop_assert_eq!(got.len(), distinct.len());
    }

    #[test]
    fn total_fill_policies_produce_complete_grids(
        points in ordered_points(200),
        bucket in 1i64..500,
    ) {
        let start = -5_000i64;
        let end = 15_000i64;
        let inside: Vec<DataPoint> = points
            .iter()
            .copied()
            .filter(|p| p.timestamp >= start && p.timestamp < end)
            .collect();
        let n_buckets = ((end - start) as u64).div_ceil(bucket as u64) as usize;
        for fill in [FillPolicy::Previous, FillPolicy::Linear, FillPolicy::Constant(0.0)] {
            let got = RangeQuery::bucketed(start, end, bucket)
                .fill(fill)
                .shape(&inside)
                .unwrap();
            if inside.is_empty() && !matches!(fill, FillPolicy::Constant(_)) {
                prop_assert!(got.is_empty());
            } else {
                prop_assert_eq!(got.len(), n_buckets, "{:?}", fill);
                // Grid timestamps are exactly start + i*bucket.
                for (i, dp) in got.iter().enumerate() {
                    prop_assert_eq!(dp.timestamp, start + i as i64 * bucket);
                    prop_assert!(dp.value.is_finite());
                }
            }
        }
    }

    #[test]
    fn count_aggregation_conserves_points(
        points in ordered_points(200),
        bucket in 1i64..500,
    ) {
        let start = -5_000i64;
        let end = 15_000i64;
        let inside: Vec<DataPoint> = points
            .iter()
            .copied()
            .filter(|p| p.timestamp >= start && p.timestamp < end)
            .collect();
        let got = RangeQuery::bucketed(start, end, bucket)
            .aggregate(Aggregator::Count)
            .shape(&inside)
            .unwrap();
        let total: f64 = got.iter().map(|p| p.value).sum();
        prop_assert_eq!(total as usize, inside.len());
    }
}

proptest! {
    /// Any stream whose disorder is bounded by the buffer's allowed
    /// lateness is fully repaired: every unique point lands, in order.
    #[test]
    fn reorder_buffer_repairs_bounded_disorder(
        jitters in prop::collection::vec(0i64..8, 1..200),
        lateness in 8i64..64,
    ) {
        use asap_tsdb::{ReorderBuffer, SeriesKey, Tsdb};
        // Slot i nominally sits at 10*i; each point arrives displaced
        // backwards by jitter < 8 <= lateness, so nothing is ever dropped.
        let db = Tsdb::new();
        let mut rb = ReorderBuffer::new(db.clone(), 10 * lateness).unwrap();
        let key = SeriesKey::metric("m");
        let mut expect: Vec<i64> = Vec::new();
        // Emit in arrival order: slot i+jitter's point arrives at step i.
        let mut arrivals: Vec<(usize, i64)> = jitters
            .iter()
            .enumerate()
            .map(|(i, &j)| (i, 10 * i as i64 + j))
            .collect();
        // Bounded shuffle: swap adjacent pairs deterministically.
        for w in (0..arrivals.len().saturating_sub(1)).step_by(2) {
            arrivals.swap(w, w + 1);
        }
        for &(_, ts) in &arrivals {
            let _ = rb.offer(&key, asap_tsdb::DataPoint::new(ts, 1.0)).unwrap();
            if !expect.contains(&ts) {
                expect.push(ts);
            }
        }
        rb.flush().unwrap();
        expect.sort_unstable();
        let got: Vec<i64> = db
            .query(&key, asap_tsdb::RangeQuery::raw(i64::MIN + 1, i64::MAX))
            .map(|pts| pts.iter().map(|p| p.timestamp).collect())
            .unwrap_or_default();
        prop_assert_eq!(got, expect);
        prop_assert_eq!(rb.stats().dropped_late, 0);
    }
}

proptest! {
    /// Block-summary fast-path aggregation equals the brute-force scan for
    /// any range and any block-seal placement.
    #[test]
    fn summarize_equals_brute_force(
        points in ordered_points(300),
        block_capacity in 1usize..48,
        window in (0i64..20_000).prop_flat_map(|a| (Just(a - 6_000), a - 6_000..15_000)),
    ) {
        let (start, end) = window;
        let mut store = SeriesStore::new(block_capacity);
        for &p in &points {
            store.append(p).unwrap();
        }
        let scan = store.scan(start, end).unwrap();
        match store.summarize(start, end).unwrap() {
            None => prop_assert!(scan.is_empty()),
            Some(s) => {
                prop_assert_eq!(s.count, scan.len());
                let min = scan.iter().map(|p| p.value).fold(f64::INFINITY, f64::min);
                let max = scan.iter().map(|p| p.value).fold(f64::NEG_INFINITY, f64::max);
                prop_assert_eq!(s.min.to_bits(), min.to_bits());
                prop_assert_eq!(s.max.to_bits(), max.to_bits());
                let sum: f64 = scan.iter().map(|p| p.value).sum();
                let tol = 1e-9 * sum.abs().max(1.0);
                prop_assert!((s.sum - sum).abs() <= tol);
            }
        }
    }
}

/// FNV-1a over `bytes`: a hash with a fixed definition, so a pinned
/// constant means the same bytes on every toolchain.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// A fixed point sequence that reaches every Gorilla record kind:
/// negative timestamps crossing zero; delta-of-delta records in all
/// four tagged buckets and the 64-bit escape (including a 2^40 jump);
/// special floats (±0, subnormal, extremes, ±∞, NaN); and values that
/// repeat or drift inside one XOR window, interleaved with magnitude
/// jumps that force a new window.
fn golden_points() -> Vec<DataPoint> {
    // xorshift64: the sequence depends on nothing but this seed.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let specials = [
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 8.0, // subnormal
        f64::MAX,
        f64::MIN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];
    let mut points = Vec::new();
    let mut ts = -20_000i64;
    for i in 0..640usize {
        let jitter = (next() % 4) as i64;
        let gap = match i % 40 {
            9 => 10 + (next() % 200) as i64,              // 9-bit bucket
            19 => 10 + (next() % 1_500) as i64,           // 12-bit bucket
            29 => 10 + 4_000 + (next() % 100_000) as i64, // 64-bit escape
            _ => 10 + jitter,                             // 0 or 7-bit bucket
        };
        ts += if i == 320 { 1 << 40 } else { gap };
        // Runs of four repeat a value (XOR zero), except for some noise.
        let noise = if i % 4 == 3 {
            (next() % 8) as f64 * 1e-9
        } else {
            0.0
        };
        let drift = 1_000.0 + (i / 4) as f64 * 0.001 + noise;
        let value = match i % 64 {
            16 => 1.0e-300 * (1 + next() % 9) as f64, // new window
            48 => -((1u64 << 50) as f64),             // new window
            32 => specials[(i / 64) % specials.len()],
            _ => drift, // mostly a reused window
        };
        points.push(DataPoint::new(ts, value));
    }
    points
}

/// How often each record kind occurs when `points` is encoded, by the
/// encoder's own choice rules: delta-of-delta buckets `0`, 7-, 9-,
/// 12-bit and the 64-bit escape, then XOR records equal, reused window
/// and new window.
fn record_kinds(points: &[DataPoint]) -> [usize; 8] {
    let mut kinds = [0; 8];
    let (mut prev_delta, mut window) = (0i64, None::<(u32, u32)>);
    for pair in points.windows(2) {
        let delta = pair[1].timestamp - pair[0].timestamp;
        let dod = delta - prev_delta;
        prev_delta = delta;
        kinds[match dod {
            0 => 0,
            -63..=64 => 1,
            -255..=256 => 2,
            -2047..=2048 => 3,
            _ => 4,
        }] += 1;
        let xor = pair[1].value.to_bits() ^ pair[0].value.to_bits();
        let (leading, trailing) = (xor.leading_zeros().min(31), xor.trailing_zeros());
        kinds[match window {
            _ if xor == 0 => 5,
            Some((l, t)) if leading >= l && trailing >= t => 6,
            _ => {
                window = Some((leading, trailing));
                7
            }
        }] += 1;
    }
    kinds
}

/// The on-disk Gorilla format is pinned: chain base and delta links
/// hold these payloads, so existing chains must keep decoding and new
/// writes must match old ones byte for byte. The constants were
/// produced by the bit-at-a-time codec this format was defined with.
#[test]
fn gorilla_payload_bytes_are_pinned() {
    let points = golden_points();
    assert!(points.first().unwrap().timestamp < 0 && points.last().unwrap().timestamp > 0);
    let kinds = record_kinds(&points);
    assert!(
        kinds.iter().all(|&n| n > 0),
        "every record kind is reached: {kinds:?}"
    );
    let mut enc = GorillaEncoder::new();
    for &p in &points {
        enc.append(p);
    }
    let chunk = enc.finish();
    assert_eq!(chunk.len_bits, 28_674);
    assert_eq!(chunk.data.len(), 3_585);
    assert_eq!(fnv1a(&chunk.data), 0xca94_e520_eaba_4e2e);
    let decoded = chunk.decode().unwrap();
    assert_eq!(decoded.len(), points.len());
    for (a, b) in decoded.iter().zip(&points) {
        assert_eq!(
            (a.timestamp, a.value.to_bits()),
            (b.timestamp, b.value.to_bits())
        );
    }
}

/// A realistic chunk: a jittered 10 s cadence with occasional gaps large
/// enough for the 12-bit and 64-bit delta-of-delta records, and a noisy
/// sine rounded to 3 decimals (reused and new XOR windows).
fn telemetry_chunk(n: i64) -> CompressedChunk {
    let mut enc = GorillaEncoder::new();
    let mut ts = 1_600_000_000i64;
    for i in 0..n {
        ts += match i % 97 {
            50 => 1_500,
            96 => 1_000_000,
            _ => 10 + i % 3,
        };
        let v = 50.0 + 10.0 * ((i as f64) / 30.0).sin() + ((i * 7919) % 13) as f64 * 0.01;
        enc.append(DataPoint::new(ts, (v * 1000.0).round() / 1000.0));
    }
    enc.finish()
}

/// Decoding a damaged payload either succeeds or reports
/// `CorruptBlock`, through the raw decoder and through the validating
/// `Block::from_chunk`; it never panics.
fn assert_decode_is_total(chunk: &CompressedChunk, case: &str) {
    match chunk.decode() {
        Ok(points) => assert_eq!(points.len(), chunk.count, "{case}"),
        Err(e) => assert!(matches!(e, TsdbError::CorruptBlock { .. }), "{case}: {e:?}"),
    }
    match Block::from_chunk(chunk.clone()) {
        Ok(block) => assert_eq!(block.len(), chunk.count, "{case}"),
        Err(e) => assert!(matches!(e, TsdbError::CorruptBlock { .. }), "{case}: {e:?}"),
    }
}

#[test]
fn block_decode_is_total_under_truncation() {
    let chunk = telemetry_chunk(400);
    for len_bits in 0..=chunk.len_bits {
        let truncated = CompressedChunk {
            data: chunk.data.slice(..len_bits.div_ceil(8)),
            len_bits,
            count: chunk.count,
        };
        assert_decode_is_total(&truncated, &format!("len_bits {len_bits}"));
        if len_bits < chunk.len_bits {
            assert!(
                truncated.decode().is_err(),
                "len_bits {len_bits} cannot hold every point"
            );
        }
    }
    assert_eq!(Block::from_chunk(chunk.clone()).unwrap().len(), 400);
}

#[test]
fn block_decode_is_total_under_bit_flips() {
    let chunk = telemetry_chunk(100);
    for bit in 0..chunk.data.len() * 8 {
        let mut data = chunk.data.to_vec();
        data[bit / 8] ^= 0x80 >> (bit % 8);
        let flipped = CompressedChunk {
            data: data.into(),
            ..chunk.clone()
        };
        assert_decode_is_total(&flipped, &format!("bit {bit} flipped"));
    }
}
