//! Seeded telemetry: `HOSTS` series of `req.rate`, each a period-1440
//! sine plus a per-host offset plus noise, one point per timestamp.
//!
//! Every value is a pure function of `(seed, host, timestamp)`, so any
//! range can be regenerated — for the load, for the oracle, and for the
//! replay — without keeping the stream around. The server receives only
//! the line-protocol bytes built here.

use asap_tsdb::{DataPoint, Selector, SeriesKey};

use crate::stats::mix;

/// Series per workload: hosts `h00` … `h07`.
pub const HOSTS: usize = 8;
/// Period of the sine, in timestamps (one day of minutes).
pub const PERIOD: f64 = 1440.0;
/// Timestamps per ingest batch: one `BATCH` frame carries this many
/// timestamps for every host.
pub const BATCH_TS: i64 = 512;
/// Metric name the line protocol's `req` measurement + `rate` field map to.
pub const METRIC: &str = "req.rate";

/// Host tag value of host index `h`.
pub fn host(h: usize) -> String {
    format!("h{h:02}")
}

/// Series key of host `h`, as the ingest path names it.
pub fn key(h: usize) -> SeriesKey {
    SeriesKey::metric(METRIC).with_tag("host", host(h))
}

/// Selector matching every generated series.
pub fn all_hosts() -> Selector {
    Selector::metric(METRIC)
}

/// Selector matching host `h` only.
pub fn one_host(h: usize) -> Selector {
    Selector::metric(METRIC).tag_eq("host", host(h))
}

/// The value of host `h` at `ts`: rounded to 3 decimals so the
/// line-protocol text stays short and parses back to the same `f64`.
pub fn value(seed: u64, h: usize, ts: i64) -> f64 {
    let phase = std::f64::consts::TAU * ts as f64 / PERIOD;
    let offset = 40.0 + 7.5 * h as f64;
    // Sum of two uniforms: a cheap, bounded, bell-shaped noise.
    let bits = mix(seed ^ mix(((h as u64) << 48) ^ ts as u64));
    let u1 = (bits >> 32) as f64 / (1u64 << 32) as f64;
    let u2 = (bits & 0xFFFF_FFFF) as f64 / (1u64 << 32) as f64;
    let noise = 6.0 * (u1 + u2 - 1.0);
    let v = offset + 20.0 * phase.sin() + noise;
    (v * 1000.0).round() / 1000.0
}

/// Points of host `h` for timestamps `range`.
pub fn points(seed: u64, h: usize, range: std::ops::Range<i64>) -> Vec<DataPoint> {
    range
        .map(|ts| DataPoint::new(ts, value(seed, h, ts)))
        .collect()
}

/// Appends one `BATCH <n>` frame holding every host's line for each
/// timestamp in `range` (timestamp-major, hosts interleaved).
pub fn append_batch(seed: u64, range: std::ops::Range<i64>, out: &mut Vec<u8>) {
    use std::fmt::Write;
    let mut payload = String::with_capacity((range.end - range.start) as usize * HOSTS * 32);
    for ts in range {
        for h in 0..HOSTS {
            let _ = writeln!(
                payload,
                "req,host={} rate={} {ts}",
                host(h),
                value(seed, h, ts)
            );
        }
    }
    out.extend_from_slice(format!("BATCH {}\n", payload.len()).as_bytes());
    out.extend_from_slice(payload.as_bytes());
}

/// The timestamp ranges of the batches covering `range`.
pub fn batch_ranges(range: std::ops::Range<i64>) -> Vec<std::ops::Range<i64>> {
    let mut out = Vec::new();
    let mut start = range.start;
    while start < range.end {
        let end = (start + BATCH_TS).min(range.end);
        out.push(start..end);
        start = end;
    }
    out
}

/// Pre-renders the batch frames covering `range`: the timestamps each
/// covers and its bytes, in send order.
pub fn render(seed: u64, range: std::ops::Range<i64>) -> Vec<(std::ops::Range<i64>, Vec<u8>)> {
    batch_ranges(range)
        .into_iter()
        .map(|r| {
            let mut bytes = Vec::new();
            append_batch(seed, r.clone(), &mut bytes);
            (r, bytes)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_depend_only_on_seed_host_and_timestamp() {
        assert_eq!(value(1, 3, 500), value(1, 3, 500));
        assert_ne!(value(1, 3, 500), value(2, 3, 500));
        assert_ne!(value(1, 3, 500), value(1, 4, 500));
        // Rounded to 3 decimals and round-tripping through text.
        let v = value(9, 0, 12345);
        assert_eq!(v.to_string().parse::<f64>().unwrap(), v);
        assert!(v.to_string().split('.').nth(1).map_or(0, str::len) <= 3);
    }

    #[test]
    fn batches_parse_back_to_the_generated_points() {
        let mut bytes = Vec::new();
        append_batch(5, 10..13, &mut bytes);
        let text = String::from_utf8(bytes).unwrap();
        let (header, payload) = text.split_once('\n').unwrap();
        assert_eq!(header, format!("BATCH {}", payload.len()));
        let parsed = asap_tsdb::line_protocol::parse(payload, 0).unwrap();
        assert_eq!(parsed.len(), 3 * HOSTS);
        for p in &parsed {
            let h: usize = p.key.to_string()["req.rate{host=h".len()..][..2]
                .parse()
                .unwrap();
            assert_eq!(p.key, key(h));
            assert_eq!(p.point.value, value(5, h, p.point.timestamp));
        }
    }

    #[test]
    fn batch_ranges_tile_the_range() {
        let r = batch_ranges(0..(2 * BATCH_TS + 7));
        assert_eq!(r.len(), 3);
        assert_eq!(r[0], 0..BATCH_TS);
        assert_eq!(r[2], 2 * BATCH_TS..2 * BATCH_TS + 7);
        assert!(batch_ranges(5..5).is_empty());
        let batches = render(1, 0..BATCH_TS + 1);
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[1].0, BATCH_TS..BATCH_TS + 1);
    }
}
