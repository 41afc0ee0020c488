//! The outside-in trace: every traced request and ingest batch is
//! replayed in this process through the public functions of each layer,
//! on a store built from the same generated points, with a span timed
//! around each call. Nothing inside the server is instrumented by it.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use asap_core::{candidates, preagg, search, Asap, StreamingAsap, StreamingConfig};
use asap_server::protocol::{self, Command};
use asap_tsdb::{
    line_protocol, DataPoint, FillPolicy, FsyncPolicy, RangeQuery, SeriesKey, ShardedDb, Wal,
};

use crate::gen;
use crate::oracle;

fn us(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

/// Layer spans of one replayed `SMOOTH` (times in µs).
#[derive(Debug, Clone, Default)]
pub struct SmoothTrace {
    /// `protocol::parse_command`.
    pub parse: f64,
    /// `ShardedDb::list_series`.
    pub list_series: f64,
    /// Series the selector matched.
    pub series: usize,
    /// `ShardedDb::query(RangeQuery::raw)`, summed over series.
    pub decode: f64,
    /// Raw points decoded, summed over series.
    pub points_decoded: usize,
    /// `RangeQuery::shape` (bucket + linear fill), summed over series.
    pub shape: f64,
    /// Grid points handed to ASAP, summed over series.
    pub grid_points: usize,
    /// `preagg::preaggregate`, summed over series.
    pub preagg: f64,
    /// `candidates::generate` (ACF + peaks), summed over series.
    pub generate: f64,
    /// `search::asap::search` minus its candidate generation.
    pub search_self: f64,
    /// `asap_timeseries::sma` of the chosen window, summed over series.
    pub sma: f64,
    /// Per-series pixel ratio, candidates checked and chosen window.
    pub per_series: Vec<(usize, usize, usize)>,
    /// `ShardedDb::smooth_query_selector`: the fan-out the server runs.
    pub fanout: f64,
    /// `protocol::render_smooth`.
    pub render: f64,
    /// Bytes of the rendered response.
    pub response_bytes: usize,
}

impl SmoothTrace {
    /// Time of the serial per-series work (everything between
    /// `list_series` and the fan-out).
    pub fn serial(&self) -> f64 {
        self.decode + self.shape + self.preagg + self.generate + self.search_self + self.sma
    }

    /// The request's top-level self times — parse, execute (the fan-out)
    /// and render — and the remainder of `e2e_us` none of them covers.
    pub fn top_level(&self, e2e_us: f64) -> [f64; 4] {
        [
            self.parse,
            self.fanout,
            self.render,
            e2e_us - self.parse - self.fanout - self.render,
        ]
    }
}

/// Replays one `SMOOTH` request line through each layer on `db` and
/// checks the rendered result equals `response`, the bytes the server
/// sent for it.
pub fn smooth(db: &ShardedDb, line: &str, response: &str) -> Result<SmoothTrace, String> {
    let mut t = SmoothTrace::default();
    let started = Instant::now();
    let command = protocol::parse_command(line)?;
    t.parse = us(started);
    let Command::Smooth {
        selector,
        start,
        end,
        bucket,
        resolution,
    } = command
    else {
        return Err(format!("not a SMOOTH request: {line}"));
    };
    let asap = Asap::builder().resolution(resolution).build();
    let config = asap.config();

    let started = Instant::now();
    let keys = db.list_series(&selector);
    t.list_series = us(started);
    t.series = keys.len();
    for key in &keys {
        let started = Instant::now();
        let raw = db
            .query(key, RangeQuery::raw(start, end))
            .map_err(|e| e.to_string())?;
        t.decode += us(started);
        t.points_decoded += raw.len();

        let started = Instant::now();
        let grid = RangeQuery::bucketed(start, end, bucket)
            .fill(FillPolicy::Linear)
            .shape(&raw)
            .map_err(|e| e.to_string())?;
        t.shape += us(started);
        t.grid_points += grid.len();
        let values: Vec<f64> = grid.iter().map(|p| p.value).collect();

        let started = Instant::now();
        let (aggregated, ratio) = preagg::preaggregate(&values, resolution);
        t.preagg += us(started);

        let started = Instant::now();
        candidates::generate(&aggregated, config).map_err(|e| e.to_string())?;
        let generate = us(started);
        t.generate += generate;

        let started = Instant::now();
        let outcome = search::asap::search(&aggregated, config).map_err(|e| e.to_string())?;
        t.search_self += (us(started) - generate).max(0.0);

        let started = Instant::now();
        if outcome.window > 1 {
            asap_timeseries::sma(&aggregated, outcome.window).map_err(|e| e.to_string())?;
        }
        t.sma += us(started);
        t.per_series
            .push((ratio, outcome.candidates_checked, outcome.window));
    }

    let started = Instant::now();
    let frames = db
        .smooth_query_selector(&selector, &asap, start, end, bucket)
        .map_err(|e| e.to_string())?;
    t.fanout = us(started);

    let started = Instant::now();
    let rendered = protocol::render_smooth(&frames);
    t.render = us(started);
    t.response_bytes = rendered.len();
    if rendered != response {
        return Err(format!(
            "replay of `{line}` differs from the server's response"
        ));
    }
    Ok(t)
}

/// Layer spans of one replayed `RANGE` (µs).
#[derive(Debug, Clone, Default)]
pub struct RangeTrace {
    /// `protocol::parse_command`.
    pub parse: f64,
    /// `ShardedDb::query_selector`.
    pub execute: f64,
    /// `protocol::render_range`.
    pub render: f64,
}

/// Replays one `RANGE` request line and checks it against `response`.
pub fn range(db: &ShardedDb, line: &str, response: &str) -> Result<RangeTrace, String> {
    let mut t = RangeTrace::default();
    let started = Instant::now();
    let command = protocol::parse_command(line)?;
    t.parse = us(started);
    let Command::Range {
        selector,
        start,
        end,
        bucket,
        aggregator,
    } = command
    else {
        return Err(format!("not a RANGE request: {line}"));
    };
    let query = match bucket {
        None => RangeQuery::raw(start, end),
        Some(b) => RangeQuery::bucketed(start, end, b).aggregate(aggregator),
    };
    let started = Instant::now();
    let rows = db
        .query_selector(&selector, query)
        .map_err(|e| e.to_string())?;
    t.execute = us(started);
    let started = Instant::now();
    let rendered = protocol::render_range(&rows);
    t.render = us(started);
    if rendered != response {
        return Err(format!(
            "replay of `{line}` differs from the server's response"
        ));
    }
    Ok(t)
}

/// Per-batch spans of the ingest-side layers (µs).
#[derive(Debug, Clone, Default)]
pub struct IngestTrace {
    /// `line_protocol::parse` per batch.
    pub parse: Vec<f64>,
    /// `ShardedDb::write_batch` (one call per series) per batch.
    pub write: Vec<f64>,
    /// `Wal::append` of every point, per batch of the WAL sample.
    pub wal: Vec<f64>,
    /// `fsync`s the WAL sample issued.
    pub wal_fsyncs: u64,
    /// Bytes the WAL sample appended.
    pub wal_bytes: u64,
    /// Records the WAL sample appended.
    pub wal_records: u64,
    /// `StreamingAsap::push` of the subscribed series' points, per batch.
    pub push: Vec<f64>,
    /// Frames the streaming replay emitted.
    pub frames: usize,
}

/// Batches whose points the WAL replay appends: enough for a stable
/// per-batch time, few enough that the sample's fsyncs stay cheap.
pub const WAL_SAMPLE_BATCHES: usize = 24;

/// Replays the ingest stream `batches` (timestamp ranges of generated
/// batches) into `db` layer by layer. `warm` is the subscribed series'
/// history already applied before the stream, pushed into the streaming
/// replay untimed so its state matches the server's runtime.
pub fn ingest(
    db: &ShardedDb,
    seed: u64,
    batches: &[std::ops::Range<i64>],
    warm: &[f64],
    wal_dir: &Path,
    every: usize,
) -> Result<IngestTrace, String> {
    let mut t = IngestTrace::default();
    let wal =
        Wal::open(wal_dir, db.shard_count(), FsyncPolicy::default()).map_err(|e| e.to_string())?;
    let subscribed = gen::key(crate::workload::SUBSCRIBED_HOST);
    let mut stream = StreamingAsap::new(StreamingConfig::new(
        oracle::SUB_WINDOW,
        oracle::SUB_RESOLUTION,
        every,
    ));
    for &v in warm {
        stream.push(v).map_err(|e| e.to_string())?;
    }
    let mut bytes = Vec::new();
    for (i, range) in batches.iter().enumerate() {
        bytes.clear();
        gen::append_batch(seed, range.clone(), &mut bytes);
        let payload =
            std::str::from_utf8(&bytes[bytes.iter().position(|&b| b == b'\n').unwrap_or(0) + 1..])
                .map_err(|e| e.to_string())?;

        let started = Instant::now();
        let parsed = line_protocol::parse(payload, 0).map_err(|e| e.to_string())?;
        t.parse.push(us(started));

        let mut by_key: BTreeMap<&SeriesKey, Vec<DataPoint>> = BTreeMap::new();
        for p in &parsed {
            by_key.entry(&p.key).or_default().push(p.point);
        }
        let started = Instant::now();
        for (key, points) in &by_key {
            db.write_batch(key, points).map_err(|e| e.to_string())?;
        }
        t.write.push(us(started));

        if i < WAL_SAMPLE_BATCHES {
            let started = Instant::now();
            for p in &parsed {
                wal.append(db.shard_of(&p.key), &p.key, p.point)
                    .map_err(|e| e.to_string())?;
            }
            t.wal.push(us(started));
        }

        let values: Vec<f64> = by_key
            .get(&subscribed)
            .map_or_else(Vec::new, |pts| pts.iter().map(|p| p.value).collect());
        let started = Instant::now();
        for v in values {
            if stream.push(v).map_err(|e| e.to_string())?.is_some() {
                t.frames += 1;
            }
        }
        t.push.push(us(started));
    }
    wal.seal().map_err(|e| e.to_string())?;
    let stats = wal.stats();
    t.wal_fsyncs = stats.fsyncs;
    t.wal_bytes = stats.bytes;
    t.wal_records = stats.records;
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    #[test]
    fn replayed_requests_match_the_oracle_rendering() {
        let db = ShardedDb::with_config(asap_tsdb::ShardedConfig::new(4, 512));
        let oracle_db = oracle::history_db(11, 6000).unwrap();
        for h in 0..gen::HOSTS {
            db.write_batch(&gen::key(h), &gen::points(11, h, 0..6000))
                .unwrap();
        }
        let (s, r) = (workload::by_name("dashboard_wide").unwrap().refresh)(500, 4000);
        let expected = oracle::expected(&oracle_db, &s).unwrap();
        let t = smooth(&db, &s.line(), &expected).unwrap();
        assert_eq!(t.series, gen::HOSTS);
        assert_eq!(t.points_decoded, 4000 * gen::HOSTS);
        assert_eq!(t.grid_points, 4000 * gen::HOSTS);
        assert_eq!(t.per_series.len(), gen::HOSTS);
        assert!(t
            .per_series
            .iter()
            .all(|&(ratio, _, w)| ratio == 5 && w >= 1));
        assert_eq!(t.response_bytes, expected.len());
        let sum: f64 = t.top_level(1e6).iter().sum();
        assert!((sum - 1e6).abs() < 1e-6);
        assert!(smooth(&db, &s.line(), "OK 0\nEND\n").is_err());
        let expected = oracle::expected(&oracle_db, &r).unwrap();
        range(&db, &r.line(), &expected).unwrap();
        assert!(range(&db, &s.line(), &expected).is_err());
    }

    #[test]
    fn ingest_replay_times_every_layer_per_batch() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_work")
            .join(format!("unit-test-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let db = ShardedDb::with_config(asap_tsdb::ShardedConfig::new(2, 512));
        let batches = gen::batch_ranges(0..3 * gen::BATCH_TS);
        let t = ingest(&db, 4, &batches, &[], &dir, 1000).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(
            (t.parse.len(), t.write.len(), t.wal.len(), t.push.len()),
            (3, 3, 3, 3)
        );
        assert_eq!(
            t.wal_records as usize,
            3 * gen::BATCH_TS as usize * gen::HOSTS
        );
        assert_eq!(t.frames, 1, "1536 points at EVERY 1000");
        assert_eq!(
            db.query(&gen::key(2), RangeQuery::raw(0, i64::MAX))
                .unwrap(),
            gen::points(4, 2, 0..3 * gen::BATCH_TS)
        );
    }
}
