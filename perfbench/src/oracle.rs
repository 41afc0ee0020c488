//! The correctness oracle: a serial single-shard `Tsdb` holding the same
//! generated points, rendered through the protocol's own renderers, and
//! a serial `StreamingAsap` replay for pushed frames.

use asap_core::{Asap, StreamingAsap, StreamingConfig};
use asap_server::protocol;
use asap_tsdb::{smooth, Aggregator, DataPoint, RangeQuery, SeriesKey, Tsdb};

use crate::gen;
use crate::workload::Query;

/// Template of the server's subscription runtime at default flags
/// (`--sub-window 10000 --sub-resolution 100`).
pub const SUB_WINDOW: usize = 10_000;
/// See [`SUB_WINDOW`].
pub const SUB_RESOLUTION: usize = 100;

/// Serial store of `history` timestamps per host.
pub fn history_db(seed: u64, history: i64) -> Result<Tsdb, String> {
    let db = Tsdb::new();
    for h in 0..gen::HOSTS {
        db.write_batch(&gen::key(h), &gen::points(seed, h, 0..history))
            .map_err(|e| format!("oracle write: {e}"))?;
    }
    Ok(db)
}

/// The exact response the server must send for `query`.
pub fn expected(db: &Tsdb, query: &Query) -> Result<String, String> {
    match query {
        Query::Smooth {
            selector,
            start,
            end,
            bucket,
            resolution,
            ..
        } => {
            let asap = Asap::builder().resolution(*resolution).build();
            let frames = smooth::smooth_query_selector(db, selector, &asap, *start, *end, *bucket)
                .map_err(|e| format!("oracle smooth: {e}"))?;
            Ok(protocol::render_smooth(&frames))
        }
        Query::Range {
            selector,
            start,
            end,
            bucket,
            ..
        } => {
            let q = match bucket {
                None => RangeQuery::raw(*start, *end),
                Some(b) => RangeQuery::bucketed(*start, *end, *b).aggregate(Aggregator::Mean),
            };
            let rows = db
                .query_selector(selector, q)
                .map_err(|e| format!("oracle range: {e}"))?;
            Ok(protocol::render_range(&rows))
        }
    }
}

/// The raw `RANGE` response for one series holding exactly `points`.
pub fn expected_series(key: &SeriesKey, points: Vec<DataPoint>) -> String {
    protocol::render_range(&[(key.clone(), points)])
}

/// The `FRAME` lines (without newlines) a subscription with interval
/// `every` pushes for `values`, the series' points in apply order.
pub fn expected_frames(
    key: &SeriesKey,
    values: impl Iterator<Item = f64>,
    every: usize,
) -> Vec<String> {
    let mut op = StreamingAsap::new(StreamingConfig::new(SUB_WINDOW, SUB_RESOLUTION, every));
    let mut out = Vec::new();
    for v in values {
        if let Ok(Some(frame)) = op.push(v) {
            let mut line = protocol::render_frame(key, &frame);
            line.pop();
            out.push(line);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    #[test]
    fn oracle_answers_every_query_shape() {
        let db = history_db(3, 4000).unwrap();
        let (s, r) = (workload::by_name("dashboard_wide").unwrap().refresh)(100, 3000);
        let smooth = expected(&db, &s).unwrap();
        assert!(
            smooth.starts_with("OK 8\nSERIES req.rate{host=h00} "),
            "{}",
            &smooth[..40]
        );
        assert!(smooth.ends_with("END\n"));
        let range = expected(&db, &r).unwrap();
        assert!(
            range.starts_with("OK 8\nSERIES req.rate{host=h00} 24\n"),
            "{}",
            &range[..40]
        );
        let (_, raw) = (workload::by_name("zoom_narrow").unwrap().refresh)(0, 10);
        let raw = expected(&db, &raw).unwrap();
        assert_eq!(raw, expected_series(&gen::key(3), gen::points(3, 3, 0..10)));
    }

    #[test]
    fn frames_come_every_interval_once_warm() {
        let values = (0..5000).map(|ts| gen::value(1, 0, ts));
        let frames = expected_frames(&gen::key(0), values, 1000);
        assert_eq!(frames.len(), 5);
        for (i, line) in frames.iter().enumerate() {
            let f = crate::client::parse_frame(line).unwrap();
            assert_eq!(f.seq, (i as u64 + 1) * 1000);
        }
    }
}
