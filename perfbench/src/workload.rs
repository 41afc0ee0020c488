//! The three workloads: what each preloads, what it sends, and why it
//! exists.

use asap_tsdb::Selector;

use crate::gen;

/// A query the load generator sends, kept in structured form so the
/// oracle can answer it without parsing the request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// `SMOOTH <selector> <start> <end> <bucket> <resolution>`.
    Smooth {
        /// Selector token as sent.
        token: String,
        /// The same selector, built directly.
        selector: Selector,
        /// Inclusive start.
        start: i64,
        /// Exclusive end.
        end: i64,
        /// Grid step.
        bucket: i64,
        /// Target pixels.
        resolution: usize,
    },
    /// `RANGE <selector> <start> <end> [<bucket> mean]` — bucketed
    /// reads always aggregate with the mean.
    Range {
        /// Selector token as sent.
        token: String,
        /// The same selector, built directly.
        selector: Selector,
        /// Inclusive start.
        start: i64,
        /// Exclusive end.
        end: i64,
        /// Bucket width; `None` reads raw points.
        bucket: Option<i64>,
    },
}

impl Query {
    /// The request line.
    pub fn line(&self) -> String {
        match self {
            Query::Smooth {
                token,
                start,
                end,
                bucket,
                resolution,
                ..
            } => {
                format!("SMOOTH {token} {start} {end} {bucket} {resolution}")
            }
            Query::Range {
                token,
                start,
                end,
                bucket: Some(b),
                ..
            } => {
                format!("RANGE {token} {start} {end} {b} mean")
            }
            Query::Range {
                token,
                start,
                end,
                bucket: None,
                ..
            } => {
                format!("RANGE {token} {start} {end}")
            }
        }
    }
}

/// How queries are issued during the measured phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Loop {
    /// One connection, next request only after the previous response.
    Closed,
    /// Requests sent on a fixed schedule, each verb at `per_second`,
    /// whether or not earlier ones were answered, beside a live ingest
    /// stream also sent on a fixed schedule.
    Open {
        /// Rate of each verb.
        per_second: f64,
        /// Points per second the live ingest stream offers.
        ingest_points_per_s: f64,
    },
}

/// One workload definition.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists: which layers it stresses.
    pub why: &'static str,
    /// Timestamps of history preloaded per host during set-up.
    pub history: i64,
    /// Query window length in timestamps.
    pub span: i64,
    /// Whether the server runs with a write-ahead log.
    pub wal: bool,
    /// Servers set up per untraced run (`setup_s` is their median).
    pub setups: usize,
    /// How queries are issued.
    pub queries: Loop,
    /// Distinct query windows drawn from the seed (the oracle answers
    /// each once).
    pub distinct: usize,
    /// Builds the `(SMOOTH, RANGE)` pair of one refresh at `start`.
    pub refresh: fn(i64, i64) -> (Query, Query),
    /// What one operation is for `server_cpu_ms_per_op`.
    pub op: &'static str,
}

fn wide_pair(start: i64, span: i64, range_bucket: i64) -> (Query, Query) {
    let token = gen::METRIC.to_owned();
    (
        Query::Smooth {
            token: token.clone(),
            selector: gen::all_hosts(),
            start,
            end: start + span,
            bucket: 1,
            resolution: 800,
        },
        Query::Range {
            token,
            selector: gen::all_hosts(),
            start,
            end: start + span,
            bucket: Some(range_bucket),
        },
    )
}

fn dashboard_pair(start: i64, span: i64) -> (Query, Query) {
    wide_pair(start, span, 125)
}

fn ingest_pair(start: i64, span: i64) -> (Query, Query) {
    wide_pair(start, span, 25)
}

fn zoom_pair(start: i64, span: i64) -> (Query, Query) {
    let token = format!("{}{{host={}}}", gen::METRIC, gen::host(3));
    (
        Query::Smooth {
            token: token.clone(),
            selector: gen::one_host(3),
            start,
            end: start + span,
            bucket: 1,
            resolution: 8000,
        },
        Query::Range {
            token,
            selector: gen::one_host(3),
            start,
            end: start + span,
            bucket: None,
        },
    )
}

/// Every workload, in `BENCHMARK.json` order.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "dashboard_wide",
            why: "8 series x 100k points per SMOOTH at 800 px (preaggregation ratio 125) plus \
                  the matching 800-bucket RANGE: block decode and bucket/fill dominate, about \
                  12.8 MB decoded per query (more than L2); ACF and search are under 5%",
            history: 200_000,
            span: 100_000,
            wal: false,
            setups: 3,
            queries: Loop::Closed,
            distinct: 8,
            refresh: dashboard_pair,
            op: "one SMOOTH or RANGE request",
        },
        Workload {
            name: "zoom_narrow",
            why: "1 series x 8k points per SMOOTH at 8000 px (ratio 1, no preaggregation) plus \
                  the raw RANGE under it: ACF, window search and rendering dominate compute, \
                  and the event core's wake-up wait dominates latency",
            history: 200_000,
            span: 8_000,
            wal: false,
            setups: 3,
            queries: Loop::Closed,
            distinct: 32,
            refresh: zoom_pair,
            op: "one SMOOTH or RANGE request",
        },
        Workload {
            name: "ingest_live",
            why: "BATCH ingest at a fixed 32k points/s with the WAL on (fsync every=256) and \
                  a live SUBSCRIBE, beside open-loop SMOOTH and RANGE at 10/s each over \
                  immutable history: writes share shards with reads. The rate is fixed, not \
                  saturating, because saturated WAL throughput on a shared 2-vCPU host swung \
                  117k-192k points/s between runs (and below 64k in its worst minutes); at a \
                  fixed rate with headroom, frame lag and CPU per batch are steady, and a \
                  capacity drop below the rate shows as a growing lag",
            history: 100_000,
            span: 20_000,
            wal: true,
            setups: 3,
            queries: Loop::Open {
                per_second: 10.0,
                ingest_points_per_s: 32_000.0,
            },
            distinct: 8,
            refresh: ingest_pair,
            op: "one 4096-point ingest batch",
        },
    ]
}

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// The subscription every workload holds from before its preload: one
/// series, refreshed every 1000 points.
pub const SUBSCRIBE: &str = "SUBSCRIBE req.rate{host=h00} EVERY 1000";
/// The host [`SUBSCRIBE`] watches.
pub const SUBSCRIBED_HOST: usize = 0;
/// The `EVERY` interval of [`SUBSCRIBE`].
pub const SUBSCRIBE_EVERY: usize = 1000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_follow_the_protocol_grammar() {
        let (s, r) = dashboard_pair(10, 100_000);
        assert_eq!(s.line(), "SMOOTH req.rate 10 100010 1 800");
        assert_eq!(r.line(), "RANGE req.rate 10 100010 125 mean");
        let (s, r) = zoom_pair(0, 8000);
        assert_eq!(s.line(), "SMOOTH req.rate{host=h03} 0 8000 1 8000");
        assert_eq!(r.line(), "RANGE req.rate{host=h03} 0 8000");
        for line in [s.line(), r.line()] {
            asap_server::protocol::parse_command(&line).unwrap();
        }
    }

    #[test]
    fn the_subscription_line_names_its_host_and_interval() {
        let selector = format!("{}{{host={}}}", gen::METRIC, gen::host(SUBSCRIBED_HOST));
        assert_eq!(
            SUBSCRIBE,
            format!("SUBSCRIBE {selector} EVERY {SUBSCRIBE_EVERY}")
        );
    }

    #[test]
    fn every_workload_queries_inside_its_history() {
        for w in all() {
            assert!(w.span < w.history, "{}", w.name);
            assert!(by_name(w.name).is_some());
            assert!(!w.why.contains('\n'));
        }
        assert!(by_name("nope").is_none());
    }
}
