//! End-to-end tests of the observability layer: the `METRICS` verb's
//! Prometheus exposition, the self-scrape round-trip, `__self__`
//! confinement in wildcard selectors, WAL survival of scraped series,
//! and the `HEALTH` degraded path. Following the repo-wide pattern,
//! every expectation is derived from a live oracle — the `STATS`
//! response or the scrape document the server itself returned — never
//! from baked-in values.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use asap_server::{CheckpointConfig, Server, ServerConfig};
use asap_tsdb::{
    FsyncPolicy, IngestConfig, Schedule, ShardedConfig, ShardedDb, WalConfig, SELF_TAG,
};

/// Sends one command line on a fresh query connection and reads the
/// complete response (single line, or an `OK …`-to-`END` block).
fn query(addr: SocketAddr, command: &str) -> String {
    let conn = TcpStream::connect(addr).expect("connect query");
    (&conn)
        .write_all(format!("{command}\n").as_bytes())
        .expect("send command");
    let mut reader = BufReader::new(&conn);
    let mut response = String::new();
    let mut first = String::new();
    reader.read_line(&mut first).expect("read response head");
    response.push_str(&first);
    let multi_line = first.strip_prefix("OK ").is_some_and(|rest| {
        let rest = rest.trim();
        rest == "stats" || rest == "metrics" || rest.parse::<usize>().is_ok()
    });
    if multi_line {
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line).expect("read response body") == 0 {
                panic!("response ended before END: {response}");
            }
            response.push_str(&line);
            if line.trim() == "END" {
                break;
            }
        }
    }
    response
}

/// Extracts one counter from a `STATS` response.
fn stat(stats: &str, key: &str) -> i64 {
    stats
        .lines()
        .find_map(|line| line.strip_prefix(&format!("{key} ")))
        .unwrap_or_else(|| panic!("STATS lacks `{key}`:\n{stats}"))
        .trim()
        .parse()
        .unwrap()
}

/// Polls `STATS` until `predicate` holds or the deadline passes.
fn wait_for_stats(addr: SocketAddr, what: &str, predicate: impl Fn(&str) -> bool) -> String {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let stats = query(addr, "STATS");
        if predicate(&stats) {
            return stats;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}; last STATS:\n{stats}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Streams telemetry: `hosts` series × `points` samples starting at
/// timestamp `t0` (strictly in-order, so follow-up docs must start
/// past the watermark of the previous one).
fn ingest_doc_from(addr: SocketAddr, hosts: usize, t0: i64, points: i64) -> String {
    let mut doc = String::new();
    for t in t0..t0 + points {
        for h in 0..hosts {
            let v = (std::f64::consts::TAU * t as f64 / 24.0).sin() + h as f64;
            doc.push_str(&format!("cpu,host=h{h} usage={v} {t}\n"));
        }
    }
    let mut conn = TcpStream::connect(addr).expect("connect ingest");
    conn.write_all(doc.as_bytes()).expect("write telemetry");
    conn.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut report = String::new();
    std::io::Read::read_to_string(&mut conn, &mut report).expect("read report");
    assert!(report.contains("clean=true"), "{report}");
    report
}

fn ingest_doc(addr: SocketAddr, hosts: usize, points: i64) -> String {
    ingest_doc_from(addr, hosts, 0, points)
}

fn default_server() -> Server {
    Server::start(
        ShardedDb::with_config(ShardedConfig::new(4, 64)),
        ServerConfig::default(),
    )
    .unwrap()
}

/// Parses the RANGE response body into `series -> Vec<(ts, value)>`.
fn parse_range(response: &str) -> BTreeMap<String, Vec<(i64, f64)>> {
    let mut out = BTreeMap::new();
    let mut lines = response.lines();
    let head = lines.next().expect("response head");
    assert!(head.starts_with("OK "), "not an OK response: {response}");
    let mut current: Option<&mut Vec<(i64, f64)>> = None;
    for line in lines {
        if line == "END" {
            break;
        }
        if let Some(rest) = line.strip_prefix("SERIES ") {
            let key = rest.split(' ').next().expect("series key").to_owned();
            current = Some(out.entry(key).or_default());
        } else {
            let (ts, v) = line.split_once(' ').expect("point line");
            current
                .as_deref_mut()
                .expect("point before SERIES")
                .push((ts.parse().unwrap(), v.parse().unwrap()));
        }
    }
    out
}

/// The `METRICS` exposition is structurally valid Prometheus text
/// format, and its scalar samples agree exactly with the `STATS`
/// response — both surfaces read the same collector.
#[test]
fn metrics_is_a_valid_exposition_of_the_stats_source() {
    let server = default_server();
    ingest_doc(server.ingest_addr(), 3, 200);
    let addr = server.query_addr();
    query(addr, "RANGE cpu.usage 0 200"); // populate query-phase histograms
    let response = query(addr, "METRICS");
    assert!(response.starts_with("OK metrics\n"), "{response}");
    assert!(response.ends_with("END\n"), "{response}");

    let body: Vec<&str> = response
        .lines()
        .skip(1)
        .take_while(|l| *l != "END")
        .collect();
    assert!(!body.is_empty());

    // Every line is either `# TYPE <name> <kind>` or `<name>[{labels}] <u64>`,
    // and every metric name carries the `asap_` namespace.
    let mut histograms: Vec<String> = Vec::new();
    for line in &body {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let name = parts.next().unwrap();
            let kind = parts.next().unwrap();
            assert!(name.starts_with("asap_"), "unnamespaced metric: {line}");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown TYPE: {line}"
            );
            if kind == "histogram" {
                histograms.push(name.to_owned());
            }
        } else {
            let (name, value) = line.rsplit_once(' ').expect("sample line");
            assert!(name.starts_with("asap_"), "unnamespaced sample: {line}");
            value.parse::<u64>().unwrap_or_else(|_| {
                panic!("sample value is not an integer: {line}");
            });
        }
    }
    assert!(!histograms.is_empty(), "no histograms in exposition");

    // Histogram invariants: cumulative bucket counts are nondecreasing,
    // the final bucket is `+Inf`, and its count equals `_count`.
    for name in &histograms {
        let buckets: Vec<&str> = body
            .iter()
            .filter(|l| l.starts_with(&format!("{name}_bucket{{")))
            .copied()
            .collect();
        assert!(!buckets.is_empty(), "{name} has no buckets");
        let mut previous = 0u64;
        for bucket in &buckets {
            let count: u64 = bucket.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(count >= previous, "non-cumulative bucket: {bucket}");
            previous = count;
        }
        assert!(
            buckets.last().unwrap().contains("le=\"+Inf\""),
            "{name} lacks the +Inf bucket"
        );
        let count_line = format!("{name}_count");
        let total: u64 = body
            .iter()
            .find_map(|l| l.strip_prefix(&format!("{count_line} ")))
            .unwrap_or_else(|| panic!("{name} lacks _count"))
            .parse()
            .unwrap();
        assert_eq!(previous, total, "+Inf bucket disagrees with _count");
        assert!(
            body.iter().any(|l| l.starts_with(&format!("{name}_sum "))),
            "{name} lacks _sum"
        );
    }

    // One-source-of-truth: STATS scalars equal their METRICS twins.
    // (Both were taken from a live server, so monotone counters could
    // differ between the two requests — compare keys frozen after the
    // ingest connection drained.)
    let stats = query(addr, "STATS");
    for (stats_key, metrics_name) in [
        ("ingest.lines", "asap_ingest_lines"),
        ("ingest.points", "asap_ingest_points"),
        ("ingest.total_connections", "asap_ingest_total_connections"),
        ("store.points", "asap_store_points"),
        ("store.series", "asap_store_series"),
        ("subscriptions.active", "asap_subscriptions_active"),
        ("wal.enabled", "asap_wal_enabled"),
    ] {
        let expected = stat(&stats, stats_key);
        let fresh = query(addr, "METRICS");
        let got: i64 = fresh
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{metrics_name} ")))
            .unwrap_or_else(|| panic!("METRICS lacks `{metrics_name}`:\n{fresh}"))
            .parse()
            .unwrap();
        assert_eq!(got, expected, "{stats_key} diverges from {metrics_name}");
    }
    server.shutdown();
}

/// `scrape_now` returns the exact line-protocol document it ingested;
/// that document is the oracle: every series it names must come back
/// from `RANGE` with the same timestamp and value.
#[test]
fn self_scrape_round_trip_matches_the_scrape_document_oracle() {
    let server = default_server();
    ingest_doc(server.ingest_addr(), 2, 150);
    let addr = server.query_addr();
    query(addr, "SMOOTH cpu.usage 0 150 1 40"); // touch more histograms

    let doc = server.scrape_now().expect("scrape");
    assert!(!doc.is_empty());

    // Expected points per series, derived from the returned document:
    // `name,__self__=1 f1=v1,f2=v2 ts` stores `name.f{__self__=1}`.
    let mut expected: BTreeMap<String, (i64, f64)> = BTreeMap::new();
    let mut scrape_ts = None;
    for line in doc.lines() {
        let mut parts = line.split(' ');
        let head = parts.next().expect("measurement,tags");
        let fields = parts.next().expect("fields");
        let ts: i64 = parts.next().expect("timestamp").parse().unwrap();
        scrape_ts = Some(ts);
        let (measurement, tags) = head.split_once(',').expect("self tag");
        assert_eq!(tags, format!("{SELF_TAG}=1"), "untagged scrape line: {line}");
        for field in fields.split(',') {
            let (name, value) = field.split_once('=').expect("field");
            expected.insert(
                format!("{measurement}.{name}{{{SELF_TAG}=1}}"),
                (ts, value.parse().unwrap()),
            );
        }
    }
    let ts = scrape_ts.expect("at least one scrape line");
    assert!(expected.len() > 20, "suspiciously small scrape: {doc}");

    let stored = parse_range(&query(
        addr,
        &format!("RANGE *{{{SELF_TAG}=1}} {} {}", ts - 1, ts + 1),
    ));
    for (series, (ts, value)) in &expected {
        let points = stored
            .get(series)
            .unwrap_or_else(|| panic!("scraped series `{series}` not stored"));
        assert!(
            points.contains(&(*ts, *value)),
            "series `{series}`: expected ({ts}, {value}), stored {points:?}"
        );
    }
    // And nothing else wears the tag.
    for series in stored.keys() {
        assert!(
            expected.contains_key(series),
            "unexpected {SELF_TAG} series `{series}`"
        );
    }
    server.shutdown();
}

/// Scraped series are infrastructure, like rollups: `*` (and plain
/// metric selectors) exclude them; a selector taking a position on the
/// tag opts in.
#[test]
fn wildcard_selectors_exclude_self_series_unless_opted_in() {
    let server = default_server();
    ingest_doc(server.ingest_addr(), 2, 100);
    let addr = server.query_addr();
    server.scrape_now().expect("scrape");

    let all = parse_range(&query(addr, "RANGE * -100000000000000 100000000000000"));
    assert!(!all.is_empty());
    for series in all.keys() {
        assert!(
            !series.contains(SELF_TAG),
            "`*` leaked the scrape series `{series}`"
        );
    }
    assert!(all.keys().any(|k| k.starts_with("cpu.usage")));

    let opted = parse_range(&query(
        addr,
        &format!("RANGE *{{{SELF_TAG}=*}} -100000000000000 100000000000000"),
    ));
    assert!(!opted.is_empty(), "opt-in selector returned nothing");
    for series in opted.keys() {
        assert!(series.contains(SELF_TAG), "opt-in leaked `{series}`");
    }
    server.shutdown();
}

/// The background scrape feeds the normal pipeline, so its series are
/// WAL-durable, smoothable, and subscribable: a `SUBSCRIBE` on the
/// `__self__` tag receives pushed frames, and a restart on the same
/// WAL directory replays every scraped point.
#[test]
fn background_scrape_series_push_frames_and_survive_a_wal_restart() {
    let wal_dir = std::env::temp_dir().join(format!("asap_obs_wal_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let config = |scrape: Option<Duration>| ServerConfig {
        wal: Some(WalConfig {
            dir: wal_dir.clone(),
            fsync: FsyncPolicy::EveryN(4),
        }),
        self_scrape: scrape,
        // Tiny streaming windows (pane = 1 point, warm after 4) so the
        // one-point-per-tick scrape cadence produces frames quickly.
        subscribe_window: 8,
        subscribe_resolution: 8,
        subscribe_every: 1,
        ..ServerConfig::default()
    };

    let first = Server::start(
        ShardedDb::with_config(ShardedConfig::new(2, 32)),
        config(Some(Duration::from_millis(50))),
    )
    .unwrap();
    ingest_doc(first.ingest_addr(), 2, 80);
    let addr = first.query_addr();

    // The registry's own `scrape.runs` counter is scraped too, so STATS
    // proves the background thread is live.
    wait_for_stats(addr, "two background scrapes", |s| stat(s, "scrape.runs") >= 2);

    // A subscription on the self tag gets real pushed frames.
    let sub = TcpStream::connect(addr).expect("connect subscriber");
    (&sub)
        .write_all(format!("SUBSCRIBE asap_ingest_points.value{{{SELF_TAG}=1}} EVERY 1\n").as_bytes())
        .expect("subscribe");
    sub.set_read_timeout(Some(Duration::from_secs(15))).unwrap();
    let mut reader = BufReader::new(&sub);
    let mut ack = String::new();
    reader.read_line(&mut ack).expect("read ack");
    assert!(ack.starts_with("OK subscribed"), "{ack}");
    let mut frame = String::new();
    loop {
        frame.clear();
        assert!(
            reader.read_line(&mut frame).expect("read push") > 0,
            "subscription closed before a frame arrived"
        );
        if frame.starts_with("FRAME ") {
            assert!(frame.contains(SELF_TAG), "{frame}");
            break;
        }
    }
    drop(reader);

    // Let a few more ticks land, then note what must survive.
    wait_for_stats(addr, "five background scrapes", |s| stat(s, "scrape.runs") >= 5);
    let survivors = parse_range(&query(
        addr,
        &format!("RANGE *{{{SELF_TAG}=1}} -100000000000000 100000000000000"),
    ));
    assert!(survivors.len() > 20, "scrape stored too few series");
    let report = first.shutdown();
    assert_eq!(report.wal_seal_error, None);

    // Restart (scrape off): replay must rebuild every scraped series.
    let second = Server::start(
        ShardedDb::with_config(ShardedConfig::new(2, 32)),
        config(None),
    )
    .unwrap();
    let addr = second.query_addr();
    let restored = parse_range(&query(
        addr,
        &format!("RANGE *{{{SELF_TAG}=1}} -100000000000000 100000000000000"),
    ));
    for (series, points) in &survivors {
        let got = restored
            .get(series)
            .unwrap_or_else(|| panic!("series `{series}` lost across restart"));
        assert!(
            got.len() >= points.len(),
            "series `{series}` lost points: {} < {}",
            got.len(),
            points.len()
        );
        // The pre-shutdown observation is a prefix of the replayed one
        // (the drain itself can land one more scrape tick).
        assert_eq!(&got[..points.len()], &points[..], "series `{series}` diverged");
    }
    // Scraped history smooths like any other series (bucket = the real
    // scrape timestamp span so the grid stays under the server cap).
    let series = format!("asap_ingest_points.value{{{SELF_TAG}=1}}");
    let points = &restored[&series];
    let (t0, t1) = (points.first().unwrap().0, points.last().unwrap().0 + 1);
    let bucket = ((t1 - t0) / points.len() as i64).max(1);
    let smooth = query(addr, &format!("SMOOTH {series} {t0} {t1} {bucket}"));
    assert!(smooth.starts_with("OK 1\n"), "{smooth}");
    second.shutdown();
    std::fs::remove_dir_all(&wal_dir).ok();
}

/// `HEALTH` answers `OK healthy` while background passes succeed and
/// flips to `DEGRADED` with a quoted reason once one records an error.
#[test]
fn health_degrades_when_a_background_checkpoint_fails() {
    let chain_dir = std::env::temp_dir().join(format!("asap_obs_chain_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&chain_dir);
    let server = Server::start(
        ShardedDb::with_config(ShardedConfig::new(2, 32)),
        ServerConfig {
            ingest: IngestConfig::default(),
            checkpoint: Some(CheckpointConfig {
                dir: chain_dir.clone(),
                schedule: Some(Schedule::every(Duration::from_millis(25))),
                seed: 7,
                chain_depth: 4,
            }),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    ingest_doc(server.ingest_addr(), 2, 60);
    let addr = server.query_addr();

    wait_for_stats(addr, "a successful checkpoint", |s| {
        stat(s, "checkpoint.runs") >= 1
    });
    let health = query(addr, "HEALTH");
    assert!(health.starts_with("OK healthy"), "{health}");

    // Sabotage the chain directory, then feed fresh points: a pass with
    // an empty delta writes nothing, so the failure needs dirty series.
    std::fs::remove_dir_all(&chain_dir).expect("remove chain dir");
    std::fs::write(&chain_dir, b"not a directory").expect("block the path");
    ingest_doc_from(server.ingest_addr(), 2, 60, 30);
    wait_for_stats(addr, "a failed checkpoint", |s| stat(s, "checkpoint.errors") >= 1);
    let health = query(addr, "HEALTH");
    assert!(health.starts_with("DEGRADED "), "{health}");
    assert!(health.contains("checkpoint=\""), "{health}");

    server.shutdown();
    std::fs::remove_file(&chain_dir).ok();
}
