//! Checkpoint cost benchmark: full snapshot vs incremental chain delta
//! as the store grows.
//!
//! The claim behind checkpoint chains (`asap_tsdb::chain`): a full
//! snapshot costs O(total data) every time, while an incremental chain
//! checkpoint costs O(write activity since the last pass). This bench
//! measures both on the same stores — for each store size it times (a)
//! a full `ShardedDb::save` of the whole store (an export: a chain
//! holding only a base) and (b) a chain delta checkpoint covering one
//! fixed-size write batch — so the full column should grow with store
//! size while the delta column stays flat.
//!
//! Before any number is trusted, the chain (base + every timed delta)
//! is folded back through `load_chain` into a fresh store which is
//! asserted identical to the live one — each measured size therefore
//! also proves its recovery set is complete. Results are written to
//! `BENCH_checkpoint.json` (see `EXPERIMENTS.md` for the recorded run).
//!
//! Hand-timed wall clock, median of `BENCH_CHECKPOINT_RUNS` runs — the
//! criterion shim's budgeted micro-timing is wrong for multi-threaded
//! phases.
//!
//! Knobs: `BENCH_CHECKPOINT_POINTS` (records per series, default
//! 2_000), `BENCH_CHECKPOINT_SIZES` (comma-separated series counts,
//! default `8,32,128`), `BENCH_CHECKPOINT_WRITE_SERIES` (series touched
//! per delta batch, default 4), `BENCH_CHECKPOINT_WRITE_POINTS` (points
//! per touched series per batch, default 500), `BENCH_CHECKPOINT_RUNS`
//! (default 3).

use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use asap_tsdb::{
    CheckpointChain, DataPoint, RangeQuery, Selector, SeriesKey, ShardedConfig, ShardedDb,
};

const BLOCK_CAPACITY: usize = 4096;
const SHARDS: usize = 4;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_sizes(name: &str, default: &[usize]) -> Vec<usize> {
    std::env::var(name)
        .ok()
        .and_then(|v| {
            v.split(',')
                .map(|s| s.trim().parse().ok())
                .collect::<Option<Vec<usize>>>()
        })
        .filter(|sizes| !sizes.is_empty())
        .unwrap_or_else(|| default.to_vec())
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("asap-bench-checkpoint-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn key(series: usize) -> SeriesKey {
    SeriesKey::metric("req").with_tag("host", format!("h{series:04}"))
}

fn full() -> RangeQuery {
    RangeQuery::raw(i64::MIN + 1, i64::MAX)
}

fn main() {
    let points = env_usize("BENCH_CHECKPOINT_POINTS", 2_000);
    let sizes = env_sizes("BENCH_CHECKPOINT_SIZES", &[8, 32, 128]);
    let write_series = env_usize("BENCH_CHECKPOINT_WRITE_SERIES", 4).max(1);
    let write_points = env_usize("BENCH_CHECKPOINT_WRITE_POINTS", 500).max(1);
    let runs = env_usize("BENCH_CHECKPOINT_RUNS", 3).max(1);
    let batch_points = write_series * write_points;

    println!(
        "checkpoint cost: store sizes {sizes:?} series x {points} records, fixed write batch \
         of {write_series} series x {write_points} points = {batch_points} pts per delta, \
         {SHARDS} shards, median of {runs} ({} host cpus)",
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    println!(
        "{:>10} {:>12} {:>10} {:>12} {:>10} {:>12} {:>10}",
        "series", "store pts", "full ms", "full bytes", "delta ms", "delta bytes", "full/delta"
    );

    let mut rows = Vec::new();
    for &series in &sizes {
        let db = ShardedDb::with_config(ShardedConfig::new(SHARDS, BLOCK_CAPACITY));
        for s in 0..series {
            let k = key(s);
            for t in 0..points {
                db.write(
                    &k,
                    DataPoint::new(
                        t as i64,
                        (std::f64::consts::TAU * t as f64 / 900.0).sin() + s as f64,
                    ),
                )
                .unwrap();
            }
        }
        let total_points = series * points;

        // (a) Full snapshot of the whole store — O(total data) by
        // construction, measured to show the scaling the chain avoids.
        let full_path = temp_dir(&format!("full-{series}"));
        let full_secs = median(
            (0..runs)
                .map(|_| {
                    let t = Instant::now();
                    db.save(&full_path).unwrap();
                    t.elapsed().as_secs_f64()
                })
                .collect(),
        );
        let full_bytes: u64 = std::fs::read_dir(&full_path)
            .unwrap()
            .map(|e| e.unwrap().metadata().unwrap().len())
            .sum();
        std::fs::remove_dir_all(&full_path).ok();

        // (b) Incremental chain delta covering one fixed write batch.
        // The base (untimed) captures the initial store; each timed run
        // appends the same-sized batch and checkpoints just that.
        let chain_dir = temp_dir(&format!("chain-{series}"));
        let mut chain = CheckpointChain::open(&chain_dir, runs + 2).unwrap();
        let base = chain.checkpoint(&db, None).unwrap();
        assert!(base.rebased && base.completed);
        let mut delta_bytes = 0u64;
        let mut next_ts = points as i64;
        let delta_secs = median(
            (0..runs)
                .map(|run| {
                    for s in 0..write_series {
                        let k = key(s);
                        for t in 0..write_points {
                            db.write(
                                &k,
                                DataPoint::new(next_ts + t as i64, (run + s + t) as f64),
                            )
                            .unwrap();
                        }
                    }
                    next_ts += write_points as i64;
                    let t = Instant::now();
                    let report = chain.checkpoint(&db, None).unwrap();
                    let secs = t.elapsed().as_secs_f64();
                    assert!(report.completed && !report.rebased);
                    assert_eq!(report.series_written, write_series);
                    delta_bytes = report.bytes_written;
                    secs
                })
                .collect(),
        );

        // Correctness gate: the chain alone (base + every timed delta)
        // rebuilds the live store — the recovery set is complete.
        let recovered =
            asap_tsdb::load_chain(&chain_dir, ShardedConfig::new(SHARDS, BLOCK_CAPACITY)).unwrap();
        assert_eq!(
            recovered.query_selector(&Selector::any(), full()).unwrap(),
            db.query_selector(&Selector::any(), full()).unwrap(),
            "folded chain diverges from the live store at {series} series"
        );
        std::fs::remove_dir_all(&chain_dir).ok();

        println!(
            "{series:>10} {total_points:>12} {:>10.2} {full_bytes:>12} {:>10.2} \
             {delta_bytes:>12} {:>10.1}",
            full_secs * 1e3,
            delta_secs * 1e3,
            full_secs / delta_secs,
        );
        rows.push((
            series,
            total_points,
            full_secs,
            full_bytes,
            delta_secs,
            delta_bytes,
        ));
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"checkpoint_cost\",\n");
    json.push_str(
        "  \"note\": \"hand-timed wall clock (not the criterion shim); absolute numbers are \
         machine-relative, compare rows within one run; each row times a full save of the \
         whole store against an incremental chain delta covering one fixed-size write batch \
         on the same store, and folds the chain back through load_chain asserting it \
         identical to the live store before the timing is trusted; full cost should grow \
         with store size while delta cost tracks the (constant) write batch\",\n",
    );
    json.push_str(&format!(
        "  \"host_cpus\": {},\n",
        std::thread::available_parallelism().map_or(0, usize::from)
    ));
    json.push_str(&format!("  \"records_per_series\": {points},\n"));
    json.push_str(&format!(
        "  \"delta_batch\": {{\"series\": {write_series}, \"points_per_series\": \
         {write_points}, \"total_points\": {batch_points}}},\n"
    ));
    json.push_str(&format!("  \"shards\": {SHARDS},\n"));
    json.push_str(&format!("  \"runs_per_size\": {runs},\n"));
    json.push_str("  \"sizes\": [\n");
    for (i, (series, total_points, full_secs, full_bytes, delta_secs, delta_bytes)) in
        rows.iter().enumerate()
    {
        json.push_str(&format!(
            "    {{\"series\": {series}, \"store_points\": {total_points}, \
             \"full_ms\": {:.3}, \"full_bytes\": {full_bytes}, \"delta_ms\": {:.3}, \
             \"delta_bytes\": {delta_bytes}, \"full_over_delta\": {:.2}}}{}\n",
            full_secs * 1e3,
            delta_secs * 1e3,
            full_secs / delta_secs,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    let mut file =
        std::fs::File::create("BENCH_checkpoint.json").expect("create BENCH_checkpoint.json");
    file.write_all(json.as_bytes())
        .expect("write BENCH_checkpoint.json");
    println!("wrote BENCH_checkpoint.json");
}
