//! One run of one workload: set-up, measured phase, correctness gate,
//! and (with `--trace 1`) the outside-in layer replay.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use asap_tsdb::{ShardedConfig, ShardedDb};

use crate::client::{self, Event, QueryConn};
use crate::gen;
use crate::oracle;
use crate::proc::{ServerProc, WorkDir};
use crate::prom::{self, Scrape};
use crate::replay;
use crate::stats::{median, percentile, Pct, Rng};
use crate::workload::{self, Loop, Query, Workload};

/// Blocks the measured phase is cut into. Latency percentiles and frame
/// lags are taken per block and the median over blocks is reported, so
/// a burst of outside load on the host moves one block, not the result.
/// With `--trace 1` the first half of the blocks is untraced and the
/// second half traced.
pub const BLOCKS: usize = 4;
/// Longest the benchmark waits for the frames a stream must produce.
const FRAME_TIMEOUT: Duration = Duration::from_secs(60);
/// Traced requests replayed per verb.
const REPLAYS_PER_VERB: usize = 16;
/// Flags the server gets besides its defaults: ephemeral ports, so
/// parallel checkouts and repeated set-ups never collide.
const BASE_FLAGS: [&str; 4] = ["--ingest", "127.0.0.1:0", "--query", "127.0.0.1:0"];

/// Inputs of one run.
pub struct Env {
    /// The `asap-server` binary.
    pub server_bin: PathBuf,
    /// Scratch directory inside the checkout.
    pub work: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// Result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests, ingest batches, frames, checks).
    pub attempted: u64,
    /// Operations that failed, were refused or mismatched.
    pub failed: u64,
    /// First few failure descriptions.
    pub errors: Vec<String>,
    /// `(name, value, unit)` of every reported metric.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Host, configuration and sample-count facts, as JSON members.
    pub info: Vec<(String, String)>,
}

impl Outcome {
    fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    fn fail(&mut self, message: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(message);
        }
    }

    fn check(&mut self, good: bool, message: impl FnOnce() -> String) {
        if good {
            self.ok(1);
        } else {
            self.fail(message());
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn info(&mut self, key: &str, json: String) {
        self.info.push((key.to_owned(), json));
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn pct_json(p: Option<Pct>) -> String {
    p.map_or_else(
        || "null".to_owned(),
        |p| format!("{{\"value\": {}, \"n\": {}}}", p.value, p.n),
    )
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn io<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// What an ingest connection sent and got back.
struct Sent {
    first_byte: Instant,
    /// Timestamps each batch covered and when its last byte was written.
    batches: Vec<(Range<i64>, Instant)>,
    report: String,
    report_at: Instant,
}

impl Sent {
    fn points(&self) -> usize {
        self.batches
            .iter()
            .map(|(r, _)| (r.end - r.start) as usize * gen::HOSTS)
            .sum()
    }

    fn rate(&self) -> f64 {
        self.points() as f64 / (self.report_at - self.first_byte).as_secs_f64()
    }

    /// One past the last timestamp sent (`from` when nothing was).
    fn end_ts(&self, from: i64) -> i64 {
        self.batches.last().map_or(from, |b| b.0.end)
    }

    /// When the batch holding timestamp `ts` finished sending.
    fn sent_at(&self, ts: i64) -> Option<Instant> {
        let i = self.batches.partition_point(|(r, _)| r.end <= ts);
        self.batches
            .get(i)
            .filter(|(r, _)| r.contains(&ts))
            .map(|(_, at)| *at)
    }
}

/// Half-closes the ingest connection and reads the report line.
fn finish_ingest(
    ingest: &mut TcpStream,
    first_byte: Instant,
    batches: Vec<(Range<i64>, Instant)>,
) -> Result<Sent, String> {
    ingest
        .shutdown(Shutdown::Write)
        .map_err(io("ingest shutdown"))?;
    ingest
        .set_read_timeout(Some(client::STUCK_AFTER))
        .map_err(io("ingest timeout"))?;
    let mut report = String::new();
    ingest
        .read_to_string(&mut report)
        .map_err(io("ingest report"))?;
    Ok(Sent {
        first_byte,
        batches,
        report,
        report_at: Instant::now(),
    })
}

/// Checks an ingest report line: every sent point applied, nothing dropped.
fn check_report(out: &mut Outcome, sent: &Sent) {
    let expected = format!("points={} ", sent.points());
    let good = sent.report.contains(&expected)
        && sent
            .report
            .contains("parse_failures=0 write_failures=0 clean=true")
        && sent.report.contains("dropped_late=0 dropped_duplicate=0");
    out.check(good, || {
        format!(
            "ingest report `{}` (expected {expected}clean=true)",
            sent.report.trim()
        )
    });
}

/// Reads push lines until `count` frames arrived in total.
fn collect_frames(
    conn: &mut QueryConn,
    frames: &mut Vec<(String, Instant)>,
    count: usize,
) -> Result<(), String> {
    let deadline = Instant::now() + FRAME_TIMEOUT;
    while frames.len() < count {
        match conn.next_event(Some(deadline)).map_err(io("frame read"))? {
            Some(Event::Push(line)) => {
                if line.starts_with("FRAME ") {
                    frames.push((line, Instant::now()));
                }
            }
            Some(Event::Response(text)) => {
                return Err(format!("unexpected response `{}`", text.trim()))
            }
            None => return Err(format!("only {} of {count} frames arrived", frames.len())),
        }
    }
    Ok(())
}

/// Checks received frames against the replay. Returns, per frame whose
/// last point `sent_at` knows, the block that point's batch was sent in
/// and the frame's lag behind that send.
fn check_frames(
    out: &mut Outcome,
    got: &[(String, Instant)],
    expected: &[String],
    sent_at: &dyn Fn(i64) -> Option<(usize, Instant)>,
) -> Vec<(usize, f64)> {
    let mut lags = Vec::new();
    for (i, want) in expected.iter().enumerate() {
        let Some((line, at)) = got.get(i) else {
            out.fail(format!("frame {i} missing"));
            continue;
        };
        if line != want {
            out.fail(format!("frame {i} differs from the StreamingAsap replay"));
            continue;
        }
        out.ok(1);
        if let Ok(f) = client::parse_frame(line) {
            // The subscribed host has one point per timestamp from 0.
            if let Some((block, sent)) = sent_at(f.seq as i64 - 1) {
                lags.push((block, ms(at.saturating_duration_since(sent))));
            }
        }
    }
    if got.len() > expected.len() {
        out.fail(format!(
            "{} frames more than the replay emits",
            got.len() - expected.len()
        ));
    }
    lags
}

/// Shared across the set-ups of one run.
struct Prepared {
    /// The history's batch frames.
    preload: Vec<(Range<i64>, Vec<u8>)>,
    preload_frames: Vec<String>,
}

/// A server that finished set-up.
struct Ready {
    server: ServerProc,
    conn: QueryConn,
    setup_s: f64,
    preload: Sent,
    frames: Vec<(String, Instant)>,
}

fn server_flags(w: &Workload, wal_dir: &std::path::Path) -> Vec<String> {
    let mut flags: Vec<String> = BASE_FLAGS.iter().map(|s| s.to_string()).collect();
    if w.wal {
        flags.push("--wal-dir".to_owned());
        flags.push(wal_dir.display().to_string());
    }
    flags
}

/// Spawns a server, subscribes, preloads the history, and waits until
/// the preload is acknowledged, its frames pushed and the store answers.
fn setup(
    env: &Env,
    w: &Workload,
    prep: &Prepared,
    index: usize,
    out: &mut Outcome,
) -> Result<Ready, String> {
    let wal_dir = env.work.join(format!("wal-{index}"));
    if w.wal {
        std::fs::create_dir_all(&wal_dir).map_err(io("wal dir"))?;
    }
    let flags = server_flags(w, &wal_dir);
    let started = Instant::now();
    let server = ServerProc::spawn(
        &env.server_bin,
        &flags,
        &env.work.join(format!("server-{index}.log")),
    )?;
    let mut conn = QueryConn::new(TcpStream::connect(server.query).map_err(io("query connect"))?)
        .map_err(io("query socket"))?;
    let reply = conn
        .request(workload::SUBSCRIBE, &mut |_, _| {})
        .map_err(io("subscribe"))?;
    out.check(reply.starts_with("OK subscribed "), || {
        format!("SUBSCRIBE answered `{}`", reply.trim())
    });
    let mut ingest = TcpStream::connect(server.ingest).map_err(io("ingest connect"))?;

    let mut frames = Vec::new();
    let (read, sent) = std::thread::scope(|s| {
        let reader = s.spawn(|| collect_frames(&mut conn, &mut frames, prep.preload_frames.len()));
        let sent = (|| {
            let first_byte = Instant::now();
            let mut batches = Vec::with_capacity(prep.preload.len());
            for (range, bytes) in &prep.preload {
                ingest.write_all(bytes).map_err(io("preload write"))?;
                batches.push((range.clone(), Instant::now()));
            }
            finish_ingest(&mut ingest, first_byte, batches)
        })();
        (reader.join().expect("frame reader panicked"), sent)
    });
    read?;
    let sent = sent?;
    check_report(out, &sent);

    // Queryable: the newest preloaded point of the last host reads back.
    let last = w.history - 1;
    let h = gen::HOSTS - 1;
    let probe = Query::Range {
        token: format!("{}{{host={}}}", gen::METRIC, gen::host(h)),
        selector: gen::one_host(h),
        start: last,
        end: last + 1,
        bucket: None,
    };
    let reply = conn
        .request(&probe.line(), &mut |_, _| {})
        .map_err(io("probe"))?;
    let setup_s = started.elapsed().as_secs_f64();
    let want = oracle::expected_series(&gen::key(h), gen::points(env.seed, h, last..last + 1));
    out.check(reply == want, || {
        format!("probe answered `{}`", reply.trim())
    });
    Ok(Ready {
        server,
        conn,
        setup_s,
        preload: sent,
        frames,
    })
}

/// One request/response measured on the query connection.
struct Rec {
    smooth: bool,
    /// Index into the distinct windows.
    window: usize,
    ms: f64,
    /// Block of the measured phase the request was sent (or due) in.
    block: usize,
}

/// Everything the measured phase observed on the query connection.
#[derive(Default)]
struct QueryLog {
    recs: Vec<Rec>,
    /// First response per `(smooth, window)`; later ones are compared
    /// against it as they arrive.
    first: HashMap<(bool, usize), String>,
    mismatched: Vec<String>,
    lateness_ms: Vec<f64>,
}

impl QueryLog {
    fn record(&mut self, smooth: bool, window: usize, ms: f64, block: usize, response: String) {
        self.recs.push(Rec {
            smooth,
            window,
            ms,
            block,
        });
        match self.first.get(&(smooth, window)) {
            None => {
                self.first.insert((smooth, window), response);
            }
            Some(first) if *first != response => {
                self.mismatched.push(format!(
                    "response to window {window} changed between requests"
                ));
            }
            Some(_) => {}
        }
    }

    fn latencies(&self, smooth: bool, blocks: Range<usize>) -> Vec<f64> {
        self.recs
            .iter()
            .filter(|r| r.smooth == smooth && blocks.contains(&r.block))
            .map(|r| r.ms)
            .collect()
    }

    /// Median over `blocks` of each block's `q`-percentile, with the
    /// total sample count behind it.
    fn block_pct(&self, smooth: bool, q: f64, blocks: Range<usize>) -> Option<Pct> {
        let per_block: Vec<f64> = blocks
            .clone()
            .filter_map(|b| percentile(&self.latencies(smooth, b..b + 1), q))
            .map(|p| p.value)
            .collect();
        Some(Pct {
            value: median(&per_block)?,
            n: self.latencies(smooth, blocks).len(),
        })
    }
}

/// The windows a run queries: `distinct` starts drawn from the seed.
fn windows(w: &Workload, rng: &mut Rng) -> Vec<(Query, Query)> {
    (0..w.distinct)
        .map(|_| (w.refresh)(rng.below((w.history - w.span + 1) as u64) as i64, w.span))
        .collect()
}

fn server_cpu(pid: u32) -> Result<f64, String> {
    crate::procfs::cpu_seconds(pid).ok_or_else(|| "cannot read the server's CPU time".to_owned())
}

/// Closed loop: per block, SMOOTH then RANGE of one seeded window per
/// refresh until the block ends.
fn closed_loop(
    conn: &mut QueryConn,
    pairs: &[(Query, Query)],
    rng: &mut Rng,
    start: Instant,
    block_len: Duration,
    log: &mut QueryLog,
) -> Result<(), String> {
    for block in 0..BLOCKS {
        let until = start + block_len * (block as u32 + 1);
        while Instant::now() < until {
            let window = rng.below(pairs.len() as u64) as usize;
            for (smooth, q) in [(true, &pairs[window].0), (false, &pairs[window].1)] {
                let line = q.line();
                let sent = Instant::now();
                let response = conn.request(&line, &mut |_, _| {}).map_err(io("query"))?;
                log.record(smooth, window, ms(sent.elapsed()), block, response);
            }
        }
    }
    Ok(())
}

/// Open loop: each verb at `per_second` from `start` for `BLOCKS`
/// blocks, each request timed from when it was due. Push lines go to
/// `frames`; the loop ends once every request is answered and
/// `frames_expected` (set by the ingest side once known) frames arrived.
#[allow(clippy::too_many_arguments)]
fn open_loop(
    conn: &mut QueryConn,
    pairs: &[(Query, Query)],
    rng: &mut Rng,
    per_second: f64,
    start: Instant,
    block_len: Duration,
    log: &mut QueryLog,
    frames: &mut Vec<(String, Instant)>,
    frames_expected: &AtomicUsize,
) -> Result<(), String> {
    let period = Duration::from_secs_f64(1.0 / per_second);
    let until = start + block_len * BLOCKS as u32;
    let mut plan = Vec::new();
    let mut due = start;
    while due < until {
        let window = rng.below(pairs.len() as u64) as usize;
        plan.push((due, true, window));
        plan.push((due + period / 2, false, window));
        due += period;
    }
    let block_of = |due: Instant| {
        (((due - start).as_secs_f64() / block_len.as_secs_f64()) as usize).min(BLOCKS - 1)
    };
    let mut next = 0;
    let mut pending: std::collections::VecDeque<(Instant, bool, usize)> = Default::default();
    let give_up = until + FRAME_TIMEOUT;
    loop {
        let now = Instant::now();
        while next < plan.len() && plan[next].0 <= now {
            let (due, smooth, window) = plan[next];
            let q = if smooth {
                &pairs[window].0
            } else {
                &pairs[window].1
            };
            conn.send(&q.line()).map_err(io("query send"))?;
            log.lateness_ms
                .push(ms(Instant::now().saturating_duration_since(due)));
            pending.push_back((due, smooth, window));
            next += 1;
        }
        let expected = frames_expected.load(Ordering::Acquire);
        if next == plan.len() && pending.is_empty() && frames.len() >= expected {
            return Ok(());
        }
        if now > give_up {
            return Err(format!(
                "open loop stuck: {} responses pending, {} of {expected} frames",
                pending.len(),
                frames.len()
            ));
        }
        let wait = plan
            .get(next)
            .map_or(now + Duration::from_millis(20), |p| p.0);
        match conn.next_event(Some(wait)).map_err(io("query read"))? {
            Some(Event::Response(text)) => {
                let at = Instant::now();
                let (due, smooth, window) =
                    pending.pop_front().ok_or("response without a request")?;
                log.record(smooth, window, ms(at - due), block_of(due), text);
            }
            Some(Event::Push(line)) if line.starts_with("FRAME ") => {
                frames.push((line, Instant::now()));
            }
            Some(Event::Push(_)) | None => {}
        }
    }
}

/// Streams live batches from `from_ts` on one connection at
/// `points_per_s` until `until`, then collects the report. Open loop:
/// each batch is due at its slot in the schedule and goes out then, or
/// at once when backpressure held the stream past its slot.
fn live_stream(
    addr: std::net::SocketAddr,
    seed: u64,
    from_ts: i64,
    points_per_s: f64,
    until: Instant,
) -> Result<Sent, String> {
    let mut ingest = TcpStream::connect(addr).map_err(io("live ingest connect"))?;
    let first_byte = Instant::now();
    let slot = Duration::from_secs_f64((gen::BATCH_TS as usize * gen::HOSTS) as f64 / points_per_s);
    let mut batches = Vec::new();
    let mut bytes = Vec::new();
    let mut due = first_byte;
    let mut ts = from_ts;
    while due < until {
        let range = ts..ts + gen::BATCH_TS;
        bytes.clear();
        gen::append_batch(seed, range.clone(), &mut bytes);
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        ingest.write_all(&bytes).map_err(io("live write"))?;
        batches.push((range, Instant::now()));
        ts += gen::BATCH_TS;
        due += slot;
    }
    finish_ingest(&mut ingest, first_byte, batches)
}

fn scrape(conn: &mut QueryConn, frames: &mut Vec<(String, Instant)>) -> Result<Scrape, String> {
    let text = conn
        .request("METRICS", &mut |line, at| {
            if line.starts_with("FRAME ") {
                frames.push((line, at));
            }
        })
        .map_err(io("METRICS"))?;
    Scrape::parse(&text)
}

/// Runs workload `w` once.
pub fn run(env: &Env, w: &Workload) -> Result<Outcome, String> {
    let _work = WorkDir::fresh(env.work.clone())?;
    let mut out = Outcome::default();
    let mut rng = Rng::new(env.seed);
    let pairs = windows(w, &mut rng);
    let subscribed = gen::key(workload::SUBSCRIBED_HOST);
    let subscribed_values =
        |end: i64| (0..end).map(|ts| gen::value(env.seed, workload::SUBSCRIBED_HOST, ts));
    let prep = Prepared {
        preload: gen::render(env.seed, 0..w.history),
        preload_frames: oracle::expected_frames(
            &subscribed,
            subscribed_values(w.history),
            workload::SUBSCRIBE_EVERY,
        ),
    };

    // Set-up: an untraced run sets up several servers and keeps the
    // last; the traced run reports no set-up time and sets up once.
    let setups = if env.trace { 1 } else { w.setups };
    let mut setup_s = Vec::new();
    let mut preload_rates = Vec::new();
    let mut preload_lags = Vec::new();
    let mut lag_samples = 0;
    let mut ready = None;
    for index in 0..setups {
        drop(ready.take());
        let r = setup(env, w, &prep, index, &mut out)?;
        setup_s.push(r.setup_s);
        preload_rates.push(r.preload.rate());
        let lags = check_frames(&mut out, &r.frames, &prep.preload_frames, &|ts| {
            r.preload.sent_at(ts).map(|at| (0, at))
        });
        let lags: Vec<f64> = lags.into_iter().map(|(_, l)| l).collect();
        preload_lags.push(median(&lags).ok_or("the preload pushed no frames")?);
        lag_samples += lags.len();
        ready = Some(r);
    }
    let Ready {
        server,
        mut conn,
        preload,
        mut frames,
        ..
    } = ready.expect("at least one set-up");

    // Measured phase.
    let mut log = QueryLog::default();
    let mut pushed = Vec::new();
    let scrape_setup = if env.trace {
        Some(scrape(&mut conn, &mut pushed)?)
    } else {
        None
    };
    let block_len = Duration::from_secs_f64(env.seconds / BLOCKS as f64);
    let start = Instant::now();
    let mut live = None;
    let mut live_frames = Vec::new();
    let cpu_before = server_cpu(server.pid)?;
    match w.queries {
        Loop::Closed => closed_loop(&mut conn, &pairs, &mut rng, start, block_len, &mut log)?,
        Loop::Open {
            per_second,
            ingest_points_per_s,
        } => {
            let expected = AtomicUsize::new(usize::MAX);
            let (queried, streamed) = std::thread::scope(|s| {
                let reader = s.spawn(|| {
                    open_loop(
                        &mut conn,
                        &pairs,
                        &mut rng,
                        per_second,
                        start,
                        block_len,
                        &mut log,
                        &mut pushed,
                        &expected,
                    )
                });
                let streamed = live_stream(
                    server.ingest,
                    env.seed,
                    w.history,
                    ingest_points_per_s,
                    start + block_len * BLOCKS as u32,
                );
                // The frames the whole subscribed stream must have pushed.
                let end_ts = streamed.as_ref().map_or(w.history, |s| s.end_ts(w.history));
                live_frames = oracle::expected_frames(
                    &subscribed,
                    subscribed_values(end_ts),
                    workload::SUBSCRIBE_EVERY,
                );
                let after_setup = live_frames.len() - prep.preload_frames.len();
                expected.store(
                    if streamed.is_ok() { after_setup } else { 0 },
                    Ordering::Release,
                );
                (reader.join().expect("query thread panicked"), streamed)
            });
            queried?;
            let sent = streamed?;
            check_report(&mut out, &sent);
            live = Some(sent);
        }
    }
    let phase_s = start.elapsed().as_secs_f64();
    let ops = live.as_ref().map_or(log.recs.len(), |s| s.batches.len());
    let cpu_per_op = (server_cpu(server.pid)? - cpu_before) * 1e3 / ops.max(1) as f64;
    let peak_rss_mb =
        crate::procfs::peak_rss_mb(server.pid).ok_or("cannot read the server's VmHWM")?;
    let scrape_end = if env.trace {
        Some(scrape(&mut conn, &mut pushed)?)
    } else {
        None
    };

    // Correctness gate: every response, every frame, the final store.
    for m in &log.mismatched {
        out.fail(m.clone());
    }
    out.ok(log.recs.len().saturating_sub(log.mismatched.len()) as u64);
    let oracle_db = oracle::history_db(env.seed, w.history)?;
    for ((smooth, window), response) in &log.first {
        let q = if *smooth {
            &pairs[*window].0
        } else {
            &pairs[*window].1
        };
        let want = oracle::expected(&oracle_db, q)?;
        out.check(*response == want, || {
            format!("`{}` differs from the serial oracle", q.line())
        });
    }
    frames.extend(pushed);
    let live_lags = match &live {
        Some(live) => {
            let block_of = |at: Instant| {
                (((at - start).as_secs_f64() / block_len.as_secs_f64()) as usize).min(BLOCKS - 1)
            };
            let lags = check_frames(&mut out, &frames, &live_frames, &|ts| {
                live.sent_at(ts).map(|at| (block_of(at), at))
            });
            let end_ts = live.end_ts(w.history);
            for h in 0..gen::HOSTS {
                let key = gen::key(h);
                let line = format!("RANGE {}{{host={}}} 0 {end_ts}", gen::METRIC, gen::host(h));
                let reply = conn
                    .request(&line, &mut |_, _| {})
                    .map_err(io("store read"))?;
                let want = oracle::expected_series(&key, gen::points(env.seed, h, 0..end_ts));
                out.check(reply == want, || {
                    format!("final store of {key} differs from the generated points")
                });
            }
            Some(lags)
        }
        None => {
            out.check(frames.len() == prep.preload_frames.len(), || {
                "frames pushed without ingest".to_owned()
            });
            None
        }
    };
    drop(conn);
    drop(server);

    // Per block (or per set-up) figures, and their medians.
    let untraced = 0..if env.trace { BLOCKS / 2 } else { BLOCKS };
    let smooth_p50 = log.block_pct(true, 0.5, untraced.clone());
    let smooth_p90 = log.block_pct(true, 0.9, untraced.clone());
    let range_p50 = log.block_pct(false, 0.5, untraced.clone());
    let range_p90 = log.block_pct(false, 0.9, untraced.clone());
    let (rates, lag_p50s): (Vec<f64>, Vec<f64>) = match (&live, &live_lags) {
        (Some(live), Some(lags)) => (
            vec![live.rate()],
            (0..BLOCKS)
                .filter_map(|b| {
                    median(
                        &lags
                            .iter()
                            .filter(|l| l.0 == b)
                            .map(|l| l.1)
                            .collect::<Vec<_>>(),
                    )
                })
                .collect(),
        ),
        _ => (preload_rates.clone(), preload_lags.clone()),
    };
    let frame_lag = percentile(&lag_p50s, 0.5);
    if let Some(lags) = &live_lags {
        // Only the live stream's frames count on this workload.
        lag_samples = lags.len();
    }

    // Facts next to the numbers.
    out.info("workload", json_str(w.name));
    out.info("why", json_str(w.why));
    out.info("seed", env.seed.to_string());
    out.info(
        "nproc",
        std::thread::available_parallelism()
            .map_or(0, |n| n.get())
            .to_string(),
    );
    out.info("cpu_model", json_str(&crate::procfs::cpu_model()));
    out.info(
        "server_flags",
        json_str(&server_flags(w, std::path::Path::new("<work>/wal")).join(" ")),
    );
    out.info(
        "fsync",
        json_str(&if w.wal {
            asap_tsdb::FsyncPolicy::default().to_string()
        } else {
            "no WAL".to_owned()
        }),
    );
    out.info("wal_fs", json_str(&crate::procfs::fs_type(&env.work)));
    out.info(
        "load",
        json_str(&match w.queries {
            Loop::Closed => "closed loop, 1 query connection".to_owned(),
            Loop::Open {
                per_second,
                ingest_points_per_s,
            } => format!(
                "open loop, SMOOTH and RANGE at {per_second}/s each on 1 query connection; \
                 open loop, {ingest_points_per_s} points/s on 1 ingest connection"
            ),
        }),
    );
    out.info("setups", setups.to_string());
    out.info("blocks", BLOCKS.to_string());
    out.info("smooth_p50_ms", pct_json(smooth_p50));
    out.info("smooth_p90_ms", pct_json(smooth_p90));
    out.info("range_p50_ms", pct_json(range_p50));
    out.info("range_p90_ms", pct_json(range_p90));
    out.info("frame_lag_p50_ms", pct_json(frame_lag));
    out.info("frame_lag_frames", lag_samples.to_string());
    out.info(
        "ingest_source",
        json_str(if live.is_some() {
            "the live stream"
        } else {
            "median of the set-ups' preloads"
        }),
    );
    out.info("ingest_rates", format!("{rates:?}"));
    out.info("generator_lateness_ms", {
        let l = &log.lateness_ms;
        let max = l
            .iter()
            .copied()
            .reduce(f64::max)
            .map_or("null".to_owned(), |m| m.to_string());
        format!(
            "{{\"p50\": {}, \"max\": {max}}}",
            pct_json(percentile(l, 0.5))
        )
    });
    out.info("op", json_str(w.op));
    out.info("ops", ops.to_string());
    out.info("phase_s", phase_s.to_string());

    if !env.trace {
        let need = |p: Option<Pct>, what: &str| {
            p.map(|p| p.value)
                .ok_or_else(|| format!("no {what} samples"))
        };
        out.metric("smooth_p50_ms", need(smooth_p50, "SMOOTH")?, "ms");
        out.metric("smooth_p90_ms", need(smooth_p90, "SMOOTH")?, "ms");
        out.metric("range_p50_ms", need(range_p50, "RANGE")?, "ms");
        out.metric("range_p90_ms", need(range_p90, "RANGE")?, "ms");
        out.metric(
            "ingest_points_per_s",
            median(&rates).ok_or("no ingest")?,
            "1/s",
        );
        out.metric("frame_lag_p50_ms", need(frame_lag, "frame")?, "ms");
        out.metric("setup_s", median(&setup_s).ok_or("no set-up")?, "s");
        out.metric("peak_rss_mb", peak_rss_mb, "MiB");
        out.metric("server_cpu_ms_per_op", cpu_per_op, "ms");
        return Ok(out);
    }
    let scrapes = (
        scrape_setup.expect("traced runs scrape"),
        scrape_end.expect("traced runs scrape"),
    );
    trace(
        env,
        w,
        &mut out,
        &log,
        &pairs,
        &preload,
        live.as_ref(),
        scrapes,
    )?;
    Ok(out)
}

/// The traced run's per-layer figures: replay every traced request and
/// the workload's ingest stream in-process, layer by layer, and read the
/// server's own histograms.
#[allow(clippy::too_many_arguments)]
fn trace(
    env: &Env,
    w: &Workload,
    out: &mut Outcome,
    log: &QueryLog,
    pairs: &[(Query, Query)],
    preload: &Sent,
    live: Option<&Sent>,
    (s0, s1): (Scrape, Scrape),
) -> Result<(), String> {
    let db = ShardedDb::with_config(ShardedConfig::new(8, 4096));
    let wal_dir = env.work.join("replay-wal");
    std::fs::create_dir_all(&wal_dir).map_err(io("replay WAL dir"))?;
    // The ingest stream the workload measured: the live stream on top of
    // the history, or the preload into an empty store.
    let (stream, warm): (Vec<Range<i64>>, Vec<f64>) = match live {
        Some(live) => {
            for h in 0..gen::HOSTS {
                db.write_batch(&gen::key(h), &gen::points(env.seed, h, 0..w.history))
                    .map_err(|e| e.to_string())?;
            }
            let warm = (0..w.history)
                .map(|ts| gen::value(env.seed, workload::SUBSCRIBED_HOST, ts))
                .collect();
            (live.batches.iter().map(|b| b.0.clone()).collect(), warm)
        }
        None => (
            preload.batches.iter().map(|b| b.0.clone()).collect(),
            Vec::new(),
        ),
    };
    let ingest = replay::ingest(
        &db,
        env.seed,
        &stream,
        &warm,
        &wal_dir,
        workload::SUBSCRIBE_EVERY,
    )?;

    let traced = BLOCKS / 2..BLOCKS;
    let mut smooth_traces = Vec::new();
    let mut range_traces = Vec::new();
    for rec in log.recs.iter().filter(|r| traced.contains(&r.block)) {
        let response = &log.first[&(rec.smooth, rec.window)];
        if rec.smooth && smooth_traces.len() < REPLAYS_PER_VERB {
            smooth_traces.push((
                replay::smooth(&db, &pairs[rec.window].0.line(), response)?,
                rec.ms,
            ));
        } else if !rec.smooth && range_traces.len() < REPLAYS_PER_VERB {
            range_traces.push((
                replay::range(&db, &pairs[rec.window].1.line(), response)?,
                rec.ms,
            ));
        }
    }
    if smooth_traces.is_empty() || range_traces.is_empty() {
        return Err("the traced blocks completed no SMOOTH or RANGE".to_owned());
    }
    // Bookkeeping: parse + execute + render self times plus the
    // unattributed remainder must rebuild each traced end-to-end time.
    let worst = smooth_traces
        .iter()
        .map(|(t, e2e_ms)| (t.top_level(e2e_ms * 1e3).iter().sum::<f64>() - e2e_ms * 1e3).abs())
        .fold(0.0, f64::max);
    out.check(worst < 1e-3, || {
        format!("layer self times miss the traced e2e time by {worst} us")
    });
    out.info("trace_sum_max_error_us", worst.to_string());
    out.info(
        "replayed",
        format!(
            "{{\"smooth\": {}, \"range\": {}, \"ingest_batches\": {}, \"wal_batches\": {}}}",
            smooth_traces.len(),
            range_traces.len(),
            ingest.parse.len(),
            ingest.wal.len()
        ),
    );

    let p50 = |v: Vec<f64>| median(&v).unwrap_or(f64::NAN);
    let st = |f: &dyn Fn(&replay::SmoothTrace) -> f64| {
        p50(smooth_traces.iter().map(|(t, _)| f(t)).collect())
    };
    let rt = |f: &dyn Fn(&replay::RangeTrace, f64) -> f64| {
        p50(range_traces.iter().map(|(t, e2e)| f(t, *e2e)).collect())
    };
    let per_series = |f: fn(&(usize, usize, usize)) -> usize| {
        p50(smooth_traces
            .iter()
            .flat_map(|(t, _)| t.per_series.iter().map(|s| f(s) as f64))
            .collect())
    };
    out.metric("server.protocol.parse_us", st(&|t| t.parse), "us");
    out.metric("tsdb.sharded.list_series_us", st(&|t| t.list_series), "us");
    out.metric(
        "tsdb.sharded.series_matched",
        st(&|t| t.series as f64),
        "count",
    );
    out.metric("tsdb.block.decode_us", st(&|t| t.decode), "us");
    out.metric(
        "tsdb.block.points_decoded",
        st(&|t| t.points_decoded as f64),
        "count",
    );
    out.metric("tsdb.query.shape_us", st(&|t| t.shape), "us");
    out.metric(
        "tsdb.query.grid_points",
        st(&|t| t.grid_points as f64),
        "count",
    );
    out.metric("core.preagg.preaggregate_us", st(&|t| t.preagg), "us");
    out.metric("core.preagg.pixel_ratio", per_series(|s| s.0), "count");
    out.metric("core.candidates.generate_us", st(&|t| t.generate), "us");
    out.metric("core.search.asap_self_us", st(&|t| t.search_self), "us");
    out.metric(
        "core.search.candidates_checked",
        per_series(|s| s.1),
        "count",
    );
    out.metric("core.search.chosen_window", per_series(|s| s.2), "count");
    out.metric("timeseries.sma_us", st(&|t| t.sma), "us");
    out.metric("server.protocol.render_us", st(&|t| t.render), "us");
    out.metric(
        "server.protocol.response_bytes",
        st(&|t| t.response_bytes as f64),
        "bytes",
    );
    out.metric(
        "tsdb.sharded.smooth_query_selector_us",
        st(&|t| t.fanout),
        "us",
    );
    out.metric(
        "tsdb.sharded.fanout_speedup",
        st(&|t| t.serial() / t.fanout),
        "ratio",
    );
    out.metric(
        "server.unattributed_ms",
        p50(smooth_traces
            .iter()
            .map(|(t, e2e)| t.top_level(e2e * 1e3)[3] / 1e3)
            .collect()),
        "ms",
    );
    out.metric(
        "tsdb.sharded.query_selector_us",
        rt(&|t, _| t.execute),
        "us",
    );
    out.metric(
        "server.protocol.render_range_us",
        rt(&|t, _| t.render),
        "us",
    );
    out.metric(
        "server.range_unattributed_ms",
        rt(&|t, e2e| e2e - (t.parse + t.execute + t.render) / 1e3),
        "ms",
    );

    // The server's own histograms: query means over the measured phase;
    // ingest means over the set-up's preload, the one stream every
    // workload sends as fast as backpressure allows (`ingest_live`'s
    // live stream is paced, so its wall time per batch is mostly the
    // schedule's idle time).
    let (ingest_base, ingest_end) = (&Scrape::default(), &s0);
    let mean = |before: &Scrape, after: &Scrape, name: &str| {
        prom::mean_delta(before, after, name)
            .ok_or_else(|| format!("server histogram {name} observed nothing"))
    };
    out.metric(
        "metrics.query.parse_micros",
        mean(&s0, &s1, "query.parse_micros")?,
        "us",
    );
    out.metric(
        "metrics.query.smooth.execute_micros",
        mean(&s0, &s1, "query.smooth.execute_micros")?,
        "us",
    );
    out.metric(
        "metrics.query.smooth.render_micros",
        mean(&s0, &s1, "query.smooth.render_micros")?,
        "us",
    );
    out.metric(
        "metrics.query.range.execute_micros",
        mean(&s0, &s1, "query.range.execute_micros")?,
        "us",
    );
    out.metric(
        "metrics.query.range.render_micros",
        mean(&s0, &s1, "query.range.render_micros")?,
        "us",
    );
    let ops = log.recs.len() + live.map_or(0, |l| l.batches.len());
    let parks = s1.value("event.parks") - s0.value("event.parks");
    out.metric(
        "metrics.event.parks_per_op",
        parks / ops.max(1) as f64,
        "count",
    );
    // The reorder stage only runs with `--lateness`, which the default
    // flags leave off: its histogram stays empty, so it is a fact, not
    // a metric.
    let stages = [
        "ingest.assemble_micros",
        "ingest.parse_micros",
        "ingest.apply_micros",
        "ingest.reorder_micros",
    ];
    for (name, metric) in stages.iter().zip([
        "metrics.ingest.assemble_micros",
        "metrics.ingest.parse_micros",
        "metrics.ingest.apply_micros",
    ]) {
        out.metric(metric, mean(ingest_base, ingest_end, name)?, "us");
    }
    // Stage time per sent batch against the stream's wall time per
    // batch: what is left is channel wait and everything else the server
    // does not instrument. Stages overlap on parallel threads, so the
    // remainder goes negative once they cover more than the wall time.
    let (batches, wall_ms) = (
        preload.batches.len(),
        ms(preload.report_at - preload.first_byte),
    );
    let stage_us: f64 = stages
        .iter()
        .chain(&["wal.append_micros", "wal.fsync_micros"])
        .map(|n| prom::hist_delta(ingest_base, ingest_end, n).sum)
        .sum();
    out.metric(
        "ingest.unattributed_ms",
        (wall_ms - stage_us / 1e3) / batches.max(1) as f64,
        "ms",
    );
    for (name, label) in [
        ("ingest.reorder_micros", "server_ingest_reorder_us"),
        ("wal.append_micros", "server_wal_append_us"),
        ("wal.fsync_micros", "server_wal_fsync_us"),
    ] {
        let m = prom::mean_delta(ingest_base, ingest_end, name);
        out.info(label, m.map_or("null".to_owned(), |m| m.to_string()));
    }

    out.metric(
        "tsdb.line_protocol.parse_us",
        p50(ingest.parse.clone()),
        "us",
    );
    out.metric(
        "tsdb.sharded.write_batch_us",
        p50(ingest.write.clone()),
        "us",
    );
    out.metric("tsdb.wal.append_us", p50(ingest.wal.clone()), "us");
    out.metric(
        "tsdb.wal.fsyncs_per_batch",
        ingest.wal_fsyncs as f64 / ingest.wal.len().max(1) as f64,
        "count",
    );
    out.metric(
        "tsdb.wal.bytes_per_point",
        ingest.wal_bytes as f64 / ingest.wal_records.max(1) as f64,
        "bytes",
    );
    out.metric("core.streaming.push_us", p50(ingest.push.clone()), "us");
    out.metric(
        "core.streaming.frames_emitted",
        ingest.frames as f64,
        "count",
    );

    let traced_p50 = median(&log.latencies(true, traced)).ok_or("no traced SMOOTH")?;
    let untraced_p50 = median(&log.latencies(true, 0..BLOCKS / 2)).ok_or("no untraced SMOOTH")?;
    out.metric("trace.overhead_ms", traced_p50 - untraced_p50, "ms");
    out.info(
        "trace_smooth_p50_ms",
        format!("{{\"traced\": {traced_p50}, \"untraced\": {untraced_p50}}}"),
    );
    if let Some((name, _, _)) = out.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("metric {name} is not a finite number"));
    }
    Ok(())
}
