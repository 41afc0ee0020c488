//! `perfbench` — one end-to-end benchmark of `asap-server`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --server <asap-server binary> --work <scratch dir>
//! ```
//!
//! Spawns the server binary at its default flags (ephemeral ports; a WAL
//! directory where the workload asks for one), drives it over TCP from
//! this process with at most two threads and two connections, checks
//! every response against a serial oracle, and prints one JSON result as
//! the last line of standard output. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` replays the traced requests through each layer
//! in-process and reports the per-layer metrics. See `README.md`.

mod bench;
mod client;
mod gen;
mod oracle;
mod proc;
mod procfs;
mod prom;
mod replay;
mod stats;
mod workload;

use std::path::PathBuf;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut server = None;
    let mut work = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--server" => server = Some(PathBuf::from(value)),
            "--work" => work = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        server: server.ok_or("--server is required")?,
        work: work.ok_or("--work is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(w) = workload::by_name(&args.workload) else {
        let names: Vec<_> = workload::all().iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload `{}` (one of {})",
            args.workload,
            names.join(", ")
        );
        std::process::exit(2);
    };
    let env = bench::Env {
        server_bin: args.server,
        work: args.work.join(format!("{}-{}", w.name, std::process::id())),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let outcome = match bench::run(&env, &w) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", w.name);
            std::process::exit(1);
        }
    };
    for e in &outcome.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let mut info: Vec<String> = outcome
        .info
        .iter()
        .map(|(k, v)| format!("{}: {v}", bench::json_str(k)))
        .collect();
    info.push(format!(
        "\"error_rate\": {}",
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    ));
    println!("info {{{}}}", info.join(", "));
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                bench::json_str(name),
                bench::json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
}
