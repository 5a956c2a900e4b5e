//! `qbf-perfbench`: end-to-end and per-layer benchmark of `qbfsolve`,
//! `qbfcheck`, `qbfserve` and the expansion engine.
//!
//! ```text
//! qbf-perfbench --workload oneshot|certify|session|expand --seed N \
//!               --seconds S --trace 0|1
//! ```
//!
//! One process runs one workload, single-threaded, as a closed loop with
//! one caller. It calls the same library functions the binaries call and
//! times each call from outside. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`. A verdict that disagrees with its reference, or a
//! repeated op whose counters differ, ends the run with exit code 1.
//! `--emit e32-prob|e32-fpv` prints an input whose certificate `qbfcheck`
//! rejects (see `certify`). See `README.md` in this directory.

mod certify;
mod expand;
mod inputs;
mod layers;
mod measure;
mod oneshot;
mod session;
mod workload;

use std::time::{Duration, Instant};

use layers::Layers;
use measure::{exact_rank, median, peak_rss_bytes, tail_percentile, Tally};
use workload::{OpResult, Workload};

/// Setups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Fewest timed rounds per run (untraced; a traced run needs two of each
/// kind).
const MIN_ROUNDS: usize = 3;
/// Fewest ops per round: ten samples must lie beyond the p90.
const MIN_OPS: usize = 100;

const WORKLOADS: [&str; 4] = ["oneshot", "certify", "session", "expand"];

/// Reports a correctness failure and exits with code 1.
pub fn fatal(message: &str) -> ! {
    eprintln!("perfbench: {message}");
    println!("{{\"correct\": false, \"attempted\": 0, \"failed\": 0, \"metrics\": {{}}}}");
    std::process::exit(1);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: qbf-perfbench --workload {} --seed N --seconds S --trace 0|1\n       qbf-perfbench --emit e32-prob|e32-fpv",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    if std::env::args().nth(1).as_deref() == Some("--emit") {
        // `--emit e32-prob|e32-fpv`: print an input with a rejected
        // certificate, for reproducing the fault with qbfsolve + qbfcheck.
        let name = std::env::args().nth(2).unwrap_or_default();
        match certify::rejected_input(&name) {
            Some(text) => {
                print!("{text}");
                std::process::exit(0);
            }
            None => usage(),
        }
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Args {
            workload,
            seed,
            seconds,
            trace,
        },
        _ => usage(),
    }
}

fn prepare(workload: &str, seed: u64) -> Box<dyn Workload> {
    match workload {
        "oneshot" => Box::new(oneshot::prepare(seed)),
        "certify" => Box::new(certify::prepare(seed)),
        "session" => Box::new(session::prepare(seed)),
        "expand" => Box::new(expand::prepare(seed)),
        _ => unreachable!("parse_args checks the name"),
    }
}

/// Sets the workload up `SETUP_REPS` times (each must produce the same
/// input bytes) and keeps the last. Returns it with each setup's seconds.
fn setup(workload: &str, seed: u64) -> (Box<dyn Workload>, Vec<f64>) {
    let mut times = Vec::new();
    let mut digest = None;
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        let w = prepare(workload, seed);
        times.push(t.elapsed().as_secs_f64());
        let d = w.input_digest();
        if digest.is_some_and(|prev| prev != d) {
            fatal("two setups from the same seed produced different inputs");
        }
        digest = Some(d);
        last = Some(w);
    }
    let w = last.expect("at least one setup");
    if w.ops() < MIN_OPS {
        fatal(&format!(
            "{} ops per round; at least {MIN_OPS} are needed",
            w.ops()
        ));
    }
    (w, times)
}

/// Timed rounds of every op until `budget` has passed and at least
/// `min_rounds` are done. Every round must repeat the first exactly.
struct Rounds {
    /// Per-op latencies in seconds, all rounds pooled.
    latencies: Vec<f64>,
    /// Wall seconds per round.
    walls: Vec<f64>,
    /// The first round's results.
    first: Vec<OpResult>,
    tally: Tally,
}

fn run_rounds(
    w: &mut dyn Workload,
    budget: Duration,
    min_rounds: usize,
    mut layers: Option<&mut Layers>,
    reference: Option<&[OpResult]>,
) -> Rounds {
    let n = w.ops();
    let mut out = Rounds {
        latencies: Vec::new(),
        walls: Vec::new(),
        first: Vec::new(),
        tally: Tally::default(),
    };
    let start = Instant::now();
    let mut round = 0;
    while round < min_rounds || start.elapsed() < budget {
        w.begin_round(layers.as_deref_mut());
        let mut results = Vec::with_capacity(n);
        let round_start = Instant::now();
        for i in 0..n {
            let t = Instant::now();
            let r = match layers.as_deref_mut() {
                Some(l) => w.run_traced(i, l),
                None => w.run(i),
            };
            out.latencies.push(t.elapsed().as_secs_f64());
            results.push(r);
        }
        out.walls.push(round_start.elapsed().as_secs_f64());
        if let Some(l) = layers.as_deref_mut() {
            l.rounds += 1;
        }
        for (i, r) in results.iter().enumerate() {
            out.tally.record(r.failed);
            let want = reference.or(if round > 0 {
                Some(out.first.as_slice())
            } else {
                None
            });
            if want.is_some_and(|want| want[i] != *r) {
                fatal(&format!(
                    "op {i} returned {r:?} in round {round}, but {:?} before",
                    want.map(|want| want[i])
                ));
            }
        }
        if round == 0 {
            out.first = results;
        }
        round += 1;
    }
    out
}

fn json_metrics(metrics: &[(&str, &str, f64)]) -> String {
    let parts: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", parts.join(", "))
}

fn main() {
    let args = parse_args();
    let (mut w, setup_times) = setup(&args.workload, args.seed);
    // The harness's own share of the peak: set-up generates every
    // formula, and the workload then keeps only the serialised inputs.
    let setup_rss = peak_rss_bytes().unwrap_or_else(|e| fatal(&e));
    let budget = Duration::from_secs_f64(args.seconds);
    let ops = w.ops();

    let (tally, metrics) = if args.trace {
        let plain = run_rounds(w.as_mut(), budget / 2, 2, None, None);
        let mut layers = Layers::default();
        w.setup_layers(&mut layers);
        let traced = run_rounds(
            w.as_mut(),
            budget / 2,
            2,
            Some(&mut layers),
            Some(&plain.first),
        );
        if let Err(e) = w.verify(&plain.first) {
            fatal(&e);
        }
        // The traced rounds also time a proof-free solve in `certify`; that
        // is measurement, not tracing overhead.
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let traced_wall = mean(&traced.walls) - layers.plain_solve_s / traced.walls.len() as f64;
        let overhead = traced_wall / mean(&plain.walls) - 1.0;
        eprintln!(
            "perfbench: {} traced: {} + {} rounds of {ops} ops; counters identical to the untraced run; wall {:.4} s untraced, {:.4} s traced ({:+.1} %)",
            args.workload,
            plain.walls.len(),
            traced.walls.len(),
            mean(&plain.walls),
            traced_wall,
            overhead * 100.0
        );
        let mut tally = plain.tally;
        tally.add(traced.tally);
        (tally, layers.metrics(overhead))
    } else {
        let rounds = run_rounds(w.as_mut(), budget, MIN_ROUNDS, None, None);
        let rss = peak_rss_bytes().unwrap_or_else(|e| fatal(&e));
        if let Err(e) = w.verify(&rounds.first) {
            fatal(&e);
        }
        let p90 = tail_percentile(&rounds.latencies, 0.9).unwrap_or_else(|e| fatal(&e));
        let p50 = exact_rank(&rounds.latencies, 0.5).expect("rounds ran");
        let steps: u64 = rounds.first.iter().map(|r| r.steps).sum();
        eprintln!(
            "perfbench: {} seed {}: {} rounds of {ops} ops, {} latency samples, {} failed per round; peak RSS {:.2} MB after set-up, {:.2} MB at the end",
            args.workload,
            args.seed,
            rounds.walls.len(),
            rounds.latencies.len(),
            rounds.first.iter().filter(|r| r.failed).count(),
            setup_rss as f64 / 1e6,
            rss as f64 / 1e6
        );
        let metrics = vec![
            ("setup_s", "s", median(&setup_times)),
            ("wall_s", "s", median(&rounds.walls)),
            ("op_p50_ms", "ms", p50 * 1e3),
            ("op_p90_ms", "ms", p90 * 1e3),
            ("peak_rss_mb", "MB", rss as f64 / 1e6),
            ("steps", "count", steps as f64),
        ];
        (rounds.tally, metrics)
    };
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted,
        tally.failed,
        json_metrics(&metrics)
    );
}
