//! `session`: `qbfserve` traffic through `Server::handle_line`, one
//! closed-loop client. Each diameter sequence (§VII-C, as the union
//! universe of `qbf_models::diameter_sequence`) gets its own server and
//! starts with a `load`. One op is one whole probe: `push`, its `add`
//! lines, `solve`, a repeat `solve`, `pop`.
//!
//! Tree-form sequences run under QUBE(PO), prenex-form ones under
//! QUBE(TO). Every round starts from freshly loaded servers, so each round
//! replays the same session.

use std::time::Instant;

use qbf_bench::json::{self, Json};
use qbf_core::solver::{SolverConfig, Stats};
use qbf_models::{
    counter, diameter_sequence, dme, gray, ring, semaphore, DiameterForm, SymbolicModel,
};
use qbf_serve::Server;

use crate::fatal;
use crate::inputs::{eccentricity, mix, to_text, Renamer};
use crate::layers::Layers;
use crate::workload::{Fnv, OpResult, Workload, SEARCH_BUDGET};

/// Sequences φ1..φmax per model.
pub fn models() -> Vec<(SymbolicModel, u32)> {
    vec![
        (counter(2), 6),
        (counter(3), 5),
        (counter(4), 4),
        (gray(3), 4),
        (gray(4), 3),
        (ring(3), 2),
        (ring(4), 2),
        (ring(5), 2),
        (semaphore(2), 2),
        (semaphore(3), 1),
        (semaphore(4), 1),
        (dme(2), 5),
        (dme(3), 3),
        (dme(4), 2),
    ]
}

/// One diameter sequence as JSONL traffic.
struct Sequence {
    label: String,
    config: SolverConfig,
    /// The union formula as loaded, and its `load` request.
    text: String,
    load: String,
    /// Per probe: the bound `n`, the truth `n < d`, and its request lines.
    probes: Vec<(u32, bool, Vec<String>)>,
}

/// The search counters of a `solve` reply's `stats` object.
fn reply_stats(stats: &Json) -> Stats {
    let f = |k: &str| stats.get(k).and_then(Json::as_u64).unwrap_or(0);
    Stats {
        decisions: f("decisions"),
        propagations: f("propagations"),
        pures: f("pures"),
        conflicts: f("conflicts"),
        solutions: f("solutions"),
        learned_clauses: f("learned_clauses"),
        learned_cubes: f("learned_cubes"),
        backjumps: f("backjumps"),
        chrono_backtracks: f("chrono_backtracks"),
        forgotten: f("forgotten"),
        watcher_visits: f("watcher_visits"),
        blocker_hits: f("blocker_hits"),
        arena_bytes_peak: f("arena_bytes_peak"),
        ..Stats::default()
    }
}

/// Independent clients per sequence, each replaying it under its own
/// renaming on its own server.
const CLIENTS: usize = 5;

fn sequences(seed: u64) -> Vec<Sequence> {
    let mut out = Vec::new();
    for (client, (form, config, tag)) in (0..CLIENTS).flat_map(|c| {
        [
            (DiameterForm::Tree, SolverConfig::partial_order(), "tree/po"),
            (
                DiameterForm::Prenex,
                SolverConfig::total_order(),
                "prenex/to",
            ),
        ]
        .map(|f| (c, f))
    }) {
        for (model, max_n) in models() {
            let d = eccentricity(&model);
            let seq = diameter_sequence(&model, form, max_n);
            let mut s = Renamer::new(seq.qbf.num_vars(), mix(seed, out.len() as u64 + 1));
            let base = s.qbf(&seq.qbf);
            let text = to_text(&base);
            let load = format!("{{\"cmd\":\"load\",\"text\":\"{}\"}}", json::escape(&text));
            let probes = seq
                .probes
                .iter()
                .map(|probe| {
                    let mut lines = vec!["{\"cmd\":\"push\"}".to_string()];
                    for c in probe.clauses.iter().map(|c| s.clause(c)) {
                        let lits: Vec<String> =
                            c.iter().map(|l| l.to_dimacs().to_string()).collect();
                        lines.push(format!("{{\"cmd\":\"add\",\"lits\":[{}]}}", lits.join(",")));
                    }
                    lines.push("{\"cmd\":\"solve\"}".to_string());
                    lines.push("{\"cmd\":\"solve\"}".to_string());
                    lines.push("{\"cmd\":\"pop\"}".to_string());
                    (probe.n, probe.n < d, lines)
                })
                .collect();
            out.push(Sequence {
                label: format!("{} {tag} client {client}", model.name()),
                config: config.clone().with_node_limit(SEARCH_BUDGET),
                text,
                load,
                probes,
            });
        }
    }
    out
}

/// Servers plus the traffic they replay.
pub struct Session {
    seqs: Vec<Sequence>,
    /// `(sequence, probe)` per op.
    ops: Vec<(usize, usize)>,
    servers: Vec<Server>,
    /// Input line counter per server (1-based, as `qbfserve` numbers them).
    lines: Vec<usize>,
    /// Whether any probe ran since the last `load`.
    used: bool,
}

/// Sets the workload up from `seed`, including every server's `load`.
pub fn prepare(seed: u64) -> Session {
    let seqs = sequences(seed);
    let ops = seqs
        .iter()
        .enumerate()
        .flat_map(|(s, seq)| (0..seq.probes.len()).map(move |p| (s, p)))
        .collect();
    let mut session = Session {
        seqs,
        ops,
        servers: Vec::new(),
        lines: Vec::new(),
        used: false,
    };
    session.load(None);
    session
}

impl Session {
    /// Starts a fresh server per sequence and sends its `load`.
    fn load(&mut self, mut layers: Option<&mut Layers>) {
        self.used = false;
        self.servers.clear();
        self.lines.clear();
        for seq in &self.seqs {
            let mut server = Server::new(seq.config.clone());
            let t = Instant::now();
            let reply = server.handle_line(1, &seq.load).unwrap_or_default();
            let load_s = t.elapsed().as_secs_f64();
            if !reply.starts_with("{\"ok\":true") {
                fatal(&format!("{}: load refused: {reply}", seq.label));
            }
            if let Some(l) = layers.as_deref_mut() {
                l.load_s += load_s;
                l.requests += 1;
                l.request_bytes += seq.load.len() as u64;
                // The parse inside `load`, timed on its own.
                let t = Instant::now();
                let parsed = crate::inputs::parse(&seq.text);
                l.parse_s += t.elapsed().as_secs_f64();
                l.parse_bytes += seq.text.len() as u64;
                if parsed.is_err() {
                    fatal(&format!("{}: load text does not parse", seq.label));
                }
            }
            self.servers.push(server);
            self.lines.push(1);
        }
    }

    /// Sends one probe's lines, optionally timing each by command kind.
    fn probe(&mut self, i: usize, mut layers: Option<&mut Layers>) -> OpResult {
        self.used = true;
        let (s, p) = self.ops[i];
        let (n, _, lines) = &self.seqs[s].probes[p];
        let server = &mut self.servers[s];
        let mut replies = Vec::with_capacity(lines.len());
        for line in lines {
            self.lines[s] += 1;
            let t = Instant::now();
            let reply = server.handle_line(self.lines[s], line).unwrap_or_default();
            if let Some(l) = layers.as_deref_mut() {
                let dt = t.elapsed().as_secs_f64();
                if line.contains("\"solve\"") {
                    l.serve_solve_s += dt;
                } else {
                    l.edit_s += dt;
                }
                l.requests += 1;
                l.request_bytes += line.len() as u64;
            }
            replies.push(reply);
        }
        let mut h = Fnv::default();
        let mut failed = false;
        let mut steps = 0;
        let mut values = Vec::new();
        for reply in &replies {
            h.bytes(reply.as_bytes());
            let Ok(reply) = json::parse(reply) else {
                failed = true;
                continue;
            };
            failed |= reply.get("ok").and_then(Json::as_bool) != Some(true);
            if reply.get("cmd").and_then(Json::as_str) == Some("solve") {
                let stats = reply_stats(reply.get("stats").unwrap_or(&Json::Null));
                steps += stats.assignments();
                if let Some(l) = layers.as_deref_mut() {
                    l.add_stats(&stats);
                }
                // 1 true, 0 false, -1 undecided.
                values.push(reply.get("value").and_then(Json::as_f64));
            }
        }
        let value = match values.as_slice() {
            [Some(a), Some(b)] if a == b && *a >= 0.0 => Some(*a == 1.0),
            [Some(a), Some(b)] if a != b && *a >= 0.0 && *b >= 0.0 => fatal(&format!(
                "{} n={n}: the repeat solve answers {b} after {a}",
                self.seqs[s].label
            )),
            _ => None,
        };
        OpResult {
            value,
            steps,
            failed: failed || value.is_none(),
            digest: h.0,
        }
    }
}

impl Workload for Session {
    fn ops(&self) -> usize {
        self.ops.len()
    }

    fn input_digest(&self) -> u64 {
        let mut h = Fnv::default();
        for seq in &self.seqs {
            h.bytes(seq.load.as_bytes());
            for (_, _, lines) in &seq.probes {
                for line in lines {
                    h.bytes(line.as_bytes());
                }
            }
        }
        h.0
    }

    fn begin_round(&mut self, layers: Option<&mut Layers>) {
        if self.used {
            self.load(layers);
        }
    }

    fn run(&mut self, i: usize) -> OpResult {
        self.probe(i, None)
    }

    fn run_traced(&mut self, i: usize, layers: &mut Layers) -> OpResult {
        self.probe(i, Some(layers))
    }

    fn verify(&self, results: &[OpResult]) -> Result<(), String> {
        for (i, r) in results.iter().enumerate() {
            let (s, p) = self.ops[i];
            let (n, truth, _) = &self.seqs[s].probes[p];
            if let Some(v) = r.value {
                if v != *truth {
                    return Err(format!(
                        "{} n={n}: verdict {v}, but explicit-state BFS says {truth}",
                        self.seqs[s].label
                    ));
                }
            }
        }
        Ok(())
    }
}
