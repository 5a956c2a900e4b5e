//! What every workload provides to the runner, and the reference verdicts
//! its outputs are checked against.

use qbf_core::proof::ProofLog;
use qbf_core::solver::{Solver, SolverConfig, Stats};
use qbf_core::Qbf;
use qbf_expand::{ExpandConfig, ExpandStats};

use crate::layers::Layers;

/// Assignment budget of every search op. No op of a clean run comes near
/// it; a hit counts as a failed op.
pub const SEARCH_BUDGET: u64 = 5_000_000;
/// SAT decision+propagation budget of every expansion op.
pub const EXPAND_BUDGET: u64 = 5_000_000;
/// Budgets of the reference solves made after the timed loop.
const REF_EXPAND_BUDGET: u64 = 2_000_000;
const REF_PROOF_BUDGET: u64 = 2_000_000;

/// What one op returned. Two runs of the same op on the same bytes must
/// return equal records; the runner checks this round by round and between
/// the untraced and the traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpResult {
    /// The verdict, `None` when the op failed to reach one.
    pub value: Option<bool>,
    /// Deterministic engine cost: search assignments, or expansion SAT
    /// decisions + propagations.
    pub steps: u64,
    /// Budget hit, `"ok":false` reply or rejected certificate.
    pub failed: bool,
    /// FNV-1a digest of every deterministic counter (and certificate or
    /// transcript bytes) the op produced.
    pub digest: u64,
}

/// One benchmark workload, set up from a seed.
pub trait Workload {
    /// Ops per round.
    fn ops(&self) -> usize;
    /// Digest of every input byte the program will see (setups repeated
    /// within a run must agree on it).
    fn input_digest(&self) -> u64;
    /// Untimed work before a round (the session reloads its servers if a
    /// round has used them).
    fn begin_round(&mut self, _layers: Option<&mut Layers>) {}
    /// Runs op `i` as the program's user would.
    fn run(&mut self, i: usize) -> OpResult;
    /// Runs op `i` with the engine's metrics sink attached, timing each
    /// layer from outside and folding counts into `layers`.
    fn run_traced(&mut self, i: usize, layers: &mut Layers) -> OpResult;
    /// Checks one round's results against references computed apart from
    /// the code under test, from formulas generated afresh (the timed
    /// workload keeps only their bytes). `Err` names the first mismatch.
    fn verify(&self, results: &[OpResult]) -> Result<(), String>;
    /// Setup-time layer figures (prenexing time).
    fn setup_layers(&self, _layers: &mut Layers) {}
}

/// The result of an op whose input does not parse.
pub const PARSE_FAILED: OpResult = OpResult {
    value: None,
    steps: 0,
    failed: true,
    digest: 0,
};

/// The engine configuration of op `i` in a workload that solves every
/// instance twice: even ops QUBE(PO), odd ops QUBE(TO).
pub fn pair_config(i: usize) -> SolverConfig {
    let c = if i.is_multiple_of(2) {
        SolverConfig::partial_order()
    } else {
        SolverConfig::total_order()
    };
    c.with_node_limit(SEARCH_BUDGET)
}

/// 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds bytes in.
    pub fn bytes(&mut self, data: &[u8]) -> &mut Self {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Folds a number in.
    pub fn num(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }
}

/// Digest of a search run's counters.
pub fn stats_digest(s: &Stats) -> u64 {
    let mut h = Fnv::default();
    for (_, v) in s.fields() {
        h.num(v);
    }
    h.0
}

/// Digest of an expansion run's counters.
pub fn expand_digest(s: &ExpandStats) -> u64 {
    let mut h = Fnv::default();
    for (_, v) in s.fields() {
        h.num(v);
    }
    h.0
}

/// The expansion engine's verdict on `q` (tree scheme), if it decides
/// within the reference budget. It shares no search code with
/// `qbf_core::solver`.
pub fn expansion_verdict(q: &Qbf) -> Option<bool> {
    qbf_expand::solve(q, ExpandConfig::tree().with_step_limit(REF_EXPAND_BUDGET)).value
}

/// The verdict of a proof-mode search on `q` whose certificate
/// `qbf_proof::check_proof` accepts, if one is found within budget.
pub fn certified_verdict(q: &Qbf, config: SolverConfig) -> Option<bool> {
    let mut log = ProofLog::new();
    let out = Solver::with_proof(q, config.with_node_limit(REF_PROOF_BUDGET), &mut log).solve();
    let value = out.value()?;
    match qbf_proof::check_proof(q, log.as_text()) {
        Ok(certified) if certified == value => Some(value),
        _ => None,
    }
}

/// Compares an op's verdict with a reference. A failed op that still
/// reached a verdict (a rejected certificate) is compared too.
pub fn expect(
    label: &str,
    side: &str,
    got: &OpResult,
    want: bool,
    source: &str,
) -> Result<(), String> {
    match got.value {
        Some(v) if v != want => Err(format!(
            "{label} ({side}): verdict {v}, but {source} says {want}"
        )),
        _ => Ok(()),
    }
}
