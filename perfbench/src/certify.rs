//! `certify`: `qbfsolve --proof` followed by `qbfcheck`. One op is a
//! proof-mode solve (learning forced on, pure literals off) plus
//! `qbf_proof::check_proof` on the certificate it wrote.
//!
//! Two instances that do not depend on the seed are kept although their
//! certificates are rejected (`E32`, a merged pair whose pivot does not
//! precede it): each round counts them as failed ops, so a fix shows as
//! failed ops turning into passes.

use std::time::Instant;

use qbf_core::metrics::{EngineMetrics, WallClock};
use qbf_core::observe::NoopObserver;
use qbf_core::proof::ProofLog;
use qbf_core::solver::{Solver, Stats};
use qbf_core::Qbf;
use qbf_gen::{fixed, fpv, ncf, rand_qbf, FixedParams, FpvParams, NcfParams, RandParams};
use qbf_models::{counter, dme};

use crate::fatal;
use crate::inputs::{eccentricity, parse, Population};
use crate::layers::Layers;
use crate::oneshot::verify_pairs;
use crate::workload::{pair_config, stats_digest, Fnv, OpResult, Workload, PARSE_FAILED};

/// The workload's instances; `formulas` keeps the generated formulas
/// for the references.
fn population(seed: u64, formulas: bool) -> Population {
    let mut pop = Population::new(seed, formulas);
    for (model, max_n) in [(counter(2), 3), (counter(3), 2), (dme(2), 3)] {
        let d = eccentricity(&model);
        for n in 1..=max_n {
            pop.push_dia(&model, d, n);
        }
    }
    for p in [
        RandParams::three_block(10, 8, 10, 90, 5).with_locality(3, 10),
        RandParams::three_block(12, 9, 12, 110, 5).with_locality(3, 10),
    ] {
        for g in 0..50 {
            pop.push_flat(format!("{p}#{g}"), &rand_qbf(&p, g));
        }
    }
    let p = FixedParams {
        groups: 3,
        depth: 3,
        block_vars: 4,
        clauses_per_group: 50,
        lpc: 5,
    };
    for g in 0..50 {
        pop.push_flat(format!("{p}#{g}"), &fixed(&p, g).prenex);
    }
    let p = FpvParams {
        config_vars: 4,
        branches: 2,
        branch_depth: 1,
        block_vars: 6,
        clauses_per_branch: 48,
        lpc: 5,
    };
    for g in 0..20 {
        pop.push_tree(format!("{p}#{g}"), &fpv(&p, g));
    }
    for dep in [4, 5] {
        let p = NcfParams {
            dep,
            var: 4,
            cls_ratio: 2,
            lpc: 5,
        };
        for g in 0..15 {
            pop.push_tree(format!("{p}#{g}"), &ncf(&p, g));
        }
    }
    push_rejected(&mut pop);
    pop
}

/// Adds the two instances with rejected certificates, not renamed. They
/// are the population's last two: [`Certify::verify`] relies on it.
fn push_rejected(pop: &mut Population) {
    // Miniscoped PROB: the QUBE(PO) certificate is rejected with E32 at
    // line 19; the TO certificate on the flat formula is accepted.
    let p = RandParams::three_block(20, 12, 20, 260, 5).with_locality(4, 8);
    let flat = rand_qbf(&p, 3);
    let mini = pop.miniscope(&flat);
    pop.push_as_generated(format!("{p}#3 (E32 under PO)"), mini, flat);
    // FPV: the QUBE(TO) certificate on the ∃↑∀↑ prenexing is rejected with
    // E32 at line 99; the PO certificate on the tree form is accepted.
    let p = FpvParams {
        config_vars: 4,
        branches: 2,
        branch_depth: 2,
        block_vars: 8,
        clauses_per_branch: 128,
        lpc: 5,
    };
    let tree = fpv(&p, 0);
    let flat = pop.prenex(&tree);
    pop.push_as_generated(format!("{p}#0 (E32 under TO)"), tree, flat);
}

/// The input whose certificate is rejected: `e32-prob` (qtree, to be
/// solved with `--po`) or `e32-fpv` (QDIMACS, with `--to`).
pub fn rejected_input(name: &str) -> Option<String> {
    let mut pop = Population::new(0, false);
    push_rejected(&mut pop);
    match name {
        "e32-prob" => Some(pop.instances[0].po_text.clone()),
        "e32-fpv" => Some(pop.instances[1].to_text.clone()),
        _ => None,
    }
}

/// Op `2k` certifies instance `k` under PO, op `2k+1` under TO.
pub struct Certify {
    seed: u64,
    pop: Population,
}

/// Sets the workload up from `seed`.
pub fn prepare(seed: u64) -> Certify {
    Certify {
        seed,
        pop: population(seed, false),
    }
}

/// The op's outcome from the solve's verdict and the checker's answer.
fn result(value: Option<bool>, stats: &Stats, log: &ProofLog, checked: Option<bool>) -> OpResult {
    let mut h = Fnv::default();
    h.num(stats_digest(stats)).bytes(log.as_text().as_bytes());
    OpResult {
        value,
        steps: stats.assignments(),
        failed: value.is_none() || checked != value,
        digest: h.0,
    }
}

fn check(q: &Qbf, log: &ProofLog) -> Option<bool> {
    if !log.is_concluded() {
        return None;
    }
    qbf_proof::check_proof(q, log.as_text()).ok()
}

impl Workload for Certify {
    fn ops(&self) -> usize {
        2 * self.pop.instances.len()
    }

    fn input_digest(&self) -> u64 {
        self.pop.digest()
    }

    fn run(&mut self, i: usize) -> OpResult {
        let Ok(q) = parse(self.pop.pair_text(i)) else {
            return PARSE_FAILED;
        };
        let mut log = ProofLog::new();
        let out = Solver::with_proof(&q, pair_config(i), &mut log).solve();
        let checked = check(&q, &log);
        result(out.value(), &out.stats, &log, checked)
    }

    fn run_traced(&mut self, i: usize, layers: &mut Layers) -> OpResult {
        let text = self.pop.pair_text(i);
        let t = Instant::now();
        let parsed = parse(text);
        layers.parse_s += t.elapsed().as_secs_f64();
        layers.parse_bytes += text.len() as u64;
        let Ok(q) = parsed else { return PARSE_FAILED };

        let mut log = ProofLog::new();
        let mut metrics = EngineMetrics::new(WallClock::new());
        let t = Instant::now();
        let out =
            Solver::with_instruments(&q, pair_config(i), NoopObserver, &mut log, &mut metrics)
                .solve();
        let solve_s = t.elapsed().as_secs_f64();
        layers.solve_s += solve_s;
        layers.proof_solve_s += solve_s;
        layers.add_phases(&metrics);
        layers.add_stats(&out.stats);

        let t = Instant::now();
        let checked = check(&q, &log);
        layers.check_s += t.elapsed().as_secs_f64();
        layers.proof_bytes += log.as_text().len() as u64;
        let op = result(out.value(), &out.stats, &log, checked);
        layers.rejected += u64::from(op.failed && out.value().is_some());

        // The same search without a proof sink: proof mode's settings
        // (learning on, pure literals off), so the time difference is the
        // cost of emitting the certificate.
        let mut plain_config = pair_config(i);
        plain_config.pure_literals = false;
        plain_config.learning = true;
        let t = Instant::now();
        let plain = Solver::new(&q, plain_config).solve();
        layers.plain_solve_s += t.elapsed().as_secs_f64();
        let strip = |s: &Stats| Stats {
            proof_steps: 0,
            proof_bytes: 0,
            proof_dels: 0,
            ..*s
        };
        if strip(&plain.stats) != strip(&out.stats) || plain.value() != out.value() {
            fatal(&format!(
                "{}: the search differs with and without a proof sink",
                self.pop.instances[i / 2].label
            ));
        }
        op
    }

    /// Besides the reference verdicts: no op fails but the two named
    /// ones, the PO side of the PROB instance and the TO side of the FPV
    /// one. Either may turn into a pass once the fault is mended.
    fn verify(&self, results: &[OpResult]) -> Result<(), String> {
        verify_pairs(&population(self.seed, true), results)?;
        let k = self.pop.instances.len();
        let named = [2 * (k - 2), 2 * (k - 1) + 1];
        match results
            .iter()
            .enumerate()
            .find(|(i, r)| r.failed && !named.contains(i))
        {
            Some((i, r)) => Err(format!(
                "{}: op {i} failed ({r:?}); only the two named certificates may",
                self.pop.instances[i / 2].label
            )),
            None => Ok(()),
        }
    }

    fn setup_layers(&self, layers: &mut Layers) {
        layers.miniscope_s = self.pop.prenex_time.miniscope_s;
        layers.prenex_s = self.pop.prenex_time.prenex_s;
    }
}
