//! `expand`: `qbfsolve --engine expand` with the tree dependency scheme,
//! parse → `ExpandSolver`, on formulas the expansion engine decides: small
//! diameter probes, thin high-alternation prenex formulas, PROB, FIXED and
//! FPV. It never calls the search engine inside the timed loop.

use std::time::Instant;

use qbf_core::metrics::{EngineMetrics, WallClock};
use qbf_core::solver::SolverConfig;
use qbf_expand::{ExpandConfig, ExpandSolver, ExpandStats};
use qbf_gen::{fixed, fpv, rand_qbf, FixedParams, FpvParams, RandParams};
use qbf_models::{counter, dme, gray, ring, semaphore, SymbolicModel};

use crate::inputs::{eccentricity, parse, Population};
use crate::layers::Layers;
use crate::workload::{
    certified_verdict, expand_digest, expect, OpResult, Workload, EXPAND_BUDGET, PARSE_FAILED,
};

/// Diameter probes `(model, n)` whose expansion cost moves little under
/// renaming; each is renamed independently [`DIA_RENAMINGS`] times.
fn dia_probes() -> Vec<(SymbolicModel, Vec<u32>)> {
    vec![
        (counter(2), vec![2]),
        (counter(3), vec![2, 3]),
        (counter(4), vec![2, 3]),
        (counter(5), vec![2]),
        (gray(3), vec![1, 2, 3, 4]),
        (gray(4), vec![1]),
        (gray(5), vec![1]),
        (ring(3), vec![1, 2]),
        (ring(4), vec![1]),
        (ring(6), vec![1]),
        (semaphore(2), vec![1, 2]),
        (semaphore(3), vec![1]),
        (semaphore(4), vec![1]),
        (dme(2), vec![1]),
        (dme(3), vec![2]),
    ]
}

/// Independent renamings of each diameter probe per round. The random
/// families' expansion cost swings several-fold under renaming; the
/// probes carry most of a round's cost so that its sum holds still from
/// seed to seed.
const DIA_RENAMINGS: usize = 6;

/// The workload's instances; `formulas` keeps the generated formulas
/// for the references.
fn population(seed: u64, formulas: bool) -> Population {
    let mut pop = Population::new(seed, formulas);
    for (model, ns) in dia_probes() {
        let d = eccentricity(&model);
        for n in ns {
            for _ in 0..DIA_RENAMINGS {
                pop.push_dia(&model, d, n);
            }
        }
    }
    let p = RandParams {
        block_sizes: vec![2; 12],
        clauses: 36,
        lpc: 5,
        locality_groups: 1,
        cross_percent: 0,
    };
    for g in 0..20 {
        pop.push_prenex(format!("{p}#{g}"), &rand_qbf(&p, g));
    }
    let p = RandParams::three_block(10, 8, 10, 90, 5).with_locality(3, 10);
    for g in 0..20 {
        pop.push_flat(format!("{p}#{g}"), &rand_qbf(&p, g));
    }
    let p = FixedParams {
        groups: 3,
        depth: 3,
        block_vars: 4,
        clauses_per_group: 50,
        lpc: 5,
    };
    for g in 0..20 {
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
    for g in 0..5 {
        pop.push_tree(format!("{p}#{g}"), &fpv(&p, g));
    }
    pop
}

/// Op `k` solves instance `k`'s non-prenex form.
pub struct Expand {
    seed: u64,
    pop: Population,
}

/// Sets the workload up from `seed`.
pub fn prepare(seed: u64) -> Expand {
    Expand {
        seed,
        pop: population(seed, false),
    }
}

fn config() -> ExpandConfig {
    ExpandConfig::tree().with_step_limit(EXPAND_BUDGET)
}

fn result(value: Option<bool>, stats: &ExpandStats) -> OpResult {
    OpResult {
        value,
        steps: stats.sat_decisions + stats.sat_propagations,
        failed: value.is_none(),
        digest: expand_digest(stats),
    }
}

impl Workload for Expand {
    fn ops(&self) -> usize {
        self.pop.instances.len()
    }

    fn input_digest(&self) -> u64 {
        self.pop.digest()
    }

    fn run(&mut self, i: usize) -> OpResult {
        let Ok(q) = parse(&self.pop.instances[i].po_text) else {
            return PARSE_FAILED;
        };
        let out = ExpandSolver::new(&q, config()).solve();
        result(out.value, &out.stats)
    }

    fn run_traced(&mut self, i: usize, layers: &mut Layers) -> OpResult {
        let text = &self.pop.instances[i].po_text;
        let t = Instant::now();
        let parsed = parse(text);
        layers.parse_s += t.elapsed().as_secs_f64();
        layers.parse_bytes += text.len() as u64;
        let Ok(q) = parsed else { return PARSE_FAILED };
        let mut metrics = EngineMetrics::new(WallClock::new());
        let t = Instant::now();
        let out = ExpandSolver::with_metrics(&q, config(), &mut metrics).solve();
        layers.expand_solve_s += t.elapsed().as_secs_f64();
        layers.add_phases(&metrics);
        layers.add_expand(&out.stats);
        result(out.value, &out.stats)
    }

    /// Each verdict must match the explicit-state truth (diameter probes)
    /// or a search certificate that `check_proof` accepts.
    fn verify(&self, results: &[OpResult]) -> Result<(), String> {
        let pop = population(self.seed, true);
        for ((inst, (po, to)), r) in pop.instances.iter().zip(&pop.formulas).zip(results) {
            let (want, source) = match inst.truth {
                Some(t) => (t, "explicit-state BFS"),
                None => certified_verdict(to, SolverConfig::total_order())
                    .or_else(|| certified_verdict(po, SolverConfig::partial_order()))
                    .map(|v| (v, "an accepted certificate"))
                    .ok_or_else(|| format!("{}: no accepted certificate in budget", inst.label))?,
            };
            expect(&inst.label, "expand", r, want, source)?;
        }
        Ok(())
    }

    fn setup_layers(&self, layers: &mut Layers) {
        layers.miniscope_s = self.pop.prenex_time.miniscope_s;
        layers.prenex_s = self.pop.prenex_time.prenex_s;
    }
}
