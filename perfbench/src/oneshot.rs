//! `oneshot`: the default `qbfsolve` pipeline, parse → solve, on all five
//! families. Every instance is solved twice: the non-prenex formula under
//! QUBE(PO) and its ∃↑∀↑ prenexing under QUBE(TO) — the paper's
//! experiment.

use std::time::Instant;

use qbf_core::metrics::{EngineMetrics, WallClock};
use qbf_core::solver::{Solver, SolverConfig, Stats};
use qbf_gen::{fixed, fpv, ncf, rand_qbf, FixedParams, FpvParams, NcfParams, RandParams};
use qbf_models::{counter, dme, gray, ring, semaphore, SymbolicModel};

use qbf_core::Qbf;

use crate::inputs::{eccentricity, parse, Instance, Population};
use crate::layers::Layers;
use crate::workload::{
    certified_verdict, expansion_verdict, expect, pair_config, stats_digest, OpResult, Workload,
    PARSE_FAILED,
};

/// Diameter probes φ1..φmax per model.
fn dia_models() -> Vec<(SymbolicModel, u32)> {
    vec![
        (counter(2), 4),
        (counter(3), 5),
        (gray(3), 4),
        (ring(3), 2),
        (ring(4), 2),
        (semaphore(2), 2),
        (semaphore(3), 1),
        (dme(2), 3),
        (dme(3), 2),
    ]
}

/// The PROB settings (§VII-D random part).
fn prob_params() -> [RandParams; 2] {
    [
        RandParams::three_block(12, 9, 12, 110, 5).with_locality(3, 10),
        RandParams::three_block(16, 10, 16, 170, 5).with_locality(4, 10),
    ]
}

/// The FIXED settings (§VII-D structured part).
fn fixed_params() -> [FixedParams; 2] {
    [
        FixedParams {
            groups: 3,
            depth: 5,
            block_vars: 4,
            clauses_per_group: 70,
            lpc: 5,
        },
        FixedParams {
            groups: 3,
            depth: 3,
            block_vars: 4,
            clauses_per_group: 50,
            lpc: 5,
        },
    ]
}

fn fpv_params(branches: u32, depth: u32, blk: u32, cls: u32) -> FpvParams {
    FpvParams {
        config_vars: 4,
        branches,
        branch_depth: depth,
        block_vars: blk,
        clauses_per_branch: cls,
        lpc: 5,
    }
}

/// The workload's instances; `formulas` keeps the generated formulas
/// for the references.
fn population(seed: u64, formulas: bool) -> Population {
    let mut pop = Population::new(seed, formulas);
    for (model, max_n) in dia_models() {
        let d = eccentricity(&model);
        for n in 1..=max_n {
            pop.push_dia(&model, d, n);
        }
    }
    for (dep, var, cls) in [(4, 4, 3), (5, 4, 3), (4, 4, 4), (6, 4, 2)] {
        let p = NcfParams {
            dep,
            var,
            cls_ratio: cls,
            lpc: 5,
        };
        for g in 0..20 {
            pop.push_tree(format!("{p}#{g}"), &ncf(&p, g));
        }
    }
    for p in [
        fpv_params(2, 1, 6, 48),
        fpv_params(2, 1, 6, 60),
        fpv_params(2, 2, 6, 96),
        fpv_params(3, 2, 6, 120),
        fpv_params(4, 2, 6, 120),
        fpv_params(2, 2, 8, 160),
    ] {
        for g in 0..15 {
            pop.push_tree(format!("{p}#{g}"), &fpv(&p, g));
        }
    }
    for p in prob_params() {
        for g in 0..50 {
            pop.push_flat(format!("{p}#{g}"), &rand_qbf(&p, g));
        }
    }
    for p in fixed_params() {
        for g in 0..50 {
            pop.push_flat(format!("{p}#{g}"), &fixed(&p, g).prenex);
        }
    }
    pop
}

/// Op `2k` is instance `k` under PO, op `2k+1` the same under TO.
pub struct Oneshot {
    seed: u64,
    pop: Population,
}

/// Sets the workload up from `seed`.
pub fn prepare(seed: u64) -> Oneshot {
    Oneshot {
        seed,
        pop: population(seed, false),
    }
}

fn result(value: Option<bool>, stats: &Stats) -> OpResult {
    OpResult {
        value,
        steps: stats.assignments(),
        failed: value.is_none(),
        digest: stats_digest(stats),
    }
}

impl Workload for Oneshot {
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
        let out = Solver::new(&q, pair_config(i)).solve();
        result(out.value(), &out.stats)
    }

    fn run_traced(&mut self, i: usize, layers: &mut Layers) -> OpResult {
        let text = self.pop.pair_text(i);
        let t = Instant::now();
        let parsed = parse(text);
        layers.parse_s += t.elapsed().as_secs_f64();
        layers.parse_bytes += text.len() as u64;
        let Ok(q) = parsed else { return PARSE_FAILED };
        let mut metrics = EngineMetrics::new(WallClock::new());
        let t = Instant::now();
        let out = Solver::with_metrics(&q, pair_config(i), &mut metrics).solve();
        layers.solve_s += t.elapsed().as_secs_f64();
        layers.add_phases(&metrics);
        layers.add_stats(&out.stats);
        result(out.value(), &out.stats)
    }

    fn verify(&self, results: &[OpResult]) -> Result<(), String> {
        verify_pairs(&population(self.seed, true), results)
    }

    fn setup_layers(&self, layers: &mut Layers) {
        layers.miniscope_s = self.pop.prenex_time.miniscope_s;
        layers.prenex_s = self.pop.prenex_time.prenex_s;
    }
}

/// Checks a PO/TO pair workload's results: both sides of an instance must
/// agree with each other and with the instance's reference verdict. `pop`
/// is the workload's population generated afresh, formulas included.
pub fn verify_pairs(pop: &Population, results: &[OpResult]) -> Result<(), String> {
    for (k, (inst, formulas)) in pop.instances.iter().zip(&pop.formulas).enumerate() {
        let (po, to) = (&results[2 * k], &results[2 * k + 1]);
        if let (Some(a), Some(b)) = (po.value, to.value) {
            if a != b {
                return Err(format!("{}: PO says {a}, TO says {b}", inst.label));
            }
        }
        let (want, source) = reference(inst, formulas)?;
        expect(&inst.label, "po", po, want, source)?;
        expect(&inst.label, "to", to, want, source)?;
    }
    Ok(())
}

/// The reference verdict of an instance, from the generated (unparsed)
/// formulas: explicit-state truth for a diameter probe, otherwise the
/// expansion engine, otherwise a certificate `check_proof` accepts.
fn reference(inst: &Instance, (po, to): &(Qbf, Qbf)) -> Result<(bool, &'static str), String> {
    if let Some(truth) = inst.truth {
        return Ok((truth, "explicit-state BFS"));
    }
    if let Some(v) = expansion_verdict(po) {
        return Ok((v, "the expansion engine"));
    }
    certified_verdict(po, SolverConfig::partial_order())
        .or_else(|| certified_verdict(to, SolverConfig::total_order()))
        .map(|v| (v, "an accepted certificate"))
        .ok_or_else(|| format!("{}: no reference decides it in budget", inst.label))
}
