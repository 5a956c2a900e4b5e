//! Instance generation: the five families of the paper's §VII, made by
//! the workspace's own generators (`qbf_gen`, `qbf_models`) and prenexed
//! or miniscoped by `qbf_prenex`, then serialised to the QDIMACS/qtree
//! bytes the program under test reads.
//!
//! Each workload draws from a fixed population of generator parameters and
//! generator seeds. The run's `--seed` renames the variables of every
//! instance ([`Renamer`]): an isomorphic formula with the same truth
//! value, but different bytes and a different search, since the
//! heuristics break ties by variable id. Fresh generator seeds per run
//! would swing the summed cost of a round far more: the families'
//! difficulty is heavy-tailed, and one hard draw moves the whole round.

use std::time::Instant;

use qbf_core::io::{qdimacs, qtree};
use qbf_core::{BlockId, Clause, Matrix, Prefix, PrefixBuilder, Qbf, Var};
use qbf_gen::rng::Rng;
use qbf_models::{diameter_qbf, explore, DiameterForm, SymbolicModel};
use qbf_prenex::{miniscope, prenex, Strategy};

use crate::workload::Fnv;

/// Time spent in `qbf_prenex` while generating, summed over one setup.
#[derive(Debug, Default, Clone, Copy)]
pub struct PrenexTime {
    /// `miniscope` calls.
    pub miniscope_s: f64,
    /// `prenex` calls.
    pub prenex_s: f64,
}

/// One generated instance as the program reads it: the non-prenex
/// formula QUBE(PO) solves and its prenex counterpart for QUBE(TO).
#[derive(Debug, Clone)]
pub struct Instance {
    /// Family, parameters and generator seed.
    pub label: String,
    /// The formula QUBE(PO) solves (non-prenex where the family has
    /// structure), serialised.
    pub po_text: String,
    /// The ∃↑∀↑ prenex formula QUBE(TO) solves, serialised.
    pub to_text: String,
    /// The truth value from `qbf_models::explore`'s explicit-state BFS
    /// (`n < d`), for diameter probes only.
    pub truth: Option<bool>,
}

/// Serialises a formula the way a user would hand it to `qbfsolve`:
/// qtree for a quantifier forest, QDIMACS for a prenex prefix.
pub fn to_text(q: &Qbf) -> String {
    if q.is_prenex() {
        qdimacs::write(q)
    } else {
        qtree::write(q)
    }
}

/// Parses either input format, dispatching on the `p` line as `qbfsolve`,
/// `qbfcheck` and `qbfserve` do.
pub fn parse(text: &str) -> Result<Qbf, String> {
    let keyword = text
        .lines()
        .map(str::trim)
        .find(|l| l.starts_with("p "))
        .unwrap_or("");
    if keyword.starts_with("p qtree") {
        qtree::parse(text).map_err(|e| e.to_string())
    } else {
        qdimacs::parse(text).map_err(|e| e.to_string())
    }
}

/// A seed-driven renaming: a random permutation of the variable ids, with
/// each block's variables listed in random order. Clause and literal order
/// are kept and no polarity is flipped: those swing the engines' cost far
/// more (a polarity flip alone moves the expansion engine's cost on a
/// diameter probe by up to 50×), which would make a round's cost a lottery.
/// Truth values are preserved exactly.
#[derive(Debug)]
pub struct Renamer {
    perm: Vec<usize>,
    rng: Rng,
}

fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        items.swap(i, j);
    }
}

/// Mixes a run seed with a per-instance salt (SplitMix64 finaliser).
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Renamer {
    /// A renaming of `num_vars` variables drawn from `seed`.
    pub fn new(num_vars: usize, seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        let mut perm: Vec<usize> = (0..num_vars).collect();
        shuffle(&mut perm, &mut rng);
        Renamer { perm, rng }
    }

    /// The image of one clause.
    pub fn clause(&self, c: &Clause) -> Clause {
        let lits = c
            .iter()
            .map(|l| Var::new(self.perm[l.var().index()]).lit(l.is_positive()));
        Clause::new(lits).expect("a permutation keeps variables distinct")
    }

    /// The image of a prefix: the same forest over renamed variables.
    pub fn prefix(&mut self, p: &Prefix) -> Prefix {
        let mut b = PrefixBuilder::new(p.num_vars());
        for &r in p.roots() {
            self.copy_block(p, &mut b, r, None);
        }
        b.finish().expect("a renamed forest stays a forest")
    }

    fn copy_block(
        &mut self,
        p: &Prefix,
        b: &mut PrefixBuilder,
        src: BlockId,
        parent: Option<BlockId>,
    ) {
        let mut vars: Vec<Var> = p
            .block_vars(src)
            .iter()
            .map(|v| Var::new(self.perm[v.index()]))
            .collect();
        shuffle(&mut vars, &mut self.rng);
        let q = p.block_quant(src);
        let id = match parent {
            None => b.add_root(q, vars),
            Some(parent) => b.add_child(parent, q, vars),
        }
        .expect("renamed variables are fresh");
        for &c in p.block_children(src) {
            self.copy_block(p, b, c, Some(id));
        }
    }

    /// The image of a whole formula.
    pub fn qbf(&mut self, q: &Qbf) -> Qbf {
        let prefix = self.prefix(q.prefix());
        let clauses = q.matrix().iter().map(|c| self.clause(c));
        Qbf::new(prefix, Matrix::from_clauses(q.num_vars(), clauses))
            .expect("renaming keeps every variable bound")
    }
}

/// Builder for one workload's instance list. Every `push_*` call but
/// `push_as_generated` renames its instance with its own sub-seed of the
/// run seed.
#[derive(Debug)]
pub struct Population {
    seed: u64,
    /// Instances in generation order.
    pub instances: Vec<Instance>,
    /// Each instance's `(po, to)` formulas as generated, before
    /// serialising; the references are computed from these. Kept only when
    /// asked for, so that the timed workload carries just the bytes.
    pub formulas: Vec<(Qbf, Qbf)>,
    keep_formulas: bool,
    /// `qbf_prenex` time spent so far.
    pub prenex_time: PrenexTime,
}

impl Population {
    /// An empty population for run seed `seed`, keeping the generated
    /// formulas if `keep_formulas`.
    pub fn new(seed: u64, keep_formulas: bool) -> Self {
        Population {
            seed,
            instances: Vec::new(),
            formulas: Vec::new(),
            keep_formulas,
            prenex_time: PrenexTime::default(),
        }
    }

    fn renamer(&self, num_vars: usize) -> Renamer {
        Renamer::new(num_vars, mix(self.seed, self.instances.len() as u64 + 1))
    }

    fn finish(&mut self, label: String, po: Qbf, to: Qbf, truth: Option<bool>) {
        let po_text = to_text(&po);
        let to_text = to_text(&to);
        self.instances.push(Instance {
            label,
            po_text,
            to_text,
            truth,
        });
        if self.keep_formulas {
            self.formulas.push((po, to));
        }
    }

    /// The input of op `i` when every instance is solved twice: even ops
    /// read the PO side, odd ops the TO side.
    pub fn pair_text(&self, i: usize) -> &str {
        let inst = &self.instances[i / 2];
        if i.is_multiple_of(2) {
            &inst.po_text
        } else {
            &inst.to_text
        }
    }

    /// Digest of every serialised input.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for inst in &self.instances {
            h.bytes(inst.po_text.as_bytes())
                .bytes(inst.to_text.as_bytes());
        }
        h.0
    }

    /// `q` prenexed ∃↑∀↑, timed.
    pub fn prenex(&mut self, q: &Qbf) -> Qbf {
        let t = Instant::now();
        let out = prenex(q, Strategy::ExistsUpForallUp);
        self.prenex_time.prenex_s += t.elapsed().as_secs_f64();
        out
    }

    /// `q` miniscoped, timed.
    pub fn miniscope(&mut self, q: &Qbf) -> Qbf {
        let t = Instant::now();
        let out = miniscope(q)
            .expect("generated prenex formulas miniscope")
            .qbf;
        self.prenex_time.miniscope_s += t.elapsed().as_secs_f64();
        out
    }

    /// A pair kept exactly as generated, whatever the seed.
    pub fn push_as_generated(&mut self, label: String, po: Qbf, to: Qbf) {
        self.finish(label, po, to, None);
    }

    /// A non-prenex family member (NCF, FPV): PO solves it as generated,
    /// TO solves its ∃↑∀↑ prenexing.
    pub fn push_tree(&mut self, label: String, q: &Qbf) {
        let po = self.renamer(q.num_vars()).qbf(q);
        let to = self.prenex(&po);
        self.finish(label, po, to, None);
    }

    /// A prenex family member (PROB, FIXED): TO solves it as generated,
    /// PO solves its miniscoped form.
    pub fn push_flat(&mut self, label: String, q: &Qbf) {
        let to = self.renamer(q.num_vars()).qbf(q);
        let po = self.miniscope(&to);
        self.finish(label, po, to, None);
    }

    /// A prenex formula solved as is by both orders (the thin
    /// high-alternation family, where there is no structure to recover).
    pub fn push_prenex(&mut self, label: String, q: &Qbf) {
        let q = self.renamer(q.num_vars()).qbf(q);
        self.finish(label, q.clone(), q, None);
    }

    /// Diameter probe φn of `model` (§VII-C): the tree form of Eq. (14)
    /// for PO, the prenex form of Eq. (16) for TO, and the explicit-state
    /// truth `n < d`.
    pub fn push_dia(&mut self, model: &SymbolicModel, d: u32, n: u32) {
        let tree = diameter_qbf(model, n, DiameterForm::Tree).qbf;
        let flat = diameter_qbf(model, n, DiameterForm::Prenex).qbf;
        let mut s = self.renamer(tree.num_vars());
        let po = s.qbf(&tree);
        let to = s.qbf(&flat);
        self.finish(format!("dia {} n={n}", model.name()), po, to, Some(n < d));
    }
}

/// The reachable eccentricity `d` of `model` by explicit-state BFS
/// (`qbf_models::explore`), which shares no code with either engine.
pub fn eccentricity(model: &SymbolicModel) -> u32 {
    explore(model)
        .expect("benchmark models have initial states")
        .eccentricity
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbf_core::semantics;

    #[test]
    fn renaming_preserves_truth_and_changes_bytes() {
        let q = qbf_core::samples::paper_example();
        for seed in 0..8 {
            let s = Renamer::new(q.num_vars(), seed).qbf(&q);
            assert_eq!(semantics::eval(&s), semantics::eval(&q));
            assert_eq!(s.matrix().len(), q.matrix().len());
            assert_eq!(s.prefix().num_blocks(), q.prefix().num_blocks());
        }
        let a = to_text(&Renamer::new(q.num_vars(), 1).qbf(&q));
        let b = to_text(&Renamer::new(q.num_vars(), 2).qbf(&q));
        assert_ne!(a, b);
        assert_eq!(a, to_text(&Renamer::new(q.num_vars(), 1).qbf(&q)));
    }
}
