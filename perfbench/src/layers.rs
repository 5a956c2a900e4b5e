//! Per-layer tallies gathered by a traced run, and the names and units
//! under which they are printed.
//!
//! Times are measured from outside the program: around each call into a
//! layer, plus the span sums of the engine's own `EngineMetrics<WallClock>`
//! sink for the phases inside a solve. Counts come from the `Stats` and
//! `ExpandStats` the program returns.

use qbf_core::metrics::{EngineMetrics, Phase, WallClock};
use qbf_core::solver::Stats;
use qbf_expand::ExpandStats;

/// Sums over every traced round (divide by `rounds` for per-round figures).
#[derive(Debug, Default)]
pub struct Layers {
    /// Traced rounds folded in.
    pub rounds: u64,
    /// `qbf_core::io` parse time and input bytes.
    pub parse_s: f64,
    pub parse_bytes: u64,
    /// `qbf_prenex` time in one setup (not summed over rounds).
    pub miniscope_s: f64,
    pub prenex_s: f64,
    /// Time inside `Solver::solve` for search solves the harness calls
    /// directly (in `certify`, the proof-mode solves).
    pub solve_s: f64,
    /// Engine span sums in nanoseconds, indexed like `Phase::ALL`.
    pub phase_ns: [u64; Phase::ALL.len()],
    /// Search counters summed over ops (arena peak: the maximum).
    pub stats: Stats,
    /// Proof-mode solve time, the same solve without a proof sink, the
    /// `check_proof` time, and certificate bytes.
    pub proof_solve_s: f64,
    pub plain_solve_s: f64,
    pub check_s: f64,
    pub proof_bytes: u64,
    pub rejected: u64,
    /// `Server::handle_line` time by command kind, request count and bytes.
    pub load_s: f64,
    pub serve_solve_s: f64,
    pub edit_s: f64,
    pub requests: u64,
    pub request_bytes: u64,
    /// Expansion-engine solve time and counters.
    pub expand_solve_s: f64,
    pub expand: ExpandStats,
}

impl Layers {
    /// Folds one solve's engine spans in.
    pub fn add_phases(&mut self, m: &EngineMetrics<WallClock>) {
        for (i, p) in Phase::ALL.iter().enumerate() {
            self.phase_ns[i] += m.phase_hist(*p).sum();
        }
    }

    /// Folds one search solve's counters in.
    pub fn add_stats(&mut self, s: &Stats) {
        let peak = self.stats.arena_bytes_peak.max(s.arena_bytes_peak);
        self.stats.merge(s);
        self.stats.arena_bytes_peak = peak;
    }

    /// Folds one expansion solve's counters in.
    pub fn add_expand(&mut self, s: &ExpandStats) {
        let e = &mut self.expand;
        e.rounds += s.rounds;
        e.sat_calls += s.sat_calls;
        e.exists_copies += s.exists_copies;
        e.forall_copies += s.forall_copies;
        e.sat_decisions += s.sat_decisions;
        e.sat_propagations += s.sat_propagations;
    }

    /// Every per-layer metric as `(name, unit, value)`, per round.
    /// `overhead` is the mean traced round's wall time over the mean
    /// untraced one's, minus one.
    pub fn metrics(&self, overhead: f64) -> Vec<(&'static str, &'static str, f64)> {
        let r = self.rounds.max(1) as f64;
        let ms = |s: f64| s * 1e3 / r;
        let per = |n: u64| n as f64 / r;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let phase = |p: Phase| {
            let i = Phase::ALL
                .iter()
                .position(|&q| q == p)
                .expect("listed phase");
            self.phase_ns[i] as f64 / 1e6 / r
        };
        let s = &self.stats;
        let sat_steps = self.expand.sat_decisions + self.expand.sat_propagations;
        vec![
            ("io.parse_ms", "ms", ms(self.parse_s)),
            (
                "io.parse_mb_per_s",
                "MB/s",
                ratio(self.parse_bytes as f64 / 1e6, self.parse_s),
            ),
            ("prenex.miniscope_ms", "ms", self.miniscope_s * 1e3),
            ("prenex.prenex_ms", "ms", self.prenex_s * 1e3),
            ("solver.solve_ms", "ms", ms(self.solve_s)),
            ("solver.propagate_ms", "ms", phase(Phase::Propagate)),
            (
                "solver.conflict_analysis_ms",
                "ms",
                phase(Phase::ConflictAnalysis),
            ),
            (
                "solver.solution_analysis_ms",
                "ms",
                phase(Phase::SolutionAnalysis),
            ),
            ("solver.reduce_db_ms", "ms", phase(Phase::ReduceDb)),
            ("solver.compaction_ms", "ms", phase(Phase::Compaction)),
            ("solver.assignments", "count", per(s.assignments())),
            (
                "solver.assignments_per_s",
                "1/s",
                ratio(s.assignments() as f64, self.solve_s),
            ),
            ("solver.pures", "count", per(s.pures)),
            ("solver.watcher_visits", "count", per(s.watcher_visits)),
            (
                "solver.visits_per_assignment",
                "ratio",
                ratio(s.watcher_visits as f64, s.assignments() as f64),
            ),
            (
                "solver.blocker_hit_ratio",
                "ratio",
                ratio(s.blocker_hits as f64, s.watcher_visits as f64),
            ),
            ("solver.conflicts", "count", per(s.conflicts)),
            ("solver.solutions", "count", per(s.solutions)),
            ("solver.learned_clauses", "count", per(s.learned_clauses)),
            ("solver.learned_cubes", "count", per(s.learned_cubes)),
            ("solver.backjumps", "count", per(s.backjumps)),
            ("solver.forgotten", "count", per(s.forgotten)),
            (
                "solver.arena_peak_mb",
                "MB",
                s.arena_bytes_peak as f64 / 1e6,
            ),
            ("proof.solve_ms", "ms", ms(self.proof_solve_s)),
            (
                "proof.emit_overhead_ms",
                "ms",
                ms(self.proof_solve_s - self.plain_solve_s),
            ),
            ("proof.check_ms", "ms", ms(self.check_s)),
            (
                "proof.check_mb_per_s",
                "MB/s",
                ratio(self.proof_bytes as f64 / 1e6, self.check_s),
            ),
            ("proof.mb", "MB", per(self.proof_bytes) / 1e6),
            ("proof.steps", "count", per(s.proof_steps)),
            ("proof.rejected", "count", per(self.rejected)),
            ("serve.load_ms", "ms", ms(self.load_s)),
            ("serve.solve_ms", "ms", ms(self.serve_solve_s)),
            ("serve.edit_ms", "ms", ms(self.edit_s)),
            ("serve.requests", "count", per(self.requests)),
            ("serve.request_mb", "MB", per(self.request_bytes) / 1e6),
            ("expand.solve_ms", "ms", ms(self.expand_solve_s)),
            ("expand.sat_solve_ms", "ms", phase(Phase::SatSolve)),
            ("expand.refine_ms", "ms", phase(Phase::Refine)),
            ("expand.sat_steps", "count", per(sat_steps)),
            (
                "expand.sat_steps_per_s",
                "1/s",
                ratio(sat_steps as f64, self.expand_solve_s),
            ),
            ("expand.rounds", "count", per(self.expand.rounds)),
            ("expand.sat_calls", "count", per(self.expand.sat_calls)),
            (
                "expand.copies",
                "count",
                per(self.expand.exists_copies + self.expand.forall_copies),
            ),
            ("trace.overhead_pct", "%", overhead * 100.0),
        ]
    }
}
