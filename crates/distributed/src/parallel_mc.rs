//! Parallel Monte-Carlo best-found search.
//!
//! The paper's evaluation draws ≥10,000 random solutions per scenario —
//! embarrassingly parallel work. This driver shards the draws across
//! threads while keeping the result **identical for any thread count**:
//! every iteration derives its own RNG from `(seed, iteration)` rather
//! than consuming a shared stream, and ties between equal-profit optima
//! break toward the lowest iteration index.

use rand::rngs::StdRng;
use rand::SeedableRng;

use cloudalloc_core::ops::Reassign;
use cloudalloc_core::par::run_parallel;
use cloudalloc_core::{improve, random_assignment, SolverConfig, SolverCtx};
use cloudalloc_model::{evaluate, Allocation, ClientId, CloudSystem, ScoredAllocation};
use cloudalloc_telemetry as telemetry;

/// Outcome of the parallel search (mirrors the sequential
/// `cloudalloc_baselines::McOutcome`, with the iteration index of the
/// winner for reproducibility audits).
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelMcOutcome {
    /// The best allocation found.
    pub best_allocation: Allocation,
    /// Its profit (after optional polishing).
    pub best_profit: f64,
    /// Iteration index that produced the winner.
    pub best_iteration: usize,
    /// Worst raw random profit seen.
    pub worst_raw_profit: f64,
    /// Worst polished profit seen.
    pub worst_polished_profit: f64,
}

/// One deterministic iteration: a random assignment polished by the
/// reassignment local search. `reassign` is the shard's memo, kept across
/// its iterations.
fn run_iteration(
    ctx: &SolverCtx<'_>,
    reassign: &mut Reassign,
    seed: u64,
    iteration: usize,
) -> (Allocation, f64, f64) {
    // SplitMix spreading keeps per-iteration streams independent.
    let mut z = seed ^ (iteration as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    let mut rng = StdRng::seed_from_u64(z ^ (z >> 31));
    let mut scored = ScoredAllocation::lowered(&ctx.compiled, random_assignment(ctx, &mut rng));
    let raw = scored.profit();
    let order: Vec<ClientId> = (0..ctx.system.num_clients()).map(ClientId).collect();
    for _ in 0..ctx.config.max_rounds {
        if !reassign.pass(ctx, &mut scored, &order) {
            break;
        }
        scored.commit();
    }
    let polished = scored.profit();
    (scored.into_allocation(), raw, polished)
}

/// Runs `iterations` Monte-Carlo draws across `threads` workers.
///
/// Results are identical for every `threads >= 1` (per-iteration seeding,
/// deterministic tie-breaks); wall-clock divides by the worker count on
/// parallel hardware.
///
/// # Panics
///
/// Panics if `iterations == 0`, `threads == 0`, or the solver config is
/// invalid.
pub fn monte_carlo_parallel(
    system: &CloudSystem,
    solver: &SolverConfig,
    iterations: usize,
    threads: usize,
    seed: u64,
    polish_best: bool,
) -> ParallelMcOutcome {
    assert!(iterations > 0, "need at least one iteration");
    assert!(threads > 0, "need at least one thread");
    let ctx = SolverCtx::new(system, solver);

    // Each worker owns a contiguous shard and reports its local extrema.
    struct Shard {
        best: Option<(f64, usize, Allocation)>,
        worst_raw: f64,
        worst_polished: f64,
    }
    // One job per shard on the solver's shared deterministic fan-out
    // primitive; shard `w` owns the strided iteration set `w, w+T, …`, so
    // the per-shard extrema — and the ordered reduction below — are a pure
    // function of `(iterations, threads, seed)`.
    let ctx = &ctx;
    let shards: Vec<Shard> = run_parallel(threads, threads, |w| {
        // Per-thread pass timing: one span per shard, plus a JSONL record
        // tying the worker index to its share.
        let _span = telemetry::span!("mc.shard");
        let mut shard =
            Shard { best: None, worst_raw: f64::INFINITY, worst_polished: f64::INFINITY };
        let mut reassign = Reassign::new(ctx);
        let mut done = 0u64;
        let mut idx = w;
        while idx < iterations {
            let _iter_span = telemetry::span!("mc.iteration");
            telemetry::counter!("mc.iterations").incr();
            let (alloc, raw, polished) = run_iteration(ctx, &mut reassign, seed, idx);
            shard.worst_raw = shard.worst_raw.min(raw);
            shard.worst_polished = shard.worst_polished.min(polished);
            let better = match &shard.best {
                None => true,
                Some((p, i, _)) => polished > *p || (polished == *p && idx < *i),
            };
            if better {
                shard.best = Some((polished, idx, alloc));
            }
            done += 1;
            idx += threads;
        }
        telemetry::Event::new("mc_shard")
            .field_u64("worker", w as u64)
            .field_u64("iterations", done)
            .field_f64("best_profit", shard.best.as_ref().map_or(f64::NEG_INFINITY, |(p, _, _)| *p))
            .emit();
        shard
    });

    let mut best: Option<(f64, usize, Allocation)> = None;
    let mut worst_raw = f64::INFINITY;
    let mut worst_polished = f64::INFINITY;
    for shard in shards {
        worst_raw = worst_raw.min(shard.worst_raw);
        worst_polished = worst_polished.min(shard.worst_polished);
        if let Some((p, i, alloc)) = shard.best {
            let better = match &best {
                None => true,
                Some((bp, bi, _)) => p > *bp || (p == *bp && i < *bi),
            };
            if better {
                best = Some((p, i, alloc));
            }
        }
    }
    let (mut best_profit, best_iteration, mut best_allocation) = best.expect("iterations >= 1");

    if polish_best {
        improve(ctx, &mut best_allocation, seed.wrapping_add(0xBE57));
        best_profit = evaluate(system, &best_allocation).profit;
    }

    ParallelMcOutcome {
        best_allocation,
        best_profit,
        best_iteration,
        worst_raw_profit: worst_raw,
        worst_polished_profit: worst_polished,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudalloc_workload::{generate, ScenarioConfig};

    #[test]
    fn thread_count_does_not_change_the_result() {
        let system = generate(&ScenarioConfig::small(8), 171);
        let solver = SolverConfig::fast();
        let one = monte_carlo_parallel(&system, &solver, 12, 1, 9, false);
        let four = monte_carlo_parallel(&system, &solver, 12, 4, 9, false);
        assert_eq!(one.best_profit, four.best_profit);
        assert_eq!(one.best_iteration, four.best_iteration);
        assert_eq!(one.best_allocation, four.best_allocation);
        assert_eq!(one.worst_raw_profit, four.worst_raw_profit);
        assert_eq!(one.worst_polished_profit, four.worst_polished_profit);
    }

    #[test]
    fn ordering_invariants_hold() {
        let system = generate(&ScenarioConfig::small(8), 172);
        let out = monte_carlo_parallel(&system, &SolverConfig::fast(), 8, 2, 3, false);
        assert!(out.best_profit >= out.worst_polished_profit);
        assert!(out.worst_polished_profit >= out.worst_raw_profit - 1e-9);
        assert!(out.best_iteration < 8);
    }

    #[test]
    fn polishing_never_hurts() {
        let system = generate(&ScenarioConfig::small(6), 173);
        let raw = monte_carlo_parallel(&system, &SolverConfig::fast(), 5, 2, 1, false);
        let polished = monte_carlo_parallel(&system, &SolverConfig::fast(), 5, 2, 1, true);
        assert!(polished.best_profit >= raw.best_profit - 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let system = generate(&ScenarioConfig::small(3), 174);
        let _ = monte_carlo_parallel(&system, &SolverConfig::fast(), 1, 0, 0, false);
    }
}
