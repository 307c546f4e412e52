//! `Reassign_Clients` — inter-cluster local search: move one client at a
//! time to its currently-best cluster (paper §V: the local search "used to
//! change client assignment to decrease the resource saturation in some of
//! clusters ... and to combine the clients to decrease the number of
//! active servers").
//!
//! A pass runs in two phases so the expensive part parallelizes without
//! giving up bit-identity across thread counts:
//!
//! 1. **Propose** — for every client (in `order`) the best candidate
//!    placement is computed against the *phase-start* snapshot with the
//!    client itself removed. Each trial savepoints, searches and rolls
//!    back, so a proposal is a pure function of the snapshot and the
//!    client — which is exactly what lets blocks of clients fan out over
//!    [`crate::par`] on private forks, [`run_phase`]-style. The serial
//!    path runs the same trials on the live evaluator (zero forks) and
//!    produces the identical proposal list.
//! 2. **Commit** — serially, in `order`: the client is removed, the
//!    proposal is checked against the *current* loads (a proposal is
//!    stale once an earlier accepted move consumed the free capacity it
//!    was priced on — and an oversubscribed server would not show up in
//!    the profit test, whose per-client response times depend only on the
//!    client's own share), then committed and kept only when the total
//!    profit improves. Rejected moves roll back exactly.
//!
//! # The memo
//!
//! Passes repeat every round, and between two passes almost no cluster
//! changes, so [`Reassign`] lives for a whole local search and remembers,
//! per (client, cluster), the score of the last `assign_distribute`
//! result. The memo is exact, not a heuristic:
//!
//! - A cluster's candidate is a pure function of the client and of that
//!   cluster's server loads (`φ^p`, `φ^c`, storage, on/off). Slack pruning
//!   only ever returns a `None` the full search would return too.
//! - At the start of a pass, every server's load bits are compared with
//!   the previous pass's snapshot, and the clusters that differ are
//!   stamped with the pass number. A memoized score is reused only when
//!   its cluster was not stamped since the score was priced.
//! - Removing the client changes the loads of the cluster it sits in, so
//!   the client's current cluster, and the one it sat in when its row was
//!   priced, are always searched afresh.
//! - Fresh and memoized scores are reduced in cluster order with the same
//!   `>=` lowest-index tie-break as [`best_cluster`]; a memoized winner is
//!   searched once more to rebuild its placements.
//!
//! The proposal list, and therefore every commit, is bit-identical to a
//! pass without the memo.
//!
//! [`run_phase`]: crate::rounds
//! [`best_cluster`]: crate::best_cluster

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::Relaxed};

use cloudalloc_model::{Allocation, ClientId, ClusterId, ScoredAllocation, ServerId, ServerLoad};
use cloudalloc_telemetry as telemetry;

use crate::assign::{assign_distribute, commit_scored, Candidate};
use crate::ctx::SolverCtx;
use crate::par;

/// Clients per proposal-block job in the parallel fan-out. Small enough
/// to balance the chunked schedule, large enough to amortize one fork of
/// the evaluator per block.
const PROPOSAL_BLOCK: usize = 64;

/// Tolerance for the stale-proposal capacity re-check; matches the
/// evaluator's feasibility slack scale.
const FIT_TOL: f64 = 1e-9;

/// Memo entry of a cluster that cannot host the client: a signalling NaN,
/// which no float operation produces, so it never collides with a score.
const NO_CANDIDATE: u64 = 0x7FF0_0000_0000_0001;

/// Own-cluster slot of a client that sat in no cluster.
const NO_CLUSTER: u32 = u32::MAX;

/// True when two loads feed `assign_distribute` the same inputs.
fn same_search_inputs(a: &ServerLoad, b: &ServerLoad) -> bool {
    a.phi_p.to_bits() == b.phi_p.to_bits()
        && a.phi_c.to_bits() == b.phi_c.to_bits()
        && a.storage.to_bits() == b.storage.to_bits()
        && a.is_on() == b.is_on()
}

/// The `Reassign_Clients` operator with its per-search memo of
/// per-cluster candidate scores (see the module docs). Create one per
/// local search and run every pass of that search through it.
///
/// The per-client fields are atomics only so that parallel proposal
/// blocks can share the memo; `Relaxed` suffices because within a pass
/// each client's slots are read and written by the one job proposing
/// that client, and the scoped-thread join of [`par::run_parallel`]
/// orders one pass before the next.
#[derive(Debug)]
pub struct Reassign {
    clusters: usize,
    /// Number of passes run so far; the current pass while one runs.
    pass: u32,
    /// Every server's load at the start of the previous pass.
    snapshot: Vec<ServerLoad>,
    /// Per cluster: the last pass at whose start its loads had changed.
    changed: Vec<u32>,
    /// Per client: the pass its memo row was priced in (0 = never).
    priced: Vec<AtomicU32>,
    /// Per client: the cluster it sat in when its row was priced.
    own: Vec<AtomicU32>,
    /// Per (client, cluster), client-major: the score bits of the
    /// cluster's candidate, or [`NO_CANDIDATE`].
    scores: Vec<AtomicU64>,
    /// Clusters searched afresh during the last pass.
    searched: AtomicU64,
    /// Proposals of the last pass that searched only the client's own
    /// clusters.
    cached: AtomicU64,
}

impl Reassign {
    /// An empty memo sized for `ctx`'s population: the first pass
    /// searches every cluster for every client.
    pub fn new(ctx: &SolverCtx<'_>) -> Self {
        let clients = ctx.system.num_clients();
        let clusters = ctx.system.num_clusters();
        Self {
            clusters,
            pass: 0,
            snapshot: Vec::new(),
            changed: vec![0; clusters],
            priced: (0..clients).map(|_| AtomicU32::new(0)).collect(),
            own: (0..clients).map(|_| AtomicU32::new(NO_CLUSTER)).collect(),
            scores: (0..clients * clusters).map(|_| AtomicU64::new(NO_CANDIDATE)).collect(),
            searched: AtomicU64::new(0),
            cached: AtomicU64::new(0),
        }
    }

    /// One pass over `order`: each client is tentatively removed and
    /// re-inserted into its best cluster given the phase-start state; the
    /// move commits only when it still fits and the total profit
    /// improves, otherwise the journal rolls it back exactly. Unassigned
    /// clients (left over from an infeasible greedy pass) get a placement
    /// attempt too.
    ///
    /// Identical `(state, order)` inputs yield bit-identical results at
    /// every thread count and whatever the memo holds (see the module
    /// docs).
    ///
    /// Returns `true` when any client moved.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` has a different population or cluster count than
    /// the context the memo was created for.
    pub fn pass(
        &mut self,
        ctx: &SolverCtx<'_>,
        scored: &mut ScoredAllocation<'_>,
        order: &[ClientId],
    ) -> bool {
        assert!(
            self.priced.len() == ctx.system.num_clients()
                && self.clusters == ctx.system.num_clusters(),
            "reassign memo was sized for a different system"
        );
        // Canonical flush: proposals must price against fully-rescored
        // caches, and forks snapshot whatever is cached.
        let mut current_profit = scored.profit();
        self.stamp_changed_clusters(ctx, scored.alloc());
        let memo: &Self = self;

        let proposals: Vec<Option<Candidate>> = if ctx.threads > 1 && !par::in_worker() {
            let base: &ScoredAllocation<'_> = scored;
            let blocks = order.len().div_ceil(PROPOSAL_BLOCK);
            let block_proposals = par::run_parallel(blocks, ctx.threads.min(blocks), |b| {
                let _span = telemetry::span!("op.reassign.block");
                let mut sim = base.fork();
                let block = &order[b * PROPOSAL_BLOCK..((b + 1) * PROPOSAL_BLOCK).min(order.len())];
                block.iter().map(|&client| memo.propose(ctx, &mut sim, client)).collect::<Vec<_>>()
            });
            block_proposals.into_iter().flatten().collect()
        } else {
            // The same blocks and spans as the fan-out, so a trace's causal
            // shape does not depend on the thread count.
            let mut proposals = Vec::with_capacity(order.len());
            for block in order.chunks(PROPOSAL_BLOCK) {
                let _span = telemetry::span!("op.reassign.block");
                proposals.extend(block.iter().map(|&client| memo.propose(ctx, scored, client)));
            }
            proposals
        };
        telemetry::counter!("op.reassign.searched").add(self.searched.load(Relaxed));
        telemetry::counter!("op.reassign.cached").add(self.cached.load(Relaxed));

        let _span = telemetry::span!("op.reassign.commit");
        let mut changed = false;
        for (&client, proposal) in order.iter().zip(&proposals) {
            telemetry::counter!("op.reassign.tried").incr();
            let Some(candidate) = proposal else { continue };
            let mark = scored.savepoint();
            scored.clear_client(client);
            if proposal_fits(ctx, scored.alloc(), client, candidate) {
                commit_scored(scored, client, candidate);
                let new_profit = scored.profit();
                if new_profit > current_profit + 1e-9 {
                    telemetry::counter!("op.reassign.accepted").incr();
                    telemetry::float_counter!("op.reassign.gain").add(new_profit - current_profit);
                    current_profit = new_profit;
                    changed = true;
                    continue;
                }
            } else {
                telemetry::counter!("op.reassign.stale").incr();
            }
            scored.rollback_to(mark);
        }
        changed
    }

    /// Opens a new pass: stamps every cluster holding a server whose
    /// search inputs differ from the previous pass's snapshot, then
    /// snapshots `alloc`. O(servers).
    fn stamp_changed_clusters(&mut self, ctx: &SolverCtx<'_>, alloc: &Allocation) {
        self.pass += 1;
        *self.searched.get_mut() = 0;
        *self.cached.get_mut() = 0;
        if self.snapshot.is_empty() {
            // First pass: no row is priced yet, so nothing to invalidate.
            self.snapshot =
                (0..ctx.system.num_servers()).map(|j| alloc.load(ServerId(j))).collect();
            return;
        }
        for (k, changed) in self.changed.iter_mut().enumerate() {
            for &server in ctx.compiled.cluster_servers(ClusterId(k)) {
                let load = alloc.load(server);
                let seen = &mut self.snapshot[server.index()];
                if !same_search_inputs(seen, &load) {
                    *seen = load;
                    *changed = self.pass;
                }
            }
        }
    }

    /// The best candidate for `client` against the current state of
    /// `sim` with the client removed — [`crate::best_cluster`]'s answer —
    /// searching only the clusters whose memoized score is out of date.
    /// Leaves `sim` bit-exactly untouched and refreshes the client's memo
    /// row.
    fn propose(
        &self,
        ctx: &SolverCtx<'_>,
        sim: &mut ScoredAllocation<'_>,
        client: ClientId,
    ) -> Option<Candidate> {
        let i = client.index();
        let row = &self.scores[i * self.clusters..(i + 1) * self.clusters];
        let priced = self.priced[i].load(Relaxed);
        let own_then = self.own[i].load(Relaxed);
        let own_now = sim.alloc().cluster_of(client).map_or(NO_CLUSTER, |k| k.index() as u32);

        let mark = sim.savepoint();
        sim.clear_client(client);
        let alloc = sim.alloc();
        let mut searched = 0u64;
        let mut stale = 0u64;
        // (score, cluster, the candidate when it was searched this time)
        let mut best: Option<(f64, ClusterId, Option<Candidate>)> = None;
        for (k, entry) in row.iter().enumerate() {
            let cluster = ClusterId(k);
            let own = k as u32 == own_now || k as u32 == own_then;
            let current = priced != 0 && self.changed[k] <= priced;
            let (score, candidate) = if own || !current {
                searched += 1;
                stale += u64::from(!own);
                let candidate = assign_distribute(ctx, alloc, client, cluster);
                entry
                    .store(candidate.as_ref().map_or(NO_CANDIDATE, |c| c.score.to_bits()), Relaxed);
                match candidate {
                    Some(c) => (c.score, Some(c)),
                    None => continue,
                }
            } else {
                match entry.load(Relaxed) {
                    NO_CANDIDATE => continue,
                    bits => (f64::from_bits(bits), None),
                }
            };
            if best.as_ref().is_some_and(|b| b.0 >= score) {
                continue;
            }
            best = Some((score, cluster, candidate));
        }
        let proposal = best.map(|(score, cluster, candidate)| {
            candidate.unwrap_or_else(|| {
                let c = assign_distribute(ctx, alloc, client, cluster)
                    .expect("a memoized candidate is reproducible");
                debug_assert_eq!(c.score.to_bits(), score.to_bits(), "memoized score drifted");
                c
            })
        });
        sim.rollback_to(mark);

        self.priced[i].store(self.pass, Relaxed);
        self.own[i].store(own_now, Relaxed);
        self.searched.fetch_add(searched, Relaxed);
        self.cached.fetch_add(u64::from(stale == 0), Relaxed);
        proposal
    }
}

/// True when `candidate`'s placements still fit the free capacity of the
/// current allocation (with `client` already removed from it).
fn proposal_fits(
    ctx: &SolverCtx<'_>,
    alloc: &Allocation,
    client: ClientId,
    candidate: &Candidate,
) -> bool {
    let storage = ctx.compiled.client_storage(client);
    candidate.placements.iter().all(|&(server, p)| {
        let load = alloc.load(server);
        p.phi_p <= load.free_phi_p() + FIT_TOL
            && p.phi_c <= load.free_phi_c() + FIT_TOL
            && load.storage + storage <= ctx.compiled.cap_storage(server) + FIT_TOL
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SolverConfig;
    use crate::initial::random_assignment;
    use crate::solve::search_round;
    use cloudalloc_model::{check_feasibility, evaluate, CloudSystem};
    use cloudalloc_workload::{generate, ScenarioConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn reassignment_never_decreases_profit() {
        let system = generate(&ScenarioConfig::small(10), 61);
        let config = SolverConfig::default();
        let ctx = SolverCtx::new(&system, &config);
        let mut rng = StdRng::seed_from_u64(2);
        let mut scored = ScoredAllocation::new(&system, random_assignment(&ctx, &mut rng));
        let before = scored.profit();
        let order: Vec<ClientId> = (0..system.num_clients()).map(ClientId).collect();
        Reassign::new(&ctx).pass(&ctx, &mut scored, &order);
        let after = scored.profit();
        assert!(after >= before - 1e-9, "profit dropped: {before} -> {after}");
        let alloc = scored.into_allocation();
        assert!((evaluate(&system, &alloc).profit - after).abs() <= 1e-6 * (1.0 + after.abs()));
        // Reassignment keeps every placed client feasible; clients no
        // cluster can profitably host may stay unassigned.
        assert!(check_feasibility(&system, &alloc)
            .iter()
            .all(|v| matches!(v, cloudalloc_model::Violation::Unassigned { .. })));
        alloc.assert_consistent(&system);
    }

    #[test]
    fn random_assignments_improve_under_reassignment() {
        // A random start should usually leave room for at least one
        // improving move across several seeds.
        let mut improved = false;
        for seed in 0..5 {
            let system = generate(&ScenarioConfig::small(12), 400 + seed);
            let config = SolverConfig::default();
            let ctx = SolverCtx::new(&system, &config);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut scored = ScoredAllocation::new(&system, random_assignment(&ctx, &mut rng));
            let before = scored.profit();
            let order: Vec<ClientId> = (0..system.num_clients()).map(ClientId).collect();
            Reassign::new(&ctx).pass(&ctx, &mut scored, &order);
            if scored.profit() > before + 1e-9 {
                improved = true;
                break;
            }
        }
        assert!(improved, "reassignment never improved a random start");
    }

    #[test]
    fn rollback_restores_the_exact_allocation() {
        let system = generate(&ScenarioConfig::small(6), 63);
        let config = SolverConfig::default();
        let ctx = SolverCtx::new(&system, &config);
        let mut rng = StdRng::seed_from_u64(5);
        let alloc_before = random_assignment(&ctx, &mut rng);
        let mut scored = ScoredAllocation::new(&system, alloc_before.clone());
        let order: Vec<ClientId> = (0..system.num_clients()).map(ClientId).collect();
        let changed = Reassign::new(&ctx).pass(&ctx, &mut scored, &order);
        let alloc = scored.into_allocation();
        if !changed {
            assert_eq!(alloc, alloc_before, "no-op pass must leave the allocation intact");
        } else {
            // Changed allocations must still be complete.
            assert!(alloc.is_complete(1e-6) || !alloc_before.is_complete(1e-6));
        }
    }

    #[test]
    fn reassign_is_identical_across_thread_counts() {
        // Parallel proposals on forks vs the serial trial loop must agree
        // bit-for-bit: same accepted moves, same final profit bits.
        let system = generate(&ScenarioConfig::paper(90), 64);
        let order: Vec<ClientId> = (0..system.num_clients()).map(ClientId).collect();
        let run = |threads: usize| {
            let config = SolverConfig { num_threads: Some(threads), ..Default::default() };
            let ctx = SolverCtx::new(&system, &config);
            let mut rng = StdRng::seed_from_u64(8);
            let mut scored = ScoredAllocation::new(&system, random_assignment(&ctx, &mut rng));
            let changed = Reassign::new(&ctx).pass(&ctx, &mut scored, &order);
            let profit = scored.profit();
            (changed, profit, scored.into_allocation())
        };
        let (base_changed, base_profit, base_alloc) = run(1);
        for threads in [2, 4, 8] {
            let (changed, profit, alloc) = run(threads);
            assert_eq!(changed, base_changed, "threads={threads}: changed flag diverged");
            assert_eq!(
                profit.to_bits(),
                base_profit.to_bits(),
                "threads={threads}: profit bits diverged"
            );
            assert_eq!(alloc, base_alloc, "threads={threads}: allocation diverged");
        }
    }

    #[test]
    fn stale_proposals_never_oversubscribe() {
        // Under proposal-vs-snapshot semantics two clients can race for
        // the same free capacity; the commit-phase re-check must keep the
        // final allocation feasible on every seed.
        for seed in 0..4 {
            let system = generate(&ScenarioConfig::overloaded(16), 80 + seed);
            let config = SolverConfig::default();
            let ctx = SolverCtx::new(&system, &config);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut scored = ScoredAllocation::new(&system, random_assignment(&ctx, &mut rng));
            let order: Vec<ClientId> = (0..system.num_clients()).map(ClientId).collect();
            Reassign::new(&ctx).pass(&ctx, &mut scored, &order);
            let alloc = scored.into_allocation();
            assert!(check_feasibility(&system, &alloc)
                .iter()
                .all(|v| matches!(v, cloudalloc_model::Violation::Unassigned { .. })));
        }
    }

    /// Six rounds of the local-search loop from `start`, keeping one memo
    /// across the rounds (`keep`) or pricing every pass on a fresh one.
    /// Returns, per round, the allocation, its profit bits and whether
    /// reassignment moved a client, plus the clusters searched in total.
    fn search_rounds(
        system: &CloudSystem,
        threads: usize,
        start: &Allocation,
        keep: bool,
    ) -> (Vec<(Allocation, u64, bool)>, u64) {
        let config = SolverConfig { num_threads: Some(threads), ..Default::default() };
        let ctx = SolverCtx::new(system, &config);
        let mut scored = ScoredAllocation::lowered(&ctx.compiled, start.clone());
        let mut rng = StdRng::seed_from_u64(11);
        let mut order: Vec<ClientId> = (0..system.num_clients()).map(ClientId).collect();
        let mut kept = Reassign::new(&ctx);
        let mut searched = 0;
        let rounds = (0..6)
            .map(|_| {
                let mut fresh = Reassign::new(&ctx);
                let memo = if keep { &mut kept } else { &mut fresh };
                let moved = search_round(&ctx, &mut scored, &mut rng, &mut order, memo);
                searched += memo.searched.load(Relaxed);
                scored.commit();
                (scored.alloc().clone(), scored.profit().to_bits(), moved)
            })
            .collect();
        (rounds, searched)
    }

    #[test]
    fn reassign_memo_across_rounds_matches_fresh_memos() {
        let paper = generate(&ScenarioConfig::paper(90), 64);
        let overloaded = generate(&ScenarioConfig::overloaded(16), 81);
        // A warm-started fold: a solved allocation from which every fifth
        // client was dropped, as if it had just been admitted.
        let fold = generate(&ScenarioConfig::paper(40), 65);
        let mut warm = crate::solve(&fold, &SolverConfig::fast(), 3).allocation;
        for i in (0..fold.num_clients()).step_by(5) {
            warm.clear_client(&fold, ClientId(i));
        }
        let random = |system: &CloudSystem| {
            let config = SolverConfig::default();
            random_assignment(&SolverCtx::new(system, &config), &mut StdRng::seed_from_u64(8))
        };
        for (name, system, start) in [
            ("paper", &paper, random(&paper)),
            ("overloaded", &overloaded, random(&overloaded)),
            ("fold", &fold, warm),
        ] {
            for threads in [1, 2, 4] {
                let (kept, kept_searched) = search_rounds(system, threads, &start, true);
                let (fresh, fresh_searched) = search_rounds(system, threads, &start, false);
                // The kept memo must actually serve scores, or the
                // comparison shows nothing.
                assert!(kept_searched < fresh_searched, "{name} threads={threads}: memo unused");
                for (round, (a, b)) in kept.iter().zip(&fresh).enumerate() {
                    assert_eq!(a.2, b.2, "{name} threads={threads} round {round}: moved flag");
                    assert_eq!(a.1, b.1, "{name} threads={threads} round {round}: profit bits");
                    assert_eq!(a.0, b.0, "{name} threads={threads} round {round}: allocation");
                }
            }
        }
    }

    #[test]
    fn reassign_memo_re_searches_only_the_changed_cluster() {
        let system = generate(&ScenarioConfig::paper(90), 66);
        let config = SolverConfig { num_threads: Some(1), ..Default::default() };
        let ctx = SolverCtx::new(&system, &config);
        let clusters = system.num_clusters();
        let order: Vec<ClientId> = (0..system.num_clients()).map(ClientId).collect();
        let mut scored =
            ScoredAllocation::new(&system, random_assignment(&ctx, &mut StdRng::seed_from_u64(4)));
        let mut memo = Reassign::new(&ctx);
        // Settle, so the last pass priced every row on the current state.
        let mut passes = 0;
        while memo.pass(&ctx, &mut scored, &order) {
            scored.commit();
            passes += 1;
            assert!(passes < 50, "reassignment did not settle");
        }
        let own_then: Vec<Option<ClusterId>> =
            order.iter().map(|&c| scored.alloc().cluster_of(c)).collect();

        // A settled state re-searches only the clients' own clusters.
        let mut probe = scored.fork();
        memo.pass(&ctx, &mut probe, &order);
        let own: u64 = own_then.iter().map(|k| u64::from(k.is_some())).sum();
        assert_eq!(memo.searched.load(Relaxed), own);
        assert_eq!(memo.cached.load(Relaxed), order.len() as u64);

        // Mutate one cluster: drop one of its clients.
        let client = order
            .iter()
            .copied()
            .find(|&c| !scored.alloc().placements(c).is_empty())
            .expect("a placed client");
        let changed = scored.alloc().cluster_of(client).expect("placed clients are assigned");
        scored.clear_client(client);
        let mut fresh_state = scored.fork();

        let moved = memo.pass(&ctx, &mut scored, &order);
        assert!(
            (0..clusters).all(|k| (memo.changed[k] == memo.pass) == (k == changed.index())),
            "only the mutated cluster may be stamped"
        );
        let expected: u64 = order
            .iter()
            .zip(&own_then)
            .map(|(&c, &then)| {
                let now = if c == client { None } else { then };
                let mut own: Vec<ClusterId> = [then, now].into_iter().flatten().collect();
                own.dedup();
                (own.len() + usize::from(!own.contains(&changed))) as u64
            })
            .sum();
        assert_eq!(memo.searched.load(Relaxed), expected);
        let owners = own_then.iter().filter(|&&k| k == Some(changed)).count();
        assert_eq!(memo.cached.load(Relaxed), owners as u64);

        let fresh_moved = Reassign::new(&ctx).pass(&ctx, &mut fresh_state, &order);
        assert_eq!(moved, fresh_moved, "moved flag");
        assert_eq!(scored.profit().to_bits(), fresh_state.profit().to_bits(), "profit bits");
        assert_eq!(scored.alloc(), fresh_state.alloc(), "allocation");
    }

    #[test]
    fn proposals_match_best_cluster_even_on_ties() {
        // Three identical clusters score every move alike, so only the
        // lowest-index tie-break picks the winner.
        use cloudalloc_model::{SystemBuilder, UtilityFunction};
        let mut b = SystemBuilder::new();
        let class = b.server_class(4.0, 4.0, 4.0, 1.0, 0.5);
        let sla = b.utility_class(UtilityFunction::linear(10.0, 2.0));
        for _ in 0..3 {
            let k = b.cluster();
            b.servers(k, class, 2);
        }
        for i in 0..8 {
            b.client(sla, 1.0 + f64::from(i) * 0.3, 0.5, 0.5, 0.5);
        }
        let system = b.build();
        let config = SolverConfig { num_threads: Some(1), ..Default::default() };
        let ctx = SolverCtx::new(&system, &config);
        let order: Vec<ClientId> = (0..system.num_clients()).map(ClientId).collect();
        let mut scored = ScoredAllocation::new(&system, Allocation::new(&system));
        let mut memo = Reassign::new(&ctx);
        for round in 0..4 {
            memo.stamp_changed_clusters(&ctx, scored.alloc());
            for &client in &order {
                let mark = scored.savepoint();
                scored.clear_client(client);
                let expected = crate::best_cluster(&ctx, scored.alloc(), client);
                scored.rollback_to(mark);
                let proposal = memo.propose(&ctx, &mut scored, client);
                assert_eq!(proposal, expected, "round {round}, {client}");
            }
            memo.pass(&ctx, &mut scored, &order);
            scored.commit();
        }
    }
}
