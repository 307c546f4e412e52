//! The admission engine: a single-threaded state machine that owns the
//! served population and answers protocol requests.
//!
//! # State model
//!
//! The engine is started with a *universe*: a scenario file naming every
//! client that could ever ask for service. The *served population* is the
//! subset that asked and was admitted, held as a dense [`CloudSystem`]
//! (client ids `0..members.len()` in admission order, current rates, dead
//! servers masked) so the whole solver stack — compiled lowering,
//! incremental scorer, operators — runs on it unchanged. The protocol
//! always speaks universe ids; the engine translates.
//!
//! Population and allocation are changed in place: an admit appends, a
//! renegotiation or rate spike edits one client's rates, a departure or
//! shed removes; only a server flip rebuilds the population from the
//! universe. Every mutation ends with one replay, so the standing
//! allocation is *canonical* — bit for bit its own
//! [`Allocation::replayed_onto`] the population — and a request starts
//! from it as it is.
//!
//! # Decision rule
//!
//! Admission and renegotiation decisions come from the *incremental
//! scorer*: one [`best_cluster`] candidate search against the current
//! allocation, accepted iff the candidate's exact marginal profit is
//! positive — the same admission economics [`ops::shed_unprofitable`]
//! enforces in reverse. The profit *reported* to clients, however, is
//! always the canonical batch score ([`evaluate`]) of the served
//! population and its canonical allocation, so an external audit that
//! re-scores the same population matches the server's numbers exactly,
//! not merely within the incremental scorer's drift tolerance.
//!
//! # Determinism
//!
//! Everything the engine does is a pure function of (universe, config,
//! request sequence, clock observations). Time comes from the [`Clock`]
//! seam; every randomized choice inside a fold or escalation derives its
//! seed from the configured base seed and the epoch counter.

use cloudalloc_core::{best_cluster, commit_scored, ops, SolverConfig, SolverCtx};
use cloudalloc_epoch::{repair_failures, RepairPolicy};
use cloudalloc_model::{
    evaluate, Allocation, ClientId, CloudSystem, ClusterId, ScoredAllocation, ServerId,
};
use cloudalloc_protocol::{
    ClientMessage, LogPosition, ModelOp, RejectReason, ServerMessage, WirePlacement,
    PROTOCOL_VERSION,
};
use cloudalloc_telemetry as telemetry;
use cloudalloc_workload::{FaultEvent, FaultPlan};

use crate::clock::Clock;

/// Tunables of the admission engine.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Solver configuration used for candidate searches, folds, repairs
    /// and escalations.
    pub solver: SolverConfig,
    /// Escalation policy for the fault-repair path (same semantics as the
    /// epoch manager's).
    pub repair: RepairPolicy,
    /// Latency SLO for admission decisions, in microseconds.
    pub slo_us: u64,
    /// Fold the accepted ops into an epoch (re-optimize + shed sweep)
    /// after this many accepted mutations; `0` folds only on explicit
    /// [`ClientMessage::Tick`].
    pub epoch_every: u64,
    /// Base seed; fold and escalation seeds derive from it.
    pub seed: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            solver: SolverConfig::fast(),
            repair: RepairPolicy::default(),
            slo_us: 50_000,
            epoch_every: 16,
            seed: 0,
        }
    }
}

/// Running request/SLO accounting, reported in the serve summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Requests handled (all kinds).
    pub requests: u64,
    /// Admits accepted.
    pub admitted: u64,
    /// Requests rejected (any reason).
    pub rejected: u64,
    /// Departures processed.
    pub departed: u64,
    /// Renegotiations accepted.
    pub renegotiated: u64,
    /// Clients shed by folds and repairs.
    pub shed: u64,
    /// Epoch folds completed.
    pub folds: u64,
    /// Decisions that missed the latency SLO.
    pub slo_misses: u64,
    /// Worst decision latency observed, in microseconds.
    pub max_latency_us: u64,
}

/// What one handled request produced: the direct response plus any op-log
/// entries to stream to subscribers.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The response to send to the requesting connection.
    pub response: ServerMessage,
    /// Op-log entries emitted while handling the request, in log order.
    pub ops: Vec<(LogPosition, ModelOp)>,
}

/// The admission engine. See the module docs for the state model.
pub struct Engine {
    universe: CloudSystem,
    /// Current `(rate_agreed, rate_predicted)` per universe client;
    /// diverges from the universe after renegotiations.
    rates: Vec<(f64, f64)>,
    /// Universe ids of served clients, in admission order (dense id =
    /// position).
    members: Vec<ClientId>,
    /// Universe id → dense id of served clients.
    dense_of: Vec<Option<usize>>,
    /// The served population as a dense system, with current rates and
    /// dead servers masked.
    system: CloudSystem,
    /// Decision state over `system` (dense ids), always canonical: equal
    /// to `alloc.replayed_onto(&system)`.
    alloc: Allocation,
    /// Per-server down flags maintained from fault events.
    down: Vec<bool>,
    /// Fault schedule folded in by epoch index, if any.
    plan: Option<FaultPlan>,
    epoch: u64,
    /// Accepted mutations since the last fold.
    mutations: u64,
    /// Next op-log position.
    log_pos: u64,
    /// Canonical (batch-scored) profit of the served population.
    profit: f64,
    config: EngineConfig,
    stats: EngineStats,
}

impl Engine {
    /// Creates an engine serving `universe` with an empty population.
    pub fn new(universe: CloudSystem, config: EngineConfig) -> Self {
        let rates = universe.clients().iter().map(|c| (c.rate_agreed, c.rate_predicted)).collect();
        let mut system = universe.clone();
        system.retain_clients(|_| false);
        let alloc = Allocation::new(&system);
        let down = vec![false; universe.num_servers()];
        let dense_of = vec![None; universe.num_clients()];
        Self {
            universe,
            rates,
            members: Vec::new(),
            dense_of,
            system,
            alloc,
            down,
            plan: None,
            epoch: 0,
            mutations: 0,
            log_pos: 0,
            profit: 0.0,
            config,
            stats: EngineStats::default(),
        }
    }

    /// Installs a fault schedule: entering epoch `e` first applies the
    /// plan's records for `e`.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.plan = Some(plan);
    }

    // ------------------------------------------------------------------
    // Read accessors (used by the transport, the CLI and the harness)
    // ------------------------------------------------------------------

    /// Whether universe client `u` is currently served.
    pub fn is_admitted(&self, u: ClientId) -> bool {
        self.dense_of.get(u.index()).is_some_and(Option::is_some)
    }

    /// Universe ids of the served clients, in admission order.
    pub fn members(&self) -> &[ClientId] {
        &self.members
    }

    /// Canonical batch-scored profit of the served population.
    pub fn profit(&self) -> f64 {
        self.profit
    }

    /// Current epoch index.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Request/SLO accounting so far.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// The configured admission-latency SLO, in microseconds.
    pub fn config_slo_us(&self) -> u64 {
        self.config.slo_us
    }

    /// The served population as a dense system, with fault masking
    /// applied — exactly what the engine scores against.
    pub fn masked_population(&self) -> &CloudSystem {
        &self.system
    }

    /// The engine's decision state over [`Engine::masked_population`],
    /// canonical: it equals its own replay onto that population.
    pub fn allocation(&self) -> &Allocation {
        &self.alloc
    }

    /// The first message of every connection.
    pub fn welcome(&self) -> ServerMessage {
        ServerMessage::Welcome {
            protocol: PROTOCOL_VERSION,
            clients: self.universe.num_clients() as u64,
            servers: self.universe.num_servers() as u64,
            epoch: self.epoch,
        }
    }

    // ------------------------------------------------------------------
    // Request dispatch
    // ------------------------------------------------------------------

    /// Handles one request. Single-threaded by construction: the caller
    /// (transport loop or test harness) serializes requests, which is
    /// what makes clock observations — and transcripts — deterministic.
    pub fn handle(&mut self, msg: &ClientMessage, clock: &dyn Clock) -> Outcome {
        let _span = telemetry::span!("serve.request");
        self.stats.requests += 1;
        match *msg {
            ClientMessage::Admit { req, client } => self.admit(req, client, clock),
            ClientMessage::Depart { req, client } => self.depart(req, client, clock),
            ClientMessage::Renegotiate { req, client, rate_agreed, rate_predicted } => {
                self.renegotiate(req, client, rate_agreed, rate_predicted, clock)
            }
            ClientMessage::Query { req } => Outcome {
                response: ServerMessage::State {
                    req,
                    epoch: self.epoch,
                    admitted: self.members.len() as u64,
                    profit: self.profit,
                    log: LogPosition(self.log_pos),
                },
                ops: Vec::new(),
            },
            ClientMessage::Subscribe { req } => Outcome {
                response: ServerMessage::Subscribed { req, log: LogPosition(self.log_pos) },
                ops: Vec::new(),
            },
            ClientMessage::Tick { req } => self.tick(req, clock),
            ClientMessage::Bye { req } => {
                Outcome { response: ServerMessage::Bye { req }, ops: Vec::new() }
            }
        }
    }

    fn admit(&mut self, req: u64, u: ClientId, clock: &dyn Clock) -> Outcome {
        let _span = telemetry::span!("serve.admit");
        let t0 = clock.now_us();
        if u.index() >= self.universe.num_clients() {
            return self.reject(req, u, RejectReason::UnknownClient, t0, clock);
        }
        if self.is_admitted(u) {
            return self.reject(req, u, RejectReason::AlreadyAdmitted, t0, clock);
        }

        // Append the applicant to the population and ask the incremental
        // scorer for its best marginal placement.
        let dense = ClientId(self.members.len());
        let mut applicant = self.universe.client(u).clone();
        applicant.id = dense;
        (applicant.rate_agreed, applicant.rate_predicted) = self.rates[u.index()];
        self.system.add_client(applicant);
        let mut working = self.alloc.clone();
        working.push_client();
        let Some((cluster, next)) = self.seat(working, dense) else {
            self.system.retain_clients(|c| c.id != dense);
            return self.reject(req, u, RejectReason::Unprofitable, t0, clock);
        };
        let profit_before = self.profit;

        self.members.push(u);
        self.dense_of[u.index()] = Some(dense.index());
        self.alloc = next;
        self.settle(&[]);
        let profit = self.profit;
        self.stats.admitted += 1;
        telemetry::counter!("serve.admits").incr();

        let mut ops = vec![self.push_op(ModelOp::Admitted {
            client: u,
            cluster,
            placements: wire_placements(self.alloc.placements(dense)),
        })];
        ops.extend(self.after_mutation(clock));
        let (latency_us, slo_ok) = self.observe_latency(t0, clock);
        Outcome {
            response: ServerMessage::Admitted {
                req,
                client: u,
                cluster,
                profit,
                profit_delta: profit - profit_before,
                latency_us,
                slo_ok,
            },
            ops,
        }
    }

    fn depart(&mut self, req: u64, u: ClientId, clock: &dyn Clock) -> Outcome {
        let _span = telemetry::span!("serve.depart");
        let t0 = clock.now_us();
        if u.index() >= self.universe.num_clients() {
            return self.reject(req, u, RejectReason::UnknownClient, t0, clock);
        }
        if !self.is_admitted(u) {
            return self.reject(req, u, RejectReason::NotAdmitted, t0, clock);
        }

        self.settle(&[ClientId(self.dense_of[u.index()].expect("admitted"))]);
        self.stats.departed += 1;
        let mut ops = vec![self.push_op(ModelOp::Departed { client: u })];
        ops.extend(self.after_mutation(clock));
        let (latency_us, slo_ok) = self.observe_latency(t0, clock);
        Outcome {
            response: ServerMessage::Departed {
                req,
                client: u,
                profit: self.profit,
                latency_us,
                slo_ok,
            },
            ops,
        }
    }

    fn renegotiate(
        &mut self,
        req: u64,
        u: ClientId,
        rate_agreed: f64,
        rate_predicted: f64,
        clock: &dyn Clock,
    ) -> Outcome {
        let _span = telemetry::span!("serve.renegotiate");
        let t0 = clock.now_us();
        if u.index() >= self.universe.num_clients() {
            return self.reject(req, u, RejectReason::UnknownClient, t0, clock);
        }
        if !(rate_agreed.is_finite()
            && rate_agreed > 0.0
            && rate_predicted.is_finite()
            && rate_predicted > 0.0)
        {
            return self.reject(req, u, RejectReason::InvalidRates, t0, clock);
        }
        if !self.is_admitted(u) {
            return self.reject(req, u, RejectReason::NotAdmitted, t0, clock);
        }

        // Re-place the client from scratch under the proposed contract;
        // the old contract stays in force unless the new one carries a
        // positive marginal profit of its own.
        let dense = ClientId(self.dense_of[u.index()].expect("admitted"));
        self.system.set_client_rates(dense, rate_agreed, rate_predicted);
        let mut working = self.alloc.clone();
        working.reprice_client(&self.system, dense);
        let Some((cluster, next)) = self.seat(working, dense) else {
            let (agreed, predicted) = self.rates[u.index()];
            self.system.set_client_rates(dense, agreed, predicted);
            return self.reject(req, u, RejectReason::Unprofitable, t0, clock);
        };
        let profit_before = self.profit;

        self.rates[u.index()] = (rate_agreed, rate_predicted);
        self.alloc = next;
        self.settle(&[]);
        let profit = self.profit;
        self.stats.renegotiated += 1;
        telemetry::counter!("serve.renegotiations").incr();

        let mut ops = vec![
            self.push_op(ModelOp::Renegotiated { client: u, rate_agreed, rate_predicted }),
            self.push_op(ModelOp::Placements {
                client: u,
                cluster,
                placements: wire_placements(self.alloc.placements(dense)),
            }),
        ];
        ops.extend(self.after_mutation(clock));
        let (latency_us, slo_ok) = self.observe_latency(t0, clock);
        Outcome {
            response: ServerMessage::Renegotiated {
                req,
                client: u,
                profit,
                profit_delta: profit - profit_before,
                latency_us,
                slo_ok,
            },
            ops,
        }
    }

    fn tick(&mut self, req: u64, clock: &dyn Clock) -> Outcome {
        let t0 = clock.now_us();
        let (ops, shed) = self.fold();
        let (latency_us, slo_ok) = self.observe_latency(t0, clock);
        Outcome {
            response: ServerMessage::Ticked {
                req,
                epoch: self.epoch,
                profit: self.profit,
                shed,
                latency_us,
                slo_ok,
            },
            ops,
        }
    }

    /// Clears `client` in `working` and runs one candidate search for it.
    /// Returns the chosen cluster and the committed allocation when the
    /// best candidate earns a positive marginal profit.
    fn seat(&self, working: Allocation, client: ClientId) -> Option<(ClusterId, Allocation)> {
        let ctx = SolverCtx::new(&self.system, &self.config.solver);
        let mut scored = ScoredAllocation::lowered(&ctx.compiled, working);
        scored.clear_client(client);
        let candidate = best_cluster(&ctx, scored.alloc(), client).filter(|c| c.score > 0.0)?;
        commit_scored(&mut scored, client, &candidate);
        Some((candidate.cluster, scored.into_allocation()))
    }

    fn reject(
        &mut self,
        req: u64,
        client: ClientId,
        reason: RejectReason,
        t0: u64,
        clock: &dyn Clock,
    ) -> Outcome {
        self.stats.rejected += 1;
        telemetry::counter!("serve.rejections").incr();
        let (latency_us, slo_ok) = self.observe_latency(t0, clock);
        Outcome {
            response: ServerMessage::Rejected { req, client, reason, latency_us, slo_ok },
            ops: Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // Epoch folds and faults
    // ------------------------------------------------------------------

    /// Applies fault events immediately (out of band of any plan): flips
    /// server availability, perturbs predicted rates, and runs the
    /// repair → shed → escalate path when a failure strands placements.
    /// Returns the emitted op-log entries.
    pub fn apply_faults(&mut self, events: &[FaultEvent]) -> Vec<(LogPosition, ModelOp)> {
        let mut ops = Vec::new();
        // A failure strands placements when a served client lives on the
        // dead server; the allocation stays as it is until after the loop.
        let mut stranded = false;
        let mut flipped = false;
        let mut spiked_members: Vec<ClientId> = Vec::new();
        for event in events {
            match *event {
                FaultEvent::ServerFail { server } => {
                    if server.index() < self.down.len() && !self.down[server.index()] {
                        self.down[server.index()] = true;
                        stranded |= !self.alloc.residents(server).is_empty();
                        flipped = true;
                        ops.push(self.push_op(ModelOp::ServerDown { server }));
                    }
                }
                FaultEvent::ServerRecover { server } => {
                    if server.index() < self.down.len() && self.down[server.index()] {
                        self.down[server.index()] = false;
                        flipped = true;
                        ops.push(self.push_op(ModelOp::ServerUp { server }));
                    }
                }
                FaultEvent::RateSpike { client, factor } => {
                    if client.index() < self.rates.len() && factor.is_finite() && factor > 0.0 {
                        let (agreed, predicted) = self.rates[client.index()];
                        let spiked = predicted * factor;
                        if spiked.is_finite() && spiked > 0.0 {
                            self.rates[client.index()] = (agreed, spiked);
                            if let Some(dense) = self.dense_of[client.index()] {
                                self.system.set_client_rates(ClientId(dense), agreed, spiked);
                                spiked_members.push(client);
                            }
                            ops.push(self.push_op(ModelOp::Renegotiated {
                                client,
                                rate_agreed: agreed,
                                rate_predicted: spiked,
                            }));
                        }
                    }
                }
            }
        }

        // An availability flip re-masks the population, the one change
        // that rebuilds it from the universe; flips and spikes both move
        // the loads the allocation derives from the population.
        if flipped {
            let mut system = self.universe.with_failed_servers(&self.failed());
            system.retain_clients(|_| false);
            for client in self.system.clients() {
                system.add_client(client.clone());
            }
            self.system = system;
        }
        if flipped || !spiked_members.is_empty() {
            self.alloc = self.alloc.replayed_onto(&self.system);
        }

        // A spiked admitted client's stale placement may now be an
        // unstable queue (its arrival rate outgrew its GPS shares), which
        // violates a hard constraint — re-seat it under the new rate, or
        // shed it when no profitable seat exists.
        if !spiked_members.is_empty() {
            ops.extend(self.reseat(&spiked_members));
        }
        if stranded {
            ops.extend(self.repair());
        } else if flipped && spiked_members.is_empty() {
            // Even without stranded placements the masked population
            // changed, so the canonical profit must be re-scored.
            // Re-seating and repair already did.
            self.profit = evaluate(&self.system, &self.alloc).profit;
        }
        ops
    }

    /// Clears and freshly re-places the given (universe-id) members under
    /// the current rates, shedding any that no longer earn a profitable
    /// seat. Used after rate spikes, whose stale placements may violate
    /// stability.
    fn reseat(&mut self, members: &[ClientId]) -> Vec<(LogPosition, ModelOp)> {
        let ctx = SolverCtx::new(&self.system, &self.config.solver);
        let mut scored = ScoredAllocation::lowered(&ctx.compiled, self.alloc.clone());
        for &u in members {
            let Some(dense) = self.dense_of[u.index()] else { continue };
            let dense = ClientId(dense);
            scored.clear_client(dense);
            if let Some(candidate) =
                best_cluster(&ctx, scored.alloc(), dense).filter(|c| c.score > 0.0)
            {
                commit_scored(&mut scored, dense, &candidate);
            }
            // No profitable seat: left cleared, so `adopt` sheds it.
        }
        self.adopt(scored.into_allocation())
    }

    /// Runs the shared repair → shed → escalate state machine
    /// ([`repair_failures`]) on the standing allocation, with the
    /// pre-fault canonical profit as the escalation reference.
    fn repair(&mut self) -> Vec<(LogPosition, ModelOp)> {
        let _span = telemetry::span!("serve.repair");
        telemetry::counter!("serve.repairs").incr();
        let ctx = SolverCtx::new(&self.system, &self.config.solver);
        let (repaired, _) = repair_failures(
            &ctx,
            self.alloc.clone(),
            &self.failed(),
            self.profit,
            self.config.repair,
            self.config.seed,
            || {
                telemetry::counter!("serve.repair.escalations").incr();
                telemetry::span!("serve.repair.escalate")
            },
        );
        self.adopt(repaired)
    }

    /// Folds the accepted ops into an epoch: applies the fault plan's
    /// records for the new epoch, re-optimizes the served population from
    /// a warm start, sheds what stopped being profitable, and streams the
    /// resulting deltas. Returns `(ops, clients shed)`.
    fn fold(&mut self) -> (Vec<(LogPosition, ModelOp)>, u64) {
        let _span = telemetry::span!("serve.fold");
        self.mutations = 0;
        self.stats.folds += 1;
        let shed_before = self.stats.shed;
        let mut ops = Vec::new();

        if let Some(plan) = self.plan.take() {
            let events: Vec<FaultEvent> =
                plan.events_at(self.epoch as usize).iter().map(|r| r.event).collect();
            ops.extend(self.apply_faults(&events));
            self.plan = Some(plan);
        }

        let ctx = SolverCtx::new(&self.system, &self.config.solver);
        let mut scored = ScoredAllocation::lowered(&ctx.compiled, self.alloc.clone());
        cloudalloc_core::improve_scored(&ctx, &mut scored, self.fold_seed());
        ops::shed_unprofitable(&ctx, &mut scored);
        ops.extend(self.adopt(scored.into_allocation()));

        self.epoch += 1;
        ops.push(self.push_op(ModelOp::Epoch { epoch: self.epoch, profit: self.profit }));
        telemetry::Event::new("serve.epoch")
            .field_u64("epoch", self.epoch)
            .field_u64("admitted", self.members.len() as u64)
            .field_f64("profit", self.profit)
            .emit();
        (ops, self.stats.shed - shed_before)
    }

    /// Installs a post-repair/post-fold allocation over the *current*
    /// population: emits `Placements` deltas for moved members, sheds
    /// members the new allocation no longer serves, and settles.
    fn adopt(&mut self, next: Allocation) -> Vec<(LogPosition, ModelOp)> {
        let mut moved: Vec<ModelOp> = Vec::new();
        let mut gone: Vec<ClientId> = Vec::new();
        for (d, &u) in self.members.iter().enumerate() {
            let dense = ClientId(d);
            let (old_p, new_p) = (self.alloc.placements(dense), next.placements(dense));
            if new_p.is_empty() {
                gone.push(dense);
            } else if old_p != new_p || self.alloc.cluster_of(dense) != next.cluster_of(dense) {
                let cluster = next.cluster_of(dense).expect("placed clients are assigned");
                moved.push(ModelOp::Placements {
                    client: u,
                    cluster,
                    placements: wire_placements(new_p),
                });
            }
        }
        self.alloc = next;
        let mut ops: Vec<(LogPosition, ModelOp)> =
            moved.into_iter().map(|op| self.push_op(op)).collect();
        for &dense in &gone {
            ops.push(self.push_op(ModelOp::Shed { client: self.members[dense.index()] }));
            telemetry::counter!("serve.sheds").incr();
        }
        self.stats.shed += gone.len() as u64;
        self.settle(&gone);
        ops
    }

    fn after_mutation(&mut self, _clock: &dyn Clock) -> Vec<(LogPosition, ModelOp)> {
        self.mutations += 1;
        if self.config.epoch_every > 0 && self.mutations >= self.config.epoch_every {
            self.fold().0
        } else {
            Vec::new()
        }
    }

    // ------------------------------------------------------------------
    // Population plumbing
    // ------------------------------------------------------------------

    /// Ends a mutation: removes the members in `gone` (dense ids) from the
    /// population, keeping the order of the rest, then makes the standing
    /// allocation canonical with one replay — a renumbering one when
    /// somebody left — and re-scores the canonical profit.
    fn settle(&mut self, gone: &[ClientId]) {
        if !gone.is_empty() {
            self.system.retain_clients(|c| !gone.contains(&c.id));
            for &dense in gone {
                self.dense_of[self.members[dense.index()].index()] = None;
            }
            self.members.retain(|u| self.dense_of[u.index()].is_some());
            for (dense, &u) in self.members.iter().enumerate() {
                self.dense_of[u.index()] = Some(dense);
            }
        }
        self.alloc = self.alloc.replayed_without(&self.system, gone);
        // The canonical batch score — what an external re-score of the
        // same population reproduces exactly.
        self.profit = evaluate(&self.system, &self.alloc).profit;
    }

    fn failed(&self) -> Vec<ServerId> {
        self.down.iter().enumerate().filter(|&(_, &d)| d).map(|(j, _)| ServerId(j)).collect()
    }

    fn observe_latency(&mut self, t0: u64, clock: &dyn Clock) -> (u64, bool) {
        let latency_us = clock.now_us().saturating_sub(t0);
        let slo_ok = latency_us <= self.config.slo_us;
        if !slo_ok {
            self.stats.slo_misses += 1;
            telemetry::counter!("serve.slo_misses").incr();
        }
        self.stats.max_latency_us = self.stats.max_latency_us.max(latency_us);
        telemetry::histogram!("serve.latency_us").record(latency_us);
        (latency_us, slo_ok)
    }

    fn push_op(&mut self, op: ModelOp) -> (LogPosition, ModelOp) {
        let pos = LogPosition(self.log_pos);
        self.log_pos += 1;
        (pos, op)
    }

    fn fold_seed(&self) -> u64 {
        (self.config.seed ^ 0x5E87_E5EE_D000_0000)
            .wrapping_add(self.epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

fn wire_placements(placements: &[(ServerId, cloudalloc_model::Placement)]) -> Vec<WirePlacement> {
    placements
        .iter()
        .map(|&(server, p)| WirePlacement {
            server,
            alpha: p.alpha,
            phi_p: p.phi_p,
            phi_c: p.phi_c,
        })
        .collect()
}
