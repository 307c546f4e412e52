//! Allocation state: the decision variables `x`, `α`, `φ` and the derived
//! server on/off indicators `y`.

use serde::{Deserialize, Serialize};

use crate::ids::{ClientId, ClusterId, ServerId};
use crate::system::CloudSystem;

/// The share of one server granted to one client: a dispersion fraction
/// `α_{ij}` plus GPS shares of the processing and communication capacity.
///
/// Storage is not part of the placement because the paper allocates disk by
/// the client's constant need `m_i` (constraint (8)); the evaluator charges
/// `m_i` against every server where `α_{ij} > 0`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Placement {
    /// Portion `α_{ij} ∈ (0, 1]` of the client's requests routed here.
    pub alpha: f64,
    /// GPS share `φ^p_{ij} ∈ (0, 1]` of the server's processing capacity.
    pub phi_p: f64,
    /// GPS share `φ^c_{ij} ∈ (0, 1]` of the communication capacity.
    pub phi_c: f64,
}

impl Placement {
    /// Validates the placement fields, panicking on out-of-range values.
    fn validate(&self) {
        for (name, v) in [("alpha", self.alpha), ("phi_p", self.phi_p), ("phi_c", self.phi_c)] {
            assert!(v.is_finite() && (0.0..=1.0).contains(&v), "{name} must lie in [0,1], got {v}");
        }
    }
}

/// Aggregate load of one server under an allocation, background included.
///
/// Maintained incrementally by [`Allocation`] so solvers can query free
/// capacity in O(1).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ServerLoad {
    /// Total processing share granted (background + all placements).
    pub phi_p: f64,
    /// Total communication share granted (background + all placements).
    pub phi_c: f64,
    /// Total storage committed, in capacity units (background + `Σ m_i`).
    pub storage: f64,
    /// Processing *work* arrival rate `Σ_i α_{ij} λ_i t̄^p_i`; dividing by
    /// `C^p_j` gives the utilization `ρ_j` that drives the linear cost term.
    pub work_processing: f64,
    /// Number of clients with a positive placement on this server.
    pub placements: usize,
}

impl ServerLoad {
    /// Processing share still free (clamped at zero).
    pub fn free_phi_p(&self) -> f64 {
        (1.0 - self.phi_p).max(0.0)
    }

    /// Communication share still free (clamped at zero).
    pub fn free_phi_c(&self) -> f64 {
        (1.0 - self.phi_c).max(0.0)
    }

    /// True when the server hosts client traffic and therefore must be ON
    /// (the paper's `y_j` from constraint (3)); background-only servers are
    /// considered ON by their prior owner and are not charged here.
    pub fn is_on(&self) -> bool {
        self.placements > 0
    }
}

/// Per-cluster upper bounds on the best free capacity any single server in
/// the cluster still offers. Maintained *monotonically* between exact
/// refreshes: every load mutation can only raise a bound, so the invariant
/// `bound ≥ max_j free_j` holds through arbitrary mutate/rollback
/// sequences, and a candidate search may safely skip a cluster whose bound
/// already rules every server out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSlack {
    /// Upper bound on `max_j (cap_storage_j − storage_j)`.
    pub storage: f64,
    /// Upper bound on `max_j free φ^p_j`.
    pub phi_p: f64,
    /// Upper bound on `max_j free φ^c_j`.
    pub phi_c: f64,
}

impl ClusterSlack {
    const EMPTY: Self =
        Self { storage: f64::NEG_INFINITY, phi_p: f64::NEG_INFINITY, phi_c: f64::NEG_INFINITY };
}

/// The complete decision state for one epoch: client→cluster assignment,
/// per-(client, server) placements, and per-server aggregate loads.
///
/// Mutations keep the aggregates and both direction indices (client→servers
/// and server→clients) consistent, but do *not* enforce capacity
/// feasibility — solvers may pass through transiently infeasible states and
/// call [`crate::check_feasibility`] on the final answer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Allocation {
    cluster_of: Vec<Option<ClusterId>>,
    /// Per client: `(server, placement)` pairs sorted by server id.
    placements: Vec<Vec<(ServerId, Placement)>>,
    /// Per server: clients with a positive placement, sorted by client id.
    residents: Vec<Vec<ClientId>>,
    loads: Vec<ServerLoad>,
    /// Derived search index (cluster of each server), cached here because
    /// `restore_load` has no system handle. Not semantic state: skipped by
    /// serde and equality; rebuilt via [`Allocation::build_slack_index`].
    #[serde(skip)]
    server_cluster: Vec<ClusterId>,
    /// Storage capacity of each server's class (same caching rationale).
    #[serde(skip)]
    server_cap_storage: Vec<f64>,
    /// Per-cluster slack bounds; empty when the index is absent (e.g. on a
    /// deserialized allocation), which disables slack-based pruning.
    #[serde(skip)]
    slack: Vec<ClusterSlack>,
}

/// Equality compares only the semantic decision state. The slack index is
/// excluded deliberately: bounds are *upper* bounds that legitimately
/// diverge between two semantically identical allocations (e.g. after a
/// savepoint rollback), and rollback exactness is asserted via `==`.
impl PartialEq for Allocation {
    fn eq(&self, other: &Self) -> bool {
        self.cluster_of == other.cluster_of
            && self.placements == other.placements
            && self.residents == other.residents
            && self.loads == other.loads
    }
}

impl Allocation {
    /// Creates an empty allocation (no client assigned anywhere) sized for
    /// `system`, with server loads seeded from the background load.
    pub fn new(system: &CloudSystem) -> Self {
        let loads =
            (0..system.num_servers()).map(|j| Self::folded_load(system, ServerId(j), [])).collect();
        let mut this = Self {
            cluster_of: vec![None; system.num_clients()],
            placements: vec![Vec::new(); system.num_clients()],
            residents: vec![Vec::new(); system.num_servers()],
            loads,
            server_cluster: Vec::new(),
            server_cap_storage: Vec::new(),
            slack: Vec::new(),
        };
        this.build_slack_index(system);
        this
    }

    /// Rebuilds this allocation's derived aggregates against a
    /// re-parameterized `system`: cluster assignments and placements carry
    /// over verbatim while per-server work totals (which depend on the
    /// clients' predicted rates) are recomputed from scratch. This is how
    /// an allocation survives a rate change, a fault mask, or any other
    /// [`CloudSystem`] re-parameterization that keeps entity ids stable.
    /// Panics like [`Allocation::replayed_without`] with nobody gone.
    pub fn replayed_onto(&self, system: &CloudSystem) -> Allocation {
        self.replayed_without(system, &[])
    }

    /// The renumbering replay: the clients in `gone` are dropped and the
    /// survivors renumbered densely in order, as
    /// [`CloudSystem::retain_clients`] does.
    ///
    /// # Panics
    ///
    /// Panics if `system` does not hold exactly the survivors (`gone`
    /// lists distinct clients), or a carried placement references a
    /// server it does not contain.
    pub fn replayed_without(&self, system: &CloudSystem, gone: &[ClientId]) -> Allocation {
        let survivors = (0..self.cluster_of.len()).map(ClientId).filter(|c| !gone.contains(c));
        let kept = self.cluster_of.len() - gone.len();
        assert_eq!(kept, system.num_clients(), "replay target must hold the survivors");
        let mut fresh = Allocation::new(system);
        for (to, from) in survivors.enumerate() {
            let client = ClientId(to);
            if let Some(cluster) = self.cluster_of(from) {
                fresh.assign_cluster(client, cluster);
                for &(server, placement) in self.placements(from) {
                    fresh.place(system, client, server, placement);
                }
            }
        }
        fresh
    }

    /// Appends an empty, unassigned client slot — how an allocation
    /// follows [`CloudSystem::add_client`]; a replayed allocation stays
    /// exactly a replay onto the grown system.
    pub fn push_client(&mut self) {
        self.cluster_of.push(None);
        self.placements.push(Vec::new());
    }

    /// Re-derives the loads of the servers `client` is placed on after its
    /// rates changed in `system` ([`CloudSystem::set_client_rates`]), with
    /// the same fold a replay runs, so a replayed allocation stays
    /// bit-identical to a replay onto the re-rated system.
    pub fn reprice_client(&mut self, system: &CloudSystem, client: ClientId) {
        for k in 0..self.placements[client.index()].len() {
            let server = self.placements[client.index()][k].0;
            let placed = self.residents[server.index()]
                .iter()
                .map(|&r| (r, self.placement(r, server).expect("residents hold a placement")));
            self.loads[server.index()] = Self::folded_load(system, server, placed);
            self.bump_slack(server.index());
        }
    }

    /// The load a replay folds onto `server`: its background, then each
    /// resident's placement there in the given (client-id) order.
    fn folded_load(
        system: &CloudSystem,
        server: ServerId,
        residents: impl IntoIterator<Item = (ClientId, Placement)>,
    ) -> ServerLoad {
        let bg = system.background(server);
        let mut load = ServerLoad {
            phi_p: bg.phi_p,
            phi_c: bg.phi_c,
            storage: bg.storage,
            work_processing: 0.0,
            placements: 0,
        };
        for (r, p) in residents {
            let c = system.client(r);
            load.phi_p += p.phi_p;
            load.phi_c += p.phi_c;
            load.storage += c.storage;
            load.work_processing += p.alpha * c.rate_predicted * c.exec_processing;
            load.placements += 1;
        }
        load
    }

    /// (Re)builds the per-cluster slack index from `system`. Needed only
    /// for allocations that did not come out of [`Allocation::new`] (e.g.
    /// deserialized ones, where serde leaves the index empty and slack
    /// pruning disabled).
    pub fn build_slack_index(&mut self, system: &CloudSystem) {
        self.server_cluster =
            (0..self.loads.len()).map(|j| system.server(ServerId(j)).cluster).collect();
        self.server_cap_storage =
            (0..self.loads.len()).map(|j| system.class_of(ServerId(j)).cap_storage).collect();
        self.slack = vec![ClusterSlack::EMPTY; system.num_clusters()];
        self.refresh_slack();
    }

    /// Tightens every cluster's slack bounds back to the exact per-cluster
    /// maxima. Called at commit points; between refreshes the bounds only
    /// grow (see [`ClusterSlack`]), preserving soundness without having to
    /// journal them through savepoint rollbacks. No-op when the index was
    /// never built.
    pub fn refresh_slack(&mut self) {
        if self.server_cluster.is_empty() {
            return;
        }
        self.slack.fill(ClusterSlack::EMPTY);
        for j in 0..self.loads.len() {
            self.bump_slack(j);
        }
    }

    /// The slack bounds of `cluster`, or `None` when the index is absent
    /// (callers must then fall back to scanning every server).
    pub fn cluster_slack(&self, cluster: ClusterId) -> Option<ClusterSlack> {
        self.slack.get(cluster.index()).copied()
    }

    /// Raises the slack bounds of server `j`'s cluster to cover its current
    /// free capacity. Must run after *every* load mutation — including ones
    /// that add load, because a placement replacement can shrink shares and
    /// thereby free capacity.
    fn bump_slack(&mut self, j: usize) {
        let Some(&cluster) = self.server_cluster.get(j) else {
            return;
        };
        let load = self.loads[j];
        let slack = &mut self.slack[cluster.index()];
        slack.storage = slack.storage.max(self.server_cap_storage[j] - load.storage);
        slack.phi_p = slack.phi_p.max(load.free_phi_p());
        slack.phi_c = slack.phi_c.max(load.free_phi_c());
    }

    /// Cluster the client is assigned to, if any (`x_{ik}`).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn cluster_of(&self, client: ClientId) -> Option<ClusterId> {
        self.cluster_of[client.index()]
    }

    /// Assigns `client` to `cluster` without touching its placements.
    ///
    /// # Panics
    ///
    /// Panics if the client already holds placements (clear them first via
    /// [`Allocation::clear_client`]) and is being moved to a different
    /// cluster.
    pub fn assign_cluster(&mut self, client: ClientId, cluster: ClusterId) {
        let slot = &mut self.cluster_of[client.index()];
        if *slot != Some(cluster) {
            assert!(
                self.placements[client.index()].is_empty(),
                "cannot move {client} across clusters while it holds placements"
            );
        }
        *slot = Some(cluster);
    }

    /// Placements of `client`, sorted by server id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn placements(&self, client: ClientId) -> &[(ServerId, Placement)] {
        &self.placements[client.index()]
    }

    /// The placement of `client` on `server`, if any.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn placement(&self, client: ClientId, server: ServerId) -> Option<Placement> {
        self.placements[client.index()]
            .binary_search_by_key(&server, |&(s, _)| s)
            .ok()
            .map(|pos| self.placements[client.index()][pos].1)
    }

    /// Clients resident on `server` (positive placements), sorted by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn residents(&self, server: ServerId) -> &[ClientId] {
        &self.residents[server.index()]
    }

    /// Aggregate load of `server` (background included).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn load(&self, server: ServerId) -> ServerLoad {
        self.loads[server.index()]
    }

    /// Sum of dispersion fractions `Σ_j α_{ij}` for `client`; a complete
    /// allocation has this equal to 1 for every assigned client.
    pub fn total_alpha(&self, client: ClientId) -> f64 {
        self.placements[client.index()].iter().map(|&(_, p)| p.alpha).sum()
    }

    /// True when the server must be powered (hosts client traffic).
    pub fn is_on(&self, server: ServerId) -> bool {
        self.loads[server.index()].is_on()
    }

    /// Ids of all servers currently ON.
    pub fn active_servers(&self) -> impl Iterator<Item = ServerId> + '_ {
        self.loads.iter().enumerate().filter(|(_, l)| l.is_on()).map(|(j, _)| ServerId(j))
    }

    /// Number of servers currently ON.
    pub fn num_active_servers(&self) -> usize {
        self.loads.iter().filter(|l| l.is_on()).count()
    }

    /// Sets (or replaces) the placement of `client` on `server`, keeping
    /// aggregates consistent. A placement with `alpha == 0` removes the
    /// pair entirely.
    ///
    /// # Panics
    ///
    /// Panics if the client is not assigned to the server's cluster, or the
    /// placement fields fall outside `[0, 1]`.
    pub fn place(
        &mut self,
        system: &CloudSystem,
        client: ClientId,
        server: ServerId,
        placement: Placement,
    ) {
        placement.validate();
        let server_cluster = system.server(server).cluster;
        assert_eq!(
            self.cluster_of[client.index()],
            Some(server_cluster),
            "{client} must be assigned to {server}'s cluster before placement"
        );
        if placement.alpha == 0.0 {
            self.remove(system, client, server);
            return;
        }
        let c = system.client(client);
        let load = &mut self.loads[server.index()];
        let list = &mut self.placements[client.index()];
        match list.binary_search_by_key(&server, |&(s, _)| s) {
            Ok(pos) => {
                let old = list[pos].1;
                load.phi_p += placement.phi_p - old.phi_p;
                load.phi_c += placement.phi_c - old.phi_c;
                load.work_processing +=
                    (placement.alpha - old.alpha) * c.rate_predicted * c.exec_processing;
                list[pos].1 = placement;
            }
            Err(pos) => {
                load.phi_p += placement.phi_p;
                load.phi_c += placement.phi_c;
                load.storage += c.storage;
                load.work_processing += placement.alpha * c.rate_predicted * c.exec_processing;
                load.placements += 1;
                list.insert(pos, (server, placement));
                let residents = &mut self.residents[server.index()];
                let rpos = residents.binary_search(&client).unwrap_err();
                residents.insert(rpos, client);
            }
        }
        self.bump_slack(server.index());
    }

    /// Removes the placement of `client` on `server`, if present.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn remove(&mut self, system: &CloudSystem, client: ClientId, server: ServerId) {
        let list = &mut self.placements[client.index()];
        if let Ok(pos) = list.binary_search_by_key(&server, |&(s, _)| s) {
            let (_, old) = list.remove(pos);
            let c = system.client(client);
            let load = &mut self.loads[server.index()];
            load.phi_p -= old.phi_p;
            load.phi_c -= old.phi_c;
            load.storage -= c.storage;
            load.work_processing -= old.alpha * c.rate_predicted * c.exec_processing;
            load.placements -= 1;
            // Guard against negative drift from float cancellation.
            load.phi_p = load.phi_p.max(0.0);
            load.phi_c = load.phi_c.max(0.0);
            load.storage = load.storage.max(0.0);
            load.work_processing = load.work_processing.max(0.0);
            let residents = &mut self.residents[server.index()];
            if let Ok(rpos) = residents.binary_search(&client) {
                residents.remove(rpos);
            }
            self.bump_slack(server.index());
        }
    }

    /// Removes every placement of `client` and its cluster assignment,
    /// returning the placements it held (useful for tentative local-search
    /// moves that may be rolled back).
    pub fn clear_client(
        &mut self,
        system: &CloudSystem,
        client: ClientId,
    ) -> Vec<(ServerId, Placement)> {
        let held = self.placements[client.index()].clone();
        for &(server, _) in &held {
            self.remove(system, client, server);
        }
        self.cluster_of[client.index()] = None;
        held
    }

    /// Unconditionally writes the cluster slot of `client`, bypassing the
    /// placement guard of [`Allocation::assign_cluster`]. Used by the
    /// incremental evaluator's journal rollback, which replays inverse
    /// mutations in reverse order and therefore restores the cluster slot
    /// while placements from before the transaction are still being
    /// re-attached.
    pub(crate) fn set_cluster_raw(&mut self, client: ClientId, cluster: Option<ClusterId>) {
        self.cluster_of[client.index()] = cluster;
    }

    /// Overwrites the aggregate load of `server` with a snapshot taken
    /// earlier. Inverse `place`/`remove` replays restore the placement
    /// *lists* exactly but leave ± float drift in the aggregates (removal
    /// clamps negatives at zero); rolling the snapshot back on top makes
    /// the restore bit-exact.
    pub(crate) fn restore_load(&mut self, server: ServerId, load: ServerLoad) {
        self.loads[server.index()] = load;
        self.bump_slack(server.index());
    }

    /// True when every client is assigned to a cluster and disperses all of
    /// its traffic (`Σ_j α_{ij} = 1` within `tol`).
    pub fn is_complete(&self, tol: f64) -> bool {
        self.cluster_of
            .iter()
            .enumerate()
            .all(|(i, k)| k.is_some() && (self.total_alpha(ClientId(i)) - 1.0).abs() <= tol)
    }

    /// Recomputes every aggregate from scratch and asserts it matches the
    /// incrementally maintained state; a debugging aid used by tests and
    /// property checks.
    ///
    /// # Panics
    ///
    /// Panics if any aggregate drifted by more than `1e-9`.
    pub fn assert_consistent(&self, system: &CloudSystem) {
        for j in 0..system.num_servers() {
            let sid = ServerId(j);
            let placed: Vec<(ClientId, Placement)> = (0..self.placements.len())
                .filter_map(|i| Some((ClientId(i), self.placement(ClientId(i), sid)?)))
                .collect();
            let residents: Vec<ClientId> = placed.iter().map(|&(c, _)| c).collect();
            let expect = Self::folded_load(system, sid, placed);
            let got = self.loads[j];
            assert!(
                (got.phi_p - expect.phi_p).abs() < 1e-9
                    && (got.phi_c - expect.phi_c).abs() < 1e-9
                    && (got.storage - expect.storage).abs() < 1e-9
                    && (got.work_processing - expect.work_processing).abs() < 1e-9
                    && got.placements == expect.placements,
                "aggregate drift on {sid}: got {got:?}, expected {expect:?}"
            );
            assert_eq!(self.residents[j], residents, "resident index drift on {sid}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::Server;
    use crate::{
        Client, Cluster, ServerClass, ServerClassId, UtilityClass, UtilityClassId, UtilityFunction,
    };

    fn system() -> CloudSystem {
        let classes = vec![ServerClass::new(ServerClassId(0), 4.0, 4.0, 4.0, 1.0, 0.5)];
        let utils = vec![UtilityClass::new(UtilityClassId(0), UtilityFunction::linear(2.0, 0.5))];
        let mut sys = CloudSystem::new(classes, utils);
        let k0 = sys.add_cluster(Cluster::new(ClusterId(0)));
        let k1 = sys.add_cluster(Cluster::new(ClusterId(1)));
        sys.add_server(Server::new(ServerClassId(0), k0));
        sys.add_server(Server::new(ServerClassId(0), k0));
        sys.add_server(Server::new(ServerClassId(0), k1));
        for i in 0..2 {
            sys.add_client(Client::new(ClientId(i), UtilityClassId(0), 2.0, 2.0, 0.5, 0.4, 1.0));
        }
        sys
    }

    fn placed() -> (CloudSystem, Allocation) {
        let sys = system();
        let mut alloc = Allocation::new(&sys);
        alloc.assign_cluster(ClientId(0), ClusterId(0));
        alloc.place(
            &sys,
            ClientId(0),
            ServerId(0),
            Placement { alpha: 0.6, phi_p: 0.5, phi_c: 0.4 },
        );
        alloc.place(
            &sys,
            ClientId(0),
            ServerId(1),
            Placement { alpha: 0.4, phi_p: 0.3, phi_c: 0.3 },
        );
        (sys, alloc)
    }

    #[test]
    fn placement_updates_aggregates() {
        let (sys, alloc) = placed();
        let l0 = alloc.load(ServerId(0));
        assert_eq!(l0.placements, 1);
        assert!((l0.phi_p - 0.5).abs() < 1e-12);
        assert!((l0.storage - 1.0).abs() < 1e-12);
        // work = alpha * lambda * exec_p = 0.6*2*0.5
        assert!((l0.work_processing - 0.6).abs() < 1e-12);
        assert!((alloc.total_alpha(ClientId(0)) - 1.0).abs() < 1e-12);
        alloc.assert_consistent(&sys);
    }

    #[test]
    fn replacing_a_placement_adjusts_not_duplicates() {
        let (sys, mut alloc) = placed();
        alloc.place(
            &sys,
            ClientId(0),
            ServerId(0),
            Placement { alpha: 0.2, phi_p: 0.1, phi_c: 0.1 },
        );
        let l0 = alloc.load(ServerId(0));
        assert_eq!(l0.placements, 1);
        assert!((l0.phi_p - 0.1).abs() < 1e-12);
        assert!((l0.work_processing - 0.2).abs() < 1e-12);
        alloc.assert_consistent(&sys);
    }

    #[test]
    fn zero_alpha_placement_removes_pair() {
        let (sys, mut alloc) = placed();
        alloc.place(
            &sys,
            ClientId(0),
            ServerId(1),
            Placement { alpha: 0.0, phi_p: 0.0, phi_c: 0.0 },
        );
        assert_eq!(alloc.placements(ClientId(0)).len(), 1);
        assert_eq!(alloc.residents(ServerId(1)), &[] as &[ClientId]);
        assert!(!alloc.is_on(ServerId(1)));
        alloc.assert_consistent(&sys);
    }

    #[test]
    fn clear_client_returns_held_placements_and_unassigns() {
        let (sys, mut alloc) = placed();
        let held = alloc.clear_client(&sys, ClientId(0));
        assert_eq!(held.len(), 2);
        assert_eq!(alloc.cluster_of(ClientId(0)), None);
        assert_eq!(alloc.num_active_servers(), 0);
        alloc.assert_consistent(&sys);
    }

    #[test]
    fn active_servers_reflect_residency() {
        let (_, alloc) = placed();
        let active: Vec<ServerId> = alloc.active_servers().collect();
        assert_eq!(active, vec![ServerId(0), ServerId(1)]);
        assert_eq!(alloc.num_active_servers(), 2);
    }

    #[test]
    fn is_complete_requires_assignment_and_full_alpha() {
        let (sys, mut alloc) = placed();
        assert!(!alloc.is_complete(1e-9)); // client 1 unassigned
        alloc.assign_cluster(ClientId(1), ClusterId(1));
        assert!(!alloc.is_complete(1e-9)); // client 1 has no traffic placed
        alloc.place(
            &sys,
            ClientId(1),
            ServerId(2),
            Placement { alpha: 1.0, phi_p: 0.9, phi_c: 0.9 },
        );
        assert!(alloc.is_complete(1e-9));
    }

    #[test]
    #[should_panic(expected = "must be assigned")]
    fn placing_in_wrong_cluster_panics() {
        let (sys, mut alloc) = placed();
        alloc.place(
            &sys,
            ClientId(0),
            ServerId(2),
            Placement { alpha: 0.1, phi_p: 0.1, phi_c: 0.1 },
        );
    }

    #[test]
    #[should_panic(expected = "cannot move")]
    fn moving_clusters_with_live_placements_panics() {
        let (_sys, mut alloc) = placed();
        alloc.assign_cluster(ClientId(0), ClusterId(1));
    }

    #[test]
    #[should_panic(expected = "alpha must lie in [0,1]")]
    fn rejects_out_of_range_alpha() {
        let (sys, mut alloc) = placed();
        alloc.place(
            &sys,
            ClientId(0),
            ServerId(0),
            Placement { alpha: 1.2, phi_p: 0.1, phi_c: 0.1 },
        );
    }

    #[test]
    fn random_mutation_sequences_keep_aggregates_consistent() {
        // A deterministic pseudo-random walk over place/remove/clear ops:
        // the incrementally maintained aggregates must always match a
        // from-scratch recomputation.
        let sys = system();
        let mut alloc = Allocation::new(&sys);
        alloc.assign_cluster(ClientId(0), ClusterId(0));
        alloc.assign_cluster(ClientId(1), ClusterId(0));
        let mut x: u64 = 0x9E3779B97F4A7C15;
        let mut next = || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) as f64 / (1u64 << 31) as f64
        };
        for step in 0..300 {
            let client = ClientId((next() * 2.0) as usize % 2);
            let server = ServerId((next() * 2.0) as usize % 2);
            let op = (next() * 3.0) as usize;
            match op {
                0 => {
                    let alpha = 0.05 + 0.9 * next();
                    let phi = 0.05 + 0.9 * next();
                    alloc.place(&sys, client, server, Placement { alpha, phi_p: phi, phi_c: phi });
                }
                1 => alloc.remove(&sys, client, server),
                _ => {
                    alloc.clear_client(&sys, client);
                    alloc.assign_cluster(client, ClusterId(0));
                }
            }
            if step % 37 == 0 {
                alloc.assert_consistent(&sys);
            }
        }
        alloc.assert_consistent(&sys);
    }

    /// Exact per-cluster maxima recomputed from scratch, for comparison
    /// against the monotone bounds.
    fn exact_slack(sys: &CloudSystem, alloc: &Allocation, cluster: ClusterId) -> ClusterSlack {
        let mut exact = ClusterSlack::EMPTY;
        for j in 0..sys.num_servers() {
            if sys.server(ServerId(j)).cluster != cluster {
                continue;
            }
            let load = alloc.load(ServerId(j));
            exact.storage = exact.storage.max(sys.class_of(ServerId(j)).cap_storage - load.storage);
            exact.phi_p = exact.phi_p.max(load.free_phi_p());
            exact.phi_c = exact.phi_c.max(load.free_phi_c());
        }
        exact
    }

    #[test]
    fn slack_bounds_stay_sound_and_refresh_makes_them_exact() {
        // Same pseudo-random walk as above: after every mutation the bound
        // must dominate the true maximum, and refresh_slack must land on
        // it exactly.
        let sys = system();
        let mut alloc = Allocation::new(&sys);
        alloc.assign_cluster(ClientId(0), ClusterId(0));
        alloc.assign_cluster(ClientId(1), ClusterId(0));
        let mut x: u64 = 0x2545F4914F6CDD1D;
        let mut next = || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) as f64 / (1u64 << 31) as f64
        };
        for step in 0..300 {
            let client = ClientId((next() * 2.0) as usize % 2);
            let server = ServerId((next() * 2.0) as usize % 2);
            match (next() * 3.0) as usize {
                0 => {
                    let alpha = 0.05 + 0.9 * next();
                    let phi = 0.05 + 0.9 * next();
                    alloc.place(&sys, client, server, Placement { alpha, phi_p: phi, phi_c: phi });
                }
                1 => alloc.remove(&sys, client, server),
                _ => {
                    alloc.clear_client(&sys, client);
                    alloc.assign_cluster(client, ClusterId(0));
                }
            }
            for k in 0..2 {
                let bound = alloc.cluster_slack(ClusterId(k)).unwrap();
                let exact = exact_slack(&sys, &alloc, ClusterId(k));
                assert!(
                    bound.storage >= exact.storage
                        && bound.phi_p >= exact.phi_p
                        && bound.phi_c >= exact.phi_c,
                    "step {step}: slack bound {bound:?} fell below exact {exact:?}"
                );
            }
            if step % 29 == 0 {
                alloc.refresh_slack();
                for k in 0..2 {
                    let bound = alloc.cluster_slack(ClusterId(k)).unwrap();
                    assert_eq!(bound, exact_slack(&sys, &alloc, ClusterId(k)));
                }
            }
        }
    }

    #[test]
    fn slack_index_absent_without_build() {
        // serde skips the index; a round-tripped allocation reports None
        // until build_slack_index is called.
        let (sys, mut alloc) = placed();
        let json = serde_json::to_string(&alloc).unwrap();
        let mut back: Allocation = serde_json::from_str(&json).unwrap();
        assert_eq!(back, alloc, "semantic equality ignores the index");
        assert_eq!(back.cluster_slack(ClusterId(0)), None);
        back.build_slack_index(&sys);
        // A rebuilt index is exact; compare against refreshed (exact)
        // bounds, since the original's are only monotone upper bounds.
        alloc.refresh_slack();
        assert_eq!(back.cluster_slack(ClusterId(0)), alloc.cluster_slack(ClusterId(0)));
    }

    #[test]
    fn background_load_seeds_server_load() {
        let classes = vec![ServerClass::new(ServerClassId(0), 4.0, 4.0, 4.0, 1.0, 0.5)];
        let utils = vec![UtilityClass::new(UtilityClassId(0), UtilityFunction::linear(2.0, 0.5))];
        let mut sys = CloudSystem::new(classes, utils);
        let k0 = sys.add_cluster(Cluster::new(ClusterId(0)));
        sys.add_server_with_background(
            Server::new(ServerClassId(0), k0),
            crate::BackgroundLoad::new(0.3, 0.2, 1.5),
        );
        let alloc = Allocation::new(&sys);
        let load = alloc.load(ServerId(0));
        assert!((load.phi_p - 0.3).abs() < 1e-12);
        assert!((load.free_phi_p() - 0.7).abs() < 1e-12);
        assert!((load.storage - 1.5).abs() < 1e-12);
        assert!(!load.is_on(), "background-only servers are not charged to us");
    }

    #[test]
    fn in_place_population_edits_keep_a_replayed_allocation_canonical() {
        let (mut sys, alloc) = placed();
        let mut alloc = alloc.replayed_onto(&sys);
        alloc.assign_cluster(ClientId(1), ClusterId(0));
        alloc.place(
            &sys,
            ClientId(1),
            ServerId(0),
            Placement { alpha: 1.0, phi_p: 0.2, phi_c: 0.1 },
        );
        let mut alloc = alloc.replayed_onto(&sys);

        // Growing by an empty slot.
        sys.add_client(Client::new(ClientId(2), UtilityClassId(0), 1.0, 1.0, 0.5, 0.4, 1.0));
        alloc.push_client();
        assert_eq!(alloc, alloc.replayed_onto(&sys));

        // Re-rating a placed client: `==` compares the loads exactly.
        sys.set_client_rates(ClientId(0), 3.0, 3.5);
        alloc.reprice_client(&sys, ClientId(0));
        assert_eq!(alloc, alloc.replayed_onto(&sys));
        assert!(
            (alloc.load(ServerId(0)).work_processing - (0.6 * 3.5 + 1.0 * 2.0) * 0.5).abs() < 1e-12
        );

        // Removing a client renumbers the survivors in order.
        let survivor = alloc.placements(ClientId(1)).to_vec();
        sys.retain_clients(|c| c.id != ClientId(0));
        let shrunk = alloc.replayed_without(&sys, &[ClientId(0)]);
        assert_eq!(shrunk.placements(ClientId(0)), survivor.as_slice());
        assert!(shrunk.placements(ClientId(1)).is_empty());
        assert!(!shrunk.is_on(ServerId(1)));
        shrunk.assert_consistent(&sys);
    }

    #[test]
    #[should_panic(expected = "replay target must hold the survivors")]
    fn replay_onto_a_different_population_panics() {
        let (mut sys, alloc) = placed();
        sys.add_client(Client::new(ClientId(2), UtilityClassId(0), 1.0, 1.0, 0.5, 0.4, 1.0));
        let _ = alloc.replayed_onto(&sys);
    }
}
