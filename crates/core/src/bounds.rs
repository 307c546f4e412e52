//! An upper bound on the optimal profit, via relaxation.
//!
//! The heuristic's quality is usually judged against the Monte-Carlo
//! best-found solution (paper §VI), but that is itself a heuristic. This
//! module provides a cheap *certificate*: a bound no feasible allocation
//! can exceed, obtained by relaxing every coupling constraint:
//!
//! * each client is granted **every server of the best cluster for it**
//!   that fits its disk, whole (`φ = 1` on both resources, no
//!   competition), pooled into one M/M/1 queue per resource. Splitting
//!   `λ` as `x_j` over servers of service rates `s_j` gives a response
//!   time `Σ_j x_j/(s_j − x_j) / λ`, and `x/(s − x)` is convex and
//!   1-homogeneous, so the sum is at least `λ/(S − λ)` with `S = Σ_j s_j`:
//!   `R ≥ 1/(S^p_k − λ) + 1/(S^c_k − λ)`. That lower-bounds the client's
//!   response time and so upper-bounds its revenue;
//! * total cost is lower-bounded by each client's **cheapest possible
//!   marginal utilization cost** `min_j P1_j·λ·t̄^p/C^p_j` (constant
//!   costs `P0 ≥ 0` are dropped entirely);
//! * admission is free: clients whose relaxed margin is negative
//!   contribute zero.
//!
//! The bound is loose under contention (many clients per server) but
//! tight enough to certify single-digit optimality gaps on the paper's
//! scenarios — and it is exact on a system with one client per
//! single-server cluster and negligible `P0`.

use cloudalloc_model::{ClientId, CloudSystem};

/// Per-client contribution to the bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientBound {
    /// The client.
    pub client: ClientId,
    /// Lower bound on the mean response time (the pooled servers of the
    /// best cluster); `∞` when no cluster can stably host the client.
    pub best_response: f64,
    /// Revenue upper bound `λ̃·U(best_response)`.
    pub revenue_bound: f64,
    /// Marginal cost lower bound (cheapest utilization cost anywhere).
    pub cost_floor: f64,
}

impl ClientBound {
    /// The client's margin contribution `max(0, revenue − cost)`.
    pub fn margin(&self) -> f64 {
        (self.revenue_bound - self.cost_floor).max(0.0)
    }
}

/// Computes the per-client relaxation bounds.
pub fn client_bounds(system: &CloudSystem) -> Vec<ClientBound> {
    let classes = system.server_classes();
    // Servers per (cluster, class): a cluster's pooled capacity for a
    // client depends only on these counts.
    let mut count = vec![0.0f64; system.num_clusters() * classes.len()];
    for server in system.servers() {
        count[server.cluster.index() * classes.len() + server.class.index()] += 1.0;
    }
    system
        .clients()
        .iter()
        .map(|c| {
            let mut best_response = f64::INFINITY;
            for cluster in count.chunks(classes.len()) {
                // Pooled service rates of the servers that fit the disk.
                let (mut pooled_p, mut pooled_c) = (0.0, 0.0);
                for (class, &n) in classes.iter().zip(cluster) {
                    if n > 0.0 && class.cap_storage >= c.storage {
                        pooled_p += n * class.cap_processing / c.exec_processing;
                        pooled_c += n * class.cap_communication / c.exec_communication;
                    }
                }
                if pooled_p > c.rate_predicted && pooled_c > c.rate_predicted {
                    let t =
                        1.0 / (pooled_p - c.rate_predicted) + 1.0 / (pooled_c - c.rate_predicted);
                    best_response = best_response.min(t);
                }
            }
            let revenue_bound = if best_response.is_finite() {
                c.rate_agreed * system.utility_of(c.id).value(best_response)
            } else {
                0.0
            };
            // No hostable cluster ⇒ the client contributes nothing either
            // way; zero the floor so margins stay well-defined.
            let cost_floor = if best_response.is_finite() {
                classes
                    .iter()
                    .map(|class| {
                        class.cost_per_utilization * c.rate_predicted * c.exec_processing
                            / class.cap_processing
                    })
                    .fold(f64::INFINITY, f64::min)
            } else {
                0.0
            };
            ClientBound { client: c.id, best_response, revenue_bound, cost_floor }
        })
        .collect()
}

/// An upper bound on the optimal profit of `system`: no feasible
/// allocation — under either admission policy — can earn more.
pub fn profit_upper_bound(system: &CloudSystem) -> f64 {
    client_bounds(system).iter().map(ClientBound::margin).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve, SolverConfig};
    use cloudalloc_workload::{generate, ScenarioConfig};

    #[test]
    fn bound_dominates_the_solver_on_many_seeds() {
        for seed in 0..8 {
            let system = generate(&ScenarioConfig::paper(20), 900 + seed);
            let bound = profit_upper_bound(&system);
            let achieved = solve(&system, &SolverConfig::fast(), seed).report.profit;
            assert!(
                bound >= achieved - 1e-9,
                "seed {seed}: bound {bound} below achieved {achieved}"
            );
        }
    }

    #[test]
    fn bound_is_tight_on_a_dedicated_system() {
        // One client, one server that exactly realizes the relaxation
        // (whole machine, only the P0 term separates bound from truth).
        use cloudalloc_model::{SystemBuilder, UtilityFunction};
        let mut b = SystemBuilder::new();
        let class = b.server_class(4.0, 4.0, 4.0, 0.0, 0.5); // P0 = 0
        let sla = b.utility_class(UtilityFunction::linear(2.0, 0.5));
        let k = b.cluster();
        b.servers(k, class, 1);
        b.client(sla, 1.0, 0.5, 0.5, 0.5);
        let system = b.build();
        let bound = profit_upper_bound(&system);
        let achieved = solve(&system, &SolverConfig::default(), 1).report.profit;
        assert!(bound >= achieved - 1e-9);
        assert!(
            (bound - achieved) / bound < 0.01,
            "bound {bound} not tight vs achieved {achieved}"
        );
    }

    #[test]
    fn bound_holds_when_a_client_splits_its_traffic() {
        // λ = 7 nearly saturates either rate-8 server, so the solver
        // splits the client over both; a one-server bound (R ≥ 2, bound
        // 41.56) sat below the achieved 63.34.
        use cloudalloc_model::{SystemBuilder, UtilityFunction};
        let mut b = SystemBuilder::new();
        let class = b.server_class(4.0, 4.0, 4.0, 0.0, 0.5);
        let sla = b.utility_class(UtilityFunction::linear(10.0, 2.0));
        let k = b.cluster();
        b.servers(k, class, 2);
        b.client(sla, 7.0, 0.5, 0.5, 0.5);
        let system = b.build();
        let bound = profit_upper_bound(&system);
        let achieved = solve(&system, &SolverConfig::default(), 1).report.profit;
        assert!(achieved > 60.0, "the solver no longer splits: {achieved}");
        assert!(bound >= achieved - 1e-9, "bound {bound} below achieved {achieved}");
    }

    #[test]
    fn unhostable_clients_contribute_nothing() {
        use cloudalloc_model::{SystemBuilder, UtilityFunction};
        let mut b = SystemBuilder::new();
        let class = b.server_class(1.0, 1.0, 1.0, 1.0, 1.0);
        let sla = b.utility_class(UtilityFunction::linear(5.0, 0.1));
        let k = b.cluster();
        b.servers(k, class, 1);
        // Demands 5·1.0 = 5 processing units; no server can host it.
        b.client(sla, 5.0, 1.0, 1.0, 0.5);
        let system = b.build();
        let bounds = client_bounds(&system);
        assert_eq!(bounds[0].best_response, f64::INFINITY);
        assert_eq!(bounds[0].margin(), 0.0);
        assert_eq!(profit_upper_bound(&system), 0.0);
    }

    #[test]
    fn margins_never_go_negative() {
        let system = generate(&ScenarioConfig::overloaded(15), 901);
        for b in client_bounds(&system) {
            assert!(b.margin() >= 0.0);
            assert!(b.cost_floor >= 0.0);
        }
        assert!(profit_upper_bound(&system) >= 0.0);
    }
}
