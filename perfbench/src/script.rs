//! The `serve_churn` request script: a seeded, closed-loop churn mix.
//!
//! The client draws each request from a fixed mix — 60% `Admit` of a
//! client it has not asked for yet, 15% `Depart` and 15% `Renegotiate`
//! of a client it saw admitted, 10% `Query` — and learns from each reply
//! which clients are admitted. A `Depart` or `Renegotiate` with nobody
//! known to be admitted becomes an `Admit`; an `Admit` once every client
//! of the universe has asked becomes a `Query`. Because the engine is
//! deterministic, the whole session is a pure function of the seed and
//! the universe.

use cloudalloc_model::{ClientId, CloudSystem};
use cloudalloc_protocol::{ClientMessage, RejectReason, ServerMessage};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The request kinds of the mix, used to split latencies by kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// `Admit` of a fresh client.
    Admit,
    /// `Depart` of a client seen admitted.
    Depart,
    /// `Renegotiate` of a client seen admitted.
    Renegotiate,
    /// `Query` of the engine state.
    Query,
}

impl Kind {
    /// The kind of a scripted message.
    pub fn of(msg: &ClientMessage) -> Kind {
        match msg {
            ClientMessage::Depart { .. } => Kind::Depart,
            ClientMessage::Renegotiate { .. } => Kind::Renegotiate,
            ClientMessage::Query { .. } => Kind::Query,
            _ => Kind::Admit,
        }
    }
}

/// The client side of one session: draws requests and tracks which
/// clients it saw admitted.
pub struct Script {
    rng: StdRng,
    /// Universe clients in the order they will first ask for admission.
    fresh: Vec<ClientId>,
    next_fresh: usize,
    /// Clients the replies showed as admitted, in admission order.
    admitted: Vec<ClientId>,
    /// Each universe client's contract rates `(agreed, predicted)`.
    rates: Vec<(f64, f64)>,
    next_req: u64,
}

impl Script {
    /// A fresh script over `universe`, seeded by `seed`.
    pub fn new(universe: &CloudSystem, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut fresh: Vec<ClientId> = (0..universe.num_clients()).map(ClientId).collect();
        fresh.shuffle(&mut rng);
        let rates = universe.clients().iter().map(|c| (c.rate_agreed, c.rate_predicted)).collect();
        Self { rng, fresh, next_fresh: 0, admitted: Vec::new(), rates, next_req: 1 }
    }

    /// The next request of the session.
    pub fn next_request(&mut self) -> ClientMessage {
        let req = self.next_req;
        self.next_req += 1;
        let draw: f64 = self.rng.gen();
        let known = !self.admitted.is_empty();
        let fresh = self.fresh.get(self.next_fresh).copied();
        if let Some(client) = fresh.filter(|_| draw < 0.60 || (draw < 0.90 && !known)) {
            self.next_fresh += 1;
            ClientMessage::Admit { req, client }
        } else if draw >= 0.90 || !known {
            ClientMessage::Query { req }
        } else if draw < 0.75 {
            let client = self.admitted[self.rng.gen_range(0..self.admitted.len())];
            ClientMessage::Depart { req, client }
        } else {
            let client = self.admitted[self.rng.gen_range(0..self.admitted.len())];
            let factor = self.rng.gen_range(0.8..1.25);
            let (agreed, predicted) = self.rates[client.index()];
            ClientMessage::Renegotiate {
                req,
                client,
                rate_agreed: agreed * factor,
                rate_predicted: predicted * factor,
            }
        }
    }

    /// Learns from the reply to a request.
    pub fn observe(&mut self, reply: &ServerMessage) {
        match *reply {
            ServerMessage::Admitted { client, .. } => self.admitted.push(client),
            ServerMessage::Departed { client, .. }
            | ServerMessage::Rejected { client, reason: RejectReason::NotAdmitted, .. } => {
                // A `NotAdmitted` rejection means a fold shed the client
                // without this connection seeing it.
                self.admitted.retain(|&c| c != client);
            }
            _ => {}
        }
    }

    /// Clients the replies showed as admitted.
    pub fn admitted(&self) -> &[ClientId] {
        &self.admitted
    }
}
