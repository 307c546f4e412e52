//! The TCP/JSONL transport: an accept loop, per-connection reader
//! threads, and a single engine loop that owns all state.
//!
//! # Determinism seams
//!
//! All requests funnel through one mpsc channel into the engine loop, so
//! the engine processes a *total order* of inputs. Socket accept order
//! and cross-connection interleaving are the only nondeterminism left,
//! and both are pinned by the harness protocol: a scripted client waits
//! for each response before sending the next request, and the harness
//! connects sessions one at a time (each waits for `Welcome`). Under
//! that discipline the input order — and therefore every transcript
//! byte — is reproducible.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread;

use cloudalloc_protocol::{decode_line, encode_line, ClientMessage, ServerMessage, WireError};

use crate::clock::Clock;
use crate::engine::{Engine, EngineStats};

/// Transport options.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeOptions {
    /// Serve exactly this many connections, then stop accepting and shut
    /// down once they close. `None` serves until the process dies —
    /// production mode.
    pub accept: Option<usize>,
}

/// What a completed serve run did.
#[derive(Debug, Clone, Copy)]
pub struct ServeSummary {
    /// Connections accepted.
    pub connections: u64,
    /// Engine-side request/SLO accounting.
    pub stats: EngineStats,
    /// Final canonical profit of the served population.
    pub profit: f64,
    /// Served clients at shutdown.
    pub admitted: usize,
    /// Final epoch index.
    pub epoch: u64,
}

/// Longest request line accepted, newline included: far above the longest
/// valid request, so only a peer that never ends its line reaches it.
const MAX_LINE_BYTES: usize = 64 * 1024;

enum Input {
    Conn(u64, TcpStream),
    Line(u64, String),
    /// The connection's line reached [`MAX_LINE_BYTES`]; its reader quit,
    /// and dropping its writer closes it.
    Oversized(u64),
    Gone(u64),
    AcceptDone,
}

/// Runs the serve loop on the calling thread until the accept budget is
/// exhausted and every connection has closed. Returns the summary and
/// the engine (so a harness can audit final state in-process).
pub fn serve(
    listener: TcpListener,
    mut engine: Engine,
    clock: Box<dyn Clock>,
    opts: ServeOptions,
) -> std::io::Result<(ServeSummary, Engine)> {
    let (tx, rx) = mpsc::channel::<Input>();
    let accept = opts.accept;
    let accept_tx = tx.clone();
    let accept_handle = thread::spawn(move || accept_loop(listener, accept, accept_tx));
    drop(tx);

    let mut writers: BTreeMap<u64, TcpStream> = BTreeMap::new();
    let mut subscribers: BTreeSet<u64> = BTreeSet::new();
    let mut accept_done = false;
    let mut connections = 0u64;
    let mut served_any = false;

    while let Ok(input) = rx.recv() {
        match input {
            Input::Conn(id, stream) => {
                connections += 1;
                served_any = true;
                let mut stream = stream;
                let _ = send(&mut stream, &engine.welcome());
                writers.insert(id, stream);
            }
            // A connection without a writer said `Bye` or went away: it is
            // owed no reply, so what it still sends changes nothing.
            Input::Line(id, _) if !writers.contains_key(&id) => {}
            Input::Line(id, line) => match decode_line::<ClientMessage>(&line) {
                Err(WireError::Empty) => {}
                Err(err) => {
                    if let Some(w) = writers.get_mut(&id) {
                        let _ = send(w, &ServerMessage::Error { req: 0, message: err.to_string() });
                    }
                }
                Ok(msg) => {
                    if matches!(msg, ClientMessage::Subscribe { .. }) {
                        subscribers.insert(id);
                    }
                    let bye = matches!(msg, ClientMessage::Bye { .. });
                    let outcome = engine.handle(&msg, clock.as_ref());
                    if let Some(w) = writers.get_mut(&id) {
                        let _ = send(w, &outcome.response);
                    }
                    for (log, op) in outcome.ops {
                        let delta = ServerMessage::Delta { log, op };
                        for &sid in subscribers.iter() {
                            if let Some(w) = writers.get_mut(&sid) {
                                let _ = send(w, &delta);
                            }
                        }
                    }
                    if bye {
                        writers.remove(&id);
                        subscribers.remove(&id);
                    }
                }
            },
            Input::Oversized(id) => {
                if let Some(mut w) = writers.remove(&id) {
                    let message = format!("request line exceeds {MAX_LINE_BYTES} bytes");
                    let _ = send(&mut w, &ServerMessage::Error { req: 0, message });
                }
                subscribers.remove(&id);
            }
            Input::Gone(id) => {
                writers.remove(&id);
                subscribers.remove(&id);
            }
            Input::AcceptDone => accept_done = true,
        }
        if accept_done && writers.is_empty() && (served_any || opts.accept == Some(0)) {
            break;
        }
    }
    drop(rx);
    let _ = accept_handle.join();

    let summary = ServeSummary {
        connections,
        stats: engine.stats(),
        profit: engine.profit(),
        admitted: engine.members().len(),
        epoch: engine.epoch(),
    };
    Ok((summary, engine))
}

fn accept_loop(listener: TcpListener, accept: Option<usize>, tx: mpsc::Sender<Input>) {
    let mut next_id = 0u64;
    loop {
        if let Some(limit) = accept {
            if next_id as usize >= limit {
                break;
            }
        }
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => break,
        };
        let id = next_id;
        next_id += 1;
        // A reply and its op-log deltas leave as separate small writes;
        // with Nagle's algorithm on, the second one waits for the
        // peer's delayed ACK and a lockstep subscriber stalls on every
        // mutation.
        let _ = stream.set_nodelay(true);
        let reader = match stream.try_clone() {
            Ok(r) => r,
            Err(_) => continue,
        };
        if tx.send(Input::Conn(id, stream)).is_err() {
            break;
        }
        let line_tx = tx.clone();
        thread::spawn(move || read_loop(id, reader, line_tx));
    }
    let _ = tx.send(Input::AcceptDone);
}

fn read_loop(id: u64, stream: TcpStream, tx: mpsc::Sender<Input>) {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.by_ref().take(MAX_LINE_BYTES as u64).read_line(&mut line) {
            Ok(_) if line.ends_with('\n') => {
                if tx.send(Input::Line(id, line.clone())).is_err() {
                    return;
                }
            }
            Ok(MAX_LINE_BYTES) => {
                let _ = tx.send(Input::Oversized(id));
                break;
            }
            // EOF or a read error. A non-empty buffer here is a line
            // truncated by a mid-request disconnect; it is dropped — the
            // peer that never finished its request is in no position to
            // read an answer.
            _ => break,
        }
    }
    let _ = tx.send(Input::Gone(id));
}

fn send(stream: &mut TcpStream, msg: &ServerMessage) -> std::io::Result<()> {
    let mut line = encode_line(msg);
    line.push('\n');
    stream.write_all(line.as_bytes())
}
