//! The load: two client threads, one connection each, in a closed loop
//! (`SegmentCached`) or on an open-loop camera schedule (`SegmentDelta`).

use crate::daemon::{request, Counters, Daemon};
use crate::guards::PhaseCounts;
use crate::trace::{Span, Tracer, Wire};
use crate::workload::{Inputs, Op, Shape, CONNECTIONS};
use iqft_serve::Client;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// What one timed phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// From the common start to the last reply.
    pub wall_s: f64,
    /// Per verified request: from the `Client` call (closed loop) or from
    /// the frame's due time (open loop) to its reply.
    pub latencies_ms: Vec<f64>,
    /// How late each request was sent after it was due.  In the closed
    /// loop a request is due when the connection's previous reply arrived.
    pub send_lags_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub verified_px: u64,
    pub counts: PhaseCounts,
    pub errors: Vec<String>,
    /// Each connection's next request index.
    pub next_k: Vec<usize>,
    pub spans: Vec<Span>,
    pub wire: Wire,
}

/// One connection's share of a phase.
#[derive(Default)]
struct ConnPhase {
    latencies_ms: Vec<f64>,
    send_lags_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    verified_px: u64,
    replies: u64,
    replies_cached: u64,
    recomputed_per_pass: Vec<u64>,
    tiles_hit_per_pass: Vec<u64>,
    errors: Vec<String>,
    last_reply: Option<Instant>,
    next_k: usize,
    spans: Vec<Span>,
    wire: Wire,
}

/// Runs one timed phase on every connection, continuing each connection's
/// request sequence at `next_k[conn]`, and collects its counts from the
/// replies and from the daemon's stats.  A closed loop runs for `seconds`;
/// the open loop sends as many whole clip passes as its schedule fits in
/// `seconds` (at least one).  With a tracer, each request's layer calls are
/// replayed and recorded after its reply.
pub fn run_phase(
    daemon: &mut Daemon,
    shape: &Shape,
    inputs: &Inputs,
    next_k: &[usize],
    seconds: f64,
    tracer: Option<&Tracer>,
) -> Phase {
    let before = daemon.stats();
    // Both connections start together, shortly after every thread exists.
    let start = Instant::now() + Duration::from_millis(20);
    let turns = Turns::default();
    let conns: Vec<ConnPhase> = std::thread::scope(|scope| {
        let handles: Vec<_> = daemon
            .clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| {
                let first_k = next_k[conn];
                let turns = &turns;
                scope.spawn(move || {
                    drive(
                        conn, client, shape, inputs, first_k, seconds, start, turns, tracer,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let after = daemon.stats();
    let mut phase = Phase::default();
    let mut last_reply = start;
    match (before, after) {
        (Ok(before), Ok(after)) => phase.counts.daemon = Counters::between(&before, &after),
        (Err(e), _) | (_, Err(e)) => phase.errors.push(e),
    }
    for mut c in conns {
        phase.latencies_ms.append(&mut c.latencies_ms);
        phase.send_lags_ms.append(&mut c.send_lags_ms);
        phase.attempted += c.attempted;
        phase.failed += c.failed;
        phase.verified_px += c.verified_px;
        phase.counts.replies += c.replies;
        phase.counts.replies_cached += c.replies_cached;
        add_per_pass(
            &mut phase.counts.recomputed_per_pass,
            &c.recomputed_per_pass,
        );
        add_per_pass(&mut phase.counts.tiles_hit_per_pass, &c.tiles_hit_per_pass);
        phase.errors.append(&mut c.errors);
        last_reply = last_reply.max(c.last_reply.unwrap_or(start));
        phase.next_k.push(c.next_k);
        phase.spans.append(&mut c.spans);
        phase.wire = Wire {
            pixels: phase.wire.pixels + c.wire.pixels,
            request_bytes: phase.wire.request_bytes + c.wire.request_bytes,
            reply_bytes: phase.wire.reply_bytes + c.wire.reply_bytes,
        };
    }
    phase.wall_s = last_reply.duration_since(start).as_secs_f64();
    phase
}

fn add_per_pass(total: &mut Vec<u64>, conn: &[u64]) {
    if total.len() < conn.len() {
        total.resize(conn.len(), 0);
    }
    for (t, c) in total.iter_mut().zip(conn) {
        *t += c;
    }
}

/// The open loop's send order across cameras: camera 0's frame `i`, then
/// camera 1's frame `i`, then camera 0's frame `i + 1`.  A camera sends when
/// its frame is due and the previous frame in this order has its reply, so
/// the daemon's cache sees the same operation sequence on every clip pass
/// and every run.  A late reply makes the next send late, and latency is
/// timed from the due time, so the wait is still counted.
#[derive(Default)]
struct Turns {
    next: Mutex<u64>,
    changed: Condvar,
}

impl Turns {
    fn wait_for(&self, turn: u64) {
        let mut next = self
            .next
            .lock()
            .expect("turn lock poisoned by a panicked load thread");
        while *next < turn {
            next = self
                .changed
                .wait(next)
                .expect("turn lock poisoned by a panicked load thread");
        }
    }

    /// Marks `turn` done; `u64::MAX` releases every waiter for good (a
    /// connection that stops early must not hold the other one up).
    fn finish(&self, turn: u64) {
        let mut next = self
            .next
            .lock()
            .expect("turn lock poisoned by a panicked load thread");
        *next = (*next).max(turn.saturating_add(1));
        self.changed.notify_all();
    }
}

fn sleep_until(at: Instant) {
    if let Some(wait) = at.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
}

#[allow(clippy::too_many_arguments)]
fn drive(
    conn: usize,
    client: &mut Client,
    shape: &Shape,
    inputs: &Inputs,
    first_k: usize,
    seconds: f64,
    start: Instant,
    turns: &Turns,
    tracer: Option<&Tracer>,
) -> ConnPhase {
    let op = shape.workload.op();
    let clip = shape.frames_per_conn;
    let mut recorder = tracer.map(|t| t.recorder(inputs.frame(conn, 0).pixels()));
    let mut out = ConnPhase::default();
    // Open loop: a fixed count of frames on a fixed schedule, the second
    // camera half an interval behind the first.
    let (frames, interval) = match op {
        Op::Delta => (
            ((seconds * f64::from(shape.fps) / clip as f64) as usize).max(1) * clip,
            Duration::from_secs(1) / shape.fps,
        ),
        Op::Cached => (usize::MAX, Duration::ZERO),
    };
    let deadline = start + Duration::from_secs_f64(seconds);
    let offset = interval * conn as u32 / 2;
    sleep_until(start);
    let mut due = start;
    let mut k = first_k;
    for i in 0..frames {
        let turn = (i * CONNECTIONS + conn) as u64;
        if op == Op::Delta {
            due = start + interval * i as u32 + offset;
            turns.wait_for(turn);
            sleep_until(due);
        } else if Instant::now() >= deadline {
            break;
        }
        let frame = inputs.frame(conn, k);
        let sent = Instant::now();
        let result = request(client, op, &frame.image);
        let done = Instant::now();
        turns.finish(turn);
        out.attempted += 1;
        out.send_lags_ms
            .push(sent.duration_since(due).as_secs_f64() * 1e3);
        let mut broken = false;
        match result {
            Ok(Some(reply)) => {
                out.replies += 1;
                out.replies_cached += u64::from(reply.cached);
                if frame.matches(reply.labels.as_slice()) {
                    out.verified_px += frame.pixels() as u64;
                    let from = if op == Op::Delta { due } else { sent };
                    out.latencies_ms
                        .push(done.duration_since(from).as_secs_f64() * 1e3);
                } else {
                    out.failed += 1;
                    out.errors
                        .push(format!("connection {conn} request {k}: label mismatch"));
                }
                if op == Op::Delta {
                    let pass = i / clip;
                    if out.recomputed_per_pass.len() <= pass {
                        out.recomputed_per_pass.push(0);
                        out.tiles_hit_per_pass.push(0);
                    }
                    out.recomputed_per_pass[pass] += u64::from(reply.tiles_recomputed);
                    out.tiles_hit_per_pass[pass] += u64::from(reply.tiles_hit);
                }
                if let Some(recorder) = recorder.as_mut() {
                    let id = ((conn as u64) << 32) | k as u64;
                    recorder.replay(id, &frame.image, reply, sent, done);
                }
            }
            Ok(None) => {
                out.failed += 1;
                out.errors
                    .push(format!("connection {conn} request {k}: Busy"));
            }
            Err(e) => {
                // A transport error leaves the connection unusable.
                out.failed += 1;
                out.errors
                    .push(format!("connection {conn} request {k}: {e}"));
                broken = true;
            }
        }
        k += 1;
        out.last_reply = Some(done);
        if broken {
            turns.finish(u64::MAX);
            break;
        }
        // The closed loop's next request is due as soon as this reply is in.
        due = done;
    }
    out.next_k = k;
    if let Some(recorder) = recorder {
        out.spans = recorder.spans;
        out.wire = recorder.wire;
    }
    out
}
