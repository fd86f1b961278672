//! `serve_tcp_f32` — the full request path on small requests.
//!
//! A real [`Server`] + [`Router`] on loopback serves a merged f32 PTT
//! VGG9 plan (T = 4, `max_batch` 8, `max_wait` 2 ms, the product default). Each client keeps
//! one request in flight over its own connection, so the queue stays
//! shallow (batches of at most `clients`) and the fixed per-request cost
//! — wire, admit, queue, batch-form, serialize, write — dominates.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use ttsnn_infer::{Cluster, ClusterConfig, Priority};
use ttsnn_serve::wire::{self, Request, Status};
use ttsnn_serve::{Client, PlanSpec, Router, Server, ServerConfig};

use crate::fixtures::{self, bits, same_bits};
use crate::trace::Tracer;
use crate::workload::{closed_loop, ms_since, Round, Scenario, Tally};

/// Timesteps per request.
pub const TIMESTEPS: usize = 4;
/// Requests coalesced per forward pass, at most.
const MAX_BATCH: usize = 8;
/// Distinct request inputs cycled by the clients.
pub const INPUTS: usize = 64;
/// Warm-up requests each client sends before the window opens.
const WARMUP: usize = 32;
/// Name the plan is mounted under.
pub const PLAN: &str = "vgg";

/// The prepared workload.
pub struct ServeTcp {
    clients: usize,
    /// The serialized random-init checkpoint.
    pub checkpoint: Vec<u8>,
    /// One request per distinct input, ready to encode.
    pub requests: Vec<Request>,
    /// Reference logit bits per input, from the solo path.
    pub reference: Vec<Vec<u32>>,
}

impl ServeTcp {
    /// Generates checkpoint and inputs from `seed`, then computes every
    /// input's reference logits one request at a time through a
    /// 1-replica in-process cluster of the same plan.
    pub fn prepare(seed: u64, clients: usize) -> Self {
        let requests = fixtures::analog_frames(INPUTS, seed)
            .into_iter()
            .map(|input| Request {
                trace: 0,
                tenant: 1,
                priority: Priority::Normal,
                deadline_ms: 0,
                plan: PLAN.into(),
                input,
            })
            .collect();
        let mut this = ServeTcp {
            clients,
            checkpoint: fixtures::vgg_checkpoint(3, seed),
            requests,
            reference: Vec::new(),
        };
        let solo = this.load();
        let session = solo.session();
        this.reference = this
            .requests
            .iter()
            .map(|r| bits(session.infer(r.input.clone()).expect("reference request").data()))
            .collect();
        this
    }

    /// The plan every server and cluster of this workload serves.
    fn plan_cfg() -> ClusterConfig {
        fixtures::cluster_cfg(3, TIMESTEPS, MAX_BATCH)
    }

    /// Loads the plan into a fresh in-process cluster (the solo reference
    /// path, and the probes' no-socket twin of the server).
    pub fn load(&self) -> Cluster {
        Cluster::load(Self::plan_cfg(), self.checkpoint.as_slice()).expect("load the f32 plan")
    }

    /// Mounts the plan and binds a fresh server on an OS-assigned
    /// loopback port.
    pub fn bind(&self) -> Server {
        let router = Router::load(vec![PlanSpec {
            name: PLAN.into(),
            config: Self::plan_cfg(),
            quant: None,
            checkpoint: self.checkpoint.clone(),
        }])
        .expect("mount the plan");
        Server::bind(ServerConfig::default(), router).expect("bind the server")
    }

    /// One request over `client`: encode, send, wait, verify. Returns
    /// whether the reply was `Ok` with the reference bits.
    pub fn request(
        &self,
        client: &mut Client,
        index: usize,
        tracer: &mut Tracer,
        op_id: u64,
    ) -> bool {
        let index = index % self.requests.len();
        let frame = tracer.span("encode_request", op_id, Some("request"), || {
            wire::encode_request(&self.requests[index])
        });
        match tracer.span("send_raw", op_id, Some("request"), || client.send_raw(&frame)) {
            Ok(resp) => {
                resp.status == Status::Ok && same_bits(&resp.logits, &self.reference[index])
            }
            Err(_) => false,
        }
    }

    /// A closed loop of `clients` connections against `addr` for
    /// `window`, each warmed up first; `began` is when the round's
    /// preparation started.
    pub fn drive(
        &self,
        began: Instant,
        addr: SocketAddr,
        clients: usize,
        window: Duration,
        trace_epoch: Option<Instant>,
    ) -> Round {
        closed_loop(
            began,
            clients,
            window,
            trace_epoch,
            |c| {
                let mut client = Client::connect(addr).expect("connect to the server");
                let mut off = Tracer::off();
                for i in 0..WARMUP {
                    self.request(&mut client, c * 17 + i, &mut off, 0);
                }
                (client, c * 17 + WARMUP)
            },
            |(client, cursor), tracer, tally: &mut Tally, op_id| {
                let began = Instant::now();
                let ok = self.request(client, *cursor, tracer, op_id);
                tally.op(ms_since(began), ok);
                tracer.root("request", op_id, began);
                tally.good += u64::from(ok);
                *cursor += 1;
                if !ok {
                    // An I/O error leaves the stream desynced: start over
                    // on a new connection (or stop if the server is gone).
                    if let Ok(fresh) = Client::connect(addr) {
                        *client = fresh;
                    }
                }
            },
        )
    }
}

impl Scenario for ServeTcp {
    fn round(&self, window: Duration, trace_epoch: Option<Instant>) -> Round {
        let began = Instant::now();
        let server = self.bind();
        self.drive(began, server.addr(), self.clients, window, trace_epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The gate must bite: with one bit of one reference logit flipped,
    /// every reply to that input counts as a failed operation — and with
    /// the references intact, none does.
    #[test]
    fn a_flipped_logit_bit_in_a_reply_is_a_failed_operation() {
        let mut prepared = ServeTcp::prepare(3, 1);
        let server = prepared.bind();
        let window = Duration::from_millis(50);
        let clean = prepared.drive(Instant::now(), server.addr(), 1, window, None).tally;
        assert!(clean.attempted > 0);
        assert_eq!((clean.failed, clean.good), (0, clean.attempted));

        for reference in &mut prepared.reference {
            reference[0] ^= 1;
        }
        let flipped = prepared.drive(Instant::now(), server.addr(), 1, window, None).tally;
        assert!(flipped.attempted > 0);
        assert_eq!((flipped.failed, flipped.good), (flipped.attempted, 0));
    }
}
