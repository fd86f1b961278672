//! `batch_int8_events` — deep queues of sparse event samples on the int8
//! plan.
//!
//! An in-process `Cluster::load_quantized` of the VGG9 at 2 input
//! channels. Each client submits bursts of 8 tickets and then waits for
//! them, so the scheduler forms full batches of 8 — the opposite regime
//! to `serve_tcp_f32` on the same scheduler. Inputs are whole
//! `(T, 2, 16, 16)` event samples at event rate 0.3 (mean spike density
//! ≈ 0.13), so the int8 and spike-sparse kernels do the work and `serve`
//! does none.

use std::time::{Duration, Instant};

use ttsnn_infer::{Cluster, ClusterSession, QuantSpec};
use ttsnn_tensor::Tensor;

use crate::fixtures::{self, bits, same_bits, Stream};
use crate::trace::Tracer;
use crate::workload::{closed_loop, ms_since, Round, Scenario, Tally};

/// Timesteps per sample.
pub const TIMESTEPS: usize = 4;
/// Tickets per burst, and the plan's `max_batch`.
pub const BURST: usize = 8;
/// Distinct samples cycled by the clients.
pub const INPUTS: usize = 64;
/// Calibration samples of the int8 plan.
const CALIBRATION: usize = 8;
/// Warm-up bursts each client submits before the window opens.
const WARMUP_BURSTS: usize = 4;

/// The prepared workload.
pub struct BatchInt8 {
    clients: usize,
    /// The serialized random-init checkpoint.
    pub checkpoint: Vec<u8>,
    /// Calibration samples of the int8 plan.
    pub calibration: Vec<Tensor>,
    /// The distinct event samples.
    pub inputs: Vec<Tensor>,
    /// Reference logit bits per sample, from the solo path.
    pub reference: Vec<Vec<u32>>,
}

impl BatchInt8 {
    /// Generates checkpoint, calibration set and samples from `seed`,
    /// then computes every sample's reference logits one request at a
    /// time (batches of one) through a separate quantized cluster.
    pub fn prepare(seed: u64, clients: usize) -> Self {
        let gen = fixtures::sparse_events(TIMESTEPS);
        let mut this = BatchInt8 {
            clients,
            checkpoint: fixtures::vgg_checkpoint(2, seed),
            calibration: fixtures::event_samples(&gen, CALIBRATION, seed, Stream::Calibration),
            inputs: fixtures::event_samples(&gen, INPUTS, seed, Stream::Data),
            reference: Vec::new(),
        };
        let solo = this.load();
        let session = solo.session();
        this.reference = this
            .inputs
            .iter()
            .map(|x| bits(session.infer(x.clone()).expect("reference request").data()))
            .collect();
        this
    }

    /// Calibrates and freezes a fresh int8 plan.
    pub fn load(&self) -> Cluster {
        Cluster::load_quantized(
            fixtures::cluster_cfg(2, TIMESTEPS, BURST),
            QuantSpec::new(self.calibration.clone()),
            self.checkpoint.as_slice(),
        )
        .expect("load the int8 plan")
    }

    /// One burst starting at sample `cursor`: submit [`BURST`] tickets,
    /// wait for each, verify. Counts one operation per ticket.
    pub fn burst(
        &self,
        session: &ClusterSession,
        cursor: usize,
        tracer: &mut Tracer,
        tally: &mut Tally,
        op_id: u64,
    ) {
        let began = Instant::now();
        let tickets: Vec<_> = (0..BURST)
            .map(|i| {
                let index = (cursor + i) % self.inputs.len();
                let submitted = Instant::now();
                let ticket = tracer.span("submit", op_id, Some("burst"), || {
                    session.submit(self.inputs[index].clone())
                });
                (index, submitted, ticket)
            })
            .collect();
        for (index, submitted, ticket) in tickets {
            let ok = tracer.span("wait", op_id, Some("burst"), || {
                ticket.is_ok_and(|t| {
                    t.wait().is_ok_and(|logits| same_bits(logits.data(), &self.reference[index]))
                })
            });
            tally.op(ms_since(submitted), ok);
            tally.good += u64::from(ok);
        }
        tracer.root("burst", op_id, began);
    }
}

impl Scenario for BatchInt8 {
    fn round(&self, window: Duration, trace_epoch: Option<Instant>) -> Round {
        let began = Instant::now();
        let cluster = self.load();
        closed_loop(
            began,
            self.clients,
            window,
            trace_epoch,
            |c| {
                let session = cluster.session();
                let (mut off, mut discard) = (Tracer::off(), Tally::default());
                for b in 0..WARMUP_BURSTS {
                    self.burst(&session, (c * 5 + b) * BURST, &mut off, &mut discard, 0);
                }
                (session, (c * 5 + WARMUP_BURSTS) * BURST)
            },
            |(session, cursor), tracer, tally, op_id| {
                self.burst(session, *cursor, tracer, tally, op_id);
                *cursor += BURST;
            },
        )
    }
}
