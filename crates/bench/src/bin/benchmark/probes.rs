//! Per-layer probes: every layer measured **from outside**, by timing
//! calls into its public functions in isolation.
//!
//! A probe either repeats a call until it has run for [`Budget::secs`] or
//! [`Budget::calls`] times (whichever comes first) and reports the median,
//! or — for the counts marked *exact* in the README — runs a fixed number
//! of operations so the count repeats bit for bit for a given seed.
//!
//! The probes use the workloads' own configurations and inputs (the
//! `serve_tcp_f32` plan and frames, the `batch_int8_events` plan and
//! samples, ...), so a layer's isolated cost can be subtracted from the
//! span that contains it (`serve.tcp_overhead_p50_ms`,
//! `infer.sched_overhead_ms`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use ttsnn_accel::{serving_energy, EnergyModel, ServingPrecision};
use ttsnn_core::TtMode;
use ttsnn_infer::{Cluster, ClusterMetrics};
use ttsnn_serve::wire::{self, Response};
use ttsnn_serve::{Client, Server};
use ttsnn_snn::quant::QuantConfig;
use ttsnn_snn::{checkpoint, ConvPolicy, InferForward, InferStats, SpikingModel, VggSnn};
use ttsnn_tensor::qkernels::{self, QAccum};
use ttsnn_tensor::runtime::{self, Runtime};
use ttsnn_tensor::spike::{self, SpikeTensor, SPARSE_DENSITY_THRESHOLD};
use ttsnn_tensor::{conv, Conv2dGeometry, Tensor};

use crate::batch_int8::{self, BatchInt8};
use crate::fixtures::{self, Stream, CLASSES, HW};
use crate::report::Metric;
use crate::serve_tcp::{self, ServeTcp};
use crate::stats::{median, quantile, sorted};
use crate::stream::Streams;
use crate::trace::{Span, Tracer};
use crate::train::{self, Train};
use crate::workload::{closed_loop, ms_since, Tally};

/// How long a timing probe repeats its call.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Stop after this many calls ...
    pub calls: usize,
    /// ... or this many seconds, whichever comes first.
    pub secs: f64,
    /// Measured training steps per policy.
    pub train_steps: usize,
    /// Off / on round pairs of the tracing-overhead probe.
    pub obs_pairs: usize,
}

impl Budget {
    /// The full budget: 200 calls or 1 s.
    pub const FULL: Budget = Budget { calls: 200, secs: 1.0, train_steps: 10, obs_pairs: 4 };
    /// The `--quick` budget: 10 calls or 50 ms.
    pub const QUICK: Budget = Budget { calls: 10, secs: 0.05, train_steps: 1, obs_pairs: 1 };

    fn window(self) -> Duration {
        Duration::from_secs_f64(self.secs)
    }
}

/// Milliseconds per call of `f`, after two untimed calls.
fn time_calls(budget: Budget, mut f: impl FnMut()) -> Vec<f64> {
    f();
    f();
    let started = Instant::now();
    let mut ms = Vec::new();
    while ms.len() < budget.calls && started.elapsed().as_secs_f64() < budget.secs {
        let t = Instant::now();
        f();
        ms.push(ms_since(t));
    }
    ms
}

/// Median milliseconds per call of `f`.
fn median_ms(budget: Budget, f: impl FnMut()) -> f64 {
    median(&time_calls(budget, f))
}

struct Probes {
    seed: u64,
    budget: Budget,
    out: Vec<Metric>,
}

impl Probes {
    fn put(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.out.push(Metric::single(name, unit, value));
    }
}

/// Runs every probe. `clients` is the caller count of the two-regime
/// scheduler probes (the workloads' client count).
pub fn run_all(seed: u64, clients: usize, budget: Budget) -> Vec<Metric> {
    let mut p = Probes { seed, budget, out: Vec::new() };
    p.data();
    p.training();
    p.kernels();
    let density = p.int8_plan(clients);
    p.sparse_kernels(density);
    let tcp = ServeTcp::prepare(seed, clients);
    p.f32_plan(&tcp, clients);
    let server = tcp.bind();
    p.wire_and_tcp(&tcp, &server);
    p.obs_overhead(&tcp, &server, clients);
    drop(server);
    p.streams();
    p.out
}

/// A VGG9 on the direct (no engine) inference plane, loaded from
/// `checkpoint`, merged to dense, in serving (`PerSample`) mode.
fn direct_vgg(in_channels: usize, checkpoint_bytes: &[u8]) -> VggSnn {
    let mut model = VggSnn::new(
        fixtures::vgg_cfg(in_channels),
        &ConvPolicy::tt(TtMode::Ptt),
        &mut fixtures::rng(0, Stream::Init),
    );
    checkpoint::load_params(&model.params(), checkpoint_bytes).expect("checkpoint matches VGG9");
    model.merge_into_dense().expect("merge TT cores");
    model.set_infer_stats(InferStats::PerSample);
    model
}

/// One request's worth of direct forwards: `timesteps` calls of
/// `forward_timestep_tensor` at batch 1, a `(C, H, W)` frame repeated or
/// a `(T, C, H, W)` sample stepped through.
fn forward_request(model: &mut dyn InferForward, x: &Tensor, timesteps: usize) {
    model.reset_state();
    let frame_len: usize = x.shape()[x.ndim() - 3..].iter().product();
    let mut shape = vec![1];
    shape.extend_from_slice(&x.shape()[x.ndim() - 3..]);
    for t in 0..timesteps {
        let start = if x.ndim() == 4 { t * frame_len } else { 0 };
        let frame = Tensor::from_vec(x.data()[start..start + frame_len].to_vec(), &shape)
            .expect("frame shape");
        model.forward_timestep_tensor(&frame, t).expect("direct forward");
    }
}

/// Scratch-arena buffers gained per direct forward of `inputs` (each
/// once) on the calling thread.
fn arena_growth_per_op(model: &mut dyn InferForward, inputs: &[Tensor], timesteps: usize) -> f64 {
    forward_request(model, &inputs[0], timesteps); // first-touch buffers
    let before = runtime::scratch_depth();
    for x in inputs {
        forward_request(model, x, timesteps);
    }
    (runtime::scratch_depth() - before) as f64 / inputs.len() as f64
}

/// Runs `f` on a thread of its own: the direct-forward probes grow the
/// calling thread's scratch arena (that is the finding they measure), and
/// a thread's arena is freed when it exits.
fn on_own_thread<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|scope| scope.spawn(f).join().expect("probe thread panicked"))
}

/// Sum, per operation, of the durations of the spans called any of
/// `names`.
fn per_op_ms(spans: &[Span], names: &[&str]) -> Vec<f64> {
    let mut by_op = std::collections::BTreeMap::<u64, f64>::new();
    for s in spans.iter().filter(|s| names.contains(&s.name)) {
        *by_op.entry(s.op_id).or_default() += s.ms();
    }
    by_op.into_values().collect()
}

/// Spins until the cluster's ledger has caught up with the replies
/// (replicas record metrics a beat after they answer).
fn settled_metrics(cluster: &Cluster) -> ClusterMetrics {
    for _ in 0..2000 {
        let m = cluster.metrics();
        let t = m.totals();
        if m.outstanding == 0
            && t.submitted == t.served + t.cancelled + t.expired + t.failed
            && m.sessions.chunks_submitted
                == m.sessions.chunks_served + m.sessions.chunks_expired + m.sessions.chunks_failed
            && m.sessions.opened == m.sessions.closed + m.sessions.evicted
        {
            return m;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    cluster.metrics()
}

/// `(failed, expired, rejected)` request counts of a cluster.
fn refusals(m: &ClusterMetrics) -> (f64, f64, f64) {
    let t = m.totals();
    let rejected: u64 =
        m.tenants.values().map(|s| s.rejected()).sum::<u64>() + m.tenant_overflow.rejected();
    (
        (t.failed + m.sessions.chunks_failed) as f64,
        (t.expired + m.sessions.chunks_expired) as f64,
        rejected as f64,
    )
}

impl Probes {
    fn data(&mut self) {
        let gen = fixtures::sparse_events(batch_int8::TIMESTEPS);
        let mut lane = 0u64;
        let ms = median_ms(self.budget, || {
            lane += 1;
            std::hint::black_box(
                gen.sample_seeded(lane as usize % CLASSES, fixtures::sub_seed(self.seed, lane)),
            );
        });
        self.put("data.gen_ms_per_sample", "ms", ms);
    }

    /// HTT steps under the span recorder, baseline-policy steps beside
    /// them, and the one TT layer against its merged dense equivalent.
    fn training(&mut self) {
        let prepared = Train::prepare(self.seed);
        let steps = self.budget.train_steps;
        let run = |policy: &ConvPolicy, tracer: &mut Tracer| {
            let (mut model, mut opt) = train::fresh(self.seed, policy);
            let mut off = Tracer::off();
            for i in 0..2 {
                train::step(&mut model, &mut opt, &prepared.batches[i], &mut off, 0);
            }
            let nodes_before = ttsnn_autograd::nodes_created();
            let ms: Vec<f64> = (0..steps)
                .map(|i| {
                    let t = Instant::now();
                    let batch = &prepared.batches[i % prepared.batches.len()];
                    train::step(&mut model, &mut opt, batch, tracer, i as u64);
                    ms_since(t)
                })
                .collect();
            let nodes = (ttsnn_autograd::nodes_created() - nodes_before) as f64 / steps as f64;
            let macs: usize = (0..train::TIMESTEPS).map(|t| model.macs_at(t)).sum();
            (median(&ms), nodes, model.num_params() as f64, macs as f64, model)
        };

        let mut tracer = Tracer::on(Instant::now(), 0);
        let (htt_ms, nodes, htt_params, htt_macs, htt_model) = run(&train::policy(), &mut tracer);
        let spans = tracer.into_spans();
        let (base_ms, _, base_params, base_macs, _) =
            run(&ConvPolicy::Baseline, &mut Tracer::off());

        self.put("snn.forward_ms", "ms", median(&per_op_ms(&spans, &["forward_batch", "compute"])));
        self.put("autograd.backward_ms", "ms", median(&per_op_ms(&spans, &["backward"])));
        self.put("autograd.optim_ms", "ms", median(&per_op_ms(&spans, &["zero_grad", "step"])));
        self.put("autograd.nodes_per_step", "count", nodes);
        self.put("core.tt_step_speedup_vs_dense", "x", base_ms / htt_ms);
        self.put("core.params_compression_x", "x", base_params / htt_params);
        self.put("core.macs_compression_x", "x", base_macs / htt_macs);

        // The widest 3x3 TT site: the last stage's second conv.
        let tt = *htt_model.tt_layers().last().expect("the HTT model has TT layers");
        let hw = (HW.0 / 8, HW.1 / 8);
        let x = Tensor::randn(
            &[train::BATCH, tt.in_channels(), hw.0, hw.1],
            &mut fixtures::rng(self.seed, Stream::Probe),
        );
        let dense = tt.merge().expect("merge the TT site");
        let g =
            Conv2dGeometry::new(tt.in_channels(), tt.out_channels(), hw, (3, 3), (1, 1), (1, 1));
        let tt_ms = median_ms(self.budget, || {
            std::hint::black_box(tt.forward_tensor(&x, 0).expect("TT forward"));
        });
        let dense_ms = median_ms(self.budget, || {
            std::hint::black_box(conv::conv2d(&x, &dense, &g).expect("dense forward"));
        });
        self.put("core.tt_forward_ms", "ms", tt_ms);
        self.put("core.dense_equiv_forward_ms", "ms", dense_ms);
    }

    /// Dense f32 and int8 kernels on a VGG-interior conv
    /// (32 → 32 channels, 16 × 16, 3 × 3, batch 8) and a 128³ GEMM.
    fn kernels(&mut self) {
        let g = probe_geometry();
        let mut rng = fixtures::rng(self.seed, Stream::Probe);
        let x = Tensor::randn(&[PROBE_BATCH, g.in_channels, g.in_hw.0, g.in_hw.1], &mut rng);
        let w = Tensor::randn(&[g.out_channels, g.in_channels, 3, 3], &mut rng);
        let dy = Tensor::randn(&[PROBE_BATCH, g.out_channels, g.in_hw.0, g.in_hw.1], &mut rng);
        let gflop = 2.0 * (g.macs() * PROBE_BATCH) as f64 / 1e9;
        let rate = |ms: f64| gflop / (ms / 1e3);

        let fwd = median_ms(self.budget, || {
            std::hint::black_box(conv::conv2d(&x, &w, &g).expect("conv2d"));
        });
        let bwd_in = median_ms(self.budget, || {
            std::hint::black_box(conv::conv2d_input_grad(&dy, &w, &g).expect("input grad"));
        });
        let bwd_w = median_ms(self.budget, || {
            std::hint::black_box(conv::conv2d_weight_grad(&x, &dy, &g).expect("weight grad"));
        });
        self.put("tensor.conv_fwd_gflops", "GFLOP/s", rate(fwd));
        self.put("tensor.conv_bwd_input_gflops", "GFLOP/s", rate(bwd_in));
        self.put("tensor.conv_bwd_weight_gflops", "GFLOP/s", rate(bwd_w));

        const N: usize = 128;
        let a = Tensor::randn(&[N, N], &mut rng);
        let b = Tensor::randn(&[N, N], &mut rng);
        let mut out = vec![0.0f32; N * N];
        let gemm = median_ms(self.budget, || {
            runtime::gemm(Runtime::global(), a.data(), b.data(), &mut out, N, N, N);
            std::hint::black_box(&mut out);
        });
        self.put("tensor.gemm_gflops", "GFLOP/s", 2.0 * (N * N * N) as f64 / 1e9 / (gemm / 1e3));

        let (qw, scales) = probe_int8_weight(&w);
        let spikes = random_spikes(&x, 0.5, &mut rng);
        let q = median_ms(self.budget, || {
            std::hint::black_box(
                qkernels::qconv2d(&spikes, 1.0, &qw, &scales, &g, QAccum::I32).expect("qconv2d"),
            );
        });
        self.put("tensor.qconv_gops", "GOP/s", rate(q));

        let sink = AtomicUsize::new(0);
        let region = median_ms(self.budget, || {
            Runtime::global().parallel_for(2, 1, |start, end| {
                sink.fetch_add(end - start, Ordering::Relaxed);
            });
        });
        self.put("tensor.pool_region_us", "us", region * 1e3);

        // Computed from tensor sizes, not measured: f32 bytes read and
        // written by every conv and the classifier of one serve_tcp_f32
        // request (input + weight + output per layer, times T).
        let sizes = VggSizes::of(&fixtures::vgg_cfg(3));
        let moved = sizes.inputs + sizes.weights + sizes.outputs;
        self.put("tensor.bytes_moved_per_op", "bytes", (moved * 4 * serve_tcp::TIMESTEPS) as f64);
    }

    /// The int8 plan of `batch_int8_events`: freeze cost, the deep-queue
    /// scheduler regime, exact density counts, arena growth. Returns the
    /// plan's mean spike density on the workload's samples.
    fn int8_plan(&mut self, clients: usize) -> f64 {
        let prepared = BatchInt8::prepare(self.seed, 1);
        let loads = time_calls(Budget { calls: 5, ..self.budget }, || drop(prepared.load()));
        self.put("infer.quantize_ms", "ms", median(&loads));

        // Exact counts: every sample once, alone, through a fresh plan.
        let cluster = prepared.load();
        let session = cluster.session();
        for x in &prepared.inputs {
            session.infer(x.clone()).expect("density request");
        }
        let m = settled_metrics(&cluster);
        let density = m.mean_spike_density.unwrap_or(f64::NAN);
        let sparse_layers =
            m.spike_density.iter().filter(|&&d| d <= SPARSE_DENSITY_THRESHOLD).count();
        self.put("snn.spike_density_mean", "ratio", density);
        self.put(
            "snn.layers_sparse_share",
            "ratio",
            sparse_layers as f64 / m.spike_density.len().max(1) as f64,
        );
        let solo_refusals = refusals(&m);
        drop(cluster);

        // The deep-queue regime: `clients` callers, bursts of 8.
        let cluster = prepared.load();
        let measured = closed_loop(
            Instant::now(),
            clients,
            self.budget.window(),
            None,
            |c| (cluster.session(), c * 8 * batch_int8::BURST),
            |(session, cursor), tracer, tally, op_id| {
                prepared.burst(session, *cursor, tracer, tally, op_id);
                *cursor += batch_int8::BURST;
            },
        );
        let m = settled_metrics(&cluster);
        self.put("infer.mean_batch_size_deep", "count", m.batch_sizes.mean());
        self.put("infer.batches_per_s_deep", "1/s", m.batches_executed as f64 / measured.window_s);
        self.put("infer.server_latency_mean_ms_deep", "ms", m.latency.mean() * 1e3);
        let deep_refusals = refusals(&m);
        self.put("infer.failed", "count", solo_refusals.0 + deep_refusals.0);
        self.put("infer.expired", "count", solo_refusals.1 + deep_refusals.1);
        self.put("infer.rejected", "count", solo_refusals.2 + deep_refusals.2);

        let growth = on_own_thread(|| {
            let mut model = direct_vgg(2, &prepared.checkpoint);
            let calib = model
                .calibrate(&prepared.calibration, batch_int8::TIMESTEPS)
                .expect("calibrate the direct int8 model");
            model.quantize(&calib, &QuantConfig::default()).expect("freeze the direct int8 model");
            arena_growth_per_op(&mut model, &prepared.inputs[..8], batch_int8::TIMESTEPS)
        });
        self.put("tensor.arena_depth_growth_per_op_int8", "count", growth);
        density
    }

    /// Event-driven kernels against their dense twins at the int8
    /// workload's measured spike density, and the packing cost.
    fn sparse_kernels(&mut self, density: f64) {
        let g = probe_geometry();
        let mut rng = fixtures::rng(self.seed, Stream::Probe);
        let shape = Tensor::zeros(&[PROBE_BATCH, g.in_channels, g.in_hw.0, g.in_hw.1]);
        let x = random_spikes(&shape, density, &mut rng);
        let w = Tensor::randn(&[g.out_channels, g.in_channels, 3, 3], &mut rng);
        let (qw, scales) = probe_int8_weight(&w);
        let packed = SpikeTensor::try_pack(&x).expect("spikes are binary");

        let dense = median_ms(self.budget, || {
            std::hint::black_box(conv::conv2d(&x, &w, &g).expect("conv2d"));
        });
        let sparse = median_ms(self.budget, || {
            std::hint::black_box(spike::sparse_conv2d(&packed, &w, &g).expect("sparse conv"));
        });
        let qdense = median_ms(self.budget, || {
            std::hint::black_box(
                qkernels::qconv2d(&x, 1.0, &qw, &scales, &g, QAccum::I32).expect("qconv2d"),
            );
        });
        let qsparse = median_ms(self.budget, || {
            std::hint::black_box(
                spike::sparse_qconv2d(&packed, 1.0, &qw, &scales, &g, QAccum::I32)
                    .expect("sparse qconv"),
            );
        });
        let pack = median_ms(self.budget, || {
            std::hint::black_box(SpikeTensor::try_pack(&x));
        });
        self.put("tensor.sparse_conv_speedup_vs_dense", "x", dense / sparse);
        self.put("tensor.sparse_qconv_speedup_vs_dense", "x", qdense / qsparse);
        self.put("tensor.pack_us", "us", pack * 1e3);
    }

    /// The f32 plan of `serve_tcp_f32`, in process: load and merge cost,
    /// the direct forward, one caller through the scheduler, the
    /// shallow-queue regime, arena growth, MACs and modeled energy.
    fn f32_plan(&mut self, prepared: &ServeTcp, clients: usize) {
        let inputs: Vec<Tensor> = prepared.requests.iter().map(|r| r.input.clone()).collect();
        let loads = time_calls(Budget { calls: 5, ..self.budget }, || drop(prepared.load()));
        self.put("infer.plan_load_ms", "ms", median(&loads));
        let mut merge_ms = Vec::new();
        for _ in 0..5 {
            let mut model = VggSnn::new(
                fixtures::vgg_cfg(3),
                &ConvPolicy::tt(TtMode::Ptt),
                &mut fixtures::rng(self.seed, Stream::Init),
            );
            let t = Instant::now();
            model.merge_into_dense().expect("merge TT cores");
            merge_ms.push(ms_since(t));
        }
        self.put("core.merge_ms", "ms", median(&merge_ms));

        // The direct forward: no engine, no scheduler, batch of one.
        let budget = self.budget;
        let (macs, forward_ms, growth) = on_own_thread(|| {
            let mut model = direct_vgg(3, &prepared.checkpoint);
            let macs: usize = (0..serve_tcp::TIMESTEPS).map(|t| model.macs_at(t)).sum();
            let mut i = 0;
            let forward_ms = median_ms(budget, || {
                forward_request(&mut model, &inputs[i % inputs.len()], serve_tcp::TIMESTEPS);
                i += 1;
            });
            let growth = arena_growth_per_op(&mut model, &inputs[..8], serve_tcp::TIMESTEPS);
            (macs, forward_ms, growth)
        });
        self.put("snn.macs_per_op", "count", macs as f64);
        self.put("snn.infer_forward_ms", "ms", forward_ms);
        self.put("tensor.arena_depth_growth_per_op_f32", "count", growth);

        // One caller through the scheduler: what the queue and the batch
        // window add on top of the forward.
        let cluster = prepared.load();
        let session = cluster.session();
        let mut i = 0;
        let inproc = time_calls(self.budget, || {
            std::hint::black_box(session.infer(inputs[i % inputs.len()].clone()).expect("infer"));
            i += 1;
        });
        let inproc_p50 = median(&inproc);
        self.put("infer.inproc_latency_p50_ms", "ms", inproc_p50);
        self.put(
            "infer.sched_overhead_ms",
            "ms",
            inproc_p50 - fixtures::max_wait().as_secs_f64() * 1e3 - forward_ms,
        );
        drop(cluster);

        // The shallow-queue regime: `clients` callers, one in flight each.
        let cluster = prepared.load();
        let measured = closed_loop(
            Instant::now(),
            clients,
            self.budget.window(),
            None,
            |c| (cluster.session(), c * 17),
            |(session, cursor), _, tally: &mut Tally, _| {
                let t = Instant::now();
                let ok = session.infer(inputs[*cursor % inputs.len()].clone()).is_ok();
                tally.op(ms_since(t), ok);
                *cursor += 1;
            },
        );
        let m = settled_metrics(&cluster);
        self.put("infer.mean_batch_size_shallow", "count", m.batch_sizes.mean());
        self.put(
            "infer.batches_per_s_shallow",
            "1/s",
            m.batches_executed as f64 / measured.window_s,
        );
        self.put("infer.server_latency_mean_ms_shallow", "ms", m.latency.mean() * 1e3);

        // The paper's energy column next to measured time: the
        // accelerator model on this plan's MACs, weights and activations.
        let sizes = VggSizes::of(&fixtures::vgg_cfg(3));
        let energy = serving_energy(
            macs as f64 / serve_tcp::TIMESTEPS as f64,
            sizes.weights as f64,
            sizes.outputs as f64,
            serve_tcp::TIMESTEPS as f64,
            ServingPrecision::F32,
            &EnergyModel::nm28(),
        );
        self.put("accel.modeled_energy_nj_per_op", "nJ", energy.total_nj());
    }

    /// The wire codec on the workload's own frames, connection set-up,
    /// and one client over TCP against the same plan in process.
    fn wire_and_tcp(&mut self, prepared: &ServeTcp, server: &Server) {
        let request = &prepared.requests[0];
        let frame = wire::encode_request(request);
        let logits: Vec<f32> = prepared.reference[0].iter().map(|&b| f32::from_bits(b)).collect();
        let response = Response::ok(logits);
        let reply = wire::encode_response(&response);
        let max = wire::DEFAULT_MAX_FRAME_BYTES;
        let us = |ms: f64| ms * 1e3;

        let enc_req = median_ms(self.budget, || {
            std::hint::black_box(wire::encode_request(request));
        });
        let dec_req = median_ms(self.budget, || {
            std::hint::black_box(wire::decode_frame(&frame[4..], max).expect("decode request"));
        });
        let enc_resp = median_ms(self.budget, || {
            std::hint::black_box(wire::encode_response(&response));
        });
        let dec_resp = median_ms(self.budget, || {
            std::hint::black_box(wire::decode_frame(&reply[4..], max).expect("decode response"));
        });
        self.put("serve.encode_request_us", "us", us(enc_req));
        self.put("serve.decode_request_us", "us", us(dec_req));
        self.put("serve.encode_response_us", "us", us(enc_resp));
        self.put("serve.decode_response_us", "us", us(dec_resp));
        self.put("serve.request_bytes", "bytes", frame.len() as f64);
        self.put("serve.response_bytes", "bytes", reply.len() as f64);

        let connect = median_ms(Budget { calls: 50, ..self.budget }, || {
            drop(Client::connect(server.addr()).expect("connect"));
        });
        self.put("serve.connect_ms", "ms", connect);
        // One client over TCP against the same requests through the
        // scheduler in process, in alternating short blocks so that a slow
        // spell of the machine hits both sides: the median difference is
        // what the wire, the socket and the server's workers add.
        let cluster = prepared.load();
        let session = cluster.session();
        let block =
            Budget { calls: self.budget.calls / 4, secs: self.budget.secs / 4.0, ..self.budget };
        let mut i = 0;
        let overheads: Vec<f64> = (0..4)
            .map(|_| {
                let inproc = median_ms(block, || {
                    let input = prepared.requests[i % prepared.requests.len()].input.clone();
                    std::hint::black_box(session.infer(input).expect("infer"));
                    i += 1;
                });
                let tcp = prepared
                    .drive(Instant::now(), server.addr(), 1, block.window(), None)
                    .tally
                    .lat_ms;
                quantile(&sorted(tcp), 0.5) - inproc
            })
            .collect();
        self.put("serve.tcp_overhead_p50_ms", "ms", median(&overheads));
    }

    /// Every stream once, alone: exact early-exit accounting, resident
    /// state, and the cost of opening and closing a session.
    fn streams(&mut self) {
        let prepared = Streams::prepare(self.seed, 1);
        let cluster = prepared.load();
        let session = cluster.session();
        let mut state_peak = 0usize;
        for (chunks, &options) in prepared.chunks.iter().zip(&prepared.options) {
            let stream = session.open_stream(options).expect("open a stream");
            for chunk in chunks {
                stream.push(chunk.clone()).expect("push a chunk");
                let resident = cluster.metrics().sessions.resident_bytes_total();
                state_peak = state_peak.max(resident);
            }
        }
        let s = settled_metrics(&cluster).sessions;
        let steps = (s.timesteps_executed + s.timesteps_skipped).max(1);
        let macs = (s.macs_executed + s.macs_skipped).max(1);
        self.put(
            "infer.stream_executed_share",
            "ratio",
            s.timesteps_executed as f64 / steps as f64,
        );
        self.put("infer.stream_macs_skipped_share", "ratio", s.macs_skipped as f64 / macs as f64);
        self.put("infer.stream_state_bytes_peak", "bytes", state_peak as f64);
        let open_close = median_ms(self.budget, || {
            drop(session.open_stream(prepared.options[0]).expect("open a stream"));
        });
        self.put("infer.stream_open_close_us", "us", open_close * 1e3);
    }

    /// `ttsnn_obs` request tracing off against on, interleaved rounds of
    /// `serve_tcp_f32` on `server`, as a share of the untraced
    /// throughput.
    fn obs_overhead(&mut self, prepared: &ServeTcp, server: &Server, clients: usize) {
        let window = Duration::from_secs_f64(self.budget.secs / 2.0);
        let was_enabled = ttsnn_obs::enabled();
        let (mut off, mut on) = (Vec::new(), Vec::new());
        for _ in 0..self.budget.obs_pairs {
            for (enabled, series) in [(false, &mut off), (true, &mut on)] {
                ttsnn_obs::set_enabled(enabled);
                let m = prepared.drive(Instant::now(), server.addr(), clients, window, None);
                series.push(m.tally.good as f64 / m.window_s);
            }
        }
        ttsnn_obs::set_enabled(was_enabled);
        let (off, on) = (median(&off), median(&on));
        self.put("obs.trace_overhead_pct", "%", (off - on) / off * 100.0);
    }
}

/// Element counts of one timestep of a VGG: what every conv and the
/// classifier reads, holds and writes.
struct VggSizes {
    inputs: usize,
    weights: usize,
    outputs: usize,
}

impl VggSizes {
    fn of(cfg: &ttsnn_snn::VggConfig) -> Self {
        let mut sizes = VggSizes { inputs: 0, weights: 0, outputs: 0 };
        let (mut c_in, mut hw) = (cfg.in_channels, cfg.in_hw);
        for (i, &width) in cfg.conv_widths.iter().enumerate() {
            sizes.inputs += c_in * hw.0 * hw.1;
            sizes.weights += width * c_in * 9;
            sizes.outputs += width * hw.0 * hw.1;
            if cfg.pool_after.contains(&i) {
                hw = (hw.0 / 2, hw.1 / 2);
            }
            c_in = width;
        }
        sizes.inputs += c_in;
        sizes.weights += c_in * cfg.num_classes;
        sizes.outputs += cfg.num_classes;
        sizes
    }
}

const PROBE_BATCH: usize = 8;

fn probe_geometry() -> Conv2dGeometry {
    Conv2dGeometry::new(32, 32, HW, (3, 3), (1, 1), (1, 1))
}

/// A per-output-channel int8 quantization of `w`, `(O, C·Kh·Kw)` row-major.
fn probe_int8_weight(w: &Tensor) -> (Vec<i8>, Vec<f32>) {
    let out = w.shape()[0];
    let row = w.len() / out;
    let mut q = vec![0i8; w.len()];
    let mut scales = Vec::with_capacity(out);
    for o in 0..out {
        let src = &w.data()[o * row..(o + 1) * row];
        let scale = src.iter().fold(0.0f32, |m, v| m.max(v.abs())).max(1e-6) / 127.0;
        qkernels::quantize_to_i8(src, scale, &mut q[o * row..(o + 1) * row]);
        scales.push(scale);
    }
    (q, scales)
}

/// A 0.0 / 1.0 tensor shaped like `like` with about `density` ones.
fn random_spikes(like: &Tensor, density: f64, rng: &mut ttsnn_tensor::Rng) -> Tensor {
    let data = (0..like.len())
        .map(|_| if f64::from(rng.uniform()) < density { 1.0 } else { 0.0 })
        .collect();
    Tensor::from_vec(data, like.shape()).expect("same shape")
}
