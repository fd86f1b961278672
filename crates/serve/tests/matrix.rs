//! The serving determinism contract as one matrix, checked in one process:
//! a request's logits are **bit-identical** across kernel threads ×
//! replicas × planes × chunkings × transport.
//!
//! Each plan is loaded inside `Runtime::new(n).install(..)`, so its
//! replicas run their kernels on that `n`-thread pool — `n` from
//! [`THREADS`] — at 1 and 3 replicas, for the merged f32 plan and the int8
//! plan frozen from the same checkpoint. Every input is served as a whole
//! request in-process, as a chunked stream in-process, and as a whole
//! request over a loopback socket (the wire protocol carries whole requests
//! only). Every answer must equal the one-thread, one-replica, in-process
//! whole-request answer bit for bit, and that answer must equal the
//! inference plane of an in-process network frozen the same way.
//!
//! The inputs are event frames below the sparse-dispatch threshold and
//! analog frames, so the reference network serves sites from both the
//! event-driven and the dense kernels; its dispatch counts say so.

use std::time::Duration;

use ttsnn_core::TtMode;
use ttsnn_infer::{ClusterConfig, ClusterSession, Priority, QuantSpec, StreamOptions};
use ttsnn_serve::wire::{Request, Status};
use ttsnn_serve::{Client, PlanSpec, Router, Server, ServerConfig};
use ttsnn_snn::quant::QuantConfig;
use ttsnn_snn::{checkpoint, ConvPolicy, InferForward, InferStats, Network, SpikingModel, VggSnn};
use ttsnn_tensor::runtime::Runtime;
use ttsnn_tensor::spike::SPARSE_DENSITY_THRESHOLD;
use ttsnn_tensor::{Rng, Tensor};
use ttsnn_testutil::{
    infer_plane_reference, samples, vgg9_tiny, vgg_checkpoint, vgg_engine_config, THREADS,
};

const T: usize = 4;
/// How a stream feeds the `T` timesteps.
const CHUNKS: [usize; 3] = [1, 2, 1];
const REPLICAS: [usize; 2] = [1, 3];
/// Share of ones in the event frames.
const EVENT_DENSITY: f32 = 0.1;

fn policy() -> ConvPolicy {
    ConvPolicy::tt(TtMode::Ptt)
}

/// Two event and two analog `(T, C, H, W)` requests.
fn inputs() -> Vec<Tensor> {
    let stack = |seed| Tensor::stack(&samples(seed, T)).unwrap();
    let events = |seed| stack(seed).map(|v| f32::from(v < EVENT_DENSITY));
    vec![events(1), events(2), stack(3), stack(4)]
}

/// The plans under test: name and quantization spec (`None` is f32).
fn planes(calibration: &[Tensor]) -> [(&'static str, Option<QuantSpec>); 2] {
    [("f32", None), ("int8", Some(QuantSpec::new(calibration.to_vec())))]
}

fn cluster_config(replicas: usize) -> ClusterConfig {
    ClusterConfig::new(vgg_engine_config(policy(), T, 4, Duration::from_millis(1)).merged())
        .with_replicas(replicas)
}

/// Every plane mounted on one router at `replicas` replicas, loaded on the
/// calling thread's runtime.
fn router(ckpt: &[u8], calibration: &[Tensor], replicas: usize) -> Router {
    let specs = planes(calibration)
        .into_iter()
        .map(|(name, quant)| PlanSpec {
            name: name.into(),
            config: cluster_config(replicas),
            quant,
            checkpoint: ckpt.to_vec(),
        })
        .collect();
    Router::load(specs).expect("mount plans")
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Whole requests, submitted together so they may share batches.
fn whole(session: &ClusterSession, inputs: &[Tensor]) -> Vec<Vec<u32>> {
    let tickets: Vec<_> = inputs.iter().map(|x| session.submit(x.clone()).unwrap()).collect();
    tickets.into_iter().map(|t| bits(&t.wait().unwrap())).collect()
}

/// Each input fed through a stream of its own in [`CHUNKS`]; the last
/// update's logits.
fn chunked(session: &ClusterSession, inputs: &[Tensor]) -> Vec<Vec<u32>> {
    inputs
        .iter()
        .map(|x| {
            let stream = session.open_stream(StreamOptions::default()).unwrap();
            let frame = x.len() / T;
            let mut t0 = 0;
            let mut last = None;
            for n in CHUNKS {
                let mut shape = x.shape().to_vec();
                shape[0] = n;
                let data = x.data()[t0 * frame..(t0 + n) * frame].to_vec();
                last = Some(stream.push(Tensor::from_vec(data, &shape).unwrap()).unwrap());
                t0 += n;
            }
            let last = last.unwrap();
            assert_eq!(last.timesteps, T);
            bits(&last.logits)
        })
        .collect()
}

/// Whole requests over one client connection.
fn loopback(client: &mut Client, plan: &str, inputs: &[Tensor]) -> Vec<Vec<u32>> {
    inputs
        .iter()
        .map(|x| {
            let request = Request {
                trace: 0,
                tenant: 0,
                priority: Priority::Normal,
                deadline_ms: 0,
                plan: plan.into(),
                input: x.clone(),
            };
            let response = client.request(&request).unwrap();
            assert_eq!(response.status, Status::Ok, "{}", response.message);
            response.logits.iter().map(|v| v.to_bits()).collect()
        })
        .collect()
}

/// The in-process network a plan freezes: checkpoint, merge, and for int8
/// the same calibration and quantization.
fn reference_network(ckpt: &[u8], quant: Option<&QuantSpec>) -> Network {
    let mut net = VggSnn::new(vgg9_tiny(), &policy(), &mut Rng::seed_from(0));
    checkpoint::load_params(&net.params(), ckpt).unwrap();
    net.merge_into_dense().unwrap();
    if let Some(q) = quant {
        let calib = net.calibrate(&q.calibration, T).unwrap();
        net.quantize(&calib, &QuantConfig::default()).unwrap();
    }
    net.set_infer_stats(InferStats::PerSample);
    net
}

#[test]
fn every_configuration_serves_the_reference_bits() {
    let (ckpt, _) = vgg_checkpoint(&policy(), 7);
    let inputs = inputs();
    let calibration = inputs[1..3].to_vec();
    let density = inputs[0].data().iter().sum::<f32>() / inputs[0].len() as f32;
    assert!(f64::from(density) < SPARSE_DENSITY_THRESHOLD, "event density {density}");

    // The reference: one thread, one replica, in-process, whole requests —
    // and the same bits from the network walk itself.
    let reference = Runtime::new(1).install(|| router(&ckpt, &calibration, 1));
    let mut expected = Vec::new();
    for (plane, quant) in planes(&calibration) {
        let want = whole(reference.session(plane).unwrap(), &inputs);
        let mut net = reference_network(&ckpt, quant.as_ref());
        for (x, want) in inputs.iter().zip(&want) {
            let walked = Runtime::new(1).install(|| infer_plane_reference(&mut net, x, T));
            assert_eq!(&bits(&walked), want, "{plane}: the cluster must serve the network walk");
        }
        let (sparse, dense) =
            net.conv_dispatch_counts().iter().fold((0, 0), |(s, d), &(a, b)| (s + a, d + b));
        assert!(sparse > 0 && dense > 0, "{plane}: {sparse} sparse and {dense} dense calls");
        expected.push((plane, want));
    }
    drop(reference);

    for threads in THREADS {
        for replicas in REPLICAS {
            let runtime = Runtime::new(threads);
            let router = runtime.install(|| router(&ckpt, &calibration, replicas));
            let sessions: Vec<ClusterSession> =
                expected.iter().map(|(plane, _)| router.session(plane).unwrap().clone()).collect();
            let server = Server::bind(ServerConfig { workers: 1, ..Default::default() }, router)
                .expect("bind server");
            let mut client = Client::connect(server.addr()).unwrap();
            for ((plane, want), session) in expected.iter().zip(&sessions) {
                let at = format!("{plane} plan, {threads} thread(s), {replicas} replica(s)");
                assert_eq!(&whole(session, &inputs), want, "{at}: whole request");
                assert_eq!(&chunked(session, &inputs), want, "{at}: chunked stream");
                assert_eq!(&loopback(&mut client, plane, &inputs), want, "{at}: loopback");
            }
            if threads > 1 {
                let regions = runtime.stats().regions;
                assert!(regions > 0, "{threads} threads: the replicas never forked on the pool");
            }
        }
    }
}
