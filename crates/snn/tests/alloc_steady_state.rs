//! Steady-state allocation of both planes: once a model has seen its
//! inputs, serving them again — or training on them again — allocates
//! nothing of 1 KiB or more.
//!
//! Every activation, membrane, spike word buffer and kernel scratch comes
//! out of the per-thread arena (`ttsnn_tensor::runtime`) and goes back to
//! it, so after two warm-up requests a request is served entirely from
//! parked buffers. What remains are the few-dozen-byte allocations of
//! shape vectors and small bookkeeping, far under the 1 KiB line; any
//! activation-sized allocation (the smallest here is 2 KiB) is a buffer
//! that fell out of the loop.
//!
//! The training plane closes the same loop: every op output and gradient
//! of the autograd tape is an arena buffer — the layer-major ops' by-products
//! too: the LIF scan's membranes, the grouped batch norm's statistics, the
//! copies behind a row cut or a join — gradients are moved rather than
//! copied, and a tape that is dropped hands its buffers back, so after two
//! warm-up steps a whole `zero_grad → forward → loss → backward → step`
//! round runs out of parked memory (as long as the tape fits the arena's
//! 64 MiB budget, which these do many times over).
//!
//! One `#[test]` in a binary of its own: the counting allocator is
//! process-wide, so nothing else may run beside the measured window, and
//! the counter is armed only for that window. Every case runs under an
//! installed pool: serving on one kernel thread (with more, which worker
//! first meets a scratch size is scheduling-dependent and a strict zero
//! would flake), training on one and on two. With two, the warm-up is as
//! long as the pool's worker needs: a worker's arena fills only where the
//! worker — not the caller helping itself — ran a range, and which of them
//! does is up to the scheduler.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use ttsnn_autograd::{Sgd, SgdConfig};
use ttsnn_core::TtMode;
use ttsnn_data::EventStream;
use ttsnn_snn::quant::QuantConfig;
use ttsnn_snn::trainer::forward_batch;
use ttsnn_snn::{
    ConvPolicy, InferForward, InferStats, LossKind, Network, NormKind, ResNetConfig, ResNetSnn,
    SpikingModel, VggConfig, VggSnn,
};
use ttsnn_tensor::runtime::Runtime;
use ttsnn_tensor::{Rng, Tensor};

/// Allocations at or above this size are counted.
const LARGE: usize = 1024;
const T: usize = 4;
const HW: usize = 16;

static ARMED: AtomicBool = AtomicBool::new(false);
static LARGE_ALLOCS: AtomicUsize = AtomicUsize::new(0);
static LARGE_BYTES: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting large requests while armed.
struct Counting;

fn note(size: usize) {
    if size >= LARGE && ARMED.load(Ordering::Relaxed) {
        LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        LARGE_BYTES.fetch_add(size, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain atomics and
// never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` and `layout` describe a live `System` block.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` describe a live `System` block.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// One request: `T` frames of `(1, C, H, W)`.
type Request = Vec<Tensor>;

/// A `(C, H, W)` analog frame, repeated at every timestep.
fn analog_request(rng: &mut Rng) -> Request {
    let frame = Tensor::rand_uniform(&[1, 3, HW, HW], 0.0, 1.0, rng);
    vec![frame; T]
}

/// `T` binary event frames at roughly 15 % density.
fn event_request(rng: &mut Rng) -> Request {
    (0..T)
        .map(|_| {
            let data = (0..2 * HW * HW).map(|_| f32::from(rng.uniform() < 0.15)).collect();
            Tensor::from_vec(data, &[1, 2, HW, HW]).unwrap()
        })
        .collect()
}

/// The event frames as `(T, C, H, W)` calibration samples.
fn calibration(requests: &[Request]) -> Vec<Tensor> {
    requests
        .iter()
        .map(|frames| {
            let data: Vec<f32> = frames.iter().flat_map(|f| f.data().iter().copied()).collect();
            Tensor::from_vec(data, &[T, 2, HW, HW]).unwrap()
        })
        .collect()
}

/// A request's `(1, C, H, W)` frames as one time-major `(T, C, H, W)` stack.
fn time_major(frames: &Request) -> Tensor {
    let [_, c, h, w] = frames[0].shape() else { panic!("frames are (1, C, H, W)") };
    Tensor::stack(frames).unwrap().into_reshaped(&[frames.len(), *c, *h, *w]).unwrap()
}

/// A request served a timestep at a time (`whole` unset: the cut of a
/// stream with an exit rule) or in one layer-major call over its `T`
/// frames stacked time-major (the cut of a whole-sequence request).
fn serve(model: &mut dyn InferForward, request: &Request, whole: Option<&Tensor>) {
    model.reset_state();
    match whole {
        Some(stack) => model.forward_steps_tensor(stack, 0, T).expect("forward").recycle(),
        None => {
            for (t, frame) in request.iter().enumerate() {
                model.forward_timestep_tensor(frame, t).expect("forward").recycle();
            }
        }
    }
}

/// The large allocations (count, bytes) made while `window` runs.
fn large_allocations(window: impl FnOnce()) -> (usize, usize) {
    let before = (LARGE_ALLOCS.load(Ordering::Relaxed), LARGE_BYTES.load(Ordering::Relaxed));
    ARMED.store(true, Ordering::SeqCst);
    window();
    ARMED.store(false, Ordering::SeqCst);
    (
        LARGE_ALLOCS.load(Ordering::Relaxed) - before.0,
        LARGE_BYTES.load(Ordering::Relaxed) - before.1,
    )
}

/// Two warm-up requests, then 32 measured ones over the same inputs, at
/// the given cut; returns the large allocations (count, bytes) of the
/// measured window.
fn steady_state(
    model: &mut dyn InferForward,
    requests: &[Request; 2],
    whole: bool,
) -> (usize, usize) {
    model.set_infer_stats(InferStats::PerSample);
    let stacks = requests.each_ref().map(|frames| whole.then(|| time_major(frames)));
    for (request, stack) in requests.iter().zip(&stacks) {
        serve(model, request, stack.as_ref());
    }
    large_allocations(|| {
        for i in 0..32 {
            serve(model, &requests[i % 2], stacks[i % 2].as_ref());
        }
    })
}

/// The training plane: `model` on event batches (B = 8, T = 4). Two warm-up
/// steps, then 4 measured ones over the same two batches; returns the large
/// allocations of the measured window.
fn training_steady_state(model: &mut Network, rng: &mut Rng) -> (usize, usize) {
    let mut opt = Sgd::new(model.params(), SgdConfig { lr: 0.05, ..SgdConfig::default() });
    let batches =
        EventStream::ncaltech_like(HW, HW, 10, T).dataset(16, rng).batches(8, T, rng).unwrap();
    let mut step = |i: usize| {
        opt.zero_grad();
        let logits = forward_batch(&mut *model, &batches[i % 2]).expect("forward");
        let loss = LossKind::SumCe.compute(&logits, &batches[i % 2].labels).expect("loss");
        loss.backward();
        opt.step();
    };
    (0..2).for_each(&mut step);
    let runtime = Runtime::current();
    if runtime.threads() > 1 {
        // Three quiet steps in a row on which the workers ran at least
        // nine in ten forked ranges: by then they have met every scratch
        // size the step has. (With fewer cores than threads they may never
        // run that many; after 100 steps quiet alone has to do.)
        let mut quiet = 0;
        for i in 2.. {
            assert!(i < 400, "worker arenas did not reach a steady state in 400 steps");
            let before = runtime.stats();
            let (count, _) = large_allocations(|| step(i));
            let pool = runtime.stats().since(&before);
            let on_workers = pool.handoffs * 10 >= pool.forked_tasks * 9 || i >= 100;
            quiet = if count == 0 && on_workers { quiet + 1 } else { 0 };
            if quiet == 3 {
                break;
            }
        }
    }
    large_allocations(|| (2..6).for_each(&mut step))
}

#[test]
fn steady_state_requests_allocate_nothing_large() {
    let mut rng = Rng::seed_from(13);
    Runtime::new(1).install(|| serving_steady_state(&mut rng));
    for threads in [1, 2] {
        Runtime::new(threads).install(|| training_cases(threads, &mut rng));
    }
}

/// The two training cases on the current kernel pool of `threads` threads.
fn training_cases(threads: usize, rng: &mut Rng) {
    // Between them the two models put every layer-major op on the tape:
    // the LIF scan and the grouped tdBN in both, HTT's row cuts and joins
    // in the ResNet, TEBN's per-timestep scales and 2 × 2 pooling in the VGG.
    let resnet = ResNetConfig::resnet18_events(10, (HW, HW), 8);
    let mut resnet = ResNetSnn::new(resnet, &ConvPolicy::tt(TtMode::htt_default(T)), rng);
    let mut vgg = VggConfig::vgg9(2, 10, (HW, HW), 8);
    vgg.norm = NormKind::Tebn { timesteps: T };
    let mut vgg = VggSnn::new(vgg, &ConvPolicy::tt(TtMode::Ptt), rng);
    let cases: [(&str, &mut Network); 2] =
        [("MS-ResNet18 HTT tdBN", &mut resnet), ("VGG9 PTT TEBN", &mut vgg)];
    for (name, model) in cases {
        let (count, bytes) = training_steady_state(model, rng);
        println!(
            "{name} training, {threads} kernel thread(s): {count} allocations >= {LARGE} B \
             ({bytes} B) in 4 steps"
        );
        assert_eq!(
            count, 0,
            "{name} at {threads} threads: steady-state training steps \
             allocated {bytes} B"
        );
    }
}

/// The six serving cases, at both cuts of a request: each model × plane
/// serves its two requests again and again out of parked buffers.
fn serving_steady_state(rng: &mut Rng) {
    let analog = [analog_request(rng), analog_request(rng)];
    let events = [event_request(rng), event_request(rng)];
    let vgg = |in_ch, rng: &mut Rng| {
        VggSnn::new(VggConfig::vgg9(in_ch, 10, (HW, HW), 8), &ConvPolicy::Baseline, rng)
    };
    let resnet = |cfg: ResNetConfig, rng: &mut Rng| ResNetSnn::new(cfg, &ConvPolicy::Baseline, rng);

    let mut vgg_int8 = vgg(2, rng);
    let calib = vgg_int8.calibrate(&calibration(&events), T).unwrap();
    vgg_int8.quantize(&calib, &QuantConfig::default()).unwrap();
    let mut resnet_int8 = resnet(ResNetConfig::resnet18_events(10, (HW, HW), 8), rng);
    let calib = resnet_int8.calibrate(&calibration(&events), T).unwrap();
    resnet_int8.quantize(&calib, &QuantConfig::default()).unwrap();

    let mut cases: Vec<(&str, Box<dyn InferForward>, &[Request; 2])> = vec![
        ("VGG9 analog f32", Box::new(vgg(3, rng)), &analog),
        ("VGG9 event f32", Box::new(vgg(2, rng)), &events),
        ("VGG9 event int8", Box::new(vgg_int8), &events),
        (
            "MS-ResNet18 analog f32",
            Box::new(resnet(ResNetConfig::resnet18(10, (HW, HW), 8), rng)),
            &analog,
        ),
        (
            "MS-ResNet18 event f32",
            Box::new(resnet(ResNetConfig::resnet18_events(10, (HW, HW), 8), rng)),
            &events,
        ),
        ("MS-ResNet18 event int8", Box::new(resnet_int8), &events),
    ];
    let mut leaks = Vec::new();
    for (name, model, requests) in &mut cases {
        for (cut, whole) in [("a call per timestep", false), ("one call per request", true)] {
            let (count, bytes) = steady_state(model.as_mut(), requests, whole);
            println!("{name}, {cut}: {count} allocations >= {LARGE} B ({bytes} B) in 32 requests");
            if count > 0 {
                leaks.push(format!("{name}, {cut}: {count} ({bytes} B)"));
            }
        }
    }
    assert!(leaks.is_empty(), "steady-state requests allocated large buffers: {leaks:?}");
}
