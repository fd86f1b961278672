//! Design-choice ablation benches called out in DESIGN.md §4:
//!
//! * surrogate-gradient shape — does the backward-pass surrogate change
//!   step cost? (it should not: same op counts, different scalar kernel);
//! * HTT schedule granularity — step cost of FFHH vs HFHF vs FFFF vs HHHH
//!   (full/half mix controls the compute of the *whole* step);
//! * int8 fake-quantization overhead on the TT cores (QAT cost).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ttsnn_autograd::{Surrogate, Var};
use ttsnn_core::quant::fake_quant_int8;
use ttsnn_core::{HttSchedule, TtConv, TtMode};
use ttsnn_tensor::{Rng, Tensor};

fn bench_surrogates(c: &mut Criterion) {
    let mut group = c.benchmark_group("surrogate_backward");
    let mut rng = Rng::seed_from(1);
    let u = Var::param(Tensor::randn(&[4, 64, 16, 16], &mut rng));
    for (name, s) in [
        ("rectangle", Surrogate::Rectangle { width: 1.0 }),
        ("triangle", Surrogate::Triangle { width: 1.0 }),
        ("atan", Surrogate::Atan { alpha: 2.0 }),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                u.zero_grad();
                // One timestep of a reset neuron: the spike and its surrogate.
                let scan = u.lif_scan(None, 1, 0.25, 0.5, s).expect("one timestep");
                scan.spikes.sum_to_scalar().backward();
            })
        });
    }
    group.finish();
}

fn bench_htt_schedules(c: &mut Criterion) {
    let mut group = c.benchmark_group("htt_schedule_step_cost");
    group.sample_size(20);
    let mut rng = Rng::seed_from(2);
    let x = Tensor::randn(&[1, 32, 16, 16], &mut rng);
    for pattern in ["FFFF", "FFHH", "HFHF", "HHHH"] {
        let schedule = HttSchedule::from_pattern(pattern).expect("valid pattern");
        let layer = TtConv::randn(32, 32, 10, TtMode::Htt(schedule), &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(pattern), &pattern, |b, _| {
            b.iter(|| {
                // one full 4-timestep pass through the layer
                for t in 0..4 {
                    layer.forward_tensor(&x, t).expect("forward");
                }
            })
        });
    }
    group.finish();
}

fn bench_fake_quant(c: &mut Criterion) {
    let mut group = c.benchmark_group("int8_fake_quant");
    let mut rng = Rng::seed_from(3);
    let w = Var::param(Tensor::randn(&[64, 64, 3, 3], &mut rng));
    group.bench_function("fake_quant_64ch_kernel", |b| b.iter(|| fake_quant_int8(&w)));
    group.finish();
}

criterion_group!(benches, bench_surrogates, bench_htt_schedules, bench_fake_quant);
criterion_main!(benches);
