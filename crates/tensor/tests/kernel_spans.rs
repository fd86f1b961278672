//! Every public forward kernel shows up in a request trace as exactly one
//! span under its own name: the drivers open the region, so no kernel —
//! dense or sparse, f32 or int8, convolution, norm, pool or LIF scan — can
//! forget to.

use ttsnn_tensor::lif::{self, Keep};
use ttsnn_tensor::norm::{self, NormDims};
use ttsnn_tensor::qkernels::{self, QAccum};
use ttsnn_tensor::runtime::{self, Runtime};
use ttsnn_tensor::spike::{self, SpikeTensor};
use ttsnn_tensor::{conv, pool, Conv2dGeometry, Rng, Tensor};

/// Spans named `name` that one call of `kernel` records under a fresh trace.
fn spans_of(name: &str, kernel: &dyn Fn()) -> usize {
    let trace = ttsnn_obs::next_trace_id();
    {
        let _ctx = ttsnn_obs::TraceContext::enter(&[trace]);
        kernel();
    }
    ttsnn_obs::trace_events(trace).iter().filter(|e| e.name == name).count()
}

#[test]
fn every_forward_kernel_records_one_span_under_its_own_name() {
    ttsnn_obs::set_enabled(true);
    let mut rng = Rng::seed_from(5);
    let (b, c, o, hw) = (3, 4, 6, 6);
    let g = Conv2dGeometry::new(c, o, (hw, hw), (3, 3), (1, 1), (1, 1));
    let x = Tensor::randn(&[b, c, hw, hw], &mut rng);
    let w = Tensor::randn(&[o, c, 3, 3], &mut rng);
    let dy = Tensor::randn(&[b, o, hw, hw], &mut rng);
    let spikes = x.map(|v| if v > 0.8 { 1.0 } else { 0.0 });
    let sp = SpikeTensor::try_pack(&spikes).expect("binary");
    let qw: Vec<i8> = (0..o * c * 9).map(|i| (i % 13) as i8 - 6).collect();
    let scales = vec![0.02f32; o];

    let feat = c * hw * hw;
    let flat = spikes.reshape(&[b, feat]).expect("flatten");
    let flat_sp = SpikeTensor::try_pack(&flat).expect("binary");
    let lw = Tensor::randn(&[o, feat], &mut rng);
    let lqw: Vec<i8> = (0..o * feat).map(|i| (i % 11) as i8 - 5).collect();
    let bias = vec![0.1f32; o];

    let (m, k, n) = (9, 7, 5);
    let a = Tensor::randn(&[m * k], &mut rng);
    let bm = Tensor::randn(&[k * n], &mut rng);
    let (qa, qb) = (vec![3i8; m * k], vec![-2i8; k * n]);
    let rt = Runtime::new(2);

    let acc = QAccum::I32;
    let one = |name: &str, kernel: &dyn Fn()| {
        assert_eq!(spans_of(name, kernel), 1, "spans named `{name}` in one call");
    };
    one("conv2d", &|| drop(conv::conv2d(&x, &w, &g).unwrap()));
    one("conv2d_input_grad", &|| drop(conv::conv2d_input_grad(&dy, &w, &g).unwrap()));
    one("conv2d_weight_grad", &|| drop(conv::conv2d_weight_grad(&x, &dy, &g).unwrap()));
    one("qconv2d", &|| drop(qkernels::qconv2d(&x, 0.05, &qw, &scales, &g, acc).unwrap()));
    one("qlinear", &|| drop(qkernels::qlinear(&flat, 1.0, &lqw, &scales, &bias, acc).unwrap()));
    one("sparse_conv2d", &|| drop(spike::sparse_conv2d(&sp, &w, &g).unwrap()));
    one("sparse_linear", &|| drop(spike::sparse_linear(&flat_sp, &lw).unwrap()));
    one("sparse_qconv2d", &|| {
        drop(spike::sparse_qconv2d(&sp, 1.0, &qw, &scales, &g, acc).unwrap());
    });
    one("sparse_qlinear", &|| {
        drop(spike::sparse_qlinear(&flat_sp, 1.0, &lqw, &scales, &bias, acc).unwrap());
    });
    one("avg_pool2d", &|| drop(pool::avg_pool2d(&x, 2).unwrap()));
    one("global_avg_pool", &|| drop(pool::global_avg_pool(&x).unwrap()));
    // Statistics per sample, over all of `x` (8 pairs fork at 2 threads).
    let dims = NormDims { b: 1, c, plane: hw * hw };
    let mut stats = vec![0.0; 2 * b * c];
    one("norm_stats", &|| norm::channel_stats(&rt, dims, x.data(), 1e-5, &mut stats.clone()));
    norm::channel_stats(&rt, dims, x.data(), 1e-5, &mut stats);
    one("norm_grad_sums", &|| {
        let mut sums = vec![0.0; 2 * b * c];
        norm::channel_grad_sums(&rt, dims, x.data(), x.data(), &stats, &mut sums);
    });
    one("normalize", &|| {
        let mut y = x.clone();
        norm::normalize(&rt, dims, y.data_mut(), 1e-5, (&[1.0; 4], &[0.0; 4], 0.5), |_| 1.0);
    });
    one("lif_scan", &|| {
        let mut membrane = Tensor::zeros(&[1, c, hw, hw]);
        let keep = Keep::Last { membrane: &mut membrane, fresh: true };
        drop(lif::scan(&rt, b, (0.5, 0.5), &x, keep, false));
    });
    // `a` read as (m, k), as (k, m) and against a (n, k) `b` in turn.
    let (a, bm) = (a.data(), bm.data());
    one("gemm", &|| runtime::gemm(&rt, a, bm, &mut vec![0.0; m * n], m, k, n));
    one("gemm_at_b", &|| runtime::gemm_at_b(&rt, a, bm, &mut vec![0.0; m * n], m, k, n));
    one("gemm_a_bt", &|| runtime::gemm_a_bt(&rt, a, bm, &mut vec![0.0; m * n], m, k, n));
    one("qgemm", &|| qkernels::qgemm(&rt, &qa, &qb, &mut vec![0; m * n], m, k, n, acc));
    one("qgemm_a_bt", &|| qkernels::qgemm_a_bt(&rt, &qa, &qb, &mut vec![0; m * n], m, k, n, acc));
}

/// Each convolution kernel, once on many samples of a short plane (the
/// driver gathers them into shared GEMM panels) and once on a few samples of
/// a wide one (a panel per sample, forked across the pool) — the frozen event
/// kernels beside the per-call ones: still exactly one span a call, under
/// the kernel's own name.
#[test]
fn every_conv_kernel_records_one_span_on_either_batch_arm() {
    ttsnn_obs::set_enabled(true);
    let mut rng = Rng::seed_from(6);
    let (c, o) = (3, 5);
    let w = Tensor::randn(&[o, c, 3, 3], &mut rng);
    let qw: Vec<i8> = (0..o * c * 9).map(|i| (i % 13) as i8 - 6).collect();
    let scales = vec![0.02f32; o];
    let (ew, qew) = (
        spike::EventWeights::new(&w).expect("OIHW kernel"),
        spike::EventWeights::quantized(&qw, o, 1.0).expect("int8 kernel"),
    );
    // 12 samples of a 4×4 plane (16 columns: one gathered panel), then 3 of
    // a 16×16 one (256 columns: one panel each).
    for (b, hw) in [(12, 4), (3, 16)] {
        let g = Conv2dGeometry::new(c, o, (hw, hw), (3, 3), (1, 1), (1, 1));
        let x = Tensor::randn(&[b, c, hw, hw], &mut rng);
        let dy = Tensor::randn(&[b, o, hw, hw], &mut rng);
        let spikes = x.map(|v| if v > 0.8 { 1.0 } else { 0.0 });
        let sp = SpikeTensor::try_pack(&spikes).expect("binary");
        let table = spike::WindowTable::new(&g).unwrap();
        let acc = QAccum::Saturate16;
        let one = |name: &str, kernel: &dyn Fn()| {
            let spans = Runtime::new(2).install(|| spans_of(name, kernel));
            assert_eq!(spans, 1, "spans named `{name}` in one call on {b} samples of {hw}x{hw}");
        };
        one("conv2d", &|| drop(conv::conv2d(&x, &w, &g).unwrap()));
        one("conv2d_input_grad", &|| drop(conv::conv2d_input_grad(&dy, &w, &g).unwrap()));
        one("conv2d_weight_grad", &|| drop(conv::conv2d_weight_grad(&x, &dy, &g).unwrap()));
        one("qconv2d", &|| drop(qkernels::qconv2d(&x, 0.05, &qw, &scales, &g, acc).unwrap()));
        one("sparse_conv2d", &|| drop(spike::sparse_conv2d(&sp, &w, &g).unwrap()));
        one("sparse_conv2d", &|| drop(spike::sparse_conv2d_frozen(&sp, &ew, &table, &g).unwrap()));
        one("sparse_qconv2d", &|| {
            drop(spike::sparse_qconv2d(&sp, 1.0, &qw, &scales, &g, acc).unwrap());
        });
        one("sparse_qconv2d", &|| {
            drop(spike::sparse_qconv2d_frozen(&sp, &qew, &scales, &table, &g, acc).unwrap());
        });
    }
}
