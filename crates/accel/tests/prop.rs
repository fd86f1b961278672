//! Property-based tests for the accelerator model: monotonicity and
//! scale-consistency of the energy estimates.

use proptest::prelude::*;
use ttsnn_accel::{simulate, AcceleratorConfig, EnergyModel, Method, Target};
use ttsnn_core::flops::NetworkSpec;
use ttsnn_core::TtMode;
use ttsnn_snn::{Architecture, ConvPolicy, ResNetConfig};

fn random_spec(seed: u64, timesteps: usize) -> NetworkSpec {
    let mut rng = ttsnn_tensor::Rng::seed_from(seed);
    // Paper-regime networks: tens-of-channels widths, two blocks per
    // stage, VBMF-like ranks at a quarter to ~40% of the layer width. For
    // toy single-block nets at rank ≈ width the decomposition genuinely
    // stops paying — that regime is out of scope for the Fig. 4 claims.
    let w0 = 32 + rng.below(32);
    let config = ResNetConfig {
        stage_blocks: vec![2, 2],
        widths: vec![w0, w0 * 2],
        ..ResNetConfig::resnet18(10, (32, 32), 1)
    };
    let ranks: Vec<usize> = (0..8).map(|_| (w0 / 4 + rng.below(w0 / 6 + 1)).max(1)).collect();
    let policy = ConvPolicy::TtWithRanks { mode: TtMode::Ptt, ranks };
    config.program().and_then(|program| program.spec(&policy, timesteps)).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn energy_positive_and_finite(seed in 0u64..500, t in 1usize..7) {
        let spec = random_spec(seed, t);
        let cfg = AcceleratorConfig::paper();
        let em = EnergyModel::nm28();
        for method in Method::ALL {
            for target in [Target::SingleEngine, Target::MultiCluster] {
                let e = simulate(&spec, method, target, &cfg, &em);
                prop_assert!(e.total_pj().is_finite());
                prop_assert!(e.total_pj() > 0.0);
                prop_assert!(e.cycles > 0.0);
            }
        }
    }

    #[test]
    fn more_timesteps_cost_more(seed in 0u64..300) {
        let cfg = AcceleratorConfig::paper();
        let em = EnergyModel::nm28();
        let short = simulate(&random_spec(seed, 2), Method::Ptt, Target::MultiCluster, &cfg, &em);
        let long = simulate(&random_spec(seed, 6), Method::Ptt, Target::MultiCluster, &cfg, &em);
        prop_assert!(long.total_pj() > short.total_pj());
    }

    #[test]
    fn tt_methods_never_exceed_baseline(seed in 0u64..300, t in 2usize..6) {
        // The headline of Fig. 4(a): STT saves energy vs the dense
        // baseline on the *existing single-engine* accelerator. (On the
        // proposed multi-cluster design STT is the wrong fit — its serial
        // stages idle three clusters, and at small widths its static
        // energy can exceed the baseline's; the design targets PTT/HTT,
        // which is the separate property below.)
        let spec = random_spec(seed, t);
        let cfg = AcceleratorConfig::paper();
        let em = EnergyModel::nm28();
        let base = simulate(&spec, Method::Baseline, Target::SingleEngine, &cfg, &em);
        let stt = simulate(&spec, Method::Stt, Target::SingleEngine, &cfg, &em);
        prop_assert!(
            stt.total_pj() < base.total_pj(),
            "STT {} vs baseline {} on the single engine",
            stt.total_pj(),
            base.total_pj()
        );
        // Fig. 4(b)'s regime: PTT on the proposed design also beats the
        // baseline on the proposed design.
        let base_mc = simulate(&spec, Method::Baseline, Target::MultiCluster, &cfg, &em);
        let ptt_mc = simulate(&spec, Method::Ptt, Target::MultiCluster, &cfg, &em);
        prop_assert!(
            ptt_mc.total_pj() < base_mc.total_pj(),
            "PTT {} vs baseline {} on the proposed design",
            ptt_mc.total_pj(),
            base_mc.total_pj()
        );
    }

    #[test]
    fn htt_no_more_expensive_than_ptt_on_proposed(seed in 0u64..300, t in 2usize..6) {
        let spec = random_spec(seed, t);
        let cfg = AcceleratorConfig::paper();
        let em = EnergyModel::nm28();
        let ptt = simulate(&spec, Method::Ptt, Target::MultiCluster, &cfg, &em);
        let htt = simulate(&spec, Method::Htt, Target::MultiCluster, &cfg, &em);
        prop_assert!(htt.total_pj() <= ptt.total_pj() * 1.001);
    }

    #[test]
    fn dram_price_scales_dram_component(seed in 0u64..200) {
        let spec = random_spec(seed, 4);
        let cfg = AcceleratorConfig::paper();
        let mut cheap = EnergyModel::nm28();
        cheap.dram_pj_per_byte = 10.0;
        let mut pricey = EnergyModel::nm28();
        pricey.dram_pj_per_byte = 200.0;
        let a = simulate(&spec, Method::Ptt, Target::SingleEngine, &cfg, &cheap);
        let b = simulate(&spec, Method::Ptt, Target::SingleEngine, &cfg, &pricey);
        prop_assert!(b.dram_pj > a.dram_pj);
        prop_assert!((b.dram_pj / a.dram_pj - 20.0).abs() < 1e-6);
    }
}
