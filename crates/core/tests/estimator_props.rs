//! Property tests for the HBBP estimators and error metrics.

use hbbp_core::{errors::MixComparison, hybrid, Analysis, Analyzer, HybridRule, SamplingPeriods};
use hbbp_isa::instruction::build;
use hbbp_isa::{Mnemonic, Reg};
use hbbp_perf::{PerfData, PerfRecord, PerfSample};
use hbbp_program::{BlockMap, ImageView, Layout, MnemonicMix, ProgramBuilder, Ring, TextImage};
use hbbp_sim::{EventSpec, LbrEntry};
use proptest::prelude::*;

/// Fixture: a loop block (len `body+1`) and an exit block.
struct Fx {
    map: BlockMap,
    head_start: u64,
    head_term: u64,
    head_len: usize,
}

fn fixture(body: usize) -> Fx {
    let mut b = ProgramBuilder::new("f");
    let m = b.module("f.bin", Ring::User);
    let f = b.function(m, "main");
    let b0 = b.block(f);
    let b1 = b.block(f);
    for i in 0..body {
        b.push(
            b0,
            build::rr(Mnemonic::Add, Reg::gpr((i % 8) as u8), Reg::gpr(9)),
        );
    }
    b.terminate_branch(b0, Mnemonic::Jnz, b0, b1);
    b.terminate_exit(b1, build::bare(Mnemonic::Syscall));
    let mut p = b.build(f).unwrap();
    let layout = Layout::compute(&mut p).unwrap();
    let image = TextImage::encode(&p, &layout, p.modules()[0].id(), ImageView::Disk);
    let map = BlockMap::discover(&[image], layout.symbols()).unwrap();
    Fx {
        head_start: layout.block_start(b0),
        head_term: layout.terminator_addr(b0),
        head_len: body + 1,
        map,
    }
}

fn ebs_sample(ip: u64) -> PerfRecord {
    PerfRecord::Sample(PerfSample {
        counter: 0,
        event: EventSpec::inst_retired_prec_dist(),
        ip,
        time_cycles: 0,
        pid: 1,
        tid: 1,
        ring: Ring::User,
        lbr: vec![],
    })
}

fn lbr_sample(entries: Vec<LbrEntry>) -> PerfRecord {
    PerfRecord::Sample(PerfSample {
        counter: 1,
        event: EventSpec::br_inst_retired_near_taken(),
        ip: 0,
        time_cycles: 0,
        pid: 1,
        tid: 1,
        ring: Ring::User,
        lbr: entries,
    })
}

/// The whole-recording analysis of `data` over the fixture's map.
fn analyze(fx: &Fx, data: &PerfData, periods: SamplingPeriods) -> Analysis {
    Analyzer::from_map(fx.map.clone(), Default::default()).analyze_fused(
        data,
        periods,
        &HybridRule::paper_default(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// EBS extrapolation is linear: count = samples × period / len.
    #[test]
    fn ebs_estimate_is_linear(
        body in 1usize..30,
        n_samples in 1usize..200,
        period in 1u64..100_000,
    ) {
        let fx = fixture(body);
        let mut data = PerfData::new();
        for _ in 0..n_samples {
            data.push(ebs_sample(fx.head_start));
        }
        let est = analyze(&fx, &data, SamplingPeriods { ebs: period, lbr: 1 }).ebs;
        let expected = n_samples as f64 * period as f64 / fx.head_len as f64;
        prop_assert!((est.count(fx.head_start) - expected).abs() < 1e-6);
        prop_assert_eq!(est.samples_used, n_samples as u64);
    }

    /// Each LBR stack contributes exactly `period` worth of block
    /// executions (weights sum to 1 per stack), regardless of stack size.
    #[test]
    fn lbr_stack_weight_normalizes(
        body in 1usize..30,
        stack_len in 2usize..16,
        n_stacks in 1usize..100,
        period in 1u64..10_000,
    ) {
        let fx = fixture(body);
        let e = LbrEntry { from: fx.head_term, to: fx.head_start };
        let mut data = PerfData::new();
        for _ in 0..n_stacks {
            data.push(lbr_sample(vec![e; stack_len]));
        }
        let est = analyze(&fx, &data, SamplingPeriods { ebs: 1, lbr: period }).lbr;
        let expected = n_stacks as f64 * period as f64;
        prop_assert!(
            (est.bbec.total() - expected).abs() < 1e-6,
            "total {} expected {}",
            est.bbec.total(),
            expected
        );
    }

    /// The hybrid's per-block value always equals one of the two sources.
    #[test]
    fn hybrid_is_a_selection(
        body in 1usize..40,
        ebs_samples in 1usize..50,
        stacks in 1usize..50,
        cutoff in 0usize..50,
    ) {
        let fx = fixture(body);
        let mut data = PerfData::new();
        for _ in 0..ebs_samples {
            data.push(ebs_sample(fx.head_start));
        }
        let e = LbrEntry { from: fx.head_term, to: fx.head_start };
        for _ in 0..stacks {
            data.push(lbr_sample(vec![e; 8]));
        }
        let Analysis { ebs: est_e, lbr: est_l, .. } =
            analyze(&fx, &data, SamplingPeriods { ebs: 1000, lbr: 300 });
        let h = hybrid::combine(&fx.map, &est_e, &est_l, &HybridRule::LengthCutoff(cutoff));
        let he = h.count(fx.head_start);
        let a = est_e.count(fx.head_start);
        let b = est_l.count(fx.head_start);
        prop_assert!((he - a).abs() < 1e-9 || (he - b).abs() < 1e-9);
        // And the choice respects the cutoff.
        let expect_lbr = fx.head_len <= cutoff;
        if expect_lbr {
            prop_assert!((he - b).abs() < 1e-9);
        } else {
            prop_assert!((he - a).abs() < 1e-9);
        }
    }

    /// Error metric identities: compare(x, x) is zero error; scaling the
    /// measurement by (1+f) yields avg weighted error |f|.
    #[test]
    fn error_metric_identities(
        counts in proptest::collection::vec(1.0f64..1e6, 1..20),
        factor in -0.5f64..0.5,
    ) {
        let mix: MnemonicMix = Mnemonic::ALL
            .iter()
            .zip(&counts)
            .map(|(&m, &c)| (m, c))
            .collect();
        let self_cmp = MixComparison::compare(&mix, &mix);
        prop_assert!(self_cmp.avg_weighted_error() < 1e-12);

        let mut scaled = mix.clone();
        scaled.scale(1.0 + factor);
        let cmp = MixComparison::compare(&mix, &scaled);
        prop_assert!(
            (cmp.avg_weighted_error() - factor.abs()).abs() < 1e-9,
            "awe {} factor {}",
            cmp.avg_weighted_error(),
            factor
        );
    }

    /// Average weighted error is invariant under uniform rescaling of both
    /// mixes (it is a relative metric).
    #[test]
    fn error_metric_scale_invariance(
        counts in proptest::collection::vec(1.0f64..1e6, 2..20),
        noise in proptest::collection::vec(0.5f64..1.5, 2..20),
        scale in 0.001f64..1000.0,
    ) {
        let n = counts.len().min(noise.len());
        let reference: MnemonicMix = Mnemonic::ALL
            .iter()
            .zip(&counts[..n])
            .map(|(&m, &c)| (m, c))
            .collect();
        let measured: MnemonicMix = Mnemonic::ALL
            .iter()
            .zip(counts[..n].iter().zip(&noise[..n]))
            .map(|(&m, (&c, &w))| (m, c * w))
            .collect();
        let base = MixComparison::compare(&reference, &measured).avg_weighted_error();
        let mut r2 = reference.clone();
        let mut m2 = measured.clone();
        r2.scale(scale);
        m2.scale(scale);
        let scaled = MixComparison::compare(&r2, &m2).avg_weighted_error();
        prop_assert!((base - scaled).abs() < 1e-9);
    }
}
