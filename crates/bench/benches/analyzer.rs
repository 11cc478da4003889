//! Criterion benches of the analysis path: whole-recording estimation
//! (EBS + LBR with bias detection + hybrid), hybrid combination alone, mix
//! derivation and pivot tables (the paper: "analyzing most workloads in a
//! minute or less").

use criterion::{criterion_group, criterion_main, Criterion};
use hbbp_core::{hybrid, Analyzer, Field, HybridRule, SamplingPeriods};
use hbbp_isa::Taxonomy;
use hbbp_perf::PerfSession;
use hbbp_sim::Cpu;
use hbbp_workloads::{generate, GenSpec, Scale};
use std::hint::black_box;

fn bench_analyzer(c: &mut Criterion) {
    let w = generate(&GenSpec::default(), Scale::Tiny);
    let cpu = Cpu::with_seed(11);
    let instructions = cpu
        .run_clean(w.program(), w.layout(), w.oracle())
        .unwrap()
        .instructions;
    let periods = SamplingPeriods::scaled_for(instructions);
    let session = PerfSession::hbbp(cpu, periods.ebs, periods.lbr);
    let rec = session.record(w.program(), w.layout(), w.oracle()).unwrap();
    let analyzer = Analyzer::from_images(
        &w.images(hbbp_program::ImageView::Live),
        w.layout().symbols(),
    )
    .unwrap();

    let mut group = c.benchmark_group("analyzer");
    group.sample_size(30);

    let rule = HybridRule::paper_default();
    group.bench_function("analyze_fused", |b| {
        b.iter(|| {
            black_box(
                analyzer
                    .analyze_fused(&rec.data, periods, &rule)
                    .hbbp
                    .bbec
                    .total(),
            )
        })
    });

    let analysis = analyzer.analyze_fused(&rec.data, periods, &rule);
    let (e, l) = (&analysis.ebs, &analysis.lbr);
    group.bench_function("hybrid_combine", |b| {
        b.iter(|| black_box(hybrid::combine(analyzer.map(), e, l, &rule).bbec.total()))
    });

    let h = &analysis.hbbp;
    group.bench_function("mix_from_bbec", |b| {
        b.iter(|| black_box(analyzer.mix(&h.bbec).total()))
    });
    group.bench_function("pivot_ext_packing", |b| {
        b.iter(|| {
            black_box(
                analyzer
                    .pivot(&h.bbec, &[Field::Taxon(Taxonomy::ext_packing())])
                    .total(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_analyzer);
criterion_main!(benches);
