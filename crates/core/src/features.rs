//! Per-block features for the HBBP decision rule — paper §IV.B.
//!
//! "As features we use code parameters that could have an influence on the
//! underlying performance monitoring subsystem, including, for instance,
//! basic block lengths, instruction-related information, execution counts
//! and bias flags, weighted by the number of executions of the basic
//! block."

use crate::{EbsEstimate, LbrEstimate};
use hbbp_isa::Instruction;
use hbbp_program::StaticBlock;

/// Feature names, in the order produced by [`BlockFeatures::to_vec`].
pub const FEATURE_NAMES: [&str; 6] = [
    "block_len",
    "bias",
    "exec_estimate_log10",
    "has_long_latency",
    "mean_latency",
    "backward_branch",
];

/// Features of one basic block, as available *at analysis time* (no ground
/// truth involved).
#[derive(Debug, Clone, PartialEq)]
pub struct BlockFeatures {
    /// Instruction count of the block — the paper's dominant feature.
    pub block_len: f64,
    /// LBR bias flag (§III.C).
    pub bias: bool,
    /// log10 of the measured execution estimate (max of EBS/LBR).
    pub exec_estimate_log10: f64,
    /// Whether any instruction is long-latency.
    pub has_long_latency: bool,
    /// Mean nominal latency of the block's instructions.
    pub mean_latency: f64,
    /// Whether the terminator is a backward conditional branch (loop-ish).
    pub backward_branch: bool,
}

impl BlockFeatures {
    /// Extract features for `block` using address-keyed estimate lookups.
    ///
    /// Prefer [`BlockFeatures::extract_indexed`] on hot paths where the
    /// block's map index is already at hand — it produces the same values
    /// without touching the sparse tables.
    pub fn extract(block: &StaticBlock, ebs: &EbsEstimate, lbr: &LbrEstimate) -> BlockFeatures {
        let exec = ebs.count(block.start).max(lbr.count(block.start));
        Self::from_parts(block, exec, lbr.is_biased(block.start))
    }

    /// Extract features for the block at map index `bi` (`block` must be
    /// `map.blocks()[bi]`), using dense index-addressed estimate lookups.
    pub fn extract_indexed(
        block: &StaticBlock,
        bi: usize,
        ebs: &EbsEstimate,
        lbr: &LbrEstimate,
    ) -> BlockFeatures {
        let exec = ebs.count_idx(bi).max(lbr.count_idx(bi));
        Self::from_parts(block, exec, lbr.is_biased_idx(bi))
    }

    fn from_parts(block: &StaticBlock, exec: f64, bias: bool) -> BlockFeatures {
        let mean_latency = if block.instrs.is_empty() {
            0.0
        } else {
            block.instrs.iter().map(|i| i.latency() as f64).sum::<f64>() / block.instrs.len() as f64
        };
        BlockFeatures {
            block_len: block.len() as f64,
            bias,
            exec_estimate_log10: if exec > 0.0 { exec.log10() } else { 0.0 },
            has_long_latency: block.instrs.iter().any(Instruction::is_long_latency),
            mean_latency,
            backward_branch: matches!(
                (block.term_kind, block.term_target),
                (Some(hbbp_isa::BranchKind::Conditional), Some(t)) if t < block.start
            ) || matches!(
                (block.term_kind, block.term_target),
                (Some(hbbp_isa::BranchKind::Conditional), Some(t))
                    if t >= block.start && t < block.end()
            ),
        }
    }

    /// Feature vector in [`FEATURE_NAMES`] order.
    pub fn to_vec(&self) -> Vec<f64> {
        vec![
            self.block_len,
            self.bias as u8 as f64,
            self.exec_estimate_log10,
            self.has_long_latency as u8 as f64,
            self.mean_latency,
            self.backward_branch as u8 as f64,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Analyzer, HybridRule, SamplingPeriods};
    use hbbp_isa::instruction::build;
    use hbbp_isa::{Mnemonic, Reg};
    use hbbp_perf::PerfData;
    use hbbp_program::{BlockMap, ImageView, Layout, ProgramBuilder, Ring, TextImage};

    fn fixture() -> (BlockMap, u64) {
        let mut b = ProgramBuilder::new("f");
        let m = b.module("f.bin", Ring::User);
        let f = b.function(m, "main");
        let b0 = b.block(f);
        let b1 = b.block(f);
        for i in 0..3 {
            b.push(b0, build::rr(Mnemonic::Add, Reg::gpr(i), Reg::gpr(5)));
        }
        b.push(b0, build::r(Mnemonic::Idiv, Reg::gpr(6)));
        b.terminate_branch(b0, Mnemonic::Jnz, b0, b1);
        b.terminate_exit(b1, build::bare(Mnemonic::Syscall));
        let mut p = b.build(f).unwrap();
        let layout = Layout::compute(&mut p).unwrap();
        let image = TextImage::encode(&p, &layout, p.modules()[0].id(), ImageView::Disk);
        let map = BlockMap::discover(&[image], layout.symbols()).unwrap();
        (map, layout.block_start(b0))
    }

    #[test]
    fn extraction_captures_static_properties() {
        let (map, b0) = fixture();
        let empty = PerfData::new();
        let periods = SamplingPeriods { ebs: 100, lbr: 50 };
        let analysis = Analyzer::from_map(map.clone(), Default::default()).analyze_fused(
            &empty,
            periods,
            &HybridRule::paper_default(),
        );
        let (e, l) = (&analysis.ebs, &analysis.lbr);
        let bi = map.at_start(b0).unwrap();
        let feats = BlockFeatures::extract(&map.blocks()[bi], e, l);
        let feats_idx = BlockFeatures::extract_indexed(&map.blocks()[bi], bi, e, l);
        assert_eq!(feats, feats_idx, "address and index paths must agree");
        assert_eq!(feats.block_len, 5.0);
        assert!(feats.has_long_latency, "IDIV present");
        assert!(feats.backward_branch, "self-loop Jnz");
        assert!(!feats.bias);
        assert_eq!(feats.exec_estimate_log10, 0.0);
        assert!(feats.mean_latency > 1.0);
        let v = feats.to_vec();
        assert_eq!(v.len(), FEATURE_NAMES.len());
        assert_eq!(v[0], 5.0);
        assert_eq!(v[1], 0.0);
    }
}
