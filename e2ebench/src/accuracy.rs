//! Estimator accuracy against instrumentation ground truth, and the
//! estimator-health signals behind it (fig2's method: user-mode mixes,
//! unreliable-SDE benchmarks excluded from the error averages).

use crate::catalog::Collected;
use crate::ratio;
use hbbp_core::{Analysis, Analyzer, MixComparison};
use hbbp_program::{MnemonicMix, Ring};

/// One analysis to judge.
pub struct Judged<'a> {
    /// Ground-truth instruction mix of the recorded run.
    pub truth: &'a MnemonicMix,
    /// Whether the ground truth is trustworthy (fig2 excludes the rest).
    pub reliable: bool,
    /// The analyzer that produced `analysis`.
    pub analyzer: &'a Analyzer,
    /// The analysis.
    pub analysis: &'a Analysis,
}

/// Accuracy and health over a set of analyses.
pub struct Accuracy {
    /// Analyses with reliable ground truth.
    pub reliable: usize,
    /// Mean average weighted error of the HBBP mix, percent.
    pub hbbp_pct: f64,
    ebs_pct: f64,
    lbr_pct: f64,
    hbbp_loses: usize,
    lbr_choice_share: f64,
    derail_frac: f64,
}

impl Accuracy {
    /// Judge every item.
    pub fn of<'a>(items: impl IntoIterator<Item = Judged<'a>>) -> Accuracy {
        let mut acc = Accuracy {
            reliable: 0,
            hbbp_pct: 0.0,
            ebs_pct: 0.0,
            lbr_pct: 0.0,
            hbbp_loses: 0,
            lbr_choice_share: 0.0,
            derail_frac: 0.0,
        };
        let (mut lbr_blocks, mut blocks, mut judged) = (0usize, 0usize, 0usize);
        for j in items {
            let an = j.analysis;
            let (ebs_chosen, lbr_chosen) = an.hbbp.choice_counts();
            lbr_blocks += lbr_chosen;
            blocks += ebs_chosen + lbr_chosen;
            acc.derail_frac += an.lbr.derail_fraction();
            judged += 1;
            if !j.reliable {
                continue;
            }
            let err = |bbec| {
                MixComparison::compare(j.truth, &j.analyzer.mix_for_ring(bbec, Ring::User))
                    .avg_weighted_error()
            };
            let (h, l, b) = (err(&an.hbbp.bbec), err(&an.lbr.bbec), err(&an.ebs.bbec));
            acc.reliable += 1;
            acc.hbbp_pct += h;
            acc.lbr_pct += l;
            acc.ebs_pct += b;
            if h > l.min(b) {
                acc.hbbp_loses += 1;
            }
        }
        let n = acc.reliable.max(1) as f64;
        acc.hbbp_pct *= 100.0 / n;
        acc.lbr_pct *= 100.0 / n;
        acc.ebs_pct *= 100.0 / n;
        acc.derail_frac /= judged.max(1) as f64;
        acc.lbr_choice_share = ratio(lbr_blocks as u64, blocks as u64);
        acc
    }

    /// Record the per-layer accuracy and health metrics.
    pub fn report(&self, layers: &mut Collected) {
        layers.scalar("core.lbr_choice_share", self.lbr_choice_share);
        layers.scalar("core.lbr_derail_frac", self.derail_frac);
        layers.scalar("core.err_ebs_pct", self.ebs_pct);
        layers.scalar("core.err_lbr_pct", self.lbr_pct);
        layers.scalar("core.hbbp_loses_count", self.hbbp_loses as f64);
    }
}
