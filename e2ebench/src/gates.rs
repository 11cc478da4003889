//! Correctness gates: every output the benchmark times is also checked,
//! bit for bit, against an expected value computed independently of the
//! code path under measurement. A mismatch counts as a failed operation
//! and fails the run.

use hbbp_core::Analysis;
use hbbp_program::{Bbec, MnemonicMix};
use hbbp_store::{CountsRecord, Snapshot};

/// `(address, count bits)` of every entry, in address order.
fn bbec_bits(b: &Bbec) -> Vec<(u64, u64)> {
    b.iter().map(|(a, c)| (a, c.to_bits())).collect()
}

/// `(opcode, count bits)` of every entry, in mnemonic order.
fn mix_bits(m: &MnemonicMix) -> Vec<(u16, u64)> {
    m.iter().map(|(k, c)| (k as u16, c.to_bits())).collect()
}

/// Two BBECs hold the same blocks with bit-identical counts.
pub fn same_bbec(a: &Bbec, b: &Bbec) -> bool {
    bbec_bits(a) == bbec_bits(b)
}

/// Two mixes hold the same mnemonics with bit-identical counts.
pub fn same_mix(a: &MnemonicMix, b: &MnemonicMix) -> bool {
    mix_bits(a) == mix_bits(b)
}

/// Two analyses agree bit for bit on all three estimates (EBS, LBR,
/// HBBP) and on HBBP's per-block choices.
pub fn same_analysis(a: &Analysis, b: &Analysis) -> bool {
    same_bbec(&a.ebs.bbec, &b.ebs.bbec)
        && same_bbec(&a.lbr.bbec, &b.lbr.bbec)
        && same_bbec(&a.hbbp.bbec, &b.hbbp.bbec)
        && a.hbbp.choice_counts() == b.hbbp.choice_counts()
}

/// One stream the daemon acknowledged, as the expected-fold model sees
/// it.
#[derive(Debug, Clone)]
pub struct Acked<'a> {
    /// Source id the stream was sent under (each source streams once).
    pub source: u32,
    /// The stream's whole-recording HBBP counts, from the batch analysis
    /// of the same recording.
    pub bbec: &'a Bbec,
}

/// The aggregate a daemon with `shards` partitions must answer `MIX`
/// with after acknowledging `acked` into its first epoch.
///
/// Built without the daemon: each partition (`source % shards`) holds its
/// sources' counts, and the partitions' records are concatenated in
/// shard order and folded canonically through [`Snapshot::aggregate`].
///
/// # Panics
///
/// Panics if a source appears twice (the model assigns every stream
/// sequence number 0 of its own source).
pub fn expected_fold(acked: &[Acked<'_>], shards: u32) -> Bbec {
    let mut seen = std::collections::BTreeSet::new();
    for a in acked {
        assert!(seen.insert(a.source), "source {} streamed twice", a.source);
    }
    let mut combined = empty_snapshot();
    for shard in 0..shards {
        for a in acked.iter().filter(|a| a.source % shards == shard) {
            combined.counts.push(CountsRecord {
                source: a.source,
                seq: 0,
                ebs_samples: 0,
                lbr_samples: 0,
                bbec: a.bbec.clone(),
            });
            combined.counts_epochs.push(0);
        }
    }
    combined.aggregate()
}

fn empty_snapshot() -> Snapshot {
    Snapshot {
        identity: None,
        counts: Vec::new(),
        windows: Vec::new(),
        counts_epochs: Vec::new(),
        window_epochs: Vec::new(),
    }
}

/// Tally of checked operations and the first few failures.
#[derive(Debug, Default)]
pub struct Gate {
    /// Operations checked.
    pub checked: u64,
    /// Operations whose output was wrong or that failed outright.
    pub failed: u64,
    /// Human-readable descriptions of the first failures.
    pub messages: Vec<String>,
}

impl Gate {
    /// Record one checked operation; `ok == false` counts it as failed
    /// with the message `what()`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checked += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Record one failed operation that was not otherwise counted.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(what);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbbp_isa::Mnemonic;

    fn bbec(entries: &[(u64, f64)]) -> Bbec {
        entries.iter().copied().collect()
    }

    fn nudged(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1)
    }

    #[test]
    fn mix_gate_rejects_a_perturbed_expected_mix() {
        let mut expected = MnemonicMix::new();
        expected.add(Mnemonic::Add, 1000.0);
        expected.add(Mnemonic::Mov, 0.1 + 0.2);
        assert!(same_mix(&expected, &expected.clone()));
        let mut one_ulp = MnemonicMix::new();
        one_ulp.add(Mnemonic::Add, 1000.0);
        one_ulp.add(Mnemonic::Mov, nudged(0.1 + 0.2));
        assert!(!same_mix(&expected, &one_ulp), "one ulp must fail the gate");
        let mut extra = expected.clone();
        extra.add(Mnemonic::Sub, 1.0);
        assert!(!same_mix(&expected, &extra), "an extra mnemonic must fail");
        assert!(!same_mix(&expected, &MnemonicMix::new()));
    }

    #[test]
    fn bbec_gate_rejects_a_perturbed_expected_count() {
        let a = bbec(&[(0x1000, 3.0), (0x1010, 0.7)]);
        assert!(same_bbec(&a, &a.clone()));
        assert!(!same_bbec(
            &a,
            &bbec(&[(0x1000, 3.0), (0x1010, nudged(0.7))])
        ));
        assert!(!same_bbec(&a, &bbec(&[(0x1000, 3.0)])));
        assert!(!same_bbec(&a, &bbec(&[(0x1000, 3.0), (0x1020, 0.7)])));
    }

    #[test]
    fn expected_fold_is_the_canonical_fold_of_acknowledged_streams() {
        // Summation order matters in f64: 0.1 + 0.2 + 0.3 folds to
        // 0.6000000000000001 in canonical (source) order but to 0.6 in
        // arrival order, so the assertions pin the model's ordering.
        let counts = [
            bbec(&[(0x10, 0.3)]),
            bbec(&[(0x10, 0.2)]),
            bbec(&[(0x10, 0.1)]),
        ];
        let acked: Vec<Acked<'_>> = [7u32, 5, 2]
            .iter()
            .zip(&counts)
            .map(|(&source, bbec)| Acked { source, bbec })
            .collect();
        let fold = |order: [usize; 3]| {
            let mut acc = Bbec::new();
            for i in order {
                acc.merge(&counts[i]);
            }
            acc
        };
        let want = fold([2, 1, 0]);
        assert!(
            !same_bbec(&want, &fold([0, 1, 2])),
            "fixture is order-sensitive"
        );
        let got = expected_fold(&acked, 1);
        assert!(same_bbec(&got, &want));
        // A perturbed expected value fails the gate the daemon's MIX is
        // held to.
        let mut wrong = want.clone();
        wrong.set(0x10, nudged(want.get(0x10)));
        assert!(!same_bbec(&got, &wrong));
        // Arrival order is irrelevant.
        let reversed: Vec<_> = acked.iter().rev().cloned().collect();
        assert!(same_bbec(&expected_fold(&reversed, 1), &got));
    }

    #[test]
    #[should_panic(expected = "streamed twice")]
    fn repeated_sources_are_outside_the_model() {
        let b = bbec(&[(0x10, 1.0)]);
        let acked = [
            Acked {
                source: 1,
                bbec: &b,
            },
            Acked {
                source: 1,
                bbec: &b,
            },
        ];
        expected_fold(&acked, 1);
    }

    #[test]
    fn gate_counts_failures_and_keeps_the_first_messages() {
        let mut g = Gate::default();
        g.check(true, || unreachable!());
        for i in 0..10 {
            g.check(false, || format!("bad {i}"));
        }
        assert_eq!((g.checked, g.failed, g.messages.len()), (11, 10, 8));
        assert_eq!(g.messages[0], "bad 0");
    }
}
