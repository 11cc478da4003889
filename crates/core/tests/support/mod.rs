//! The seed analysis pipeline, the oracle the equivalence property tests
//! pin the production engine against: two independent full scans of the
//! recording through address-keyed estimators, with IP lookups and stream
//! walks done by whole-map binary searches. None of the production
//! shortcuts (page index, locality cursors, dense tables, interned branch
//! ids, run batching, walk caches) appear here.

use hbbp_core::{
    Analysis, Analyzer, BlockFeatures, Choice, EbsEstimate, HbbpEstimate, HybridRule, LbrEstimate,
    LbrOptions, SamplingPeriods,
};
use hbbp_isa::BranchKind;
use hbbp_perf::PerfData;
use hbbp_program::{Bbec, BlockMap, DenseBbec, StreamWalk};
use hbbp_sim::EventSpec;
use std::collections::{HashMap, HashSet};

/// Run all three seed estimators over a recording.
pub fn analyze_ref(
    analyzer: &Analyzer,
    data: &PerfData,
    periods: SamplingPeriods,
    rule: &HybridRule,
) -> Analysis {
    let map = analyzer.map();
    let ebs = ebs_estimate_ref(data, map, periods.ebs);
    let lbr = lbr_estimate_ref(data, map, periods.lbr, analyzer.lbr_options());
    let hbbp = combine_ref(map, &ebs, &lbr, rule);
    Analysis { ebs, lbr, hbbp }
}

/// Index of the block containing `addr`: one binary search over the
/// whole sorted block vector per call.
pub fn enclosing_seed(map: &BlockMap, addr: u64) -> Option<usize> {
    let blocks = map.blocks();
    let pos = blocks.partition_point(|b| b.start <= addr);
    if pos == 0 {
        return None;
    }
    let idx = pos - 1;
    (addr < blocks[idx].end()).then_some(idx)
}

/// Walk an LBR stream `<target, source>` with whole-map binary searches
/// for the target lookup and for every mid-stream block transition,
/// and a fresh allocation per call.
pub fn walk_stream_seed(map: &BlockMap, target: u64, source: u64) -> StreamWalk {
    let mut blocks = Vec::new();
    let derailed = 'walk: {
        let Some(mut idx) = enclosing_seed(map, target) else {
            break 'walk true;
        };
        if source < target {
            break 'walk true;
        }
        loop {
            let block = &map.blocks()[idx];
            blocks.push(idx);
            if source >= block.start && source < block.end() {
                break 'walk false;
            }
            let consistent = match block.term_kind {
                Some(BranchKind::Conditional) | None => true,
                Some(BranchKind::Unconditional) => block.term_target == Some(block.end()),
                Some(BranchKind::Call) | Some(BranchKind::Return) => false,
            };
            match map.at_start(block.end()) {
                Some(next) if consistent => idx = next,
                _ => break 'walk true,
            }
        }
    };
    StreamWalk { blocks, derailed }
}

/// The EBS estimate from the eventing IPs of `INST_RETIRED:PREC_DIST`
/// samples, tallied per block start address.
pub fn ebs_estimate_ref(data: &PerfData, map: &BlockMap, period: u64) -> EbsEstimate {
    let event = EventSpec::inst_retired_prec_dist();
    let mut samples_per_block: HashMap<u64, u64> = HashMap::new();
    let mut used = 0u64;
    let mut unmapped = 0u64;
    for sample in data.samples_of(event) {
        match enclosing_seed(map, sample.ip) {
            Some(bi) => {
                *samples_per_block.entry(map.blocks()[bi].start).or_insert(0) += 1;
                used += 1;
            }
            None => unmapped += 1,
        }
    }
    let mut bbec = Bbec::new();
    for (&start, &n) in &samples_per_block {
        let bi = map.at_start(start).expect("block exists");
        let len = map.blocks()[bi].len().max(1) as f64;
        bbec.set(start, n as f64 * period as f64 / len);
    }
    let dense = DenseBbec::from_bbec(&bbec, map);
    EbsEstimate {
        bbec,
        dense,
        samples_per_block,
        samples_used: used,
        samples_unmapped: unmapped,
        period,
    }
}

/// The LBR estimate from the stacks of `BR_INST_RETIRED:NEAR_TAKEN`
/// samples: per-branch statistics in hash maps, per-stack dedup by a
/// linear `contains` scan, one stream walk per stream.
pub fn lbr_estimate_ref(
    data: &PerfData,
    map: &BlockMap,
    period: u64,
    options: &LbrOptions,
) -> LbrEstimate {
    let event = EventSpec::br_inst_retired_near_taken();

    // Pass 1: entry[0] occupancy statistics per branch source address,
    // conditioned on the branch being present in a stack at all (a
    // branch whose loop covers 10% of the run can still hog entry[0]
    // of every snapshot taken *during* that loop — the paper's
    // anomaly, §III.C).
    let mut entry0_counts: HashMap<u64, u64> = HashMap::new();
    let mut appearances: HashMap<u64, u64> = HashMap::new();
    let mut stacks_containing: HashMap<u64, u64> = HashMap::new();
    let mut entries_alongside: HashMap<u64, u64> = HashMap::new();
    let mut stacks = 0u64;
    let mut seen_in_stack: Vec<u64> = Vec::new();
    for sample in data.samples_of(event) {
        if sample.lbr.is_empty() {
            continue;
        }
        stacks += 1;
        *entry0_counts.entry(sample.lbr[0].from).or_insert(0) += 1;
        seen_in_stack.clear();
        for e in &sample.lbr {
            *appearances.entry(e.from).or_insert(0) += 1;
            if !seen_in_stack.contains(&e.from) {
                seen_in_stack.push(e.from);
            }
        }
        for &from in &seen_in_stack {
            *stacks_containing.entry(from).or_insert(0) += 1;
            *entries_alongside.entry(from).or_insert(0) += sample.lbr.len() as u64;
        }
    }
    let biased_branches: HashSet<u64> = appearances
        .iter()
        .filter(|(addr, &total)| {
            if total < options.min_branch_occurrences {
                return false;
            }
            let present = stacks_containing.get(addr).copied().unwrap_or(0);
            let alongside = entries_alongside.get(addr).copied().unwrap_or(0);
            if present == 0 || alongside == 0 {
                return false;
            }
            // Occupancy and fair share, conditional on presence.
            let entry0_share =
                entry0_counts.get(addr).copied().unwrap_or(0) as f64 / present as f64;
            let fair_share = total as f64 / alongside as f64;
            entry0_share - fair_share >= options.entry0_excess_threshold
        })
        .map(|(&addr, _)| addr)
        .collect();

    // Pass 2: stream decomposition and attribution.
    let mut weight: HashMap<u64, f64> = HashMap::new();
    let mut biased_weight: HashMap<u64, f64> = HashMap::new();
    let mut derailed = 0u64;
    let mut streams = 0u64;
    for sample in data.samples_of(event) {
        let n = sample.lbr.len();
        if n < 2 {
            continue;
        }
        let w = 1.0 / (n - 1) as f64;
        for i in 1..n {
            streams += 1;
            let target = sample.lbr[i - 1].to;
            let source = sample.lbr[i].from;
            let walk = walk_stream_seed(map, target, source);
            if walk.derailed {
                derailed += 1;
            }
            let source_biased = biased_branches.contains(&source);
            for bi in walk.blocks {
                let start = map.blocks()[bi].start;
                *weight.entry(start).or_insert(0.0) += w;
                if source_biased {
                    *biased_weight.entry(start).or_insert(0.0) += w;
                }
            }
        }
    }

    let mut bbec = Bbec::new();
    let mut biased_weight_fraction = HashMap::new();
    let mut biased_blocks = HashSet::new();
    for (&start, &w) in &weight {
        bbec.set(start, w * period as f64);
        let bw = biased_weight.get(&start).copied().unwrap_or(0.0);
        let frac = if w > 0.0 { bw / w } else { 0.0 };
        biased_weight_fraction.insert(start, frac);
        if frac >= options.biased_weight_threshold {
            biased_blocks.insert(start);
        }
    }
    let dense = DenseBbec::from_bbec(&bbec, map);
    let biased_idx = (0..map.len())
        .map(|bi| biased_blocks.contains(&map.blocks()[bi].start))
        .collect();
    LbrEstimate {
        bbec,
        dense,
        biased_blocks,
        biased_idx,
        biased_branches,
        biased_weight_fraction,
        stacks,
        derailed_streams: derailed,
        streams,
        period,
    }
}

/// Combine EBS and LBR estimates block by block through address-keyed
/// lookups and full feature extraction.
pub fn combine_ref(
    map: &BlockMap,
    ebs: &EbsEstimate,
    lbr: &LbrEstimate,
    rule: &HybridRule,
) -> HbbpEstimate {
    let mut bbec = Bbec::new();
    let mut choices = HashMap::new();
    for block in map.blocks() {
        let e = ebs.count(block.start);
        let l = lbr.count(block.start);
        if e == 0.0 && l == 0.0 {
            continue;
        }
        let features = BlockFeatures::extract(block, ebs, lbr);
        let choice = rule.choose(&features);
        let value = match choice {
            Choice::Ebs => e,
            Choice::Lbr => l,
        };
        choices.insert(block.start, choice);
        if value > 0.0 {
            bbec.set(block.start, value);
        }
    }
    let dense = DenseBbec::from_bbec(&bbec, map);
    HbbpEstimate {
        bbec,
        dense,
        choices,
    }
}
