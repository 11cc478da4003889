//! Helpers the layer probes share.

use hbbp_perf::{RecordView, ViewSink};
use std::hint::black_box;

/// A sink that only counts records: decoding into it times the perf
/// layer alone.
pub struct CountSink(pub u64);

impl ViewSink for CountSink {
    fn view(&mut self, view: &RecordView<'_>) {
        black_box(view);
        self.0 += 1;
    }
}

/// Run `f` `n` times, returning each repetition's result.
pub fn repeat<T>(n: usize, f: impl FnMut() -> T) -> Vec<T> {
    std::iter::repeat_with(f).take(n).collect()
}
