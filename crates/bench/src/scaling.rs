//! The store bench's client-scaling verdict: whether each 8x fan-out of
//! concurrent ingest clients costs less than 8x the previous round, and a
//! headline whose wording is derived from that same test.

/// Mean ingest round times (ns) at 1, 8, 64 and 256 concurrent clients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scaling {
    /// 1-client round.
    pub r1: f64,
    /// 8-client round.
    pub r8: f64,
    /// 64-client round.
    pub r64: f64,
    /// 256-client round.
    pub r256: f64,
}

impl Scaling {
    /// The 8-client round relative to 8x the 1-client round.
    pub fn x8(&self) -> f64 {
        self.r8 / (8.0 * self.r1)
    }

    /// The 64-client round relative to 8x the 8-client round.
    pub fn x64(&self) -> f64 {
        self.r64 / (8.0 * self.r8)
    }

    /// The 256-client round relative to 4x the 64-client round.
    pub fn x256(&self) -> f64 {
        self.r256 / (4.0 * self.r64)
    }

    /// The 64-client round relative to 64x the 1-client round.
    pub fn x64_from_1(&self) -> f64 {
        self.r64 / (64.0 * self.r1)
    }

    /// Both 8x fan-outs (1->8 and 8->64) cost less than linear.
    pub fn sub_linear(&self) -> bool {
        self.x8() < 1.0 && self.x64() < 1.0
    }

    /// One-line summary, naming each fan-out sub-linear only when its
    /// ratio is below 1.
    pub fn headline(&self) -> String {
        let verdict = |x: f64| {
            if x < 1.0 {
                "sub-linear"
            } else {
                "not sub-linear"
            }
        };
        let (v8, v64) = (verdict(self.x8()), verdict(self.x64()));
        let chain = if v8 == v64 {
            format!("{v8} 1->8->64")
        } else {
            format!("{v8} 1->8, {v64} 8->64")
        };
        format!(
            "{chain}: 8 clients = {:.2}ms ({:.0}% of 8x the 1-client round), \
             64 clients = {:.2}ms ({:.0}% of 8x the 8-client round, {:.0}% of 64x the \
             1-client round); 256 clients = {:.2}ms",
            self.r8 / 1e6,
            self.x8() * 100.0,
            self.r64 / 1e6,
            self.x64() * 100.0,
            self.x64_from_1() * 100.0,
            self.r256 / 1e6,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rounds with the given 1->8 and 8->64 ratios (1-client round 1 ms,
    /// 256-client round 4x the 64-client one).
    fn with_ratios(x8: f64, x64: f64) -> Scaling {
        let r1 = 1e6;
        let r8 = 8.0 * r1 * x8;
        let r64 = 8.0 * r8 * x64;
        Scaling {
            r1,
            r8,
            r64,
            r256: 4.0 * r64,
        }
    }

    #[test]
    fn both_fan_outs_sub_linear() {
        let s = with_ratios(0.5, 0.25);
        assert!(s.sub_linear());
        assert_eq!(
            s.headline(),
            "sub-linear 1->8->64: 8 clients = 4.00ms (50% of 8x the 1-client round), \
             64 clients = 8.00ms (25% of 8x the 8-client round, 12% of 64x the \
             1-client round); 256 clients = 32.00ms"
        );
    }

    #[test]
    fn only_the_first_fan_out_sub_linear() {
        let s = with_ratios(0.4, 1.118);
        assert!(!s.sub_linear());
        assert!(s
            .headline()
            .starts_with("sub-linear 1->8, not sub-linear 8->64: "));
    }

    #[test]
    fn only_the_second_fan_out_sub_linear() {
        let s = with_ratios(1.25, 0.5);
        assert!(!s.sub_linear());
        assert!(s
            .headline()
            .starts_with("not sub-linear 1->8, sub-linear 8->64: "));
    }

    #[test]
    fn neither_fan_out_sub_linear() {
        // Exactly linear is not sub-linear.
        let s = with_ratios(1.0, 2.0);
        assert!(!s.sub_linear());
        assert!(s.headline().starts_with("not sub-linear 1->8->64: "));
        assert!((s.x256() - 1.0).abs() < 1e-12);
    }
}
