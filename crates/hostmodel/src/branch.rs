//! Host branch prediction: a gshare conditional predictor and a BTB for
//! taken/indirect targets. BTB misses on taken transfers are the
//! "unknown branches" of the paper's Fig. 4 — the front end cannot even
//! tell where to fetch next until the branch unit decodes the target.

/// Host branch predictor state.
#[derive(Debug, Clone)]
pub struct HostBranchPredictor {
    table: Vec<u8>, // 2-bit counters
    mask: u64,
    history: u64,
    btb_tags: Vec<u64>,
    btb_targets: Vec<u64>,
    btb_mask: u64,
    /// Conditional branches predicted.
    pub cond_lookups: u64,
    /// Conditional mispredictions.
    pub mispredicts: u64,
    /// Taken transfers whose target was absent/wrong in the BTB.
    pub unknown_branches: u64,
    /// Indirect transfers seen.
    pub indirect_lookups: u64,
}

impl HostBranchPredictor {
    /// Builds a predictor with `2^bp_bits` counters and `btb_entries`
    /// BTB slots.
    ///
    /// # Panics
    ///
    /// Panics if `btb_entries` is not a power of two.
    pub fn new(bp_bits: u32, btb_entries: u64) -> Self {
        assert!(btb_entries.is_power_of_two());
        HostBranchPredictor {
            table: vec![2; 1 << bp_bits],
            mask: (1u64 << bp_bits) - 1,
            history: 0,
            btb_tags: vec![u64::MAX; btb_entries as usize],
            btb_targets: vec![0; btb_entries as usize],
            btb_mask: btb_entries - 1,
            cond_lookups: 0,
            mispredicts: 0,
            unknown_branches: 0,
            indirect_lookups: 0,
        }
    }

    /// Predicts + trains a conditional branch at `site` with resolved
    /// `outcome`; returns `true` on misprediction. `loop_covered` marks
    /// branches whose periodic pattern a long-history loop predictor
    /// captures — they never mispredict. On taken branches the BTB is
    /// also consulted/updated; an absent target counts as an
    /// unknown-branch resteer (returned separately).
    #[inline]
    pub fn cond_branch(&mut self, site: u64, outcome: bool, loop_covered: bool) -> (bool, bool) {
        self.cond_branch_hashed(site, hosttrace::mix64(site), outcome, loop_covered)
    }

    /// [`cond_branch`](Self::cond_branch) given the site's hash
    /// `mix64(site)`, which indexes both the pattern table and the BTB.
    #[inline]
    pub(crate) fn cond_branch_hashed(
        &mut self,
        site: u64,
        hash: u64,
        outcome: bool,
        loop_covered: bool,
    ) -> (bool, bool) {
        self.cond_lookups += 1;
        let idx = ((hash ^ self.history) & self.mask) as usize;
        let ctr = &mut self.table[idx];
        let predicted = *ctr >= 2;
        if outcome {
            *ctr = (*ctr + 1).min(3);
        } else {
            *ctr = ctr.saturating_sub(1);
        }
        self.history = ((self.history << 1) | outcome as u64) & self.mask;
        let mispredicted = predicted != outcome && !loop_covered;
        if mispredicted {
            self.mispredicts += 1;
        }
        let mut unknown = false;
        if outcome && !mispredicted {
            // Correct-direction taken branch still needs a BTB target.
            unknown = !self.btb_check(site, hash, site ^ 0x5555);
            if unknown {
                self.unknown_branches += 1;
            }
        }
        (mispredicted, unknown)
    }

    /// Processes an indirect transfer at `site` to `target`; returns
    /// `true` if the front end had no (or the wrong) target — an
    /// unknown-branch resteer.
    #[inline]
    pub fn indirect_branch(&mut self, site: u64, target: u64) -> bool {
        self.indirect_lookups += 1;
        let unknown = !self.btb_check(site, hosttrace::mix64(site), target);
        if unknown {
            self.unknown_branches += 1;
        }
        unknown
    }

    /// Checks and updates the BTB at the slot of `site`'s hash; returns
    /// `true` if `site → target` was already present.
    #[inline]
    fn btb_check(&mut self, site: u64, hash: u64, target: u64) -> bool {
        let idx = (hash & self.btb_mask) as usize;
        let hit = self.btb_tags[idx] == site && self.btb_targets[idx] == target;
        self.btb_tags[idx] = site;
        self.btb_targets[idx] = target;
        hit
    }

    /// Conditional misprediction rate.
    pub fn mispredict_rate(&self) -> f64 {
        if self.cond_lookups == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.cond_lookups as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn biased_sites_become_predictable() {
        let mut bp = HostBranchPredictor::new(12, 512);
        let mut wrong = 0;
        for i in 0..1000 {
            let (mis, _) = bp.cond_branch(0x400100, i % 200 != 199, false);
            if i > 100 && mis {
                wrong += 1;
            }
        }
        assert!(wrong < 20, "biased branch mispredicted {wrong}/900");
    }

    #[test]
    fn random_sites_defeat_prediction() {
        let mut bp = HostBranchPredictor::new(12, 512);
        let mut wrong = 0;
        for i in 0..1000u64 {
            let outcome = hosttrace::mix64(i) & 1 == 1;
            let (mis, _) = bp.cond_branch(0x400200, outcome, false);
            if mis {
                wrong += 1;
            }
        }
        assert!(wrong > 300);
    }

    #[test]
    fn stable_indirect_targets_learn() {
        let mut bp = HostBranchPredictor::new(12, 512);
        assert!(bp.indirect_branch(0x1000, 0x2000), "cold miss");
        assert!(!bp.indirect_branch(0x1000, 0x2000), "learned");
        assert!(bp.indirect_branch(0x1000, 0x3000), "polymorphic flip");
        assert_eq!(bp.unknown_branches, 2);
    }

    #[test]
    fn btb_capacity_pressure_creates_unknown_branches() {
        let mut small = HostBranchPredictor::new(12, 64);
        let mut large = HostBranchPredictor::new(12, 8192);
        for round in 0..5 {
            for s in 0..2000u64 {
                small.indirect_branch(s * 8, s);
                large.indirect_branch(s * 8, s);
            }
            let _ = round;
        }
        assert!(small.unknown_branches > 2 * large.unknown_branches);
    }

    #[test]
    fn rates_bounded() {
        let bp = HostBranchPredictor::new(10, 64);
        assert_eq!(bp.mispredict_rate(), 0.0);
    }
}
