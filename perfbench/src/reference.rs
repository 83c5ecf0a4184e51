//! A fixed reference computation, timed beside the batch workloads so that
//! their times can be reported at one nominal host speed.
//!
//! On a shared host a core's speed moves with what the neighbours run: the
//! same parse has taken 80 ms for a minute and 115 ms the next, in CPU time
//! as much as in wall time. A loop that streams AND + popcount over bit
//! words (the parser's own kind of work) slows down with it: over a 150 s
//! trace of batch-long rounds its time correlated 0.74 with theirs. A loop
//! of dependent integer operations barely moved, and random reads over a
//! table past the L2 tracked less well.
//!
//! So a batch round's CPU time is scaled by `NOMINAL_S` over the CPU time
//! of the reference chunks timed around it: a change to the program moves
//! the scaled time as it moves the raw one, while a change of host state
//! moves both the round and the reference. Over five three-seed trials
//! (quiet host, and beside a CPU hog) this cut the spread (interquartile
//! range over median) of a run's summed round CPU time from 0.08-0.21 to
//! 0.04-0.10; raising the ratio to a power 0.75 or 1.25 helped some trials
//! and hurt others. The reference is this directory's own code, and its
//! arrays stay in the L2, so no change to the program can move it.

use crate::stats;

/// Words per array: two arrays of 64 KiB.
const WORDS: usize = 1 << 13;
/// Passes over the arrays per chunk.
const PASSES: usize = 128;
/// Untimed chunks run before the timed one.
const WARM_CHUNKS: usize = 1;
/// Time of one chunk at the nominal host speed (the build host's quiet
/// state), s.
pub const NOMINAL_S: f64 = 0.0012;
/// Rounds on each side whose reference times set a round's factor: the
/// chunk timed before the round, the one before that, and the one after
/// it. Host speed moves within seconds, so wider windows tracked worse.
const NEIGHBOURS: usize = 1;

pub struct Reference {
    a: Vec<u64>,
    b: Vec<u64>,
    count: u64,
}

impl Reference {
    pub fn new() -> Reference {
        let words = |mul: u64| (0..WORDS as u64).map(|i| i.wrapping_mul(mul)).collect();
        Reference {
            a: words(0x9e37_79b9_7f4a_7c15),
            b: words(0xc2b2_ae3d_27d4_eb4f),
            count: 0,
        }
    }

    /// Resident size of the arrays, MB: part of the process's peak RSS
    /// that is not the program's.
    pub fn resident_mb(&self) -> f64 {
        ((self.a.len() + self.b.len()) * std::mem::size_of::<u64>()) as f64 / (1024.0 * 1024.0)
    }

    /// Run [`WARM_CHUNKS`] chunks, then one more; returns the last one's
    /// CPU time in seconds.
    pub fn time(&mut self) -> f64 {
        for _ in 0..WARM_CHUNKS {
            self.chunk();
        }
        let start = crate::cpu_secs();
        self.chunk();
        crate::cpu_secs() - start
    }

    fn chunk(&mut self) {
        let mut count = self.count;
        for _ in 0..PASSES {
            for (x, &y) in self.a.iter_mut().zip(&self.b) {
                let m = *x & y;
                count += u64::from(m.count_ones());
                *x = m | (*x >> 1);
            }
        }
        self.count = std::hint::black_box(count);
    }

    /// The factor for work done now, from the median of `reps` chunks.
    pub fn factor_now(&mut self, reps: usize) -> f64 {
        let times: Vec<f64> = (0..reps).map(|_| self.time()).collect();
        factor(stats::median(&times))
    }
}

/// The factor that brings work done while a chunk took `secs` to the
/// nominal host speed.
fn factor(secs: f64) -> f64 {
    NOMINAL_S / secs
}

/// Per round, given the reference time measured before each: the factor
/// of the median of the reference times of the round and its
/// [`NEIGHBOURS`] on either side, so that one disturbed chunk does not set
/// a round's factor.
pub fn factors(ref_secs: &[f64]) -> Vec<f64> {
    (0..ref_secs.len())
        .map(|i| {
            let lo = i.saturating_sub(NEIGHBOURS);
            let hi = (i + NEIGHBOURS + 1).min(ref_secs.len());
            factor(stats::median(&ref_secs[lo..hi]))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_use_the_median_of_neighbouring_rounds() {
        let nominal = NOMINAL_S;
        let refs = [nominal, nominal, 10.0 * nominal, nominal, 2.0 * nominal];
        let f = factors(&refs);
        assert_eq!(f.len(), refs.len());
        // The single slow chunk at round 2 never sets a factor on its own.
        assert!(f.iter().all(|&k| k > 0.4 && k <= 1.0), "{f:?}");
        assert_eq!(f[0], 1.0);
    }

    #[test]
    fn chunks_take_time_and_keep_the_arrays() {
        let mut r = Reference::new();
        assert!(r.time() > 0.0);
        assert_eq!(r.resident_mb(), 0.125);
        assert!(r.factor_now(3) > 0.0);
    }
}
