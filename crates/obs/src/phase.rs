//! Segment stopwatch for attributing one operation's time to named
//! phases.

use std::time::Instant;

/// Segment stopwatch over `N` phases. `lap(phase)` charges the time
/// since the previous lap to `phase`; segments of the same phase
/// accumulate. When started disarmed the laps are branch-only — no
/// clock reads.
#[derive(Debug, Clone)]
pub struct PhaseTimer<const N: usize> {
    on: bool,
    started: Instant,
    mark: Instant,
    acc: [u64; N],
}

impl<const N: usize> PhaseTimer<N> {
    /// Starts the stopwatch; `on = false` makes every lap a no-op.
    pub fn start(on: bool) -> Self {
        let now = Instant::now();
        Self {
            on,
            started: now,
            mark: now,
            acc: [0; N],
        }
    }

    /// Charges the time since the previous lap (or the start) to
    /// `phase`.
    ///
    /// # Panics
    /// Panics if `phase >= N`.
    #[inline]
    pub fn lap(&mut self, phase: usize) {
        if self.on {
            let now = Instant::now();
            self.acc[phase] += (now - self.mark).as_nanos() as u64;
            self.mark = now;
        }
    }

    /// Nanoseconds charged to each phase so far.
    pub fn phase_ns(&self) -> &[u64; N] {
        &self.acc
    }

    /// Wall time since the start — measured independently of the laps,
    /// so the phase sum can be audited against it.
    pub fn total_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laps_accumulate_per_phase_and_disarmed_laps_charge_nothing() {
        let mut on = PhaseTimer::<2>::start(true);
        std::thread::sleep(std::time::Duration::from_millis(2));
        on.lap(1);
        on.lap(0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        on.lap(1);
        assert!(on.phase_ns()[1] >= 4_000_000);
        assert!(on.phase_ns().iter().sum::<u64>() <= on.total_ns());

        let mut off = PhaseTimer::<2>::start(false);
        off.lap(0);
        off.lap(1);
        assert_eq!(off.phase_ns(), &[0, 0]);
    }
}
