//! Fading laws: how one realization turns a mean received power into a
//! draw.

use fading_math::Exponential;
use rand::Rng;

/// A fast-fading law over per-pair mean received powers. The kernel in
/// `fading_sim::slot` computes one mean `P·d_ij^{−α}·scale_i` per
/// scheduled (sender, receiver) pair and asks the law for each draw,
/// so every law shares one draw order and one SINR test.
pub trait FadingLaw: Sync {
    /// What one realization fixes before its first gain draw (the
    /// quasi-static shadowing field); `()` for memoryless laws.
    type Realization;

    /// Starts one realization of a `k`-link schedule.
    fn begin<R: Rng + ?Sized>(&self, k: usize, rng: &mut R) -> Self::Realization;

    /// Draws the power of schedule pair `pair = tx·k + rx` (sender
    /// `tx` at receiver `rx`; `tx == rx` is the signal) of mean `mean`.
    /// The default is the exponential draw of
    /// [`Self::exponential_mean`]; a law without one overrides it.
    fn draw<R: Rng + ?Sized>(
        &self,
        realization: &Self::Realization,
        mean: &Exponential,
        pair: usize,
        rng: &mut R,
    ) -> f64 {
        let mean = self.exponential_mean(realization, mean.mean(), pair);
        Exponential::with_mean(mean.expect("a law without an exponential mean overrides `draw`"))
            .sample(rng)
    }

    /// `Some(mean')` when the draw of pair `pair` is
    /// `Exponential::with_mean(mean').from_uniform(U)` of one uniform
    /// `U = rng.gen()`, with `mean'` non-decreasing in `mean`; `None`
    /// for a law that draws otherwise. A law answers alike for every
    /// pair. For such a law the kernel reads each receiver's uniforms
    /// by stream position and decides its SINR test from an upper bound
    /// on the interference, summing exactly only the rows the bound
    /// leaves open.
    fn exponential_mean(
        &self,
        realization: &Self::Realization,
        mean: f64,
        pair: usize,
    ) -> Option<f64>;

    /// `Some(c)` when every pair's
    /// [`exponential_mean`](Self::exponential_mean) is at most `c·mean`
    /// in every realization. The kernel then certifies a receiver from
    /// its signal draw and a prefix of its interferers' draws when even
    /// the largest draws the uniform allows of the rest cannot break
    /// it, and never reads the rest. `None` (the default) reads every
    /// row.
    fn mean_multiplier(&self) -> Option<f64> {
        None
    }

    /// Records how many gain draws a run of the kernel's realizations
    /// made (one worker's trials, added once when the run ends): the
    /// uniforms they read, `k²` per realization of a `k`-link schedule
    /// less those of the interferers a certificate left unread. The
    /// default records nothing.
    fn count_draws(&self, _draws: u64) {}
}
