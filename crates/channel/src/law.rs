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
    fn draw<R: Rng + ?Sized>(
        &self,
        realization: &Self::Realization,
        mean: &Exponential,
        pair: usize,
        rng: &mut R,
    ) -> f64;
}
