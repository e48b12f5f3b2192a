//! Fixture: a pricing node that reaches for ambient randomness and
//! allocates per call on its hot path.

/// A VCG-pricing node.
#[derive(Debug)]
pub struct PricingBgpNode {
    prices: Vec<u64>,
}

impl PricingBgpNode {
    /// Handles a batch, collecting touched slots into a fresh buffer.
    pub fn handle(&mut self, delivered: &[u64]) -> Option<u64> {
        let mut touched = Vec::new();
        touched.extend(delivered.iter().copied());
        let sum: u64 = touched.iter().sum();
        self.refresh_prices(sum);
        self.prices.last().copied()
    }

    /// Relaxes prices with an ambient RNG jitter into a fresh array.
    pub fn refresh_prices(&mut self, candidate: u64) {
        let jitter = rand::thread_rng().next_u64() % 2;
        let mut relaxed = vec![u64::MAX; self.prices.len()];
        for (slot, old) in relaxed.iter_mut().zip(&self.prices) {
            *slot = (*old).min(candidate + jitter);
        }
        self.prices = relaxed;
    }
}
