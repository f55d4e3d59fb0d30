//! Output checks: every answer the program serves is compared with an
//! independent in-process computation of the same inputs.

use fleetd::Reply;
use fleetstate::BlockDecisions;

/// Whether a daemon reply is the `Decisions` answer the in-process
/// reference produced for the block starting at `first_step`: same
/// shape, bit-equal thresholds, equal vertices.
pub fn decisions_match(reply: &Reply, first_step: u64, reference: &BlockDecisions) -> bool {
    match reply {
        Reply::Decisions { first_step: at, steps, lanes, thresholds, vertices } => {
            *at == first_step
                && *steps as usize == reference.steps()
                && *lanes as usize == reference.lanes()
                && thresholds.len() == reference.thresholds().len()
                && thresholds
                    .iter()
                    .zip(reference.thresholds())
                    .all(|(a, b)| a.to_bits() == b.to_bits())
                && vertices.as_slice() == reference.vertices()
        }
        _ => false,
    }
}

/// Flips the lowest mantissa bit of the reply's first threshold — the
/// planted fault the self-test feeds the checker.
pub fn plant_bit_flip(reply: &mut Reply) {
    if let Reply::Decisions { thresholds, .. } = reply {
        if let Some(x) = thresholds.first_mut() {
            *x = f64::from_bits(x.to_bits() ^ 1);
        }
    }
}

/// Bit equality of two fleet-evaluation outcome lists.
pub fn outcomes_match(
    a: &[skirental::estimator::AdaptiveOutcome],
    b: &[skirental::estimator::AdaptiveOutcome],
) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.online_cost.to_bits() == y.online_cost.to_bits()
                && x.offline_cost.to_bits() == y.offline_cost.to_bits()
                && x.cr.to_bits() == y.cr.to_bits()
                && x.stops == y.stops
        })
}
