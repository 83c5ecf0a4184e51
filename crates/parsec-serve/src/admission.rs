//! Admission control: budgets become SLO classes, classes become queue
//! deadlines, and watermarks become early typed rejections.
//!
//! The paper's engines already accept a per-parse [`ParseBudget`](cdg_core::ParseBudget); the
//! service reuses it as the *declared urgency* of a request. A tight wall
//! budget says "this caller is interactive — answer fast or not at all";
//! no budget says "batch — take your time, shed me first". That mapping
//! ([`SloClass::from_budget`]) plus two queue-depth watermarks is the
//! whole admission policy:
//!
//! * depth ≥ hard watermark → shed everything (`reason=overload`);
//! * depth ≥ soft watermark → shed Batch only (`reason=soft_watermark`),
//!   preserving headroom for urgent traffic;
//! * queue full → shed (`reason=queue_full`) — the backpressure of last
//!   resort, distinct from the watermarks so operators can tell "policy
//!   shed early" from "buffer actually filled";
//! * draining → shed everything new (`reason=draining`).
//!
//! Admitted requests carry a deadline =
//! enqueue time + [`SloClass::queue_allowance`]; a worker that dequeues an
//! expired request answers `TIMEOUT` without parsing — burning worker time
//! on an answer the interactive caller has already abandoned would only
//! deepen the overload.

// SloClass itself lives in cdg-core's config table (the `class=` key must
// parse through the same table as every other config key); this module
// keeps the admission *policy* built on top of it.
pub use cdg_core::config::SloClass;

/// The admission verdict for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// Enqueue it.
    Accept,
    /// Reject with this stable `reason=` token.
    Shed(&'static str),
}

/// The watermark policy. `depth` is the queue depth observed at the door;
/// the `queue_full` reason is produced later by the failed push itself,
/// not here, so the policy stays race-free against concurrent admits.
pub fn decide(depth: usize, soft: usize, hard: usize, draining: bool, class: SloClass) -> Admit {
    if draining {
        return Admit::Shed("draining");
    }
    if depth >= hard {
        return Admit::Shed("overload");
    }
    if depth >= soft && class == SloClass::Batch {
        return Admit::Shed("soft_watermark");
    }
    Admit::Accept
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdg_core::ParseBudget;

    fn budget(spec: &str) -> ParseBudget {
        ParseBudget::parse_spec(spec).unwrap()
    }

    #[test]
    fn budgets_map_to_classes() {
        assert_eq!(
            SloClass::from_budget(&budget("ms=10")),
            SloClass::Interactive
        );
        assert_eq!(
            SloClass::from_budget(&budget("ms=50")),
            SloClass::Interactive
        );
        assert_eq!(SloClass::from_budget(&budget("ms=200")), SloClass::Standard);
        assert_eq!(
            SloClass::from_budget(&budget("iters=3")),
            SloClass::Standard,
            "non-wall budgets still declare urgency"
        );
        assert_eq!(
            SloClass::from_budget(&ParseBudget::UNLIMITED),
            SloClass::Batch
        );
    }

    #[test]
    fn class_names_round_trip() {
        for class in [SloClass::Interactive, SloClass::Standard, SloClass::Batch] {
            assert_eq!(SloClass::parse(class.name()).unwrap(), class);
        }
        assert!(SloClass::parse("gold-tier").is_err());
    }

    #[test]
    fn allowances_are_ordered_by_urgency() {
        assert!(SloClass::Interactive.queue_allowance() < SloClass::Standard.queue_allowance());
        assert!(SloClass::Standard.queue_allowance() < SloClass::Batch.queue_allowance());
    }

    #[test]
    fn watermarks_shed_in_order() {
        // Below soft: everyone admitted.
        for class in [SloClass::Interactive, SloClass::Standard, SloClass::Batch] {
            assert_eq!(decide(10, 48, 60, false, class), Admit::Accept);
        }
        // At soft: only batch shed.
        assert_eq!(
            decide(48, 48, 60, false, SloClass::Batch),
            Admit::Shed("soft_watermark")
        );
        assert_eq!(
            decide(48, 48, 60, false, SloClass::Interactive),
            Admit::Accept
        );
        // At hard: everyone shed.
        assert_eq!(
            decide(60, 48, 60, false, SloClass::Interactive),
            Admit::Shed("overload")
        );
        // Draining wins over everything.
        assert_eq!(
            decide(0, 48, 60, true, SloClass::Interactive),
            Admit::Shed("draining")
        );
    }
}
