//! The reference answers every workload is checked against: the serial
//! engine with naive evaluation and naive filtering, plus known language
//! membership for the formal inputs. Always computed outside the timed
//! region.

use crate::inputs::{Grammars, Item};
use cdg_core::api::{Engine, ParseRequest, Sequential};
use cdg_core::{BatchOutcome, EngineConfig, EvalStrategy, FilterStrategy};

/// The oracle's answer for one input.
#[derive(Debug, Clone)]
pub struct Answer {
    pub summary: BatchOutcome,
    /// Alive role-value indices per role slot of the settled network.
    pub alive: Vec<Vec<usize>>,
    /// The oracle agrees with known membership (always true for English).
    pub membership_ok: bool,
}

pub fn answer(g: &Grammars, item: &Item) -> Answer {
    let grammar = g.of(item.lang);
    let request = ParseRequest::with_config(grammar, &EngineConfig::default())
        .sentence(item.sentence.clone())
        .eval(EvalStrategy::Naive)
        .filter_strategy(FilterStrategy::Naive);
    let report = Sequential
        .parse(&request)
        .expect("the serial oracle parses every generated input");
    let summary = report.summary();
    let membership_ok = item.member().is_none_or(|m| m == summary.accepted);
    Answer {
        alive: report
            .network
            .slots()
            .iter()
            .map(|s| s.alive_indices())
            .collect(),
        summary,
        membership_ok,
    }
}

/// Does a serial batch outcome equal the oracle's, field for field?
pub fn serial_matches(got: &BatchOutcome, want: &Answer) -> bool {
    want.membership_ok && got == &want.summary
}

/// Does a MasPar batch outcome give the oracle's verdict, alive count and
/// parses? (Its filter pass count is the machine's bounded schedule.)
pub fn maspar_matches(got: &BatchOutcome, want: &Answer) -> bool {
    let w = &want.summary;
    want.membership_ok
        && !got.degraded
        && got.accepted == w.accepted
        && got.ambiguous == w.ambiguous
        && got.total_alive == w.total_alive
        && got.parses == w.parses
}
