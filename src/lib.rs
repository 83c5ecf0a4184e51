//! PARSEC-RS — a reproduction of *Log Time Parsing on the MasPar MP-1*
//! (Helzerman & Harper, ICPP 1992).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`grammar`] — the CDG formalism: grammars, the constraint DSL, role
//!   values, lexicons, and standard grammars (the paper's worked example,
//!   English, and the beyond-CFG formal languages);
//! * [`core`] — the sequential parser (constraint networks, propagation,
//!   consistency maintenance, filtering, precedence-graph extraction);
//! * [`parallel`] — the CRCW-P-RAM-style engine on rayon and the 2-D mesh
//!   step model;
//! * [`maspar`] — the MasPar MP-1 machine simulator;
//! * [`parsec`] — PARSEC on the simulated MP-1 (the paper's §2.2);
//! * [`obsv`](mod@obsv) — the phase-trace and metrics layer every engine
//!   reports through (see DESIGN.md §11);
//! * [`cfg`](mod@cfg) — the CKY baselines for the Figure 8 comparison;
//! * [`corpus`] — deterministic workload generators.
//!
//! # Quickstart
//!
//! Build a [`core::api::ParseRequest`], pick an engine, read the report —
//! the same request runs on all three backends:
//!
//! ```
//! use parsec::prelude::*;
//!
//! let grammar = parsec::grammar::grammars::paper::grammar();
//! let sentence = parsec::grammar::grammars::paper::example_sentence(&grammar);
//! let request = ParseRequest::new(&grammar)
//!     .sentence(sentence.clone())
//!     .trace(true)
//!     .max_parses(10);
//!
//! let report = Sequential.parse(&request).unwrap();
//! assert!(report.accepted);
//! assert_eq!(report.parses.len(), 1); // "The program runs" is unambiguous
//! println!("{}", report.parses[0].render(&grammar, &sentence));
//!
//! // The trace covers the paper's phases, on any engine.
//! let trace = report.trace.as_ref().unwrap();
//! assert!(trace.names().iter().any(|n| n == "binary_propagation"));
//! let report = Pram.parse(&request).unwrap();
//! assert_eq!(report.parses.len(), 1);
//! ```

pub use cdg_core as core;
pub use cdg_grammar as grammar;
pub use cdg_parallel as parallel;
pub use cfg_baseline as cfg;
pub use corpus;
pub use maspar_sim as maspar;
pub use parsec_maspar as parsec;

use cdg_core::api::Engine;

/// Look up an engine by its stable CLI name (`"serial"`, `"pram"`,
/// `"maspar"`). The returned trait object runs [`Engine::parse`] and
/// [`Engine::parse_batch`] with default backend configuration; construct
/// [`parsec_maspar::Maspar`] directly to customize the machine shape.
pub fn engine_by_name(name: &str) -> Option<Box<dyn Engine>> {
    match name {
        "serial" => Some(Box::new(cdg_core::api::Sequential)),
        "pram" => Some(Box::new(cdg_parallel::Pram)),
        "maspar" => Some(Box::new(parsec_maspar::Maspar::default())),
        _ => None,
    }
}

/// The most common imports.
pub mod prelude {
    pub use cdg_core::api::{BatchReport, Engine, ParseReport, ParseRequest, Sequential};
    pub use cdg_core::parser::{parse, FilterMode, ParseOptions};
    pub use cdg_core::{Network, PrecedenceGraph};
    pub use cdg_grammar::{Grammar, GrammarBuilder, Lexicon, Sentence};
    pub use cdg_parallel::{parse_pram, Pram};
    pub use parsec_maspar::{parse_maspar_checked, Maspar, MasparOptions};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_factory_knows_all_three_backends() {
        for name in ["serial", "pram", "maspar"] {
            let engine = engine_by_name(name).unwrap();
            assert_eq!(engine.name(), name);
        }
        assert!(engine_by_name("abacus").is_none());
    }
}
