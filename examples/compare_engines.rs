//! Run every engine — sequential, P-RAM (rayon), 2-D mesh model, and the
//! simulated MasPar — over a deterministic corpus and check they agree,
//! printing a comparison table (a miniature of Figure 8's measured side).
//!
//! ```text
//! cargo run --release --example compare_engines
//! ```

use parsec::core::parser::{FilterMode, ParseOptions};
use parsec::parallel::mesh::MeshCdg;
use parsec::prelude::*;
use std::time::Instant;

fn main() {
    let (grammar, lexicon) = corpus::standard_setup();
    let options = ParseOptions {
        filter: FilterMode::Bounded(10),
        ..Default::default()
    };

    println!(
        "{:<4} {:<40} {:>7} {:>10} {:>10} {:>10} {:>11}",
        "n", "sentence", "accept", "serial(s)", "pram(s)", "mesh steps", "mp1 est(s)"
    );
    for n in [3usize, 5, 7, 9, 11] {
        for seed in [1u64, 2] {
            let sentence = corpus::english_sentence(&grammar, &lexicon, n, seed);

            let request = ParseRequest::new(&grammar)
                .sentence(sentence.clone())
                .options(options)
                .max_parses(64);
            let t = Instant::now();
            let serial = Sequential
                .parse(&request)
                .expect("a host engine parses any request without faults");
            let serial_t = t.elapsed().as_secs_f64();

            let t = Instant::now();
            let pram = Pram
                .parse(&request)
                .expect("a host engine parses any request without faults");
            let pram_t = t.elapsed().as_secs_f64();

            let (mesh_net, mesh_stats) = MeshCdg::run(&grammar, &sentence, options);
            let maspar = parse_maspar_checked(&grammar, &sentence, &MasparOptions::default())
                .expect("the MasPar parse fits the simulated machine");

            // All engines must agree on every surviving role value.
            let maspar_net = maspar.to_network(&grammar, &sentence);
            for ((a, b), (c, d)) in serial
                .network
                .slots()
                .iter()
                .zip(pram.network.slots())
                .zip(mesh_net.slots().iter().zip(maspar_net.slots()))
            {
                assert_eq!(a.alive, b.alive, "serial vs pram");
                assert_eq!(a.alive, c.alive, "serial vs mesh");
                assert_eq!(a.alive, d.alive, "serial vs maspar");
            }
            assert_eq!(serial.parses, pram.parses);

            println!(
                "{:<4} {:<40} {:>7} {:>10.4} {:>10.4} {:>10} {:>11.3}",
                n,
                sentence.to_string(),
                serial.accepted,
                serial_t,
                pram_t,
                mesh_stats.total_steps(),
                maspar.estimated_seconds,
            );
        }
    }
    println!("\nall four engines agreed on every network.");
}
