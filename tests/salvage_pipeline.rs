//! Salvage-while-mining: a damaged trace is recovered by the lenient
//! decoder and mined through the parallel pipeline. Sharded mining over
//! the salvaged session, and streaming chunked mining over a
//! [`SalvageEpisodeStream`], must both match the serial reference
//! exactly — and every result must carry the salvaged provenance flag.

use lagalyzer::core::patterns::{PatternSet, PatternTable};
use lagalyzer::core::prelude::*;
use lagalyzer::sim::{apps, runner};
use lagalyzer::trace::{binary, read_bytes_salvage, SalvageEpisodeStream};

/// Encodes a simulated session and truncates it mid-record so strict
/// decoding fails but most episodes survive salvage.
fn damaged_trace_bytes() -> Vec<u8> {
    let trace = runner::simulate_session(&apps::crossword_sage(), 0, 21);
    let mut bytes = Vec::new();
    binary::write(&trace, &mut bytes).unwrap();
    bytes.truncate(bytes.len() * 4 / 5);
    bytes
}

fn assert_sets_identical(a: &PatternSet, b: &PatternSet) {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.covered_episodes(), b.covered_episodes());
    assert_eq!(a.structureless_episodes(), b.structureless_episodes());
    assert_eq!(a.salvaged(), b.salvaged());
    for (pa, pb) in a.patterns().iter().zip(b.patterns()) {
        assert_eq!(pa.signature(), pb.signature());
        assert_eq!(pa.episode_indices(), pb.episode_indices());
        assert_eq!(pa.stats(), pb.stats());
        assert_eq!(pa.perceptible_count(), pb.perceptible_count());
    }
}

#[test]
fn parallel_mining_over_salvaged_session_matches_serial() {
    let bytes = damaged_trace_bytes();
    let salvaged = read_bytes_salvage(&bytes).expect("truncated trace salvages");
    assert!(!salvaged.report.is_clean(), "truncation must be reported");
    assert!(salvaged.report.episodes_recovered > 100);

    let session = AnalysisSession::with_provenance(
        salvaged.trace,
        AnalysisConfig::default(),
        Provenance::Salvaged {
            skips: salvaged.report.skips.len() as u64,
            episodes_lost: salvaged.report.episodes_lost,
        },
    );
    let serial = session.mine_patterns();
    assert!(serial.salvaged(), "provenance must reach the pattern set");
    for jobs in [2usize, 4, 8] {
        assert_sets_identical(&serial, &PatternSet::mine_with_jobs(&session, jobs));
    }
}

#[test]
fn chunked_mining_over_salvage_stream_matches_serial() {
    let bytes = damaged_trace_bytes();

    // Serial reference: bulk salvage, then mine.
    let salvaged = read_bytes_salvage(&bytes).unwrap();
    let session = AnalysisSession::with_provenance(
        salvaged.trace,
        AnalysisConfig::default(),
        Provenance::Salvaged {
            skips: salvaged.report.skips.len() as u64,
            episodes_lost: salvaged.report.episodes_lost,
        },
    );
    let reference = session.mine_patterns();
    let threshold = AnalysisConfig::default().perceptible_threshold;

    // Streaming: decode leniently, mine in chunks as episodes surface.
    // Symbol definitions can in principle appear between episode records,
    // so resolve signatures with the post-stream symbol table.
    let mut stream = SalvageEpisodeStream::new(&bytes).unwrap();
    let mut chunks: Vec<(usize, Vec<_>)> = Vec::new();
    let mut chunk = Vec::new();
    let mut base = 0usize;
    while let Some(episode) = stream.next_episode() {
        chunk.push(episode);
        if chunk.len() == 64 {
            let full = std::mem::take(&mut chunk);
            chunks.push((base, full));
            base = chunks.iter().map(|(_, c)| c.len()).sum();
        }
    }
    if !chunk.is_empty() {
        chunks.push((base, chunk));
    }
    assert!(chunks.len() > 2, "expected several chunks");
    let symbols = stream.symbols().clone();
    let (_tail, report) = stream.finish();
    assert!(!report.is_clean());

    let mut merged = PatternTable::new();
    merged.mark_salvaged();
    // Merge in reverse chunk order to exercise order-independence.
    for (start, episodes) in chunks.iter().rev() {
        let mut table = PatternTable::new();
        table.scan_episodes(episodes, *start, threshold);
        merged.merge(table);
    }
    assert_sets_identical(&reference, &merged.into_pattern_set(&symbols));
}
