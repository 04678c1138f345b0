//! Golden-corpus snapshot test: every fixture under `tests/corpus/` has
//! its strict-decode outcome, salvage-decode outcome, and full semantic
//! `check --format json` report locked in `tests/corpus/EXPECTED.txt`.
//!
//! To regenerate the generated fixtures and the snapshot after an
//! intentional format change (the [`FROZEN`] fixtures are never
//! rewritten):
//!
//! ```text
//! LAGALYZER_REGEN_CORPUS=1 cargo test -p lagalyzer-trace --test corpus
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use lagalyzer_model::prelude::*;
use lagalyzer_trace::faults::Fault;
use lagalyzer_trace::{
    binary, probe_rollup, read_bytes, read_bytes_salvage, text, IndexHealth, IndexedTrace, Rollup,
    RollupHealth, TraceError,
};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("corpus")
}

/// Fixtures frozen as bytes an earlier format version wrote: writers emit
/// only the current version, so no generator reproduces them. They keep
/// the read-only FNV-1a path covered; their outcomes are snapshot-locked
/// like the rest, and `corpus_fixtures_match_generator` skips them. Both
/// hold [`base_trace`] as format v2, the second with a rollup section.
const FROZEN: [&str; 2] = ["legacy-v2.lgz", "legacy-v2-rollup.lgz"];

/// The deterministic session every binary fixture derives from.
fn base_trace() -> SessionTrace {
    let meta = SessionMeta {
        application: "CorpusApp".into(),
        session: SessionId::from_raw(7),
        gui_thread: ThreadId::from_raw(0),
        end_to_end: DurationNs::from_secs(300),
        filter_threshold: DurationNs::TRACE_FILTER_DEFAULT,
    };
    let mut b = SessionTraceBuilder::new(meta, SymbolTable::new());
    let paint = b.symbols_mut().method("javax.swing.JFrame", "paint");
    let handle = b.symbols_mut().method("org.app.Main", "handle");
    let mut cursor = 0u64;
    for i in 0..3u32 {
        let start = TimeNs::from_millis(cursor);
        let mut t = IntervalTreeBuilder::new();
        t.enter(IntervalKind::Dispatch, None, start).unwrap();
        t.leaf(
            IntervalKind::Listener,
            Some(handle),
            TimeNs::from_millis(cursor + 2),
            TimeNs::from_millis(cursor + 30),
        )
        .unwrap();
        t.leaf(
            IntervalKind::Paint,
            Some(paint),
            TimeNs::from_millis(cursor + 35),
            TimeNs::from_millis(cursor + 70),
        )
        .unwrap();
        t.exit(TimeNs::from_millis(cursor + 80)).unwrap();
        let snap = SampleSnapshot::new(
            TimeNs::from_millis(cursor + 40),
            vec![ThreadSample::new(
                ThreadId::from_raw(0),
                ThreadState::Runnable,
                vec![StackFrame::java(paint)],
            )],
        );
        b.push_episode(
            EpisodeBuilder::new(EpisodeId::from_raw(i), ThreadId::from_raw(0))
                .tree(t.finish().unwrap())
                .sample(snap)
                .build()
                .unwrap(),
        )
        .unwrap();
        cursor += 100;
    }
    b.push_gc(GcEvent {
        start: TimeNs::from_millis(10),
        end: TimeNs::from_millis(14),
        major: false,
    });
    b.add_short_episodes(42, DurationNs::from_millis(90));
    b.finish()
}

/// The corpus: `(file name, fixture bytes)`, derived deterministically.
fn fixtures() -> Vec<(&'static str, Vec<u8>)> {
    let trace = base_trace();
    let mut bin = Vec::new();
    binary::write(&trace, &mut bin).unwrap();
    let mut txt = Vec::new();
    text::write(&trace, &mut txt).unwrap();

    let mut legacy = Vec::new();
    binary::write_legacy(&trace, &mut legacy).unwrap();
    let mut version_skew = bin.clone();
    version_skew[7] = 4;
    let mut checksum_mismatch = bin.clone();
    let last = checksum_mismatch.len() - 1;
    checksum_mismatch[last] ^= 0xff;
    let mut bitflip = bin.clone();
    bitflip[bin.len() / 2] ^= 0x10;

    let mut truncated_txt = txt[..txt.len() * 2 / 3].to_vec();
    truncated_txt.truncate(truncated_txt.len());
    let garbled_txt = {
        let s = String::from_utf8(txt.clone()).unwrap();
        let mut lines: Vec<String> = s.lines().map(str::to_owned).collect();
        let mid = lines.len() / 2;
        lines[mid] = "en\u{fffd}ter ?? garbled".into();
        lines.join("\n") + "\n"
    };
    let skew_txt = {
        let s = String::from_utf8(txt.clone()).unwrap();
        s.replacen("lagalyzer-trace v1", "lagalyzer-trace v9", 1)
    };

    vec![
        ("clean.lgz", bin.clone()),
        ("legacy-v1.lgz", legacy),
        ("clean.txt", txt.clone()),
        ("truncated.lgz", bin[..bin.len() * 2 / 3].to_vec()),
        ("bitflip.lgz", bitflip),
        ("version-skew.lgz", version_skew),
        ("checksum-mismatch.lgz", checksum_mismatch),
        (
            "deleted-record.lgz",
            Fault::DeleteRecord { index: 5 }.apply(&bin),
        ),
        (
            "duplicated-record.lgz",
            Fault::DuplicateRecord { index: 3 }.apply(&bin),
        ),
        (
            "inflated-length.lgz",
            Fault::InflateLength { index: 0 }.apply(&bin),
        ),
        ("inflated-count.lgz", Fault::InflateCount.apply(&bin)),
        ("truncated.txt", truncated_txt),
        ("garbled-line.txt", garbled_txt.into_bytes()),
        ("version-skew.txt", skew_txt.into_bytes()),
        (
            "garbage.bin",
            b"\x7fELF not a trace at all\x00\x01\x02".to_vec(),
        ),
    ]
}

fn strict_outcome(bytes: &[u8]) -> String {
    match read_bytes(bytes) {
        Ok(trace) => format!("ok(episodes={})", trace.episodes().len()),
        Err(TraceError::Io(_)) => "err(io)".into(),
        Err(TraceError::Corrupt { context, .. }) => format!("err(corrupt:{context})"),
        Err(TraceError::Model(_)) => "err(model)".into(),
        Err(TraceError::UnsupportedVersion { found }) => format!("err(version:{found})"),
        Err(TraceError::ChecksumMismatch { .. }) => "err(checksum)".into(),
        Err(_) => "err(other)".into(),
    }
}

fn salvage_outcome(bytes: &[u8]) -> String {
    match read_bytes_salvage(bytes) {
        Err(_) => "unrecoverable".into(),
        Ok(salvaged) => {
            let r = &salvaged.report;
            let checksum = match r.checksum_ok {
                Some(true) => "ok",
                Some(false) => "bad",
                None => "none",
            };
            format!(
                "{} recovered={} lost={} skips={} bytes_skipped={} lines_skipped={} checksum={}",
                if r.is_clean() { "clean" } else { "damaged" },
                r.episodes_recovered,
                r.episodes_lost,
                r.skips.len(),
                r.bytes_skipped,
                r.lines_skipped,
                checksum,
            )
        }
    }
}

/// The fixture's semantic-check report, exactly as `lagalyzer check
/// --format json` would print it (keyed by fixture name, not path, so
/// the snapshot is machine-independent). Run twice to lock in that the
/// checker is deterministic: a report that varies between runs would
/// make the snapshot flaky, so instability fails here, loudly.
fn check_outcome(name: &str, bytes: &[u8]) -> String {
    let render =
        || match lagalyzer_check::check_bytes(bytes, &mut lagalyzer_check::RuleSet::standard()) {
            Err(_) => "unrecoverable".to_owned(),
            Ok(report) => report.render_json(name),
        };
    let first = render();
    let second = render();
    assert_eq!(first, second, "{name}: check report unstable across runs");
    first
}

fn snapshot_line(name: &str, bytes: &[u8]) -> String {
    format!(
        "{name}: strict={} salvage={}\n{name}: check={}",
        strict_outcome(bytes),
        salvage_outcome(bytes),
        check_outcome(name, bytes),
    )
}

#[test]
fn corpus_outcomes_match_snapshot() {
    let dir = corpus_dir();
    let regen = std::env::var_os("LAGALYZER_REGEN_CORPUS").is_some();
    if regen {
        std::fs::create_dir_all(&dir).unwrap();
        let mut expected = String::new();
        for (name, bytes) in fixtures() {
            std::fs::write(dir.join(name), &bytes).unwrap();
            writeln!(expected, "{}", snapshot_line(name, &bytes)).unwrap();
        }
        for name in FROZEN {
            let bytes = std::fs::read(dir.join(name)).unwrap();
            writeln!(expected, "{}", snapshot_line(name, &bytes)).unwrap();
        }
        std::fs::write(dir.join("EXPECTED.txt"), expected).unwrap();
        return;
    }

    let expected = std::fs::read_to_string(dir.join("EXPECTED.txt"))
        .expect("tests/corpus/EXPECTED.txt missing — run with LAGALYZER_REGEN_CORPUS=1");
    let mut actual = String::new();
    let names = fixtures().into_iter().map(|(name, _)| name);
    for name in names.chain(FROZEN) {
        let bytes = std::fs::read(dir.join(name))
            .unwrap_or_else(|e| panic!("corpus fixture {name} unreadable: {e}"));
        writeln!(actual, "{}", snapshot_line(name, &bytes)).unwrap();
    }
    assert_eq!(
        actual, expected,
        "corpus outcomes changed; if intentional, regenerate with \
         LAGALYZER_REGEN_CORPUS=1 and commit the diff"
    );
}

/// The committed fixture bytes themselves are locked too: a format change
/// that alters the encoder must be deliberate.
#[test]
fn corpus_fixtures_match_generator() {
    let dir = corpus_dir();
    if std::env::var_os("LAGALYZER_REGEN_CORPUS").is_some() {
        return; // the snapshot test just rewrote them
    }
    for (name, bytes) in fixtures() {
        let on_disk = std::fs::read(dir.join(name))
            .unwrap_or_else(|e| panic!("corpus fixture {name} unreadable: {e}"));
        assert_eq!(
            on_disk, bytes,
            "fixture {name} no longer matches its generator; if the format \
             change is intentional, regenerate with LAGALYZER_REGEN_CORPUS=1"
        );
    }
}

/// Salvage on the whole corpus never panics and bounds its work — even
/// for the deliberately absurd length/count fields.
#[test]
fn corpus_salvage_never_panics() {
    for (name, bytes) in fixtures() {
        let _ = read_bytes_salvage(&bytes);
        // Also drive the strict path for parity.
        let _ = read_bytes(&bytes);
        // And every prefix of every fixture (cheap: corpus files are small).
        for cut in 0..bytes.len() {
            let _ = read_bytes_salvage(&bytes[..cut]);
        }
        eprintln!("corpus file {name}: ok");
    }
}

/// The frozen v2 fixtures still verify and decode byte-identically to the
/// current format's encoding of the same session, and the v2 rollup still
/// validates, so the warm path hits. Rewriting it yields a v3 file whose
/// rollup differs only in its content checksum.
#[test]
fn frozen_v2_fixtures_decode_like_v3() {
    let dir = corpus_dir();
    let canonical = |trace: &SessionTrace| {
        let mut bytes = Vec::new();
        binary::write(trace, &mut bytes).unwrap();
        bytes
    };
    let v3 = canonical(&base_trace());
    assert_eq!(v3[7], 3);
    let want = canonical(&binary::read(v3.as_slice()).unwrap());
    for name in FROZEN {
        let bytes = std::fs::read(dir.join(name)).unwrap();
        assert_eq!(bytes[7], 2, "{name} must stay a v2 file");
        let serial = binary::read(bytes.as_slice()).unwrap();
        assert_eq!(canonical(&serial), want, "{name}: serial decode");
        let indexed = IndexedTrace::open(bytes).unwrap();
        assert_eq!(indexed.health(), &IndexHealth::FooterValid, "{name}");
        for jobs in [1, 2] {
            let decoded = indexed.par_decode(jobs).unwrap();
            assert_eq!(
                canonical(&decoded),
                want,
                "{name}: indexed decode at {jobs} jobs"
            );
        }
    }

    let rolled = std::fs::read(dir.join("legacy-v2-rollup.lgz")).unwrap();
    assert!(matches!(
        probe_rollup(&rolled),
        Some(RollupHealth::Valid { .. })
    ));
    let indexed = IndexedTrace::open(rolled).unwrap();
    let rollup = indexed.rollup().expect("the v2 rollup validates");
    assert_eq!(rollup.summaries.len(), 3);

    let mut rewritten = Vec::new();
    binary::write_with_rollup(&base_trace(), &mut rewritten, rollup.clone()).unwrap();
    assert_eq!(rewritten[7], 3);
    let reopened = IndexedTrace::open(rewritten).unwrap();
    let v3_rollup = reopened.rollup().expect("the rewritten rollup validates");
    assert_ne!(v3_rollup.content_checksum, rollup.content_checksum);
    let unstamped = |r: &Rollup| Rollup {
        content_checksum: 0,
        ..r.clone()
    };
    assert_eq!(unstamped(v3_rollup), unstamped(rollup));
}
