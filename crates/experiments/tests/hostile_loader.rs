//! The checkpoint loader on hostile input: a real serialized
//! `CampaignStats`, truncated or with bytes overwritten at random, goes
//! through `json::parse` and `CampaignStats::from_json` — the path of
//! `ccdem fleet --resume`. Each step answers `Ok`/`Some` or
//! `Err`/`None` and never panics; whatever loads also prints and
//! re-serializes without panicking.

use std::sync::OnceLock;

use ccdem_experiments::campaign::CampaignStats;
use ccdem_experiments::fleet::{self, FleetConfig};
use ccdem_obs::json::Json;
use ccdem_obs::{json, Obs};
use ccdem_simkit::time::SimDuration;
use proptest::prelude::*;

/// The final statistics document of a small real campaign; it loads.
fn document() -> &'static [u8] {
    static DOCUMENT: OnceLock<String> = OnceLock::new();
    let document = DOCUMENT.get_or_init(|| {
        let config = FleetConfig {
            devices: 6,
            duration: SimDuration::from_millis(800),
            jobs: 1,
            batch: 2,
            ..FleetConfig::default()
        };
        let outcome = fleet::run(&config, &Obs::disabled()).expect("campaign runs");
        let mut out = String::new();
        json::write_json(&mut out, &outcome.stats.to_json());
        assert!(load(out.as_bytes()).is_some(), "own document loads");
        out
    });
    document.as_bytes()
}

/// Parses and loads `bytes`; panics only if the loader does.
fn load(bytes: &[u8]) -> Option<CampaignStats> {
    let stats = CampaignStats::from_json(&json::parse(&String::from_utf8_lossy(bytes)).ok()?)?;
    let _ = (stats.to_string(), stats.to_json());
    Some(stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// Overwriting a few bytes, then maybe truncating. Besides arbitrary
    /// bytes, the flips draw printable ASCII, which reaches past the
    /// tokenizer into keys and structure, and digits, which keep the
    /// document well formed but change its numbers.
    #[test]
    fn corrupted_documents_never_panic(
        flips in proptest::collection::vec(
            (0usize..1_000_000, prop_oneof![any::<u8>(), 32u8..127, 48u8..58]),
            0..4,
        ),
        cut in proptest::option::of(0usize..1_000_000),
    ) {
        let mut bytes = document().to_vec();
        for (at, byte) in flips {
            let at = at % bytes.len();
            bytes[at] = byte;
        }
        if let Some(cut) = cut {
            bytes.truncate(cut % (bytes.len() + 1));
        }
        let _ = load(&bytes);
    }
}

/// `document()` with the run count (when `runs`) and the first metric's
/// sample count and its only bucket (when `sketch`) at `u64::MAX`: a
/// consistent document, so it loads.
fn at_limit(runs: bool, sketch: bool) -> CampaignStats {
    let mut doc = json::parse(&String::from_utf8_lossy(document())).expect("document parses");
    let max = Json::Num(u64::MAX as f64);
    let Json::Obj(members) = &mut doc else {
        panic!("stats document is an object")
    };
    for (key, value) in members.iter_mut() {
        match (key.as_str(), value) {
            ("runs", value) if runs => *value = max.clone(),
            ("metrics", Json::Obj(metrics)) if sketch => {
                let Some((_, Json::Obj(fields))) = metrics.first_mut() else {
                    panic!("a metric sketch")
                };
                for (field, value) in fields.iter_mut() {
                    match field.as_str() {
                        "count" => *value = max.clone(),
                        "buckets" => {
                            *value = Json::Arr(vec![Json::Arr(vec![Json::Num(0.0), max.clone()])]);
                        }
                        _ => {}
                    }
                }
            }
            _ => {}
        }
    }
    CampaignStats::from_json(&doc).expect("a count at the limit still loads")
}

/// Folding more runs into a loaded aggregate whose counts sit at the
/// limit fails and changes nothing: merges are checked, never wrapping
/// (a wrapped run count) or saturating (a count that no longer equals
/// its bucket sum, which the loader would reject).
#[test]
fn merging_into_counts_at_the_limit_fails_and_changes_nothing() {
    let more = load(document()).expect("document loads");
    for (runs, sketch) in [(true, false), (false, true), (true, true)] {
        let mut stats = at_limit(runs, sketch);
        let before = stats.clone();
        assert!(
            stats.try_merge(&more).is_err(),
            "runs at limit {runs}, sketch at limit {sketch}: merge must fail"
        );
        assert_eq!(
            stats, before,
            "a failed merge must leave the aggregate as it was"
        );
    }
    // Below the limit the same merge succeeds and adds the runs.
    let mut stats = load(document()).expect("document loads");
    stats.try_merge(&more).expect("no overflow");
    assert_eq!(stats.runs(), 2 * more.runs());
}
