//! The checkpoint loader on hostile input: a real serialized
//! `CampaignStats`, truncated or with bytes overwritten at random, goes
//! through `json::parse` and `CampaignStats::from_json` — the path of
//! `ccdem fleet --resume`. Each step answers `Ok`/`Some` or
//! `Err`/`None` and never panics; whatever loads also prints and
//! re-serializes without panicking.

use std::sync::OnceLock;

use ccdem_experiments::campaign::CampaignStats;
use ccdem_experiments::fleet::{self, FleetConfig};
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
