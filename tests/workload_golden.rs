//! Golden pin of the enumerated workload suites.
//!
//! `tests/golden/workload_suites.txt` holds the `cqc suite manifest`
//! output for the committed manifest seed: per-class enumeration sizes
//! and the sampled query texts. Any change to the grammar, the class
//! filters, the canonicalisation, or the sampler moves this file — which
//! is exactly the point: the suites feed the `perfbench` workloads, whose
//! figures are compared across changes, so their membership must not
//! drift silently. Regenerate deliberately with
//! `UPDATE_GOLDEN=1 cargo test --test workload_golden`.

use cqcount::workloads::{enumerate_class, manifest, ALL_CLASSES};

fn check_golden(name: &str, actual: &str) {
    let path = format!("tests/golden/{name}");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {path} ({e}); run with UPDATE_GOLDEN=1"));
    assert_eq!(
        actual, expected,
        "`{name}` drifted from its golden file; if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn golden_workload_suite_manifest() {
    // the library manifest at the committed seed is the golden text…
    let text = manifest(0xC0FFEE, 8);
    check_golden("workload_suites.txt", &text);

    // …and `cqc suite manifest` (no flags) must print exactly that, so
    // the CI leg can diff the binary's output against the committed file
    let out = cqc_cli::run(&["suite".to_string(), "manifest".to_string()])
        .expect("cqc suite manifest succeeds");
    assert_eq!(
        out, text,
        "`cqc suite manifest` drifted from the library manifest"
    );
}

#[test]
fn golden_manifest_covers_every_class_with_real_counts() {
    // under UPDATE_GOLDEN the file may be mid-rewrite by the other test;
    // check the freshly generated text instead (they are asserted equal)
    let text = if std::env::var("UPDATE_GOLDEN").is_ok() {
        manifest(0xC0FFEE, 8)
    } else {
        std::fs::read_to_string("tests/golden/workload_suites.txt")
            .expect("golden manifest is committed")
    };
    for class in ALL_CLASSES {
        let family = enumerate_class(class);
        let name = match class {
            cqcount::query::QueryClass::CQ => "CQ",
            cqcount::query::QueryClass::DCQ => "DCQ",
            cqcount::query::QueryClass::ECQ => "ECQ",
        };
        let marker = format!("class {name}: enumerated={} sampled=8", family.len());
        assert!(
            text.contains(&marker),
            "golden manifest lost `{marker}`; enumeration counts changed"
        );
    }
}
