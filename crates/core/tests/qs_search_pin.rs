//! Regular QS-CaQR search pin.
//!
//! The pipeline goldens (`golden_equivalence`) stop at circuits small
//! enough that the backtracking search in `qs::regular` never exhausts
//! its state budget. This suite pins the search itself on the paper's
//! regular suite — including Multiply_13, BV_10 and CC_10, which run the
//! budget dry — so any change to candidate scoring, ordering or pruning
//! shows up as a drifted line:
//!
//! * every `qs::regular::sweep` point (qubits, reuses, circuit
//!   fingerprint) under Mumbai's logical durations, and
//! * the `sr::compile_with(.., RouterConfig::new())` result built on that
//!   sweep.
//!
//! Regenerate (only when an intentional algorithmic change lands) with:
//!
//! ```text
//! CAQR_BLESS=1 cargo test -p caqr --test qs_search_pin
//! ```

use caqr::{qs, sr, RouterConfig};
use caqr_arch::Device;
use caqr_benchmarks::suite;

const GOLDEN_PATH: &str = "tests/golden/qs_search.txt";

fn current_lines() -> String {
    let device = Device::mumbai(1);
    let durations = device.logical_duration_model();
    let mut out = String::new();
    for bench in suite::regular_suite() {
        for point in qs::regular::sweep(&bench.circuit, &durations) {
            out.push_str(&format!(
                "{} sweep qubits={} reuses={} circuit={:032x}\n",
                bench.name,
                point.qubits,
                point.reuses,
                point.circuit.fingerprint().as_u128(),
            ));
        }
        match sr::compile_with(&bench.circuit, &device, RouterConfig::new()) {
            Ok(routed) => out.push_str(&format!(
                "{} sr circuit={:032x} swaps={} used={} initial={:?} final={:?}\n",
                bench.name,
                routed.circuit.fingerprint().as_u128(),
                routed.swap_count,
                routed.physical_qubits_used,
                routed.initial_layout,
                routed.final_layout,
            )),
            Err(e) => out.push_str(&format!("{} sr error={e}\n", bench.name)),
        }
    }
    out
}

#[test]
fn regular_search_matches_goldens() {
    let got = current_lines();
    if std::env::var_os("CAQR_BLESS").is_some() {
        std::fs::create_dir_all("tests/golden").expect("create golden dir");
        std::fs::write(GOLDEN_PATH, &got).expect("write goldens");
        return;
    }
    let want = include_str!("golden/qs_search.txt");
    let mismatches: Vec<String> = got
        .lines()
        .zip(want.lines())
        .filter(|(g, w)| g != w)
        .map(|(g, w)| format!("  want: {w}\n   got: {g}"))
        .collect();
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "search point count drifted"
    );
    assert!(
        mismatches.is_empty(),
        "regular QS search drifted from goldens:\n{}",
        mismatches.join("\n")
    );
}
