//! The `compare` rule: ≥10 pairs, ≥9/10 wins, median gap beyond the
//! parent's IQR, and each metric's bound.

use benchmark::compare::{judge, Verdict};
use benchmark::metrics::end_to_end;

fn throughput() -> &'static benchmark::metrics::MetricDef {
    end_to_end("scenarios_per_s").expect("catalogued")
}

fn setup() -> &'static benchmark::metrics::MetricDef {
    end_to_end("setup_s").expect("catalogued")
}

const PARENT: [f64; 10] = [
    100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3,
];

#[test]
fn ties_count_for_neither_side() {
    let j = judge(throughput(), &PARENT, &PARENT);
    assert_eq!(j.wins, 0);
    assert_eq!(j.pairs, 10);
    assert_eq!(j.verdict, Verdict::Unchanged);
}

#[test]
fn nine_wins_in_ten_with_a_clear_gap_is_an_improvement() {
    let mut change = PARENT.map(|p| p + 5.0);
    change[3] = PARENT[3] - 1.0;
    let j = judge(throughput(), &PARENT, &change);
    assert_eq!(j.wins, 9);
    assert_eq!(j.verdict, Verdict::Improved);

    change[7] = PARENT[7];
    let j = judge(throughput(), &PARENT, &change);
    assert_eq!(j.wins, 8, "a tie is not a win");
    assert_eq!(j.verdict, Verdict::Unchanged);
}

#[test]
fn direction_follows_the_metric() {
    let faster = PARENT.map(|p| p - 5.0);
    assert_eq!(judge(setup(), &PARENT, &faster).verdict, Verdict::Improved);
    assert_eq!(
        judge(throughput(), &PARENT, &faster).verdict,
        Verdict::Unchanged
    );
}

#[test]
fn a_gap_inside_the_parent_iqr_is_no_improvement() {
    let parent = [
        90.0, 110.0, 95.0, 105.0, 92.0, 108.0, 97.0, 103.0, 91.0, 109.0,
    ];
    let j = judge(setup(), &parent, &parent.map(|p| p - 1.0));
    assert_eq!(j.wins, 10);
    assert!(j.parent_iqr > 1.0);
    assert_ne!(j.verdict, Verdict::Improved);
}

#[test]
fn fewer_than_ten_pairs_never_improve() {
    let change = PARENT.map(|p| p + 5.0);
    let j = judge(throughput(), &PARENT[..9], &change[..9]);
    assert_eq!(j.wins, 9);
    assert_eq!(j.verdict, Verdict::Unchanged);
}

#[test]
fn worse_than_the_bound_regresses() {
    let bound = throughput()
        .bound
        .expect("end-to-end metrics carry a bound");
    let slower = PARENT.map(|p| p * (1.0 - bound - 0.05));
    assert_eq!(
        judge(throughput(), &PARENT, &slower).verdict,
        Verdict::Regressed
    );
    let slightly = PARENT.map(|p| p * (1.0 - bound / 2.0));
    assert_eq!(
        judge(throughput(), &PARENT, &slightly).verdict,
        Verdict::Unchanged
    );
}

#[test]
fn a_parent_spread_wider_than_the_bound_is_unresolved() {
    let parent = [
        60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 65.0, 135.0, 75.0, 125.0,
    ];
    let j = judge(throughput(), &parent, &parent.map(|p| p * 0.98));
    assert_eq!(j.verdict, Verdict::Unresolved);
}
