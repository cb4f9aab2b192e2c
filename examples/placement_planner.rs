//! Sec. VIII as a runnable example: plan replica placements for a cloud
//! under StopWatch's edge-disjoint-triangle constraint and compare the
//! utilization against running each guest in isolation. Then print the
//! section's three tables (Theorem 1 bounds, Theorem 2 constructions,
//! greedy packings) as CSV: a `# <title>` line, the header, the rows,
//! then a blank line.
//!
//! Run with: `cargo run --release --example placement_planner [n] [capacity]`

use stopwatch_repro::prelude::*;

fn theorem1() {
    println!("# Sec VIII / Theorem 1 — max edge-disjoint triangle packings");
    println!("n,max_vms_theorem1,isolation,speedup");
    for n in [3usize, 7, 9, 15, 21, 33, 45, 63, 99] {
        let k = max_triangle_packing(n);
        println!(
            "{n},{k},{},{:.2}",
            isolation_capacity(n),
            k as f64 / n as f64
        );
    }
    println!();
}

fn theorem2() {
    println!("# Sec VIII / Theorem 2 — constructive capacity-constrained placements");
    println!("n,capacity,vms_placed,bose_promise,valid,utilization");
    for n in [9usize, 15, 21, 33] {
        let sys = BoseSystem::new(n).expect("bose system");
        for c in [1usize, 2, 3, 4, 7, 10] {
            if c > (n - 1) / 2 {
                continue;
            }
            let mut p = PlacementPlanner::new(n, c, Strategy::Bose).expect("bose planner");
            let placed = p.place_all();
            println!(
                "{n},{c},{placed},{},{},{:.2}",
                sys.theorem2_count(c),
                p.validate().is_ok(),
                p.utilization()
            );
        }
    }
    println!();
}

fn greedy() {
    println!("# Sec VIII — greedy packing on arbitrary cloud shapes");
    println!("n,capacity,greedy_vms,theorem1_bound");
    for n in [10usize, 12, 16, 20, 40] {
        let c = (n - 1) / 2;
        println!(
            "{n},{c},{},{}",
            greedy_packing(n, c, 42).len(),
            max_triangle_packing(n)
        );
    }
    println!();
}

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(21);
    let c: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);

    println!("cloud of {n} machines, capacity {c} guests each");
    println!(
        "theorem 1 bound (ignoring capacity): {} VMs",
        max_triangle_packing(n)
    );
    println!(
        "isolation baseline:                  {} VMs\n",
        isolation_capacity(n)
    );

    let strategy = if n % 6 == 3 && n >= 9 {
        Strategy::Bose
    } else {
        Strategy::Greedy
    };
    let mut planner = PlacementPlanner::new(n, c, strategy).expect("valid configuration");
    let placed = planner.place_all();
    planner
        .validate()
        .expect("placement satisfies StopWatch constraints");

    println!(
        "strategy {strategy:?} placed {placed} VMs ({} replicas)",
        placed * 3
    );
    println!("slot utilization: {:.1}%", planner.utilization() * 100.0);
    println!(
        "speedup over isolation: {:.2}x\n",
        planner.speedup_vs_isolation()
    );
    println!("first placements:");
    for (i, tri) in planner.placed().iter().take(8).enumerate() {
        println!("  VM {i}: {tri}");
    }
    if placed > 8 {
        println!("  ... and {} more", placed - 8);
    }
    println!();

    theorem1();
    theorem2();
    greedy();
}
