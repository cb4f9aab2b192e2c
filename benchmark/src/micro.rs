//! Layer microbenches of the traced run: each times one public hot-path
//! call of a program crate on inputs drawn from the benchmark seed, and
//! reports the median of several repeats.

use harness::aggregate::SweepReport;
use netsim::packet::{Body, EndpointId, Packet, TcpFlags, TcpSegment};
use simkit::engine::Sim;
use simkit::metrics::Samples;
use simkit::rng::SimRng;
use simkit::time::SimTime;
use std::hint::black_box;
use std::time::Instant;
use timestats::detect::Detector;
use timestats::dist::Empirical;
use timestats::ks::ks_distance;
use timestats::order_stats::median_odd_in_place;
use vmm::cache::CacheModel;

/// Operations per microbench repeat.
const OPS: u64 = 1_000_000;
/// Repeats per microbench; the median is reported.
const REPEATS: usize = 5;

/// Nanoseconds per operation of each layer microbench.
#[derive(Debug, Clone, Copy)]
pub struct Micro {
    /// `Sim::schedule` + `run` of one no-op event.
    pub dispatch_ns: f64,
    /// `Packet::new` with its content hash.
    pub packet_new_ns: f64,
    /// One `CacheModel` touch or probe at the cache-storm geometry.
    pub cache_probe_ns: f64,
    /// `median_odd_in_place` on 3 or 5 proposals.
    pub median_ns: f64,
}

fn median_of(mut repeat: impl FnMut() -> f64) -> f64 {
    (0..REPEATS).map(|_| repeat()).collect::<Samples>().median()
}

fn per_op(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64 / OPS as f64
}

/// Runs every microbench on inputs drawn from `seed`.
pub fn run(seed: u64) -> Micro {
    let rng = SimRng::new(seed);
    let mut draw = rng.stream("dispatch");
    let times: Vec<SimTime> = (0..OPS)
        .map(|_| SimTime::from_nanos(draw.uniform_u64(0, 1_000_000_000)))
        .collect();
    let dispatch_ns = median_of(|| {
        let mut sim: Sim<u64> = Sim::new();
        let mut fired = 0u64;
        let start = Instant::now();
        for &at in &times {
            sim.schedule(at, |_, fired: &mut u64| *fired += 1);
        }
        sim.run(&mut fired);
        let ns = per_op(start);
        assert_eq!(fired, OPS, "every scheduled event ran");
        ns
    });

    let packet_new_ns = median_of(|| {
        let mut acc = 0u64;
        let start = Instant::now();
        for i in 0..OPS {
            let segment = TcpSegment {
                conn: seed ^ (i & 63),
                flags: TcpFlags {
                    ack: true,
                    ..TcpFlags::default()
                },
                seq: i * 1448,
                ack: 1,
                len: 1448,
                app: None,
            };
            let packet = Packet::new(EndpointId(i & 7), EndpointId(100), Body::Tcp(segment));
            acc ^= black_box(&packet).content_hash();
        }
        black_box(acc);
        per_op(start)
    });

    // The cache-storm geometry: 32 sets x 4 ways, attacker and victim
    // lines competing for the same sets.
    let mut draw = rng.stream("cache");
    let accesses: Vec<(u64, u64, u64)> = (0..4096)
        .map(|_| {
            (
                draw.uniform_u64(0, 2),
                draw.uniform_u64(0, 32),
                draw.uniform_u64(0, 8),
            )
        })
        .collect();
    let cache_probe_ns = median_of(|| {
        let mut cache = CacheModel::new(32, 4);
        let mut acc = 0u64;
        let start = Instant::now();
        for (i, &(owner, set, tag)) in accesses.iter().cycle().take(OPS as usize).enumerate() {
            if i % 2 == 0 {
                acc += u64::from(cache.touch(owner, set, tag));
            } else {
                acc += cache.probe(owner, set, tag);
            }
        }
        black_box(acc);
        per_op(start)
    });

    let mut draw = rng.stream("median");
    let proposals: Vec<u64> = (0..4096).map(|_| draw.next_u64() >> 20).collect();
    let median_ns = median_of(|| {
        let mut acc = 0u64;
        let start = Instant::now();
        for i in 0..OPS as usize {
            let at = i % (proposals.len() - 5);
            acc ^= if i % 2 == 0 {
                let mut three = [proposals[at], proposals[at + 1], proposals[at + 2]];
                median_odd_in_place(black_box(&mut three))
            } else {
                let mut five: [u64; 5] = proposals[at..at + 5].try_into().expect("five");
                median_odd_in_place(black_box(&mut five))
            };
        }
        black_box(acc);
        per_op(start)
    });

    Micro {
        dispatch_ns,
        packet_new_ns,
        cache_probe_ns,
        median_ns,
    }
}

/// Replays the report's leakage verdicts — two empirical CDFs, the KS
/// distance and the χ² detector per verdict, as the aggregator computes
/// them — and returns the median wall time of one replay in ms (0 for a
/// report without verdicts).
pub fn verdict_ms(report: &SweepReport) -> f64 {
    let samples = |cell: &str| {
        report
            .cells
            .iter()
            .find(|c| c.cell == cell)
            .map(|c| c.samples.as_slice())
            .expect("verdicts name report cells")
    };
    let pairs: Vec<(&[f64], &[f64])> = report
        .leakage
        .iter()
        .map(|v| (samples(&v.baseline), samples(&v.cell)))
        .collect();
    median_of(|| {
        let start = Instant::now();
        for &(base, cell) in &pairs {
            let base_dist = Empirical::from_samples(base.iter().copied());
            let dist = Empirical::from_samples(cell.iter().copied());
            let observations = Detector::from_samples(base, cell, 10.min(base.len().max(2)))
                .observations_needed(0.95);
            black_box((ks_distance(&base_dist, &dist), observations));
        }
        start.elapsed().as_nanos() as f64 / 1e6
    })
}
