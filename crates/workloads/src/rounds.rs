//! The score sheet of the cache, disk and timer channel attackers: each
//! round's readout becomes one guess at the victim's secret, and the
//! last round sends the completion report.

use crate::parsec::DONE_TAG;
use crate::registry::WorkloadOutcome;
use netsim::packet::{Body, EndpointId};
use vmm::guest::GuestEnv;

/// Which end of a round's readout names the secret.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Tell {
    /// The largest reading: the cache set the victim evicted, the timer
    /// window its burst delayed.
    Slowest,
    /// The smallest reading: the platter region where the victim parks
    /// the disk head.
    Fastest,
}

/// A secret-recovery attacker's rounds, scored as they finish.
#[derive(Debug)]
pub(crate) struct RoundScorer {
    choices: u64,
    rounds: u32,
    tell: Tell,
    monitor: EndpointId,
    samples_ns: Vec<u64>,
    guesses: Vec<u64>,
}

impl RoundScorer {
    /// `rounds` rounds (at least one) over `choices` candidate secrets;
    /// the completion report goes to `monitor`.
    pub(crate) fn new(choices: u64, rounds: u32, tell: Tell, monitor: EndpointId) -> Self {
        RoundScorer {
            choices,
            rounds: rounds.max(1),
            tell,
            monitor,
            samples_ns: Vec::new(),
            guesses: Vec::new(),
        }
    }

    /// Rounds scored so far.
    pub(crate) fn round(&self) -> u32 {
        self.guesses.len() as u32
    }

    /// Whether the last round has been scored.
    pub(crate) fn done(&self) -> bool {
        self.round() >= self.rounds
    }

    /// Scores one finished round and returns whether it was the last.
    /// `samples` (virtual ns) join the run's samples. `readout`, one
    /// reading per candidate, names the guess: the first candidate at the
    /// `tell` end — unless every reading is equal (no signal), when the
    /// attacker cycles through candidates, the deterministic stand-in for
    /// guessing at random. The last round reports completion.
    pub(crate) fn finish_round(
        &mut self,
        samples: &[u64],
        readout: &[u64],
        env: &mut GuestEnv,
    ) -> bool {
        self.samples_ns.extend_from_slice(samples);
        let max = *readout.iter().max().expect("one reading per candidate");
        let min = *readout.iter().min().expect("one reading per candidate");
        let guess = if max == min {
            u64::from(self.round()) % self.choices
        } else {
            let target = match self.tell {
                Tell::Slowest => max,
                Tell::Fastest => min,
            };
            readout
                .iter()
                .position(|&r| r == target)
                .expect("target is a reading") as u64
        };
        self.guesses.push(guess);
        if self.done() {
            env.send(
                self.monitor,
                Body::Raw {
                    tag: DONE_TAG,
                    len: 64,
                },
            );
        }
        self.done()
    }

    /// The run's outcome against the true `secret`: the samples in ms,
    /// one completed operation per scored round, and in `extra` how many
    /// rounds guessed `secret`, that accuracy, and the `1 / choices`
    /// accuracy of guessing blind.
    pub(crate) fn outcome(&self, secret: u64) -> WorkloadOutcome {
        let rounds = self.round();
        let recovered = self.guesses.iter().filter(|&&g| g == secret).count() as f64;
        let accuracy = if rounds > 0 {
            recovered / f64::from(rounds)
        } else {
            0.0
        };
        WorkloadOutcome {
            samples_ms: self
                .samples_ns
                .iter()
                .map(|&ns| ns as f64 / 1.0e6)
                .collect(),
            completed: u64::from(rounds),
            extra: vec![
                ("probe_rounds".to_string(), f64::from(rounds)),
                ("recovered_rounds".to_string(), recovered),
                ("recovery_accuracy".to_string(), accuracy),
                ("chance_accuracy".to_string(), 1.0 / self.choices as f64),
            ],
        }
    }
}
