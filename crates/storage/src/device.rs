//! A FIFO disk device: serializes requests through one head/channel and
//! reports absolute completion times, which the VMM's IDE device model
//! turns into Δd-delayed guest interrupts.

use crate::block::BlockRange;
use crate::model::AccessModel;
use simkit::rng::SimRng;
use simkit::time::SimTime;

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskOp {
    /// Read blocks into a buffer.
    Read,
    /// Write blocks from a buffer.
    Write,
}

/// One request presented to the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskRequest {
    /// Operation.
    pub op: DiskOp,
    /// Blocks touched.
    pub range: BlockRange,
}

/// The device: one request at a time, FIFO.
#[derive(Debug)]
pub struct DiskDevice<M> {
    model: M,
    rng: SimRng,
    busy_until: SimTime,
    head: u64,
}

impl<M: AccessModel> DiskDevice<M> {
    /// Creates a device over the given access model and RNG stream.
    pub fn new(model: M, rng: SimRng) -> Self {
        DiskDevice {
            model,
            rng,
            busy_until: SimTime::ZERO,
            head: 0,
        }
    }

    /// Submits a request at `now`; returns its absolute completion time.
    /// Requests queue FIFO behind earlier ones.
    pub fn submit(&mut self, req: DiskRequest, now: SimTime) -> SimTime {
        let start = now.max(self.busy_until);
        let service = self.model.access_time(req.range, self.head, &mut self.rng);
        self.busy_until = start + service;
        self.head = req.range.end().0;
        self.busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Ssd;
    use simkit::time::SimDuration;

    fn dev() -> DiskDevice<Ssd> {
        DiskDevice::new(
            Ssd {
                latency: SimDuration::from_millis(1),
                jitter: SimDuration::ZERO,
                transfer_bps: 4096 * 1000,
            },
            SimRng::new(3).stream("d"),
        )
    }

    #[test]
    fn single_request_timing() {
        let mut d = dev();
        let done = d.submit(
            DiskRequest {
                op: DiskOp::Read,
                range: BlockRange::new(0, 1),
            },
            SimTime::from_millis(10),
        );
        // 1 ms latency + 1 ms transfer.
        assert_eq!(done, SimTime::from_millis(12));
    }

    #[test]
    fn fifo_queueing() {
        let mut d = dev();
        let r = DiskRequest {
            op: DiskOp::Read,
            range: BlockRange::new(0, 1),
        };
        let a = d.submit(r, SimTime::ZERO);
        let b = d.submit(r, SimTime::ZERO);
        assert_eq!(a, SimTime::from_millis(2));
        assert_eq!(b, SimTime::from_millis(4), "second waits for first");
    }

    #[test]
    fn idle_gap_resets_queue() {
        let mut d = dev();
        let r = DiskRequest {
            op: DiskOp::Write,
            range: BlockRange::new(0, 1),
        };
        d.submit(r, SimTime::ZERO);
        let late = d.submit(r, SimTime::from_secs(1));
        assert_eq!(late, SimTime::from_secs(1) + SimDuration::from_millis(2));
    }
}
