//! The guest's action buffer.
//!
//! Handlers queue [`GuestAction`]s in bursts — a web guest answering one
//! disk completion queues dozens of `Send`s back to back — so the buffer
//! is built for reuse, not generality: one backing allocation made at
//! slot construction ([`ActionQueue::INLINE_CAPACITY`] entries) lives for
//! the slot's lifetime, and pushes in the steady state never touch the
//! allocator.
//!
//! The queue also performs the one rewrite that is provably invisible to
//! the slot executor: **consecutive `Compute` runs coalesce** into a
//! single entry. Two back-to-back `Compute { a }`, `Compute { b }` pin
//! the same completion point as one `Compute { a + b }` — the executor
//! pins `compute_end = pc + branches` when a compute reaches the front,
//! interrupt injections never unpin it, and compute completion emits no
//! output — so the merged queue walks an identical pc trajectory and
//! emits identical outputs while popping (and rescanning injection
//! candidates) once instead of twice. Coalescing is always on; the
//! golden report digests pin that it changes no report byte.
//!
//! One case must not merge: when the front entry is an **executing**
//! compute. Its completion point is already pinned, and the completion
//! pops the entry while ignoring its stored branch count — merging into
//! it would silently drop the added branches. The slot marks that state
//! via [`ActionQueue::pin_front`]; a push while the only entry is pinned
//! appends instead of merging.

use crate::guest::GuestAction;
use std::collections::VecDeque;

/// A reusable action buffer with same-kind `Compute` coalescing.
#[derive(Debug)]
pub struct ActionQueue {
    buf: VecDeque<GuestAction>,
    front_pinned: bool,
}

impl Default for ActionQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl ActionQueue {
    /// Backing capacity pre-allocated at construction. Sized for the
    /// largest common burst (a file server streaming a window of chunks)
    /// so steady-state pushes are allocation-free; larger bursts spill
    /// into ordinary `VecDeque` growth and the capacity is kept.
    pub const INLINE_CAPACITY: usize = 32;

    /// An empty queue with the backing buffer pre-allocated.
    pub fn new() -> Self {
        ActionQueue {
            buf: VecDeque::with_capacity(Self::INLINE_CAPACITY),
            front_pinned: false,
        }
    }

    /// Appends an action, merging consecutive `Compute` runs unless the
    /// merge target is an executing front.
    pub fn push(&mut self, action: GuestAction) {
        if let GuestAction::Compute { branches: add } = action {
            let back_is_executing = self.buf.len() == 1 && self.front_pinned;
            if !back_is_executing {
                if let Some(GuestAction::Compute { branches }) = self.buf.back_mut() {
                    *branches += add;
                    return;
                }
            }
        }
        self.buf.push_back(action);
    }

    /// The next action to execute.
    pub fn front(&self) -> Option<&GuestAction> {
        self.buf.front()
    }

    /// Removes and returns the front action, clearing any executing pin.
    pub fn pop_front(&mut self) -> Option<GuestAction> {
        self.front_pinned = false;
        self.buf.pop_front()
    }

    /// Marks the front entry as executing (its completion point is
    /// pinned): pushes must no longer coalesce into it.
    pub fn pin_front(&mut self) {
        self.front_pinned = true;
    }

    /// Queued actions not yet executed.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The `i`-th queued action (tests and introspection).
    pub fn get(&self, i: usize) -> Option<&GuestAction> {
        self.buf.get(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consecutive_computes_coalesce() {
        let mut q = ActionQueue::new();
        q.push(GuestAction::Compute { branches: 100 });
        q.push(GuestAction::Compute { branches: 50 });
        assert_eq!(q.len(), 1);
        assert!(matches!(
            q.front(),
            Some(GuestAction::Compute { branches: 150 })
        ));
    }

    #[test]
    fn non_adjacent_computes_stay_separate() {
        let mut q = ActionQueue::new();
        q.push(GuestAction::Compute { branches: 1 });
        q.push(GuestAction::Call { token: 7 });
        q.push(GuestAction::Compute { branches: 2 });
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn pinned_executing_front_is_never_merged_into() {
        let mut q = ActionQueue::new();
        q.push(GuestAction::Compute { branches: 100 });
        q.pin_front();
        // The executor has pinned compute_end = pc + 100; merging now
        // would lose the new branches when the completion pops the entry.
        q.push(GuestAction::Compute { branches: 50 });
        assert_eq!(q.len(), 2);
        // Behind a pinned front, later entries still coalesce.
        q.push(GuestAction::Compute { branches: 25 });
        assert_eq!(q.len(), 2);
        assert!(matches!(
            q.get(1),
            Some(GuestAction::Compute { branches: 75 })
        ));
        // Popping clears the pin.
        q.pop_front();
        q.push(GuestAction::Compute { branches: 5 });
        assert_eq!(q.len(), 1);
        assert!(matches!(
            q.front(),
            Some(GuestAction::Compute { branches: 80 })
        ));
    }

    #[test]
    fn steady_state_pushes_reuse_the_inline_allocation() {
        let mut q = ActionQueue::new();
        for round in 0..100 {
            for i in 0..ActionQueue::INLINE_CAPACITY {
                q.push(GuestAction::Call {
                    token: (round * 100 + i) as u64,
                });
            }
            while q.pop_front().is_some() {}
        }
        assert!(q.is_empty());
    }
}
