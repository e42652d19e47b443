//! The scheduler's waiting queue (Algorithm 1).
//!
//! "To avoid starvation and enforce fairness as much as possible, the job
//! waiting queue is sorted by the job's arrival time. Thus, the oldest jobs
//! have priority to be placed." Postponed jobs (TOPO-AWARE-P) are parked in
//! a side list and re-queued at the end of each scheduler iteration.

use crate::spec::{JobId, JobSpec};
use std::collections::VecDeque;

/// Arrival-ordered waiting queue with a postponement side list.
#[derive(Debug, Clone, Default)]
pub struct WaitQueue {
    queue: VecDeque<JobSpec>,
    postponed: Vec<JobSpec>,
}

impl WaitQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a job keeping the queue sorted by `(arrival_s, id)` —
    /// stable FIFO for simultaneous arrivals.
    ///
    /// O(1) for the two common shapes: a blocked head put back by the
    /// scheduler (sorts before the current head) and an in-order arrival
    /// (sorts at or after the tail). Anything else binary-searches the
    /// sorted queue.
    // `#[inline]`: the scheduler's drain loop puts its blocked head back on
    // every retry, and a cross-crate call for that O(1) path measurably
    // slows the retry.
    #[inline]
    pub fn add(&mut self, job: JobSpec) {
        let key = (job.arrival_s, job.id);
        let after = |j: &JobSpec| (j.arrival_s, j.id) > key;
        let len = self.queue.len();
        let pos = if self.queue.front().is_some_and(after) {
            0
        } else if self.queue.back().is_some_and(after) {
            self.queue.partition_point(|j| !after(j))
        } else {
            len
        };
        debug_assert_eq!(
            pos,
            self.queue.iter().position(after).unwrap_or(len),
            "insertion point disagrees with the linear scan"
        );
        // `VecDeque::insert` shifts the shorter side, so both ends are O(1).
        self.queue.insert(pos, job);
    }

    /// Pops the oldest job (`Q.pop()` in Algorithm 1).
    pub fn pop(&mut self) -> Option<JobSpec> {
        self.queue.pop_front()
    }

    /// Parks a job whose placement utility fell below threshold
    /// (`postponed_list.add(A)`).
    pub fn postpone(&mut self, job: JobSpec) {
        self.postponed.push(job);
    }

    /// End-of-iteration re-queue (`Q.add(postponed_list)`): postponed jobs
    /// return in arrival order for the next wake-up.
    pub fn requeue_postponed(&mut self) {
        let postponed = std::mem::take(&mut self.postponed);
        for job in postponed {
            self.add(job);
        }
    }

    /// Number of jobs currently waiting (excluding postponed).
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when no job is waiting (postponed jobs not counted — they only
    /// come back at the end of an iteration).
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Number of jobs parked in the postponement list.
    pub fn postponed_len(&self) -> usize {
        self.postponed.len()
    }

    /// True when neither queue nor postponed list hold any job.
    pub fn fully_drained(&self) -> bool {
        self.queue.is_empty() && self.postponed.is_empty()
    }

    /// Peeks at the next job without removing it.
    pub fn peek(&self) -> Option<&JobSpec> {
        self.queue.front()
    }

    /// Whether a job id is anywhere in the queue or postponed list.
    pub fn contains(&self, id: JobId) -> bool {
        self.queue.iter().any(|j| j.id == id) || self.postponed.iter().any(|j| j.id == id)
    }

    /// Removes a job from wherever it waits (queue or postponed list).
    /// Returns the removed spec, if any — the cancellation path.
    pub fn remove(&mut self, id: JobId) -> Option<JobSpec> {
        if let Some(pos) = self.queue.iter().position(|j| j.id == id) {
            return self.queue.remove(pos);
        }
        if let Some(pos) = self.postponed.iter().position(|j| j.id == id) {
            return Some(self.postponed.remove(pos));
        }
        None
    }

    /// Iterates over waiting jobs in priority order.
    pub fn iter(&self) -> impl Iterator<Item = &JobSpec> {
        self.queue.iter()
    }

    /// Iterates over jobs parked in the postponement side list, in
    /// postponement order. Auditors use this to check the two lists stay
    /// disjoint from each other and from the running set.
    pub fn postponed_iter(&self) -> impl Iterator<Item = &JobSpec> {
        self.postponed.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchClass;
    use crate::model::NnModel;

    fn job(id: u64, arrival: f64) -> JobSpec {
        JobSpec::new(id, NnModel::AlexNet, BatchClass::Tiny, 1).arriving_at(arrival)
    }

    #[test]
    fn pops_in_arrival_order_regardless_of_insertion_order() {
        let mut q = WaitQueue::new();
        q.add(job(2, 30.0));
        q.add(job(0, 10.0));
        q.add(job(1, 20.0));
        assert_eq!(q.pop().unwrap().id, JobId(0));
        assert_eq!(q.pop().unwrap().id, JobId(1));
        assert_eq!(q.pop().unwrap().id, JobId(2));
        assert!(q.pop().is_none());
    }

    #[test]
    fn simultaneous_arrivals_are_fifo_by_id() {
        let mut q = WaitQueue::new();
        q.add(job(5, 10.0));
        q.add(job(3, 10.0));
        assert_eq!(q.pop().unwrap().id, JobId(3));
        assert_eq!(q.pop().unwrap().id, JobId(5));
    }

    #[test]
    fn postponed_jobs_return_at_end_of_iteration() {
        let mut q = WaitQueue::new();
        q.add(job(0, 1.0));
        q.add(job(1, 2.0));
        let j0 = q.pop().unwrap();
        q.postpone(j0);
        assert_eq!(q.len(), 1);
        assert_eq!(q.postponed_len(), 1);
        assert!(!q.fully_drained());

        q.requeue_postponed();
        assert_eq!(q.postponed_len(), 0);
        // Back in arrival order: J0 first again.
        assert_eq!(q.pop().unwrap().id, JobId(0));
        assert_eq!(q.pop().unwrap().id, JobId(1));
        assert!(q.fully_drained());
    }

    #[test]
    fn contains_searches_both_lists() {
        let mut q = WaitQueue::new();
        q.add(job(0, 1.0));
        let j = q.pop().unwrap();
        assert!(!q.contains(JobId(0)));
        q.postpone(j);
        assert!(q.contains(JobId(0)));
    }

    #[test]
    fn remove_pulls_from_either_list() {
        let mut q = WaitQueue::new();
        q.add(job(0, 1.0));
        q.add(job(1, 2.0));
        q.postpone(job(2, 3.0));

        assert_eq!(q.remove(JobId(0)).unwrap().id, JobId(0));
        assert_eq!(q.remove(JobId(2)).unwrap().id, JobId(2));
        assert!(q.remove(JobId(9)).is_none());
        assert_eq!(q.len(), 1);
        assert_eq!(q.postponed_len(), 0);
        assert_eq!(q.pop().unwrap().id, JobId(1));
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = WaitQueue::new();
        q.add(job(0, 1.0));
        assert_eq!(q.peek().unwrap().id, JobId(0));
        assert_eq!(q.len(), 1);
    }

    /// The queue as a plain sorted vector with the original linear-scan
    /// insert: the oracle for `WaitQueue::add`'s fast paths.
    #[derive(Default)]
    struct Model {
        queue: Vec<(f64, JobId)>,
        postponed: Vec<(f64, JobId)>,
    }

    impl Model {
        fn add(&mut self, key: (f64, JobId)) {
            let pos = self.queue.iter().position(|&k| k > key).unwrap_or(self.queue.len());
            self.queue.insert(pos, key);
        }

        fn pop(&mut self) -> Option<(f64, JobId)> {
            (!self.queue.is_empty()).then(|| self.queue.remove(0))
        }
    }

    fn key(j: &JobSpec) -> (f64, JobId) {
        (j.arrival_s, j.id)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(200))]

        /// Random add / pop / put-back / postpone / requeue sequences with
        /// repeated arrival times and out-of-order adds: after every step
        /// the queue and the postponed list match the linear-scan model.
        #[test]
        fn queue_order_matches_linear_scan_model(
            ops in proptest::prop::collection::vec((0u32..6, 0u32..6, 0u64..16), 1..120)
        ) {
            let mut q = WaitQueue::new();
            let mut model = Model::default();
            for (op, slot, id) in ops {
                match op {
                    // Arrivals: few distinct times, so ties are common, and
                    // ids from a small range, so equal keys occur too.
                    0 | 1 => {
                        let j = job(id, f64::from(slot) * 0.5);
                        model.add(key(&j));
                        q.add(j);
                    }
                    2 => proptest::prop_assert_eq!(q.pop().as_ref().map(key), model.pop()),
                    // A blocked head goes back (in-order policies).
                    3 => {
                        if let Some(j) = q.pop() {
                            let k = model.pop().expect("model has a head too");
                            model.add(k);
                            q.add(j);
                        }
                    }
                    4 => {
                        if let Some(j) = q.pop() {
                            let k = model.pop().expect("model has a head too");
                            model.postponed.push(k);
                            q.postpone(j);
                        }
                    }
                    _ => {
                        for k in std::mem::take(&mut model.postponed) {
                            model.add(k);
                        }
                        q.requeue_postponed();
                    }
                }
                let queued: Vec<_> = q.iter().map(key).collect();
                proptest::prop_assert_eq!(&queued, &model.queue);
                let postponed: Vec<_> = q.postponed_iter().map(key).collect();
                proptest::prop_assert_eq!(&postponed, &model.postponed);
            }
        }
    }
}
