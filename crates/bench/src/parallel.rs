//! Order-preserving parallel map for the sweep harnesses.
//!
//! The fig10/fig11/failures/validate experiments run independent
//! simulations per `(seed, policy)` cell; each cell is deterministic, so
//! running them on a scoped worker pool changes nothing but wall-clock.
//! The pool has one worker per available core; `GTS_EVAL_THREADS=1` (the
//! sequential reference) makes every sweep serial again.

use gts_core::prelude::EvalParams;

/// Maps `f` over `items` on a scoped worker pool, returning results in
/// input order. Serial when `GTS_EVAL_THREADS=1` or there is at most one
/// item.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = if EvalParams::from_env().is_sequential() {
        1
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    };
    if threads <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let n = items.len();
    let n_workers = threads.min(n);
    // Bounded work queue: the producer runs inside the scope and stays at
    // most 2×workers ahead of the slowest worker, instead of materializing
    // every (index, item) pair up front before a single worker starts.
    let (tx_work, rx_work) = crossbeam::channel::bounded::<(usize, T)>(2 * n_workers);
    let (tx_out, rx_out) = crossbeam::channel::unbounded::<(usize, R)>();
    let f = &f;
    std::thread::scope(|scope| {
        for _ in 0..n_workers {
            let rx_work = rx_work.clone();
            let tx_out = tx_out.clone();
            scope.spawn(move || {
                while let Ok((i, item)) = rx_work.recv() {
                    if tx_out.send((i, f(item))).is_err() {
                        break;
                    }
                }
            });
        }
        // The producer must not hold a receiver: workers own the only
        // clones, so if every worker dies the blocked send unblocks with
        // an error instead of deadlocking.
        drop(rx_work);
        for pair in items.into_iter().enumerate() {
            if tx_work.send(pair).is_err() {
                break; // all workers gone; nothing left to feed
            }
        }
        drop(tx_work);
    });
    drop(tx_out);
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in rx_out.try_iter() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every item mapped"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let out = par_map((0..64).collect::<Vec<u64>>(), |x| x * x);
        assert_eq!(out, (0..64).map(|x| x * x).collect::<Vec<u64>>());
    }

    #[test]
    fn handles_empty_and_singleton() {
        assert_eq!(par_map(Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        assert_eq!(par_map(vec![7], |x| x + 1), vec![8]);
    }

    #[test]
    fn backpressure_keeps_order_on_large_inputs() {
        // Far more items than the 2×workers channel capacity, with uneven
        // per-item cost so workers finish out of order.
        let out = par_map((0..500).collect::<Vec<u64>>(), |x| {
            if x % 7 == 0 {
                std::thread::yield_now();
            }
            x.wrapping_mul(x) ^ 0xABCD
        });
        let want: Vec<u64> = (0..500).map(|x: u64| x.wrapping_mul(x) ^ 0xABCD).collect();
        assert_eq!(out, want);
    }
}
