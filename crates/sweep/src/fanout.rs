//! The order-preserving fan-out every replica, fleet and sweep loop
//! shares: split the items into contiguous chunks, give each worker
//! one scratch state, and merge the outputs back in item order. Beside
//! it, the one reader of the size knobs that shape those loops.

use std::panic::resume_unwind;

/// The fan-out width: `NC_THREADS` when it is set to a positive
/// integer, else one worker per available core. A malformed value
/// warns on stderr and falls back to the core count.
pub fn workers() -> usize {
    let cores = || std::thread::available_parallelism().map_or(1, |n| n.get());
    match std::env::var("NC_THREADS") {
        Err(_) => cores(),
        Ok(s) => match s.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("NC_THREADS must be a positive integer; using one worker per core");
                cores()
            }
        },
    }
}

/// A size from the environment variable `name`, or `default` when it
/// is unset. A malformed value warns on stderr and falls back to
/// `default`. Zero is malformed too, except for a knob whose default is
/// zero (a count that is off unless set).
pub fn env_size(name: &str, default: usize) -> usize {
    parse_size(name, std::env::var(name).ok().as_deref(), default)
}

fn parse_size(name: &str, value: Option<&str>, default: usize) -> usize {
    let least = usize::from(default > 0);
    match value.map(|s| s.trim().parse::<usize>()) {
        None => default,
        Some(Ok(n)) if n >= least => n,
        Some(_) => {
            eprintln!("{name} must be an integer >= {least}; using {default}");
            default
        }
    }
}

/// Map `f` over `items` on `workers.clamp(1, items.len())` scoped
/// threads and return the outputs in item order, together with each
/// worker's state in chunk order.
///
/// Worker `w` takes the `w`-th of `workers` contiguous chunks (their
/// lengths differ by at most one), builds one state with `init`, and
/// threads it through `f` for each of its items in index order. At one
/// worker — including empty input — the map runs inline on the caller
/// and no thread is spawned. The outputs depend on the worker count
/// only through what `f` leaves in the state; a worker's panic is
/// re-raised on the caller.
pub fn stripe<T, S, O>(
    items: &[T],
    workers: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, &T) -> O + Sync,
) -> (Vec<O>, Vec<S>)
where
    T: Sync,
    S: Send,
    O: Send,
{
    let workers = workers.clamp(1, items.len().max(1));
    let run = |chunk: &[T]| {
        let mut state = init();
        let out: Vec<O> = chunk.iter().map(|t| f(&mut state, t)).collect();
        (out, state)
    };
    if workers == 1 {
        let (out, state) = run(items);
        return (out, vec![state]);
    }
    let (base, extra) = (items.len() / workers, items.len() % workers);
    let mut rest = items;
    let chunks = (0..workers).map(|w| {
        let (chunk, tail) = rest.split_at(base + usize::from(w < extra));
        rest = tail;
        chunk
    });
    let parts: Vec<(Vec<O>, S)> = std::thread::scope(|scope| {
        let run = &run;
        let handles: Vec<_> = chunks
            .map(|chunk| scope.spawn(move || run(chunk)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|panic| resume_unwind(panic)))
            .collect()
    });
    let mut outputs = Vec::with_capacity(items.len());
    let mut states = Vec::with_capacity(workers);
    for (out, state) in parts {
        outputs.extend(out);
        states.push(state);
    }
    (outputs, states)
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    use super::{parse_size, stripe};

    #[test]
    fn malformed_sizes_warn_and_fall_back() {
        assert_eq!(parse_size("N", None, 7), 7);
        assert_eq!(parse_size("N", Some(" 20 "), 7), 20);
        for bad in ["2O", "", "0", "-3", "1.5"] {
            assert_eq!(parse_size("N", Some(bad), 7), 7, "{bad:?}");
        }
        // A count that defaults to zero accepts zero, and only rejects
        // what does not parse.
        assert_eq!(parse_size("N", Some("0"), 0), 0);
        assert_eq!(parse_size("N", Some("3"), 0), 3);
        for bad in ["x", "-1", ""] {
            assert_eq!(parse_size("N", Some(bad), 0), 0, "{bad:?}");
        }
    }

    /// The determinism contract every caller relies on: outputs equal
    /// the serial map at any width, one `init` per worker used, each
    /// returned state covering one contiguous, balanced run of items in
    /// index order, and a worker's panic re-raised on the caller.
    #[test]
    fn stripe_is_the_serial_map_at_every_width() {
        let items: Vec<u64> = (0..10).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for workers in [1, 2, 3, items.len(), items.len() + 5] {
            let inits = AtomicUsize::new(0);
            let (out, states) = stripe(
                &items,
                workers,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    Vec::new()
                },
                |seen: &mut Vec<u64>, &x| {
                    seen.push(x);
                    x * x + 1
                },
            );
            assert_eq!(out, serial, "workers={workers}");
            let used = workers.min(items.len());
            assert_eq!(inits.into_inner(), used, "workers={workers}");
            assert_eq!(states.len(), used, "workers={workers}");
            assert_eq!(states.concat(), items, "workers={workers}");
            let lens: Vec<usize> = states.iter().map(Vec::len).collect();
            let (lo, hi) = (*lens.iter().min().unwrap(), *lens.iter().max().unwrap());
            assert!(lo >= 1 && hi - lo <= 1, "workers={workers}: {lens:?}");
        }

        // Empty input: nothing to map, one inline worker.
        let (out, states) = stripe(&[] as &[u64], 4, || 7u8, |_, &x| x);
        assert!(out.is_empty());
        assert_eq!(states, vec![7]);

        let panicked = catch_unwind(AssertUnwindSafe(|| {
            stripe(&items, 3, || (), |_, &x| assert!(x != 5, "item {x} is bad"))
        }))
        .expect_err("a worker panic must reach the caller");
        let msg = panicked.downcast_ref::<String>().map(String::as_str);
        assert_eq!(msg, Some("item 5 is bad"));
    }
}
