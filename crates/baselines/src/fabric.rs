//! The deterministic periodic connection patterns shared by every
//! load-balanced switch in this workspace (Fig. 1 of the paper).
//!
//! Both take the fabric phase `t == slot mod N` already reduced: the kernel
//! rotates `t` across a batch instead of recomputing a `u64` modulo once
//! per port per slot.
//!
//! * First fabric: in phase `t`, input `i` is connected to intermediate port
//!   `(i + t) mod N` (the "increasing" sequence).
//! * Second fabric: in phase `t`, intermediate port `ℓ` is connected to
//!   output `(ℓ − t) mod N` (the "decreasing" sequence), so output `j`
//!   receives from intermediate port `(j + t) mod N`.

/// Intermediate port connected to `input` in phase `t` by the first fabric.
// lint: hot-path
#[inline]
pub(crate) fn first_fabric_at(input: usize, t: usize, n: usize) -> usize {
    debug_assert!(t < n);
    let l = input + t;
    if l >= n {
        l - n
    } else {
        l
    }
}

/// Output port connected to `intermediate` in phase `t` by the second fabric.
// lint: hot-path
#[inline]
pub(crate) fn second_fabric_output_at(intermediate: usize, t: usize, n: usize) -> usize {
    debug_assert!(t < n);
    let j = intermediate + n - t;
    if j >= n {
        j - n
    } else {
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fabrics_are_permutations_every_slot() {
        for n in [5usize, 8] {
            for t in 0..n {
                let mut seen_mid = vec![false; n];
                let mut seen_out = vec![false; n];
                for i in 0..n {
                    let l = first_fabric_at(i, t, n);
                    assert!(!seen_mid[l]);
                    seen_mid[l] = true;
                    let j = second_fabric_output_at(i, t, n);
                    assert!(!seen_out[j]);
                    seen_out[j] = true;
                }
            }
        }
    }

    /// Output `j` receives from intermediate `(j + t) mod N` — the first
    /// fabric's pattern read from the output side.
    #[test]
    fn fabrics_are_consistent_with_each_other() {
        for n in [5usize, 16] {
            for t in 0..n {
                for j in 0..n {
                    let l = first_fabric_at(j, t, n);
                    assert_eq!(second_fabric_output_at(l, t, n), j);
                }
            }
        }
    }

    #[test]
    fn every_input_reaches_every_intermediate_once_per_frame() {
        let n = 8;
        for i in 0..n {
            let mut seen = vec![false; n];
            for t in 0..n {
                seen[first_fabric_at(i, t, n)] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    /// Frame-aligned schemes start a frame in the phase that connects the
    /// input to intermediate port 0: `(N − i) mod N`, once per frame.
    #[test]
    fn frame_start_offset_connects_to_port_zero() {
        for n in [5usize, 8] {
            for i in 0..n {
                let starts: Vec<usize> =
                    (0..n).filter(|&t| first_fabric_at(i, t, n) == 0).collect();
                assert_eq!(starts, vec![(n - i) % n], "input {i}");
            }
        }
    }

    /// Each output sweeps the intermediate ports in increasing order, one
    /// per slot, wrapping from phase `N − 1` back to phase 0.
    #[test]
    fn output_sweep_visits_ports_in_increasing_order() {
        for n in [5usize, 8] {
            let feeder = |j: usize, t: usize| {
                (0..n)
                    .find(|&l| second_fabric_output_at(l, t, n) == j)
                    .unwrap()
            };
            for j in 0..n {
                for t in 0..n {
                    assert_eq!((feeder(j, t) + 1) % n, feeder(j, (t + 1) % n));
                }
            }
        }
    }
}
