//! Property test: `chains_on_chains` is an *exact* contiguous-partition
//! bottleneck minimizer, checked against brute-force dynamic programming on
//! small random weight vectors.

use amped::partition::ccp::max_load;
use amped::partition::chains_on_chains;
use proptest::prelude::*;

/// Optimal contiguous max-load by DP: `opt[k][i]` = minimal bottleneck
/// splitting the first `i` weights into `k` contiguous (possibly empty)
/// parts.
#[allow(clippy::needless_range_loop)] // index loops are the clearest DP form
fn brute_force_optimal_load(weights: &[u64], m: usize) -> u64 {
    let n = weights.len();
    let mut prefix = vec![0u64; n + 1];
    for (i, &w) in weights.iter().enumerate() {
        prefix[i + 1] = prefix[i] + w;
    }
    let sum = |a: usize, b: usize| prefix[b] - prefix[a];
    // k = 1: one part takes everything up to i.
    let mut opt: Vec<u64> = (0..=n).map(|i| sum(0, i)).collect();
    for _k in 2..=m {
        let mut next = vec![u64::MAX; n + 1];
        for i in 0..=n {
            for j in 0..=i {
                next[i] = next[i].min(opt[j].max(sum(j, i)));
            }
        }
        opt = next;
    }
    opt[n]
}

#[test]
fn known_instances_match_brute_force() {
    for (w, m) in [
        (vec![2u64, 3, 4, 5, 6], 2usize),
        (vec![10, 1, 1, 1, 1, 1, 10], 3),
        (vec![0, 0, 7, 0, 0], 4),
        (vec![5], 3),
    ] {
        let r = chains_on_chains(&w, m);
        assert_eq!(
            max_load(&w, &r),
            brute_force_optimal_load(&w, m),
            "weights {w:?}, m={m}"
        );
    }
}

proptest! {
    /// CCP must achieve exactly the brute-force-optimal bottleneck.
    #[test]
    fn prop_ccp_matches_brute_force_optimum(
        w in proptest::collection::vec(0u64..40, 1..14),
        m in 1usize..5,
    ) {
        let ranges = chains_on_chains(&w, m);
        let achieved = max_load(&w, &ranges);
        let optimal = brute_force_optimal_load(&w, m);
        prop_assert_eq!(achieved, optimal, "weights {:?}, m={}", w, m);
    }
}
