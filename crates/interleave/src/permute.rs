//! Lazy lexicographic permutation enumeration.

/// Iterates over all permutations of `0..n` in lexicographic order.
///
/// This is the order a depth-first tree exploration visits interleavings in
/// (paper §6.3: "DFS treats the interleavings as a tree that starts at an
/// empty root node and recursively explores each event"): the identity
/// permutation first, then backtrack-and-expand.
///
/// The iterator is lazy — `21!` permutations exist for the Roshi-3 workload,
/// but callers only ever draw a bounded prefix.
///
/// ```
/// use er_pi_interleave::Permutations;
///
/// let perms: Vec<Vec<usize>> = Permutations::new(3).collect();
/// assert_eq!(perms.len(), 6);
/// assert_eq!(perms[0], vec![0, 1, 2]);
/// assert_eq!(perms[5], vec![2, 1, 0]);
/// ```
#[derive(Debug, Clone)]
pub struct Permutations {
    current: Vec<usize>,
    /// `None` before the first call, `Some(false)` once exhausted.
    state: PermState,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PermState {
    Fresh,
    Running,
    Done,
}

impl Permutations {
    /// Creates the enumeration for `n` items.
    pub fn new(n: usize) -> Self {
        Permutations {
            current: (0..n).collect(),
            state: PermState::Fresh,
        }
    }

    /// Advances `self.current` to the next lexicographic permutation.
    /// Returns `false` when the enumeration wraps (exhausted).
    fn advance(&mut self) -> bool {
        let v = &mut self.current;
        if v.len() < 2 {
            return false;
        }
        // Standard next-permutation: find the longest non-increasing suffix.
        let mut i = v.len() - 1;
        while i > 0 && v[i - 1] >= v[i] {
            i -= 1;
        }
        if i == 0 {
            return false;
        }
        // Find rightmost element greater than the pivot.
        let mut j = v.len() - 1;
        while v[j] <= v[i - 1] {
            j -= 1;
        }
        v.swap(i - 1, j);
        v[i..].reverse();
        true
    }

    /// Advances to the next permutation and lends it out: [`Iterator::next`]
    /// without the copy, for callers that map the indices to something else
    /// straight away (the explorers do, once per interleaving).
    ///
    /// ```
    /// use er_pi_interleave::Permutations;
    ///
    /// let mut perms = Permutations::new(2);
    /// assert_eq!(perms.step(), Some(&[0, 1][..]));
    /// assert_eq!(perms.step(), Some(&[1, 0][..]));
    /// assert_eq!(perms.step(), None);
    /// ```
    pub fn step(&mut self) -> Option<&[usize]> {
        match self.state {
            PermState::Fresh => {
                // The empty permutation exists exactly once.
                self.state = match self.current.is_empty() {
                    true => PermState::Done,
                    false => PermState::Running,
                };
                Some(&self.current)
            }
            PermState::Running => {
                if self.advance() {
                    Some(&self.current)
                } else {
                    self.state = PermState::Done;
                    None
                }
            }
            PermState::Done => None,
        }
    }
}

impl Iterator for Permutations {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        self.step().map(<[usize]>::to_vec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_pi_model::factorial;

    #[test]
    fn counts_match_factorial() {
        for n in 0..7 {
            assert_eq!(
                Permutations::new(n).count() as u128,
                factorial(n),
                "n = {n}"
            );
        }
    }

    #[test]
    fn order_is_lexicographic_and_unique() {
        let perms: Vec<Vec<usize>> = Permutations::new(4).collect();
        for pair in perms.windows(2) {
            assert!(pair[0] < pair[1], "not strictly increasing: {pair:?}");
        }
    }

    #[test]
    fn first_is_identity() {
        assert_eq!(Permutations::new(5).next().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn single_item() {
        let perms: Vec<Vec<usize>> = Permutations::new(1).collect();
        assert_eq!(perms, vec![vec![0]]);
    }

    #[test]
    fn empty_domain_yields_one_empty_permutation() {
        let perms: Vec<Vec<usize>> = Permutations::new(0).collect();
        assert_eq!(perms, vec![Vec::<usize>::new()]);
    }

    #[test]
    fn the_borrowing_step_lends_what_next_would_copy() {
        for n in 0..6 {
            let mut lent = Permutations::new(n);
            for owned in Permutations::new(n) {
                assert_eq!(lent.step(), Some(owned.as_slice()), "n = {n}");
            }
            assert_eq!(lent.step(), None, "n = {n}");
            assert_eq!(lent.step(), None, "exhausted stays exhausted");
        }
    }

    #[test]
    fn lazy_prefix_of_large_space() {
        // 20! is astronomically large; drawing a prefix must be instant.
        let prefix: Vec<Vec<usize>> = Permutations::new(20).take(1000).collect();
        assert_eq!(prefix.len(), 1000);
        assert_eq!(prefix[0][0], 0);
    }
}
