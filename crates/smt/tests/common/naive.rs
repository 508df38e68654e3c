//! Brute-force reference procedures used as oracles in differential tests.
//!
//! Exponential in every dimension — only ever call these on tiny inputs.

use smt::{Model, TermId, TermPool};

/// Decide a conjunction of Boolean terms by enumerating all integer-variable
/// assignments in `[-bound, bound]` and all Boolean assignments. Returns a
/// witness model if satisfiable.
///
/// Sound and complete only if some model lies within the bound; for
/// difference logic a solution within `[-(n*maxc), n*maxc]` always exists
/// when one exists at all, so pick the bound accordingly.
pub fn brute_force_check(pool: &TermPool, asserted: &[TermId], bound: i64) -> Option<Model> {
    let n_int = pool.num_int_vars();
    let n_bool = pool.num_bool_vars();
    assert!(n_int <= 6, "too many int vars for brute force");
    assert!(n_bool <= 6, "too many bool vars for brute force");
    let width = (2 * bound + 1) as usize;

    let mut int_idx = vec![0usize; n_int];
    loop {
        let ints: Vec<i64> = int_idx.iter().map(|&i| i as i64 - bound).collect();
        for bool_bits in 0..(1u32 << n_bool) {
            let bools: Vec<bool> = (0..n_bool).map(|i| bool_bits >> i & 1 == 1).collect();
            let m = Model {
                ints: ints.clone(),
                bools,
            };
            if asserted.iter().all(|&t| m.eval_bool(pool, t) == Some(true)) {
                return Some(m);
            }
        }
        // Odometer increment.
        let mut k = 0;
        loop {
            if k == n_int {
                return None;
            }
            int_idx[k] += 1;
            if int_idx[k] < width {
                break;
            }
            int_idx[k] = 0;
            k += 1;
        }
    }
}

/// Floyd–Warshall feasibility for a difference-constraint conjunction given
/// as `(x, y, c)` triples meaning `x - y <= c` over `n` variables.
pub fn difference_feasible(n: usize, constraints: &[(u32, u32, i64)]) -> bool {
    let inf = i64::MAX / 4;
    let mut d = vec![vec![inf; n]; n];
    for (i, row) in d.iter_mut().enumerate() {
        row[i] = 0;
    }
    for &(x, y, c) in constraints {
        // x - y <= c: edge y -> x with weight c.
        let (x, y) = (x as usize, y as usize);
        if c < d[y][x] {
            d[y][x] = c;
        }
    }
    for mid in 0..n {
        for a in 0..n {
            for b in 0..n {
                let via = d[a][mid].saturating_add(d[mid][b]);
                if via < d[a][b] {
                    d[a][b] = via;
                }
            }
        }
    }
    (0..n).all(|i| d[i][i] >= 0)
}
