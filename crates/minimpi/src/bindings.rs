//! KaMPIng-style ergonomic bindings.
//!
//! KaMPIng's pitch: raw MPI forces manual buffer management and size
//! exchanges; ergonomic bindings can own allocation and metadata *without
//! measurable overhead*. [`Kamping`] wraps a [`Rank`] with owning,
//! variable-length-aware operations;
//! [`allreduce_overhead_ratio`](crate::allreduce_overhead_ratio) reproduces
//! the zero-overhead claim by timing raw vs wrapped collectives.

use crate::comm::{Datum, Rank, ReduceOp};

/// The ergonomic wrapper (named after the library it models).
pub struct Kamping<'a> {
    rank: &'a mut Rank,
}

impl<'a> Kamping<'a> {
    pub fn new(rank: &'a mut Rank) -> Kamping<'a> {
        Kamping { rank }
    }

    pub fn rank(&self) -> usize {
        self.rank.rank
    }

    pub fn size(&self) -> usize {
        self.rank.size
    }

    /// Allreduce with owned result — `comm.allreduce(send_buf(v), op(plus))`.
    pub fn allreduce_sum(&mut self, data: &[f64]) -> Vec<f64> {
        self.rank.allreduce_f64(data, ReduceOp::Sum)
    }

    /// Variable-length gather (`gatherv`): raw MPI requires a separate size
    /// exchange + displacement arithmetic; the binding owns all of it.
    /// Root receives `(flat data, per-rank counts)`; others get empties.
    pub fn gatherv<T: Datum>(&mut self, root: usize, data: &[T]) -> (Vec<T>, Vec<usize>) {
        // Size exchange.
        let counts: Vec<i64> = self.rank.gather(root, &[data.len() as i64]);
        let flat = self.rank.gather(root, data);
        if self.rank.rank == root {
            (flat, counts.into_iter().map(|c| c as usize).collect())
        } else {
            (Vec::new(), Vec::new())
        }
    }

    /// Variable-length alltoall (`alltoallv`) with owned result.
    pub fn alltoallv<T: Datum>(&mut self, chunks: &[Vec<T>]) -> Vec<Vec<T>> {
        self.rank.alltoall(chunks)
    }

    /// Broadcast with owned result; non-root ranks pass no buffer at all.
    pub fn bcast<T: Datum>(&mut self, root: usize, data: Option<&[T]>) -> Vec<T> {
        let buf = data.unwrap_or(&[]);
        self.rank.broadcast(root, buf)
    }

    /// The `vector<bool>` case from the KaMPIng artifacts: C++'s bit-packed
    /// vector needs special handling; here the binding packs bools into
    /// bytes for transport and unpacks on receipt.
    pub fn bcast_bools(&mut self, root: usize, data: Option<&[bool]>) -> Vec<bool> {
        let packed: Vec<u8> = match data {
            Some(bools) => {
                let mut bytes = vec![bools.len() as u8]; // small-demo length prefix
                let mut acc = 0u8;
                for (i, &b) in bools.iter().enumerate() {
                    if b {
                        acc |= 1 << (i % 8);
                    }
                    if i % 8 == 7 {
                        bytes.push(acc);
                        acc = 0;
                    }
                }
                if bools.len() % 8 != 0 {
                    bytes.push(acc);
                }
                bytes
            }
            None => Vec::new(),
        };
        let received = self.rank.broadcast(root, &packed);
        let n = received.first().copied().unwrap_or(0) as usize;
        (0..n)
            .map(|i| received[1 + i / 8] & (1 << (i % 8)) != 0)
            .collect()
    }

    pub fn barrier(&mut self) {
        self.rank.barrier();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::run_mpi;

    #[test]
    fn allreduce_matches_raw() {
        let results = run_mpi(4, |rank| {
            let data = vec![rank.rank as f64; 8];
            let raw = rank.allreduce_f64(&data, ReduceOp::Sum);
            let wrapped = Kamping::new(rank).allreduce_sum(&data);
            (raw, wrapped)
        });
        for (raw, wrapped) in results {
            assert_eq!(raw, wrapped);
            assert_eq!(raw, vec![6.0; 8]);
        }
    }

    #[test]
    fn gatherv_handles_ragged_sizes() {
        let results = run_mpi(3, |rank| {
            let data: Vec<i64> = (0..=rank.rank as i64).collect(); // sizes 1,2,3
            Kamping::new(rank).gatherv(0, &data)
        });
        let (flat, counts) = &results[0];
        assert_eq!(*counts, vec![1, 2, 3]);
        assert_eq!(*flat, vec![0, 0, 1, 0, 1, 2]);
        assert!(results[1].0.is_empty());
    }

    #[test]
    fn bcast_without_buffer_on_receivers() {
        let results = run_mpi(3, |rank| {
            let mut k = Kamping::new(rank);
            if k.rank() == 1 {
                k.bcast(1, Some(&[9i64, 8]))
            } else {
                k.bcast::<i64>(1, None)
            }
        });
        for r in results {
            assert_eq!(r, vec![9, 8]);
        }
    }

    #[test]
    fn bool_vector_roundtrip() {
        let pattern = vec![true, false, true, true, false, false, true, false, true, true];
        let expected = pattern.clone();
        let results = run_mpi(4, move |rank| {
            let mut k = Kamping::new(rank);
            if k.rank() == 0 {
                k.bcast_bools(0, Some(&pattern))
            } else {
                k.bcast_bools(0, None)
            }
        });
        for r in results {
            assert_eq!(r, expected);
        }
    }

    #[test]
    fn alltoallv_matches_raw() {
        let results = run_mpi(2, |rank| {
            let chunks: Vec<Vec<u32>> = vec![vec![rank.rank as u32], vec![rank.rank as u32 + 10]];
            Kamping::new(rank).alltoallv(&chunks)
        });
        assert_eq!(results[0], vec![vec![0], vec![1]]);
        assert_eq!(results[1], vec![vec![10], vec![11]]);
    }
}
