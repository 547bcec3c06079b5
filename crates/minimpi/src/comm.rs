//! The message-passing runtime: ranks are threads, messages are bytes.

use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, Sender};

/// Plain-old-data element types that can cross rank boundaries.
pub trait Datum: Copy + Send + 'static {
    fn write(&self, out: &mut Vec<u8>);
    fn read(bytes: &[u8]) -> (Self, usize);
    const SIZE: usize;
}

macro_rules! impl_datum {
    ($t:ty, $n:expr) => {
        impl Datum for $t {
            fn write(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn read(bytes: &[u8]) -> (Self, usize) {
                let mut buf = [0u8; $n];
                buf.copy_from_slice(&bytes[..$n]);
                (<$t>::from_le_bytes(buf), $n)
            }
            const SIZE: usize = $n;
        }
    };
}

impl_datum!(u8, 1);
impl_datum!(i32, 4);
impl_datum!(u32, 4);
impl_datum!(i64, 8);
impl_datum!(u64, 8);
impl_datum!(f64, 8);

fn encode<T: Datum>(data: &[T]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() * T::SIZE);
    for d in data {
        d.write(&mut out);
    }
    out
}

fn decode<T: Datum>(bytes: &[u8]) -> Vec<T> {
    let mut out = Vec::with_capacity(bytes.len() / T::SIZE);
    let mut ix = 0;
    while ix < bytes.len() {
        let (v, n) = T::read(&bytes[ix..]);
        out.push(v);
        ix += n;
    }
    out
}

/// Reduction operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    Sum,
    Min,
    Max,
}

impl ReduceOp {
    fn combine_f64(&self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }

    fn combine_i64(&self, a: i64, b: i64) -> i64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }
}

type Packet = (usize, u32, Vec<u8>); // (source, tag, payload)

/// One rank's endpoint into the communicator.
pub struct Rank {
    pub rank: usize,
    pub size: usize,
    senders: Vec<Sender<Packet>>,
    rx: Receiver<Packet>,
    /// Received packets that did not match a pending recv.
    unexpected: VecDeque<Packet>,
}

impl Rank {
    /// Send `data` to `dst` with `tag`. Non-blocking (buffered channels).
    pub fn send<T: Datum>(&self, dst: usize, tag: u32, data: &[T]) {
        assert!(dst < self.size, "rank {dst} out of range");
        self.senders[dst]
            .send((self.rank, tag, encode(data)))
            .expect("receiver thread alive for the communicator's lifetime");
    }

    /// Blocking receive of a message from `src` with `tag`.
    pub fn recv<T: Datum>(&mut self, src: usize, tag: u32) -> Vec<T> {
        // Check the unexpected queue first.
        if let Some(pos) = self
            .unexpected
            .iter()
            .position(|(s, t, _)| *s == src && *t == tag)
        {
            let (_, _, payload) = self.unexpected.remove(pos).expect("index valid");
            return decode(&payload);
        }
        loop {
            let packet = self.rx.recv().expect("senders alive");
            if packet.0 == src && packet.1 == tag {
                return decode(&packet.2);
            }
            self.unexpected.push_back(packet);
        }
    }

    /// Barrier: gather-to-0 then broadcast.
    pub fn barrier(&mut self) {
        const TAG: u32 = u32::MAX - 1;
        if self.rank == 0 {
            for src in 1..self.size {
                let _: Vec<u8> = self.recv(src, TAG);
            }
            for dst in 1..self.size {
                self.send::<u8>(dst, TAG, &[1]);
            }
        } else {
            self.send::<u8>(0, TAG, &[1]);
            let _: Vec<u8> = self.recv(0, TAG);
        }
    }

    /// Broadcast `data` from `root`; every rank returns the root's data.
    pub fn broadcast<T: Datum>(&mut self, root: usize, data: &[T]) -> Vec<T> {
        const TAG: u32 = u32::MAX - 2;
        if self.rank == root {
            for dst in 0..self.size {
                if dst != root {
                    self.send(dst, TAG, data);
                }
            }
            data.to_vec()
        } else {
            self.recv(root, TAG)
        }
    }

    /// Gather every rank's buffer at `root` (concatenated by rank order);
    /// non-root ranks return an empty Vec.
    pub fn gather<T: Datum>(&mut self, root: usize, data: &[T]) -> Vec<T> {
        const TAG: u32 = u32::MAX - 3;
        if self.rank == root {
            let mut out = Vec::new();
            for src in 0..self.size {
                if src == root {
                    out.extend_from_slice(data);
                } else {
                    out.extend(self.recv::<T>(src, TAG));
                }
            }
            out
        } else {
            self.send(root, TAG, data);
            Vec::new()
        }
    }

    /// Allgather: gather at 0, broadcast the concatenation.
    pub fn allgather<T: Datum>(&mut self, data: &[T]) -> Vec<T> {
        let gathered = self.gather(0, data);
        self.broadcast(0, &gathered)
    }

    /// Alltoall: `chunks[i]` goes to rank `i`; returns the chunks received,
    /// ordered by source rank.
    pub fn alltoall<T: Datum>(&mut self, chunks: &[Vec<T>]) -> Vec<Vec<T>> {
        const TAG: u32 = u32::MAX - 4;
        assert_eq!(chunks.len(), self.size, "one chunk per destination");
        for (dst, chunk) in chunks.iter().enumerate() {
            if dst != self.rank {
                self.send(dst, TAG, chunk);
            }
        }
        (0..self.size)
            .map(|src| {
                if src == self.rank {
                    chunks[self.rank].clone()
                } else {
                    self.recv(src, TAG)
                }
            })
            .collect()
    }

    /// Element-wise reduce of f64 buffers to `root`.
    pub fn reduce_f64(&mut self, root: usize, data: &[f64], op: ReduceOp) -> Vec<f64> {
        const TAG: u32 = u32::MAX - 5;
        if self.rank == root {
            let mut acc = data.to_vec();
            for src in 0..self.size {
                if src == root {
                    continue;
                }
                let contrib: Vec<f64> = self.recv(src, TAG);
                assert_eq!(contrib.len(), acc.len(), "reduce buffers must match");
                for (a, c) in acc.iter_mut().zip(contrib) {
                    *a = op.combine_f64(*a, c);
                }
            }
            acc
        } else {
            self.send(root, TAG, data);
            Vec::new()
        }
    }

    /// Element-wise allreduce of f64 buffers.
    pub fn allreduce_f64(&mut self, data: &[f64], op: ReduceOp) -> Vec<f64> {
        let reduced = self.reduce_f64(0, data, op);
        self.broadcast(0, &reduced)
    }

    /// Element-wise reduce of i64 buffers to `root`.
    pub fn reduce_i64(&mut self, root: usize, data: &[i64], op: ReduceOp) -> Vec<i64> {
        const TAG: u32 = u32::MAX - 6;
        if self.rank == root {
            let mut acc = data.to_vec();
            for src in 0..self.size {
                if src == root {
                    continue;
                }
                let contrib: Vec<i64> = self.recv(src, TAG);
                assert_eq!(contrib.len(), acc.len(), "reduce buffers must match");
                for (a, c) in acc.iter_mut().zip(contrib) {
                    *a = op.combine_i64(*a, c);
                }
            }
            acc
        } else {
            self.send(root, TAG, data);
            Vec::new()
        }
    }

    /// Element-wise allreduce of i64 buffers.
    pub fn allreduce_i64(&mut self, data: &[i64], op: ReduceOp) -> Vec<i64> {
        let reduced = self.reduce_i64(0, data, op);
        self.broadcast(0, &reduced)
    }
}

/// Launch `size` ranks, run `f` on each in its own thread, and return each
/// rank's result ordered by rank. Panics in any rank propagate.
pub fn run_mpi<R, F>(size: usize, f: F) -> Vec<R>
where
    R: Send + 'static,
    F: Fn(&mut Rank) -> R + Send + Sync,
{
    assert!(size > 0, "need at least one rank");
    let mut senders = Vec::with_capacity(size);
    let mut receivers = Vec::with_capacity(size);
    for _ in 0..size {
        let (tx, rx) = channel::<Packet>();
        senders.push(tx);
        receivers.push(rx);
    }
    let mut results: Vec<Option<R>> = (0..size).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (rank_ix, rx) in receivers.into_iter().enumerate() {
            let senders = senders.clone();
            let f = &f;
            handles.push(scope.spawn(move || {
                let mut rank = Rank {
                    rank: rank_ix,
                    size,
                    senders,
                    rx,
                    unexpected: VecDeque::new(),
                };
                f(&mut rank)
            }));
        }
        for (ix, h) in handles.into_iter().enumerate() {
            results[ix] = Some(h.join().expect("rank thread panicked"));
        }
    });
    results.into_iter().map(|r| r.expect("joined")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_to_point_roundtrip() {
        let results = run_mpi(2, |rank| {
            if rank.rank == 0 {
                rank.send(1, 7, &[1.0f64, 2.0, 3.0]);
                rank.recv::<f64>(1, 8)
            } else {
                let got: Vec<f64> = rank.recv(0, 7);
                let doubled: Vec<f64> = got.iter().map(|x| x * 2.0).collect();
                rank.send(0, 8, &doubled);
                got
            }
        });
        assert_eq!(results[0], vec![2.0, 4.0, 6.0]);
        assert_eq!(results[1], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn tag_matching_with_out_of_order_delivery() {
        let results = run_mpi(2, |rank| {
            if rank.rank == 0 {
                rank.send(1, 1, &[10i64]);
                rank.send(1, 2, &[20i64]);
                Vec::new()
            } else {
                // Receive in reverse tag order: tag-2 first.
                let b: Vec<i64> = rank.recv(0, 2);
                let a: Vec<i64> = rank.recv(0, 1);
                vec![b[0], a[0]]
            }
        });
        assert_eq!(results[1], vec![20, 10]);
    }

    #[test]
    fn broadcast_reaches_all() {
        let results = run_mpi(4, |rank| {
            let data = if rank.rank == 2 { vec![42i64, 43] } else { vec![] };
            rank.broadcast(2, &data)
        });
        for r in results {
            assert_eq!(r, vec![42, 43]);
        }
    }

    #[test]
    fn gather_concatenates_by_rank() {
        let results = run_mpi(3, |rank| rank.gather(0, &[rank.rank as i64, -1]));
        assert_eq!(results[0], vec![0, -1, 1, -1, 2, -1]);
        assert!(results[1].is_empty());
    }

    #[test]
    fn allgather_everywhere() {
        let results = run_mpi(3, |rank| rank.allgather(&[rank.rank as u32]));
        for r in results {
            assert_eq!(r, vec![0, 1, 2]);
        }
    }

    #[test]
    fn alltoall_permutes() {
        let results = run_mpi(3, |rank| {
            let chunks: Vec<Vec<i64>> = (0..3)
                .map(|dst| vec![(rank.rank * 10 + dst) as i64])
                .collect();
            rank.alltoall(&chunks)
        });
        // Rank r receives chunk [s*10 + r] from each source s.
        for (r, got) in results.iter().enumerate() {
            let expect: Vec<Vec<i64>> = (0..3).map(|s| vec![(s * 10 + r) as i64]).collect();
            assert_eq!(*got, expect);
        }
    }

    #[test]
    fn allreduce_sum_min_max() {
        let sums = run_mpi(4, |rank| {
            rank.allreduce_f64(&[rank.rank as f64, 1.0], ReduceOp::Sum)
        });
        for s in sums {
            assert_eq!(s, vec![6.0, 4.0]);
        }
        let mins = run_mpi(4, |rank| rank.allreduce_i64(&[rank.rank as i64], ReduceOp::Min));
        let maxs = run_mpi(4, |rank| rank.allreduce_i64(&[rank.rank as i64], ReduceOp::Max));
        assert!(mins.iter().all(|v| v == &vec![0]));
        assert!(maxs.iter().all(|v| v == &vec![3]));
    }

    #[test]
    fn barrier_synchronizes() {
        // All ranks increment a shared counter before the barrier; after the
        // barrier every rank must observe the full count.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        let observed = run_mpi(6, |rank| {
            counter.fetch_add(1, Ordering::SeqCst);
            rank.barrier();
            counter.load(Ordering::SeqCst)
        });
        assert!(observed.iter().all(|&o| o == 6), "{observed:?}");
    }

    #[test]
    fn single_rank_degenerates_gracefully() {
        let results = run_mpi(1, |rank| {
            rank.barrier();
            let b = rank.broadcast(0, &[5i64]);
            let g = rank.allgather(&[7i64]);
            let r = rank.allreduce_i64(&[3], ReduceOp::Sum);
            (b, g, r)
        });
        assert_eq!(results[0], (vec![5], vec![7], vec![3]));
    }

    #[test]
    fn datum_roundtrip() {
        let original = vec![1.5f64, -2.25, 1e300];
        assert_eq!(decode::<f64>(&encode(&original)), original);
        let ints = vec![i64::MIN, 0, i64::MAX];
        assert_eq!(decode::<i64>(&encode(&ints)), ints);
        let bytes = vec![0u8, 255, 7];
        assert_eq!(decode::<u8>(&encode(&bytes)), bytes);
    }
}
