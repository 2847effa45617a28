//! Receiver typing in the hot-path call graph: a workspace method that
//! shares a std method's name (`clear`) is hot only when a hot call can
//! resolve to it. Calls on receivers of a known std type — a `Vec` field,
//! a `&mut Vec` parameter, a `let` with a `Vec` annotation, a
//! `Vec::new()`/`vec![…]` initializer, or a `Vec` field reached through a
//! `let` bound to another field — cannot, unless a workspace trait
//! declares the name.

pub struct Pool {
    buf: Vec<f64>,
    spare: Vec<f64>,
    lanes: Lanes,
}

pub struct Lanes {
    ids: Vec<usize>,
}

impl Pool {
    /// Allocates: an H1 finding whenever a hot call reaches it.
    pub fn clear(&mut self) {
        self.spare = Vec::new();
    }

    /// Every std-typed receiver: none of these reaches `Pool::clear`.
    // advdiag::hot — per-step reset
    pub fn reset(&mut self, scratch: &mut Vec<u64>) {
        self.buf.clear();
        scratch.clear();
        let rows: &mut Vec<f64> = &mut self.spare;
        rows.clear();
        let lanes = &mut self.lanes;
        lanes.ids.clear();
    }
}

/// A warm driver: its setup may allocate; the loop body is per-step.
pub fn simulate_chrono_fleet(steps: usize) -> usize {
    let mut made = Vec::new();
    let mut listed = vec![0u8; 4];
    for _ in 0..steps {
        made.clear();
        listed.clear();
    }
    made.len() + listed.len()
}

pub struct Shard {
    pool: Pool,
}

impl Shard {
    // advdiag::hot — per-step flush
    pub fn flush(&mut self) {
        // A workspace-typed field: the edge to `clear` is kept.
        self.pool.buf.len();
        Self::drain(&mut self.pool);
    }

    pub fn drain(pool: &mut Pool) {
        pool.clear();
    }
}
