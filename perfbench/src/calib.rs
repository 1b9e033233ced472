//! Host-speed calibration. The host speeds up and slows down by 20-70%
//! for seconds to minutes at a time with load from outside the process:
//! other guests share its cores and caches. CPU time does not escape
//! that (the process is not descheduled; its instructions run slower),
//! and a run often sits wholly inside one slow or fast spell. So every
//! run also times a fixed reference kernel that uses none of the
//! simulator's code, and scales its CPU times by how much slower than on
//! the reference host the kernel ran during the run.
//!
//! The kernel has two parts, timed separately: `frames`, a small
//! discrete-event loop that builds, copies and checksums frames (dense
//! arithmetic and allocation, like the network stack and the serving
//! tier), and `chase`, a pointer chase with ordered-map lookups over an
//! 8 MiB table (cache-missing, like the DRAM and memory-job models).
//! Spells slow the two parts by different amounts, and each workload
//! like one of them: a workload is scaled by the part shaped like the
//! layers that do its work ([`Part`]).

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::hint::black_box;

/// Frame events of one `frames` call.
const EVENTS: u64 = 10_000;
/// Pointer-chase steps of one `chase` call.
const STEPS: u32 = 50_000;
/// Entries of the pointer-chase table (4 bytes each).
const TABLE: usize = 1 << 21;
/// Bytes the pointer-chase table keeps resident from the first call on;
/// the kernel's other state is well under 1 MiB.
pub const TABLE_BYTES: usize = TABLE * 4;

/// CPU seconds one call of each part, `[frames, chase]`, takes on the
/// reference host (2 vCPUs of a 2.1 GHz Xeon VM, in a fast spell).
pub const REF_S: [f64; 2] = [0.011, 0.009];

/// A part of the kernel, as an index into [`REF_S`] and [`sample`].
#[derive(Debug, Clone, Copy)]
pub enum Part {
    Frames = 0,
    Chase = 1,
}

/// CPU time this process has used so far, in seconds
/// (`CLOCK_PROCESS_CPUTIME_ID`: time the process actually ran, without
/// time other processes or the hypervisor took from it).
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// CPU seconds each part, `[frames, chase]`, takes now.
pub fn sample() -> [f64; 2] {
    STATE.with(|s| {
        let s = &mut *s.borrow_mut();
        let t0 = cpu_seconds();
        black_box(frames(s));
        let t1 = cpu_seconds();
        black_box(chase(s));
        [t1 - t0, cpu_seconds() - t1]
    })
}

/// The factor that turns CPU seconds measured beside kernel calls whose
/// median part times were `medians` into CPU seconds on the reference
/// host, reading the host's speed from `part`.
pub fn scale(part: Part, medians: [f64; 2]) -> f64 {
    REF_S[part as usize] / medians[part as usize]
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        // xorshift64*
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// What the kernel keeps between calls, so that after the first call it
/// no longer grows the heap: its allocations must not move
/// `peak_rss_mib`.
struct State {
    /// One random cycle through `TABLE` entries.
    next: Vec<u32>,
    /// Keyed by the chase's positions; after the first call every
    /// insert overwrites.
    map: BTreeMap<u32, u32>,
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    flows: HashMap<u64, u64>,
    frame: Vec<u8>,
}

thread_local! {
    static STATE: RefCell<State> = RefCell::new(State::new());
}

impl State {
    fn new() -> Self {
        // Sattolo's shuffle: a permutation that is a single cycle.
        let mut next: Vec<u32> = (0..TABLE as u32).collect();
        let mut rng = Rng(7);
        for i in (1..TABLE).rev() {
            next.swap(i, (rng.next() % i as u64) as usize);
        }
        State {
            next,
            map: BTreeMap::new(),
            heap: BinaryHeap::new(),
            flows: HashMap::new(),
            frame: Vec::new(),
        }
    }
}

fn frames(s: &mut State) -> u64 {
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    let mut timers: BTreeMap<u64, u64> = BTreeMap::new();
    s.heap.clear();
    s.flows.clear();
    let mut sum = 0u64;
    for i in 0..256u64 {
        s.heap.push(Reverse((rng.next() % 1_000, i)));
    }
    for _ in 0..EVENTS {
        let Reverse((now, id)) = s.heap.pop().expect("events never run out");
        let r = rng.next();
        *s.flows.entry(r % 4_096).or_insert(0) += now;
        if r & 3 == 0 {
            timers.insert(now + (r >> 40) % 10_000, id);
        }
        if let Some((&t, _)) = timers.iter().next() {
            if t <= now {
                timers.remove(&t);
            }
        }
        let len = 64 + (r >> 20) as usize % 1_400;
        s.frame.clear();
        s.frame.extend((0..len).map(|k| (k as u64 ^ r) as u8));
        // A fresh copy: one allocation and free of the same size class
        // per frame, which the allocator recycles in place.
        sum = sum.wrapping_add(checksum(&s.frame.clone()));
        s.heap.push(Reverse((now + 1 + (r >> 32) % 5_000, id)));
    }
    sum ^ s.flows.len() as u64 ^ timers.len() as u64
}

/// Ones'-complement sum of big-endian 16-bit words.
fn checksum(bytes: &[u8]) -> u64 {
    let mut acc = 0u32;
    for pair in bytes.chunks(2) {
        acc += u32::from(pair[0]) << 8 | u32::from(*pair.get(1).unwrap_or(&0));
        acc = (acc & 0xffff) + (acc >> 16);
    }
    u64::from(!acc & 0xffff)
}

fn chase(s: &mut State) -> u64 {
    let (mut p, mut acc) = (0u32, 0u64);
    for k in 0..STEPS {
        p = s.next[p as usize];
        if p % 3 == 0 {
            s.map.insert(p % 50_000, k);
        } else if let Some(v) = s.map.get(&(p % 50_000)) {
            acc = acc.wrapping_add(u64::from(*v));
        } else {
            acc ^= u64::from(p);
        }
    }
    acc ^ s.map.len() as u64
}
