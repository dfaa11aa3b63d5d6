//! Trace capture and replay.
//!
//! Users with their own address traces (e.g. converted ChampSim traces)
//! can drive the simulator without the synthetic generators:
//!
//! * [`capture`] records any [`Workload`]'s next *n* instructions into a
//!   [`Trace`];
//! * [`Trace::to_writer`] / [`Trace::from_reader`] serialize to a
//!   compact binary format (16 bytes/record);
//! * [`TraceReplay`] plays a trace back as a `Workload`, looping at the
//!   end;
//! * [`TraceCache`] captures each distinct (benchmark, scale, seed,
//!   length) stream exactly once and shares the immutable [`Trace`]
//!   across any number of replays via [`Arc`].
//!
//! # Format
//!
//! Little-endian records of `(ip: u64, packed_addr: u64)` after an
//! 8-byte magic/header. `packed_addr` keeps the 57-bit virtual address in
//! the low bits and flags in the top bits: bit 63 = has memory op,
//! bit 62 = store, bit 61 = address-dependent.
//!
//! # Example
//!
//! ```
//! use atc_workloads::{trace, BenchmarkId, Scale, Workload};
//!
//! let mut wl = BenchmarkId::Mcf.build(Scale::Test, 1);
//! let t = trace::capture(wl.as_mut(), 1000);
//! let mut buf = Vec::new();
//! t.to_writer(&mut buf).unwrap();
//! let t2 = trace::Trace::from_reader(&buf[..]).unwrap();
//! assert_eq!(t.len(), t2.len());
//! let mut replay = trace::TraceReplay::new(t2);
//! assert_eq!(replay.next_instr(), t.get(0));
//! ```

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::sync::{Arc, Mutex, OnceLock};

use atc_types::VirtAddr;

use crate::{BenchmarkId, Instr, MemOp, Scale, Workload};

/// File magic: "ATCTRACE" truncated to 8 bytes.
const MAGIC: [u8; 8] = *b"ATCTRC01";

const FLAG_MEM: u64 = 1 << 63;
const FLAG_STORE: u64 = 1 << 62;
const FLAG_DEP: u64 = 1 << 61;
const ADDR_MASK: u64 = (1 << 57) - 1;
/// Bits 57–60 are reserved: [`pack`] never sets them, so a record with
/// any of them set was not produced by this writer.
const RESERVED_MASK: u64 = !(FLAG_MEM | FLAG_STORE | FLAG_DEP | ADDR_MASK);
/// Pre-allocation cap for the record vector: a corrupt header count
/// must not drive `Vec::with_capacity` into an OOM abort before the
/// truncated body is even read.
const PREALLOC_CAP: usize = 1 << 20;

/// A captured instruction trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    records: Vec<(u64, u64)>, // (ip, packed)
}

fn pack(i: &Instr) -> (u64, u64) {
    let packed = match i.op {
        None => 0,
        Some(MemOp::Load(a)) => FLAG_MEM | (a.raw() & ADDR_MASK) | if i.dep { FLAG_DEP } else { 0 },
        Some(MemOp::Store(a)) => {
            FLAG_MEM | FLAG_STORE | (a.raw() & ADDR_MASK) | if i.dep { FLAG_DEP } else { 0 }
        }
    };
    (i.ip, packed)
}

fn unpack(ip: u64, packed: u64) -> Instr {
    if packed & FLAG_MEM == 0 {
        return Instr::alu(ip);
    }
    let addr = VirtAddr::new(packed & ADDR_MASK);
    let dep = packed & FLAG_DEP != 0;
    let op = if packed & FLAG_STORE != 0 {
        MemOp::Store(addr)
    } else {
        MemOp::Load(addr)
    };
    Instr {
        ip,
        op: Some(op),
        dep,
    }
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Append one instruction.
    pub fn push(&mut self, i: &Instr) {
        self.records.push(pack(i));
    }

    /// Number of recorded instructions.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Approximate heap footprint of the recorded stream (16 bytes per
    /// record), used to size the suite-wide trace cache.
    pub fn size_bytes(&self) -> usize {
        self.records.len() * 16
    }

    /// The `idx`-th instruction.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn get(&self, idx: usize) -> Instr {
        let (ip, packed) = self.records[idx];
        unpack(ip, packed)
    }

    /// Serialize to a writer (16 bytes per record plus a 16-byte
    /// header).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn to_writer<W: Write>(&self, mut w: W) -> io::Result<()> {
        w.write_all(&MAGIC)?;
        w.write_all(&(self.records.len() as u64).to_le_bytes())?;
        for &(ip, packed) in &self.records {
            w.write_all(&ip.to_le_bytes())?;
            w.write_all(&packed.to_le_bytes())?;
        }
        Ok(())
    }

    /// Deserialize from a reader.
    ///
    /// Every field is validated, so a truncated, bit-flipped, or
    /// hostile input fails with a diagnostic instead of panicking or
    /// aborting: the record count only bounds allocation up to a fixed
    /// cap (a corrupt count cannot trigger OOM), and each record's flag
    /// bits must be a combination [`pack`] can produce (reserved bits
    /// 57–60 clear; store/dependence flags only on memory records).
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on a bad magic, corrupt flag bits, or (via
    /// `UnexpectedEof`) truncated input, and propagates I/O errors.
    pub fn from_reader<R: Read>(mut r: R) -> io::Result<Trace> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if magic != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not an ATC trace",
            ));
        }
        let mut len8 = [0u8; 8];
        r.read_exact(&mut len8)?;
        let n = u64::from_le_bytes(len8) as usize;
        let mut records = Vec::with_capacity(n.min(PREALLOC_CAP));
        let mut rec = [0u8; 16];
        for idx in 0..n {
            r.read_exact(&mut rec)?;
            let ip = u64::from_le_bytes(rec[..8].try_into().expect("8 bytes"));
            let packed = u64::from_le_bytes(rec[8..].try_into().expect("8 bytes"));
            let bad = if packed & FLAG_MEM == 0 {
                // ALU records carry no payload: any set bit means the
                // flags were corrupted (e.g. a store flag without the
                // memory flag).
                packed != 0
            } else {
                packed & RESERVED_MASK != 0
            };
            if bad {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("record {idx}: invalid flag bits {packed:#018x}"),
                ));
            }
            records.push((ip, packed));
        }
        Ok(Trace { records })
    }
}

/// Record the next `n` instructions of a workload.
pub fn capture(wl: &mut dyn Workload, n: usize) -> Trace {
    let mut t = Trace::new();
    for _ in 0..n {
        t.push(&wl.next_instr());
    }
    t
}

/// Replays a [`Trace`] as an infinite [`Workload`] (wrapping around at
/// the end).
///
/// The trace is held behind an [`Arc`], so any number of concurrent
/// replays (one per sweep job) share a single captured stream without
/// copying it.
#[derive(Debug, Clone)]
pub struct TraceReplay {
    trace: Arc<Trace>,
    pos: usize,
}

impl TraceReplay {
    /// Wrap a trace for replay.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    pub fn new(trace: Trace) -> Self {
        Self::shared(Arc::new(trace))
    }

    /// Replay an already-shared trace without copying it.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    pub fn shared(trace: Arc<Trace>) -> Self {
        assert!(!trace.is_empty(), "cannot replay an empty trace");
        TraceReplay { trace, pos: 0 }
    }
}

impl Workload for TraceReplay {
    fn name(&self) -> &'static str {
        "trace-replay"
    }

    fn next_instr(&mut self) -> Instr {
        let i = self.trace.get(self.pos);
        self.pos = (self.pos + 1) % self.trace.len();
        i
    }

    /// Chunked decode: unpack contiguous record runs, splitting only at
    /// the wrap point, instead of one bounds-checked `get` per record.
    fn next_batch(&mut self, out: &mut Vec<Instr>, n: usize) {
        out.clear();
        out.reserve(n);
        let len = self.trace.len();
        let mut remaining = n;
        while remaining > 0 {
            let take = remaining.min(len - self.pos);
            for &(ip, packed) in &self.trace.records[self.pos..self.pos + take] {
                out.push(unpack(ip, packed));
            }
            self.pos += take;
            if self.pos == len {
                self.pos = 0;
            }
            remaining -= take;
        }
    }
}

/// Identifies one deterministic instruction stream: which generator,
/// at which scale and seed, truncated to how many instructions.
///
/// The synthetic generators are pure functions of (benchmark, scale,
/// seed), so two jobs with equal keys consume byte-identical streams
/// and can share one capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamKey {
    /// The workload generator.
    pub bench: BenchmarkId,
    /// Problem-size scale the generator was built at.
    pub scale: Scale,
    /// Generator seed.
    pub seed: u64,
    /// Instructions captured (warmup + measure of the consuming run).
    pub len: u64,
}

/// Suite-wide cache of captured instruction streams.
///
/// Each distinct [`StreamKey`] is captured exactly once — lazily, the
/// first time a job asks for it — and every subsequent request gets a
/// clone of the same `Arc<Trace>`. Initialization is keyed per stream:
/// two workers racing on the *same* key block on one capture, while
/// captures of *different* keys proceed concurrently (the map mutex is
/// only held to look up the per-key [`OnceLock`], never during capture).
/// Streams stay resident for the cache's lifetime.
#[derive(Debug, Default)]
pub struct TraceCache {
    slots: Mutex<HashMap<StreamKey, Arc<OnceLock<Arc<Trace>>>>>,
}

impl TraceCache {
    /// An empty cache.
    pub fn new() -> Self {
        TraceCache::default()
    }

    /// The shared trace for `key`, capturing it on first use.
    pub fn get(&self, key: StreamKey) -> Arc<Trace> {
        let cell = {
            let mut slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
            Arc::clone(slots.entry(key).or_default())
        };
        cell.get_or_init(|| {
            let mut wl = key.bench.build(key.scale, key.seed);
            Arc::new(capture(wl.as_mut(), key.len as usize))
        })
        .clone()
    }

    /// A replay workload over the shared trace for `key`.
    pub fn replay(&self, key: StreamKey) -> TraceReplay {
        TraceReplay::shared(self.get(key))
    }

    /// Number of captured streams.
    pub fn streams(&self) -> usize {
        let slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        slots.values().filter(|c| c.get().is_some()).count()
    }

    /// Total heap footprint of all captured streams, in bytes.
    pub fn footprint_bytes(&self) -> usize {
        let slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        slots
            .values()
            .filter_map(|c| c.get())
            .map(|t| t.size_bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BenchmarkId, Scale};

    #[test]
    fn pack_unpack_round_trips_all_kinds() {
        let cases = [
            Instr::alu(0x400),
            Instr::load(0x401, VirtAddr::new(0xdead_beef)),
            Instr::load_dep(0x402, VirtAddr::new((1 << 57) - 1)),
            Instr::store(0x403, VirtAddr::new(0)),
        ];
        for c in cases {
            let (ip, packed) = pack(&c);
            assert_eq!(unpack(ip, packed), c);
        }
    }

    #[test]
    fn capture_then_serialize_round_trips() {
        let mut wl = BenchmarkId::Pr.build(Scale::Test, 9);
        let t = capture(wl.as_mut(), 5_000);
        assert_eq!(t.len(), 5_000);
        let mut buf = Vec::new();
        t.to_writer(&mut buf).unwrap();
        assert_eq!(buf.len(), 16 + 16 * 5_000);
        let t2 = Trace::from_reader(&buf[..]).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn replay_matches_and_wraps() {
        let mut wl = BenchmarkId::Canneal.build(Scale::Test, 2);
        let t = capture(wl.as_mut(), 100);
        let mut rp = TraceReplay::new(t.clone());
        for i in 0..100 {
            assert_eq!(rp.next_instr(), t.get(i));
        }
        // Wraps around.
        assert_eq!(rp.next_instr(), t.get(0));
        assert_eq!(rp.name(), "trace-replay");
    }

    #[test]
    fn batched_decode_matches_scalar_replay_across_wraps() {
        let mut wl = BenchmarkId::Mis.build(Scale::Test, 11);
        let t = capture(wl.as_mut(), 97); // prime length: every batch size misaligns
        for batch in [1usize, 7, 64, 250] {
            let mut scalar = TraceReplay::new(t.clone());
            let mut batched = TraceReplay::new(t.clone());
            let mut buf = Vec::new();
            let mut seen = 0usize;
            while seen < 500 {
                let n = batch.min(500 - seen);
                batched.next_batch(&mut buf, n);
                assert_eq!(buf.len(), n);
                for i in &buf {
                    assert_eq!(*i, scalar.next_instr(), "batch={batch} at {seen}");
                    seen += 1;
                }
            }
            // Both replays must sit at the same wrapped position.
            assert_eq!(batched.pos, 500 % 97);
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let buf = b"NOTATRACE_______".to_vec();
        assert!(Trace::from_reader(&buf[..]).is_err());
    }

    #[test]
    fn truncated_input_is_rejected() {
        let mut wl = BenchmarkId::Mcf.build(Scale::Test, 3);
        let t = capture(wl.as_mut(), 10);
        let mut buf = Vec::new();
        t.to_writer(&mut buf).unwrap();
        buf.truncate(buf.len() - 4);
        assert!(Trace::from_reader(&buf[..]).is_err());
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn empty_replay_panics() {
        TraceReplay::new(Trace::new());
    }

    #[test]
    fn cache_captures_each_key_once_and_shares_it() {
        let cache = TraceCache::new();
        let key = StreamKey {
            bench: BenchmarkId::Pr,
            scale: Scale::Test,
            seed: 42,
            len: 300,
        };
        let a = cache.get(key);
        let b = cache.get(key);
        assert!(Arc::ptr_eq(&a, &b), "same key must share one capture");
        assert_eq!(cache.streams(), 1);
        assert_eq!(cache.footprint_bytes(), 300 * 16);

        // A different seed is a different stream.
        let c = cache.get(StreamKey { seed: 43, ..key });
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.streams(), 2);

        // The cached stream is exactly what a fresh generator yields.
        let mut wl = BenchmarkId::Pr.build(Scale::Test, 42);
        let direct = capture(wl.as_mut(), 300);
        assert_eq!(*a, direct);

        // Replays over the shared trace start at position 0 each.
        let mut r0 = cache.replay(key);
        let mut r1 = cache.replay(key);
        assert_eq!(r0.next_instr(), direct.get(0));
        assert_eq!(r0.next_instr(), direct.get(1));
        assert_eq!(r1.next_instr(), direct.get(0));
    }

    #[test]
    fn cache_is_shareable_across_threads() {
        let cache = Arc::new(TraceCache::new());
        let keys = [
            StreamKey {
                bench: BenchmarkId::Canneal,
                scale: Scale::Test,
                seed: 7,
                len: 200,
            },
            StreamKey {
                bench: BenchmarkId::Mcf,
                scale: Scale::Test,
                seed: 7,
                len: 300,
            },
        ];
        // Four threads, two per key, released together: same-key racers
        // block on one capture while the two keys capture concurrently.
        let start = std::sync::Barrier::new(4);
        let traces: Vec<(StreamKey, Arc<Trace>)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let cache = Arc::clone(&cache);
                    let start = &start;
                    let key = keys[i % 2];
                    s.spawn(move || {
                        start.wait();
                        (key, cache.get(key))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(
            cache.streams(),
            2,
            "racing threads must capture each key once"
        );
        for key in keys {
            let same: Vec<&Arc<Trace>> = traces
                .iter()
                .filter(|(k, _)| *k == key)
                .map(|(_, t)| t)
                .collect();
            assert_eq!(same.len(), 2);
            assert!(Arc::ptr_eq(same[0], same[1]), "{key:?} captured twice");
            let mut wl = key.bench.build(key.scale, key.seed);
            assert_eq!(**same[0], capture(wl.as_mut(), key.len as usize));
        }
        assert!(!Arc::ptr_eq(&traces[0].1, &traces[1].1));
        assert_eq!(cache.footprint_bytes(), (200 + 300) * 16);
    }

    #[test]
    fn huge_header_count_does_not_preallocate() {
        // A 16-byte "trace" claiming u64::MAX records must fail on the
        // missing body, not abort allocating 256 EiB up front.
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        let err = Trace::from_reader(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn corrupt_flag_bits_are_rejected() {
        let cases: [(u64, &str); 4] = [
            (FLAG_STORE, "store without mem"),
            (FLAG_DEP | 0x42, "dep without mem"),
            (FLAG_MEM | (1 << 57), "reserved bit 57"),
            (FLAG_MEM | FLAG_STORE | (1 << 60), "reserved bit 60"),
        ];
        for (packed, what) in cases {
            let mut buf = MAGIC.to_vec();
            buf.extend_from_slice(&1u64.to_le_bytes());
            buf.extend_from_slice(&0x400u64.to_le_bytes());
            buf.extend_from_slice(&packed.to_le_bytes());
            let err = Trace::from_reader(&buf[..]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}");
        }
        // A valid record with every legal flag still parses.
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&0x400u64.to_le_bytes());
        buf.extend_from_slice(&(FLAG_MEM | FLAG_STORE | FLAG_DEP | 0x1234).to_le_bytes());
        assert_eq!(Trace::from_reader(&buf[..]).unwrap().len(), 1);
    }

    #[test]
    fn random_truncations_error_and_never_panic() {
        let mut rng = atc_types::rng::SimRng::seed_from_u64(0xace);
        let mut wl = BenchmarkId::Tc.build(Scale::Test, 4);
        let t = capture(wl.as_mut(), 200);
        let mut buf = Vec::new();
        t.to_writer(&mut buf).unwrap();
        for _ in 0..200 {
            let cut = rng.next_below(buf.len() as u64) as usize;
            let short = &buf[..cut];
            if cut == buf.len() {
                continue;
            }
            // Truncation can only land mid-structure: header, count, or
            // a record. All must surface as an error.
            assert!(Trace::from_reader(short).is_err(), "cut at {cut} parsed");
        }
    }

    #[test]
    fn random_bit_flips_parse_or_error_but_never_panic() {
        let mut rng = atc_types::rng::SimRng::seed_from_u64(0xbadc0de);
        let mut wl = BenchmarkId::Mis.build(Scale::Test, 7);
        let t = capture(wl.as_mut(), 100);
        let mut clean = Vec::new();
        t.to_writer(&mut clean).unwrap();
        for _ in 0..500 {
            let mut buf = clean.clone();
            // Flip 1–4 random bits anywhere in the file.
            for _ in 0..=rng.next_below(3) {
                let byte = rng.next_below(buf.len() as u64) as usize;
                let bit = rng.next_below(8) as u32;
                buf[byte] ^= 1 << bit;
            }
            // Must either parse (flip hit an ip/address payload) or
            // error (magic, count, or flag corruption) — never panic.
            let _ = Trace::from_reader(&buf[..]);
        }
    }

    #[test]
    fn flag_corruption_in_reserved_bits_always_errors() {
        let mut rng = atc_types::rng::SimRng::seed_from_u64(99);
        let mut wl = BenchmarkId::Bf.build(Scale::Test, 5);
        let t = capture(wl.as_mut(), 50);
        let mut clean = Vec::new();
        t.to_writer(&mut clean).unwrap();
        for _ in 0..100 {
            let mut buf = clean.clone();
            // Set a reserved bit (57–60) in a random record whose
            // memory flag is set; the packed word is the second u64 of
            // each 16-byte record, little-endian, so bits 57–60 live in
            // its last byte.
            let rec = rng.next_below(50) as usize;
            let flag_byte = 16 + rec * 16 + 15;
            if buf[flag_byte] & 0x80 == 0 {
                continue; // ALU record: any set bit already errors.
            }
            // Bits 57–60 of the packed word are bits 1–4 of its top
            // byte.
            buf[flag_byte] |= 2 << rng.next_below(4);
            let err = Trace::from_reader(&buf[..]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
    }
}
