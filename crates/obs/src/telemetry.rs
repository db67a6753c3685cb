//! Deterministic in-simulator time-series telemetry (`sf-telemetry/v1`).
//!
//! A [`RunSeries`] records per-router queue occupancy, per-link credit
//! occupancy, per-router credit-stall counts, and the two energy
//! accumulators, sampled every `every` cycles **at a cycle boundary**,
//! before the cycle's arrivals drain and its routers route. A simulation
//! runs on one thread, so the recorded bytes are a pure function of the
//! run and bit-identical for any sweep worker count — and because nothing
//! in the simulation ever reads the series, telemetry is strictly
//! out-of-band: result artifacts are byte-identical with it on or off.
//!
//! # Binary stream layout
//!
//! A stream is the 16-byte magic `b"sf-telemetry/v1\n"` followed by zero or
//! more **run blocks**, one per simulation run, each fully self-describing
//! (all integers little-endian, floats IEEE-754 little-endian bits):
//!
//! | field        | type                     | meaning                         |
//! |--------------|--------------------------|---------------------------------|
//! | marker       | `u8` = `0x01`            | block start                     |
//! | routers      | `u32`                    | routers per sample (id order)   |
//! | links        | `u32`                    | directed links per sample       |
//! | every        | `u64`                    | final sampling stride in cycles |
//! | samples      | `u32`                    | sample count                    |
//! | cycles       | `samples x u64`          | sampled cycle numbers           |
//! | queue depth  | `samples x routers x u32`| injection + VC queue packets    |
//! | link occ     | `samples x links x u32`  | credit-counter occupancy        |
//! | stalls       | `samples x routers x u64`| cumulative credit stalls        |
//! | energy       | `samples x 2 x f64`      | network pJ, DRAM pJ (cumulative)|
//!
//! Links are enumerated in deterministic construction order: router id,
//! then adjacency order (the same order fault injection uses for its
//! victim pool).
//!
//! # Bounded memory
//!
//! A series holds at most [`SAMPLE_CAP`] samples. When a run outgrows the
//! cap the series thins itself: every other sample is dropped and the
//! stride doubles. Retained cycles are exactly the multiples of the new
//! stride, so the thinned series is indistinguishable from one recorded at
//! the wider stride from the start — a pure function of the cycle count,
//! preserving determinism.
//!
//! # Ordered collection across a sweep
//!
//! A study sweep runs many simulations on pool worker threads that finish
//! in nondeterministic order. Each recorded job runs inside a [`capture`]:
//! a thread-local recorder that carries the sampling stride (the kernel
//! records only inside one, see [`capture_stride`]) and keeps the blocks
//! the job's simulations [`submit`]. The blocks travel with the job's row
//! through the sweep's in-order delivery, which appends them to the run's
//! [`StreamWriter`] — so the stream's block order equals the job
//! enumeration order for any worker count, and two runs in one process
//! never share anything. The file goes through the atomic `.part`-rename
//! pattern shared with every other artifact sink.
//!
//! Jobs restored from a checkpoint journal skip their simulations, so a
//! resumed run records blocks only for the jobs it actually re-executes;
//! byte-level stream comparisons should use fresh (`--no-resume`) runs.

use std::cell::RefCell;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Schema identifier of the telemetry stream format.
pub const SCHEMA: &str = "sf-telemetry/v1";

/// The 16-byte stream magic (schema name plus a newline, so `head -c 16`
/// on a stream prints it).
pub const MAGIC: &[u8; 16] = b"sf-telemetry/v1\n";

/// Default sampling stride in cycles when `--telemetry` is given without
/// `--telemetry-every`.
pub const DEFAULT_EVERY: u64 = 64;

/// Maximum samples a single run's series holds before thinning (see the
/// module docs on bounded memory).
pub const SAMPLE_CAP: usize = 1024;

const BLOCK_MARKER: u8 = 0x01;

// ---------------------------------------------------------------------------
// RunSeries: the per-run recorder
// ---------------------------------------------------------------------------

/// Columnar recorder for one simulation run.
///
/// The kernel drives it per sampled cycle: [`begin_sample`] (which applies
/// the stride and the thinning policy), then one [`push_router`] per
/// router in id order and one [`push_link`] per directed link in
/// construction order. [`encode`] serialises the whole run as one block.
///
/// [`begin_sample`]: Self::begin_sample
/// [`push_router`]: Self::push_router
/// [`push_link`]: Self::push_link
/// [`encode`]: Self::encode
#[derive(Debug, Clone)]
pub struct RunSeries {
    routers: u32,
    links: u32,
    every: u64,
    cycles: Vec<u64>,
    queue: Vec<u32>,
    link_occ: Vec<u32>,
    stalls: Vec<u64>,
    energy: Vec<f64>,
}

impl RunSeries {
    /// A recorder for a network of `routers` routers and `links` directed
    /// links, sampling every `every` cycles (clamped to at least 1).
    #[must_use]
    pub fn new(routers: usize, links: usize, every: u64) -> Self {
        Self {
            routers: routers as u32,
            links: links as u32,
            every: every.max(1),
            cycles: Vec::new(),
            queue: Vec::new(),
            link_occ: Vec::new(),
            stalls: Vec::new(),
            energy: Vec::new(),
        }
    }

    /// Current sampling stride in cycles (grows when the series thins).
    #[must_use]
    pub fn every(&self) -> u64 {
        self.every
    }

    /// Number of samples currently held.
    #[must_use]
    pub fn samples(&self) -> usize {
        self.cycles.len()
    }

    /// Opens a sample at `cycle` with the cumulative energy accumulators.
    /// Returns `false` (record nothing) when the cycle is off-stride —
    /// including when the thinning triggered by a full series widens the
    /// stride past this cycle.
    pub fn begin_sample(&mut self, cycle: u64, network_pj: f64, dram_pj: f64) -> bool {
        if !cycle.is_multiple_of(self.every) {
            return false;
        }
        if self.cycles.len() >= SAMPLE_CAP {
            self.thin();
            if !cycle.is_multiple_of(self.every) {
                return false;
            }
        }
        self.cycles.push(cycle);
        self.energy.push(network_pj);
        self.energy.push(dram_pj);
        true
    }

    /// Appends one router's queue depth and cumulative credit-stall count
    /// to the open sample. Call once per router, in id order.
    pub fn push_router(&mut self, queue_depth: u32, stalls: u64) {
        self.queue.push(queue_depth);
        self.stalls.push(stalls);
    }

    /// Appends one directed link's credit-counter occupancy to the open
    /// sample. Call once per link, in construction order.
    pub fn push_link(&mut self, occupancy: u32) {
        self.link_occ.push(occupancy);
    }

    /// Drops every other sample and doubles the stride. Survivors are the
    /// even-indexed samples — i.e. exactly the multiples of the doubled
    /// stride, so subsequent sampling continues the same arithmetic
    /// sequence.
    fn thin(&mut self) {
        retain_even_chunks(&mut self.cycles, 1);
        retain_even_chunks(&mut self.queue, self.routers as usize);
        retain_even_chunks(&mut self.link_occ, self.links as usize);
        retain_even_chunks(&mut self.stalls, self.routers as usize);
        retain_even_chunks(&mut self.energy, 2);
        self.every *= 2;
    }

    /// Serialises the series as one self-describing run block.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let samples = self.cycles.len();
        let mut out = Vec::with_capacity(
            1 + 4
                + 4
                + 8
                + 4
                + self.cycles.len() * 8
                + self.queue.len() * 4
                + self.link_occ.len() * 4
                + self.stalls.len() * 8
                + self.energy.len() * 8,
        );
        out.push(BLOCK_MARKER);
        out.extend_from_slice(&self.routers.to_le_bytes());
        out.extend_from_slice(&self.links.to_le_bytes());
        out.extend_from_slice(&self.every.to_le_bytes());
        out.extend_from_slice(&(samples as u32).to_le_bytes());
        for v in &self.cycles {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for v in &self.queue {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for v in &self.link_occ {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for v in &self.stalls {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for v in &self.energy {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        out
    }
}

/// Keeps the even-numbered `chunk`-sized groups of `data`, in order.
fn retain_even_chunks<T: Copy>(data: &mut Vec<T>, chunk: usize) {
    if chunk == 0 {
        data.clear();
        return;
    }
    let mut write = 0usize;
    let mut group = 0usize;
    while (group + 1) * chunk <= data.len() {
        if group.is_multiple_of(2) {
            for k in 0..chunk {
                data[write + k] = data[group * chunk + k];
            }
            write += chunk;
        }
        group += 1;
    }
    data.truncate(write);
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// One decoded run block of a telemetry stream.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryBlock {
    /// Routers per sample (id order).
    pub routers: u32,
    /// Directed links per sample (construction order).
    pub links: u32,
    /// Sampling stride in cycles.
    pub every: u64,
    /// Sampled cycle numbers.
    pub cycles: Vec<u64>,
    /// Queue depths, sample-major: `queue[sample * routers + router]`.
    pub queue: Vec<u32>,
    /// Link occupancies, sample-major: `link_occ[sample * links + link]`.
    pub link_occ: Vec<u32>,
    /// Cumulative credit stalls, sample-major like `queue`.
    pub stalls: Vec<u64>,
    /// Cumulative `(network pJ, DRAM pJ)` per sample.
    pub energy: Vec<(f64, f64)>,
}

impl TelemetryBlock {
    /// Number of samples in the block.
    #[must_use]
    pub fn samples(&self) -> usize {
        self.cycles.len()
    }

    /// The queue-depth row of one sample (length `routers`).
    #[must_use]
    pub fn queue_row(&self, sample: usize) -> &[u32] {
        let r = self.routers as usize;
        &self.queue[sample * r..(sample + 1) * r]
    }

    /// The link-occupancy row of one sample (length `links`).
    #[must_use]
    pub fn link_row(&self, sample: usize) -> &[u32] {
        let l = self.links as usize;
        &self.link_occ[sample * l..(sample + 1) * l]
    }

    /// The credit-stall row of one sample (length `routers`).
    #[must_use]
    pub fn stall_row(&self, sample: usize) -> &[u64] {
        let r = self.routers as usize;
        &self.stalls[sample * r..(sample + 1) * r]
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err(format!(
                "truncated telemetry stream: wanted {n} byte(s) at offset {}, {} left",
                self.pos,
                self.remaining()
            ));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }
}

/// Parses a whole telemetry stream (magic plus run blocks).
///
/// Never panics on malformed input: truncation, a bad magic, an unknown
/// block marker, or a header whose promised payload exceeds the remaining
/// bytes (which also guards the decoder against garbage-driven
/// allocations) all return `Err`.
///
/// # Errors
///
/// Returns a description of the first structural problem found.
pub fn parse_stream(bytes: &[u8]) -> Result<Vec<TelemetryBlock>, String> {
    let mut reader = Reader { bytes, pos: 0 };
    let magic = reader.take(MAGIC.len())?;
    if magic != MAGIC {
        return Err(format!("not a {SCHEMA} stream (bad magic)"));
    }
    let mut blocks = Vec::new();
    while reader.remaining() > 0 {
        let marker = reader.u8()?;
        if marker != BLOCK_MARKER {
            return Err(format!(
                "unknown block marker 0x{marker:02x} at offset {}",
                reader.pos - 1
            ));
        }
        let routers = reader.u32()?;
        let links = reader.u32()?;
        let every = reader.u64()?;
        let samples = reader.u32()?;
        // Validate the promised payload size against the remaining bytes
        // *before* allocating anything sized by the header.
        let per_sample = 8u64 + u64::from(routers) * 12 + u64::from(links) * 4 + 16;
        let needed = u64::from(samples)
            .checked_mul(per_sample)
            .ok_or_else(|| "telemetry block size overflows".to_string())?;
        if needed > reader.remaining() as u64 {
            return Err(format!(
                "truncated telemetry block: header promises {needed} byte(s), {} left",
                reader.remaining()
            ));
        }
        let samples = samples as usize;
        let mut block = TelemetryBlock {
            routers,
            links,
            every,
            cycles: Vec::with_capacity(samples),
            queue: Vec::with_capacity(samples * routers as usize),
            link_occ: Vec::with_capacity(samples * links as usize),
            stalls: Vec::with_capacity(samples * routers as usize),
            energy: Vec::with_capacity(samples),
        };
        for _ in 0..samples {
            block.cycles.push(reader.u64()?);
        }
        for _ in 0..samples * routers as usize {
            block.queue.push(reader.u32()?);
        }
        for _ in 0..samples * links as usize {
            block.link_occ.push(reader.u32()?);
        }
        for _ in 0..samples * routers as usize {
            block.stalls.push(reader.u64()?);
        }
        for _ in 0..samples {
            let network = reader.f64()?;
            let dram = reader.f64()?;
            block.energy.push((network, dram));
        }
        blocks.push(block);
    }
    Ok(blocks)
}

// ---------------------------------------------------------------------------
// Per-job capture
// ---------------------------------------------------------------------------

/// The recorder of the job running on this thread.
#[derive(Debug)]
struct Capture {
    every: u64,
    blocks: Vec<Vec<u8>>,
}

thread_local! {
    static CAPTURE: RefCell<Option<Capture>> = const { RefCell::new(None) };
}

/// Runs `f` with telemetry recording on at a stride of `every` cycles
/// (clamped to at least 1) and returns its result with the encoded blocks
/// its simulations [`submit`]ted, in submission order.
///
/// The capture is this thread's only: simulations on other threads, and
/// code after `f` returns, record nothing. A capture nested inside another
/// hides the outer one until it ends, and a panic in `f` discards its
/// blocks and restores the outer state.
pub fn capture<T>(every: u64, f: impl FnOnce() -> T) -> (T, Vec<Vec<u8>>) {
    /// Puts the enclosing capture back, on return and on unwind alike.
    struct Restore(Option<Capture>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let outer = self.0.take();
            CAPTURE.with(|cell| *cell.borrow_mut() = outer);
        }
    }
    let inner = Capture {
        every: every.max(1),
        blocks: Vec::new(),
    };
    let _restore = Restore(CAPTURE.with(|cell| cell.replace(Some(inner))));
    let value = f();
    let blocks = CAPTURE
        .with(|cell| cell.borrow_mut().take())
        .map_or_else(Vec::new, |capture| capture.blocks);
    (value, blocks)
}

/// The sampling stride of this thread's [`capture`], or `None` when no
/// capture is running — the gate the kernel checks before allocating a
/// [`RunSeries`].
#[must_use]
pub fn capture_stride() -> Option<u64> {
    CAPTURE.with(|cell| cell.borrow().as_ref().map(|capture| capture.every))
}

/// Hands one encoded run block to this thread's [`capture`]; a no-op when
/// none is running.
pub fn submit(block: Vec<u8>) {
    CAPTURE.with(|cell| {
        if let Some(capture) = cell.borrow_mut().as_mut() {
            capture.blocks.push(block);
        }
    });
}

// ---------------------------------------------------------------------------
// The stream writer
// ---------------------------------------------------------------------------

/// A stream being written atomically: the magic and every appended block go
/// to `<dest>.part`, [`finish`](Self::finish) renames it into place, and
/// dropping an unfinished writer removes the `.part`, so a failed run
/// publishes nothing.
#[derive(Debug)]
pub struct StreamWriter {
    dest: PathBuf,
    part: PathBuf,
    /// `None` once a write failed: recording stopped and the `.part` is gone.
    file: Option<BufWriter<File>>,
    blocks: u64,
}

impl StreamWriter {
    /// Creates `<dest>.part` and writes the stream magic to it.
    ///
    /// # Errors
    ///
    /// Surfaces the filesystem failure.
    pub fn create(dest: &Path) -> io::Result<Self> {
        let mut part = dest.as_os_str().to_owned();
        part.push(".part");
        let part = PathBuf::from(part);
        let mut file = BufWriter::new(File::create(&part)?);
        file.write_all(MAGIC)?;
        Ok(Self {
            dest: dest.to_path_buf(),
            part,
            file: Some(file),
            blocks: 0,
        })
    }

    /// Whether blocks are still being written (no write has failed).
    #[must_use]
    pub fn is_recording(&self) -> bool {
        self.file.is_some()
    }

    /// Appends one encoded run block. The first failed write warns on
    /// stderr, removes the `.part` and stops recording: later blocks are
    /// dropped and [`finish`](Self::finish) publishes nothing. Telemetry is
    /// out-of-band, so a failed write never fails the run.
    pub fn append(&mut self, block: &[u8]) {
        let Some(file) = self.file.as_mut() else {
            return;
        };
        if let Err(e) = file.write_all(block) {
            crate::progress::Progress::global().note(&format!(
                "# warning: telemetry write to {} failed: {e}; telemetry disabled",
                self.part.display()
            ));
            self.file = None;
            let _ = std::fs::remove_file(&self.part);
            return;
        }
        self.blocks += 1;
    }

    /// Flushes the stream and renames it into place. Returns the published
    /// path and block count, or `None` when recording stopped after a failed
    /// write.
    ///
    /// # Errors
    ///
    /// Surfaces the final flush or rename failure; the `.part` is removed.
    pub fn finish(mut self) -> io::Result<Option<(PathBuf, u64)>> {
        let Some(file) = self.file.take() else {
            return Ok(None);
        };
        let published = file
            .into_inner()
            .map_err(io::IntoInnerError::into_error)
            .and_then(|file| {
                drop(file);
                std::fs::rename(&self.part, &self.dest)
            });
        if let Err(e) = published {
            let _ = std::fs::remove_file(&self.part);
            return Err(e);
        }
        Ok(Some((self.dest.clone(), self.blocks)))
    }
}

impl Drop for StreamWriter {
    fn drop(&mut self) {
        if self.file.take().is_some() {
            let _ = std::fs::remove_file(&self.part);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series_with(routers: usize, links: usize, every: u64, samples: u64) -> RunSeries {
        let mut series = RunSeries::new(routers, links, every);
        for s in 0..samples {
            let cycle = s * every;
            assert!(series.begin_sample(cycle, s as f64 * 1.5, s as f64 * 0.5));
            for r in 0..routers {
                series.push_router((s as u32) + r as u32, s * 10 + r as u64);
            }
            for l in 0..links {
                series.push_link((s as u32) * 2 + l as u32);
            }
        }
        series
    }

    #[test]
    fn encode_decode_round_trip() {
        let series = series_with(3, 5, 4, 7);
        let mut stream = MAGIC.to_vec();
        stream.extend_from_slice(&series.encode());
        let blocks = parse_stream(&stream).expect("round trip");
        assert_eq!(blocks.len(), 1);
        let block = &blocks[0];
        assert_eq!(block.routers, 3);
        assert_eq!(block.links, 5);
        assert_eq!(block.every, 4);
        assert_eq!(block.samples(), 7);
        assert_eq!(block.cycles, vec![0, 4, 8, 12, 16, 20, 24]);
        assert_eq!(block.queue_row(2), &[2, 3, 4]);
        assert_eq!(block.link_row(1), &[2, 3, 4, 5, 6]);
        assert_eq!(block.stall_row(6), &[60, 61, 62]);
        assert_eq!(block.energy[3], (4.5, 1.5));
    }

    #[test]
    fn off_stride_cycles_are_rejected() {
        let mut series = RunSeries::new(2, 2, 8);
        assert!(series.begin_sample(0, 0.0, 0.0));
        assert!(!series.begin_sample(3, 0.0, 0.0));
        assert!(series.begin_sample(8, 0.0, 0.0));
        assert_eq!(series.samples(), 2);
    }

    #[test]
    fn thinning_doubles_the_stride_and_keeps_multiples() {
        let mut series = RunSeries::new(1, 1, 1);
        let mut recorded = Vec::new();
        for cycle in 0..(SAMPLE_CAP as u64 + 10) {
            if series.begin_sample(cycle, 0.0, 0.0) {
                series.push_router(cycle as u32, cycle);
                series.push_link(cycle as u32);
                recorded.push(cycle);
            }
        }
        assert_eq!(series.every(), 2);
        assert!(series.samples() <= SAMPLE_CAP);
        // Every retained cycle is a multiple of the final stride, and the
        // columns stayed aligned with the cycle column.
        assert!(series.cycles.iter().all(|c| c % series.every() == 0));
        assert_eq!(series.cycles.len(), series.queue.len());
        assert_eq!(series.cycles.len(), series.link_occ.len());
        assert_eq!(series.cycles.len(), series.stalls.len());
        assert_eq!(series.cycles.len() * 2, series.energy.len());
        assert_eq!(
            series.cycles,
            series
                .queue
                .iter()
                .map(|&q| u64::from(q))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn thinned_series_matches_wider_stride_recording() {
        // Record at stride 1 until thinning fires, then compare with a
        // series recorded at stride 2 from the start over the same cycles.
        let cycles = SAMPLE_CAP as u64 + 100;
        let mut fine = RunSeries::new(1, 1, 1);
        let mut wide = RunSeries::new(1, 1, 2);
        for cycle in 0..cycles {
            if fine.begin_sample(cycle, cycle as f64, 0.0) {
                fine.push_router(cycle as u32, cycle);
                fine.push_link(0);
            }
            if wide.begin_sample(cycle, cycle as f64, 0.0) {
                wide.push_router(cycle as u32, cycle);
                wide.push_link(0);
            }
        }
        assert_eq!(fine.every(), 2);
        assert_eq!(fine.encode(), wide.encode());
    }

    #[test]
    fn parse_rejects_bad_magic_and_truncation() {
        assert!(parse_stream(b"not a stream").is_err());
        let mut stream = MAGIC.to_vec();
        stream.extend_from_slice(&series_with(2, 3, 4, 5).encode());
        // Every strict prefix (past the bare magic, which is a valid empty
        // stream) must error, never panic.
        for cut in MAGIC.len() + 1..stream.len() {
            assert!(parse_stream(&stream[..cut]).is_err(), "prefix {cut}");
        }
        // A garbage header promising an enormous payload errors cleanly.
        let mut huge = MAGIC.to_vec();
        huge.push(BLOCK_MARKER);
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        huge.extend_from_slice(&1u64.to_le_bytes());
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(parse_stream(&huge).is_err());
    }

    #[test]
    fn empty_stream_parses_to_no_blocks() {
        assert_eq!(parse_stream(MAGIC).expect("magic only"), Vec::new());
    }

    #[test]
    fn capture_collects_its_jobs_blocks_in_submission_order() {
        assert_eq!(capture_stride(), None);
        submit(vec![0xff]); // outside any capture: dropped
        let (value, blocks) = capture(0, || {
            // The stride is clamped to at least one cycle.
            assert_eq!(capture_stride(), Some(1));
            submit(vec![1]);
            let ((), inner) = capture(32, || {
                assert_eq!(capture_stride(), Some(32));
                submit(vec![2]);
            });
            assert_eq!(inner, vec![vec![2]]);
            // The outer capture is back, its earlier blocks kept.
            assert_eq!(capture_stride(), Some(1));
            submit(vec![3]);
            // Other threads record nothing into this capture.
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    assert_eq!(capture_stride(), None);
                    submit(vec![4]);
                });
            });
            7
        });
        assert_eq!(value, 7);
        assert_eq!(blocks, vec![vec![1], vec![3]]);
        assert_eq!(capture_stride(), None);

        // A panicking job discards its blocks and leaves no capture behind.
        let unwound = std::panic::catch_unwind(|| {
            capture(8, || {
                submit(vec![5]);
                panic!("job failed");
            })
        });
        assert!(unwound.is_err());
        assert_eq!(capture_stride(), None);
    }

    #[test]
    fn writer_publishes_atomically_and_a_dropped_writer_leaves_nothing() {
        let dir = std::env::temp_dir().join(format!("sf-telemetry-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("stream.bin");
        let part = dir.join("stream.bin.part");

        let mut writer = StreamWriter::create(&path).expect("create");
        assert!(writer.is_recording());
        writer.append(&series_with(2, 2, 1, 1).encode());
        writer.append(&series_with(1, 1, 1, 2).encode());
        // The stream stays a .part until finish publishes it.
        assert!(part.exists());
        assert!(!path.exists());
        let (published, blocks) = writer.finish().expect("finish").expect("recording");
        assert_eq!((published.as_path(), blocks), (path.as_path(), 2));
        assert!(!part.exists());
        let decoded = parse_stream(&std::fs::read(&path).expect("published")).expect("valid");
        // Append order is stream order.
        assert_eq!(decoded[0].routers, 2);
        assert_eq!(decoded[1].routers, 1);

        // An unfinished writer (a failed run) removes its .part.
        let gone = dir.join("aborted.bin");
        let mut writer = StreamWriter::create(&gone).expect("create");
        writer.append(&series_with(1, 1, 1, 1).encode());
        drop(writer);
        assert!(!gone.exists());
        assert!(!dir.join("aborted.bin.part").exists());

        let _ = std::fs::remove_dir_all(&dir);
    }
}
