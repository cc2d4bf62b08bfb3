//! Workload inputs, made from the seed alone: the seed picks the per-shard
//! event budgets, the `racy-stream` schedule and the service's job
//! shapes.  Every input carries its known answer — the race-pair counts a
//! correct detector must report — taken from the Table 1 specs or implied
//! by how the input was built, never from another detector.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use rapid_engine::dist::ContentId;
use rapid_gen::benchmarks;
use rapid_trace::format::RwfStreamWriter;
use rapid_trace::{Location, LockId, NameResolver, Trace, VarId};
use rapid_vc::ThreadId;

/// The four largest Table 1 models: thread and lock counts vary the
/// detectors' cost (moldyn 3 threads, eclipse 14 threads and many locks).
pub const TABLE1_MODELS: [&str; 4] = ["moldyn", "eclipse", "xalan", "lusearch"];

/// Threads racing in `racy-stream`.
pub const RACERS: usize = 4;
/// Variables they race on.
pub const RACY_VARS: usize = 8;

/// Shards per service job.
pub const JOB_SHARDS: usize = 16;
/// Distinct job shapes the service workload cycles through.
pub const BASE_JOBS: usize = 4;

/// Stands in for a job tag inside every service thread name; a fresh job
/// replaces it with its own tag, which changes the bytes (so the worker's
/// cache misses) and nothing else the detectors report.
const PLACEHOLDER: &[u8; 8] = b"~~~~~~~~";

/// How big the inputs are; tests shrink them.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub table1_events: usize,
    pub racy_events: usize,
    pub service_shard_events: usize,
}

impl Sizes {
    pub const FULL: Sizes =
        Sizes { table1_events: 1_000_000, racy_events: 1_000_000, service_shard_events: 4_000 };
}

/// SplitMix64: a tiny seeded generator, so inputs depend on nothing but
/// the seed and this file.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    /// A generator for one input stream of one seed.
    fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `base` scaled by a factor uniform in `[low, high)`.
    fn scaled(&mut self, base: usize, low: f64, high: f64) -> usize {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        (base as f64 * (low + (high - low) * unit)).round() as usize
    }
}

/// One input file and its known answer.
#[derive(Debug, Clone)]
pub struct Shard {
    pub path: PathBuf,
    pub label: String,
    pub wcp_pairs: usize,
    pub hb_pairs: usize,
}

/// The Table 1 shards, as `.rwf` or `.std` depending on `extension`; the
/// same seed gives the same traces in both encodings.  Budgets are the
/// size ±2 %.
pub fn table1(dir: &Path, seed: u64, extension: &str, sizes: Sizes) -> io::Result<Vec<Shard>> {
    let mut rng = Rng::new(seed, 1);
    TABLE1_MODELS
        .iter()
        .map(|name| {
            let budget = rng.scaled(sizes.table1_events, 0.98, 1.02);
            let model = benchmarks::benchmark_scaled(name, budget).expect("a Table 1 model");
            let path = dir.join(format!("{name}.{extension}"));
            rapid_gen::emit::write_trace_file(&model.trace, &path)?;
            Ok(Shard {
                path,
                label: (*name).to_owned(),
                wcp_pairs: model.spec.wcp_races,
                hb_pairs: model.spec.hb_races,
            })
        })
        .collect()
}

/// Distinct location pairs `racy-stream` contains: every two racers on
/// every racy variable, each access at a location fixed per
/// (thread, variable).
pub fn racy_pairs() -> usize {
    RACY_VARS * RACERS * (RACERS - 1) / 2
}

/// One `.rwf` v2 container of unsynchronized writes by [`RACERS`] threads
/// to [`RACY_VARS`] variables, with thread-local work and sections of one
/// shared lock mixed in.
///
/// A prologue without any synchronization writes every variable from
/// every pair of racers back to back, so every pair is a race for HB and
/// WCP alike.  Afterwards each (thread, variable) writes only at its own
/// location and everything else is thread-local or lock-protected, so no
/// further pair can appear: both detectors must report exactly
/// [`racy_pairs`] pairs, whatever the seed-chosen schedule.
pub fn racy_stream(dir: &Path, seed: u64, sizes: Sizes) -> io::Result<Shard> {
    let mut rng = Rng::new(seed, 2);
    let path = dir.join("racy.rwf");
    let mut out = RwfStreamWriter::new(BufWriter::new(File::create(&path)?))?;
    let threads: Vec<String> = (0..RACERS).map(|t| format!("racer{t}")).collect();
    let variables: Vec<String> = (0..RACY_VARS).map(|v| format!("racy{v}")).collect();
    let at = |v: usize, t: usize| format!("Racy.java:{}", 100 + 10 * v + t);

    for (v, variable) in variables.iter().enumerate() {
        for a in 0..RACERS {
            for b in a + 1..RACERS {
                out.write(&threads[a], variable, Some(&at(v, a)))?;
                out.write(&threads[b], variable, Some(&at(v, b)))?;
            }
        }
    }
    let target = rng.scaled(sizes.racy_events, 0.98, 1.02) as u64;
    while out.events_written() < target {
        let t = rng.below(RACERS);
        let thread = &threads[t];
        match rng.below(100) {
            0..=49 => {
                let v = rng.below(RACY_VARS);
                out.write(thread, &variables[v], Some(&at(v, t)))?;
            }
            50..=94 => {
                let k = rng.below(4);
                let local = format!("local{t}_{k}");
                let location = format!("Local.java:{}", 10 * t + k);
                if k.is_multiple_of(2) {
                    out.read(thread, &local, Some(&location))?;
                } else {
                    out.write(thread, &local, Some(&location))?;
                }
            }
            _ => {
                out.acquire(thread, "guard", Some("Guard.java:1"))?;
                out.write(thread, "guarded", Some("Guard.java:2"))?;
                out.release(thread, "guard", Some("Guard.java:3"))?;
            }
        }
    }
    out.finish()?.flush()?;
    Ok(Shard { path, label: "racy".to_owned(), wcp_pairs: racy_pairs(), hb_pairs: racy_pairs() })
}

/// One shard of a service job, held in memory with its thread names still
/// carrying the placeholder tag.
#[derive(Debug, Clone)]
pub struct ServiceShard {
    pub model: &'static str,
    pub bytes: Vec<u8>,
    /// Occurrences of the placeholder: one per thread name.
    tags: usize,
    pub wcp_pairs: usize,
    pub hb_pairs: usize,
}

/// A job shape: [`JOB_SHARDS`] small shards drawn from the Table 1 models.
#[derive(Debug, Clone)]
pub struct BaseJob {
    pub shards: Vec<ServiceShard>,
}

impl BaseJob {
    /// The identity of the whole job (all shard bytes in order).
    pub fn content(&self) -> ContentId {
        let bytes: Vec<u8> = self.shards.iter().flat_map(|s| s.bytes.iter().copied()).collect();
        ContentId::of(&bytes)
    }

    /// Writes the job's shards with every placeholder replaced by `tag`, so
    /// each tag gives distinct bytes with identical race verdicts.
    pub fn write_variant(&self, dir: &Path, tag: u32) -> io::Result<Vec<PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let stamp = format!("{tag:08x}");
        self.shards
            .iter()
            .enumerate()
            .map(|(index, shard)| {
                let (bytes, replaced) = retag(&shard.bytes, stamp.as_bytes());
                if replaced != shard.tags {
                    return Err(io::Error::other("service shard lost its thread-name tags"));
                }
                let path = dir.join(format!("shard{index:02}.rwf"));
                std::fs::write(&path, bytes)?;
                Ok(path)
            })
            .collect()
    }
}

fn count_placeholders(bytes: &[u8]) -> usize {
    bytes.windows(PLACEHOLDER.len()).filter(|window| window == PLACEHOLDER).count()
}

/// `bytes` with every placeholder overwritten by `stamp` (same length), and
/// how many were replaced.
fn retag(bytes: &[u8], stamp: &[u8]) -> (Vec<u8>, usize) {
    let mut out = bytes.to_vec();
    let (mut at, mut replaced) = (0, 0);
    while at + PLACEHOLDER.len() <= out.len() {
        if &out[at..at + PLACEHOLDER.len()] == PLACEHOLDER {
            out[at..at + PLACEHOLDER.len()].copy_from_slice(stamp);
            at += PLACEHOLDER.len();
            replaced += 1;
        } else {
            at += 1;
        }
    }
    (out, replaced)
}

/// Resolves a generated trace's names with every thread name tagged.
struct Tagged<'a> {
    trace: &'a Trace,
    threads: Vec<String>,
}

impl NameResolver for Tagged<'_> {
    fn thread_name(&self, thread: ThreadId) -> Option<&str> {
        self.threads.get(thread.index()).map(String::as_str)
    }

    fn lock_name(&self, lock: LockId) -> Option<&str> {
        self.trace.lock_name(lock)
    }

    fn variable_name(&self, variable: VarId) -> Option<&str> {
        self.trace.variable_name(variable)
    }

    fn location_name(&self, location: Location) -> Option<&str> {
        self.trace.location_name(location)
    }
}

/// [`BASE_JOBS`] job shapes.  Every job holds one shard of each of 16 Table 1
/// models (all but `account` and `airline`), so all jobs cost about the
/// same; the seed picks the shard order and each shard's size (the size
/// ±25 %).
pub fn service_jobs(seed: u64, sizes: Sizes) -> io::Result<Vec<BaseJob>> {
    let mut rng = Rng::new(seed, 3);
    let mut names = rapid_gen::benchmark_names().split_off(2);
    assert_eq!(names.len(), JOB_SHARDS, "one model per job shard");
    (0..BASE_JOBS)
        .map(|_| {
            for at in (1..names.len()).rev() {
                names.swap(at, rng.below(at + 1));
            }
            let shards = names
                .iter()
                .map(|&name| {
                    let budget = rng.scaled(sizes.service_shard_events, 0.75, 1.25);
                    let model = benchmarks::benchmark_scaled(name, budget).expect("a model");
                    let trace = &model.trace;
                    let threads = (0..trace.num_threads())
                        .map(|t| {
                            let id = ThreadId::new(t as u32);
                            let name =
                                trace.thread_name(id).map_or_else(|| id.to_string(), str::to_owned);
                            format!("{name}#{}", String::from_utf8_lossy(PLACEHOLDER))
                        })
                        .collect();
                    let tagged = Tagged { trace, threads };
                    let mut out = RwfStreamWriter::new(Vec::new())?;
                    for event in trace.events() {
                        out.append(event, &tagged)?;
                    }
                    let bytes = out.finish()?;
                    let tags = count_placeholders(&bytes);
                    if tags == 0 {
                        return Err(io::Error::other("service shard has no tagged thread name"));
                    }
                    Ok(ServiceShard {
                        model: model.spec.name,
                        bytes,
                        tags,
                        wcp_pairs: model.spec.wcp_races,
                        hb_pairs: model.spec.hb_races,
                    })
                })
                .collect::<io::Result<Vec<_>>>()?;
            Ok(BaseJob { shards })
        })
        .collect()
}

/// The identities of `paths`' contents, labelled.
pub fn identities(shards: &[Shard]) -> io::Result<Vec<(String, ContentId)>> {
    shards.iter().map(|shard| Ok((shard.label.clone(), ContentId::of_file(&shard.path)?))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Sizes =
        Sizes { table1_events: 3_000, racy_events: 5_000, service_shard_events: 1_000 };

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("perfbench-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    fn all_bytes(seed: u64, dir: &Path) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        for extension in ["rwf", "std"] {
            for shard in table1(dir, seed, extension, SMALL).unwrap() {
                out.push(std::fs::read(&shard.path).unwrap());
            }
        }
        out.push(std::fs::read(racy_stream(dir, seed, SMALL).unwrap().path).unwrap());
        for job in service_jobs(seed, SMALL).unwrap() {
            for path in job.write_variant(&dir.join("job"), 7).unwrap() {
                out.push(std::fs::read(path).unwrap());
            }
        }
        out
    }

    #[test]
    fn one_seed_gives_byte_identical_inputs() {
        let (first, second) = (scratch("a"), scratch("b"));
        let left = all_bytes(42, &first);
        let right = all_bytes(42, &second);
        assert_eq!(left, right, "the same seed must give the same bytes");
        let other = all_bytes(43, &second);
        assert_ne!(left, other, "another seed must give other inputs");
        std::fs::remove_dir_all(first).ok();
        std::fs::remove_dir_all(second).ok();
    }

    #[test]
    fn retagging_changes_only_the_thread_names() {
        let job = &service_jobs(5, SMALL).unwrap()[0];
        let dir = scratch("retag");
        let one = job.write_variant(&dir.join("one"), 1).unwrap();
        let two = job.write_variant(&dir.join("two"), 2).unwrap();
        for (left, right) in one.iter().zip(&two) {
            let (left, right) = (std::fs::read(left).unwrap(), std::fs::read(right).unwrap());
            assert_eq!(left.len(), right.len());
            assert_ne!(left, right, "a fresh tag must change the bytes");
            assert_eq!(count_placeholders(&left), 0);
        }
        std::fs::remove_dir_all(dir).ok();
    }
}
