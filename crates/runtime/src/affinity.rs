//! CPU affinity for shard threads.
//!
//! A shard thread that migrates between cores drags its cache footprint
//! along with it. This module gives the pool the placement primitive real
//! datapaths use: `sched_setaffinity(2)` to pin each shard to one core,
//! resolved by a [`PinPolicy`] against the cores the process may use.
//!
//! The syscall FFI is libc-free in the repository's sense — `extern "C"`
//! declarations of the wrappers std already links, like srv6d's
//! `signal(2)` and `ebpf-vm::codegen`'s `mmap`. Non-Linux hosts compile
//! clean: pinning reports [`std::io::ErrorKind::Unsupported`] and the
//! core list falls back to `available_parallelism`, so callers need no
//! `cfg` of their own.

use std::io;
use std::str::FromStr;

/// How the pool maps shard threads onto CPU cores.
///
/// Policies resolve against the *available* core list (the process
/// affinity mask, so container cpusets are respected) at spawn time via
/// [`PinPolicy::plan`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum PinPolicy {
    /// No pinning: threads float wherever the scheduler puts them.
    #[default]
    None,
    /// Shard `i` → the `i`-th available core (wrapping): dense packing,
    /// shares caches, leaves the remaining cores free.
    Compact,
    /// Shards spread evenly across the available cores: shard `i` of `w`
    /// → core `i * cores / w` — maximises cache and memory-channel
    /// spacing on big hosts.
    Spread,
    /// An explicit core list: shard `i` → `cores[i % len]`.
    Explicit(Vec<u32>),
}

impl PinPolicy {
    /// Resolves the policy to one target core per shard, against the
    /// `cores` this process may run on. `None` entries mean "leave this
    /// shard unpinned" (always the case for [`PinPolicy::None`], and for
    /// every shard when the core list is empty).
    pub fn plan(&self, workers: u32, cores: &[u32]) -> Vec<Option<u32>> {
        let workers = workers.max(1) as usize;
        if cores.is_empty() {
            return vec![None; workers];
        }
        (0..workers)
            .map(|i| match self {
                PinPolicy::None => None,
                PinPolicy::Compact => Some(cores[i % cores.len()]),
                PinPolicy::Spread => Some(cores[(i * cores.len()) / workers % cores.len()]),
                PinPolicy::Explicit(list) => {
                    if list.is_empty() {
                        None
                    } else {
                        Some(list[i % list.len()])
                    }
                }
            })
            .collect()
    }
}

impl FromStr for PinPolicy {
    type Err = String;

    /// Parses `none`, `compact`, `spread`, or an explicit comma-separated
    /// core list like `0,2,4` — the grammar srv6d's `pin =` key uses.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim() {
            "none" => Ok(PinPolicy::None),
            "compact" => Ok(PinPolicy::Compact),
            "spread" => Ok(PinPolicy::Spread),
            list => {
                let cores: Result<Vec<u32>, _> = list.split(',').map(|c| c.trim().parse::<u32>()).collect();
                match cores {
                    Ok(cores) if !cores.is_empty() => Ok(PinPolicy::Explicit(cores)),
                    _ => Err(format!(
                        "bad pin policy '{s}' (expected none/compact/spread or a core list like 0,2,4)"
                    )),
                }
            }
        }
    }
}

impl std::fmt::Display for PinPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PinPolicy::None => f.write_str("none"),
            PinPolicy::Compact => f.write_str("compact"),
            PinPolicy::Spread => f.write_str("spread"),
            PinPolicy::Explicit(cores) => {
                for (i, c) in cores.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{c}")?;
                }
                Ok(())
            }
        }
    }
}

/// Size of the affinity mask we exchange with the kernel: 1024 CPUs, the
/// kernel's own `CPU_SETSIZE`.
const MASK_WORDS: usize = 1024 / 64;

#[cfg(target_os = "linux")]
mod sys {
    use super::MASK_WORDS;
    use std::io;

    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    }

    /// Pins the calling thread to `core` alone.
    pub fn pin_current_thread(core: u32) -> io::Result<()> {
        if core as usize >= MASK_WORDS * 64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("core {core} beyond the {}-cpu mask", MASK_WORDS * 64),
            ));
        }
        let mut mask = [0u64; MASK_WORDS];
        mask[core as usize / 64] |= 1u64 << (core % 64);
        // SAFETY: the mask is a valid, initialised buffer of exactly
        // `cpusetsize` bytes; pid 0 targets the calling thread.
        let rc = unsafe { sched_setaffinity(0, MASK_WORDS * 8, mask.as_ptr()) };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// The cores the calling thread may run on, ascending.
    pub fn allowed_cores() -> Option<Vec<u32>> {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: the mask buffer is writable for exactly `cpusetsize`
        // bytes; pid 0 targets the calling thread.
        let rc = unsafe { sched_getaffinity(0, MASK_WORDS * 8, mask.as_mut_ptr()) };
        if rc != 0 {
            return None;
        }
        let mut cores = Vec::new();
        for (w, word) in mask.iter().enumerate() {
            for b in 0..64 {
                if word & (1u64 << b) != 0 {
                    cores.push((w * 64 + b) as u32);
                }
            }
        }
        Some(cores)
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use std::io;

    pub fn pin_current_thread(_core: u32) -> io::Result<()> {
        Err(io::Error::new(io::ErrorKind::Unsupported, "thread pinning requires Linux"))
    }

    pub fn allowed_cores() -> Option<Vec<u32>> {
        None
    }
}

/// Pins the calling thread to `core` alone (`sched_setaffinity(2)` with a
/// one-bit mask). `Unsupported` off Linux; other errors mean the core
/// does not exist or the cpuset forbids it.
pub fn pin_current_thread(core: u32) -> io::Result<()> {
    sys::pin_current_thread(core)
}

/// The cores this thread is allowed to run on, ascending — the universe
/// pin policies resolve against. Falls back to `0..available_parallelism`
/// where the affinity mask cannot be read (non-Linux).
pub fn available_cores() -> Vec<u32> {
    if let Some(cores) = sys::allowed_cores() {
        if !cores.is_empty() {
            return cores;
        }
    }
    let n = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    (0..n as u32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_parse_and_display() {
        assert_eq!("none".parse::<PinPolicy>().unwrap(), PinPolicy::None);
        assert_eq!("compact".parse::<PinPolicy>().unwrap(), PinPolicy::Compact);
        assert_eq!("spread".parse::<PinPolicy>().unwrap(), PinPolicy::Spread);
        assert_eq!(" 0, 2,4 ".parse::<PinPolicy>().unwrap(), PinPolicy::Explicit(vec![0, 2, 4]));
        assert!("fastest".parse::<PinPolicy>().is_err());
        assert!("".parse::<PinPolicy>().is_err());
        assert_eq!(PinPolicy::Explicit(vec![1, 3]).to_string(), "1,3");
        assert_eq!(PinPolicy::Spread.to_string(), "spread");
    }

    #[test]
    fn plans_map_shards_to_cores() {
        let cores = [0, 1, 2, 3, 4, 5, 6, 7];
        assert_eq!(PinPolicy::None.plan(4, &cores), vec![None; 4]);
        assert_eq!(PinPolicy::Compact.plan(3, &cores), vec![Some(0), Some(1), Some(2)]);
        // Spread spaces 2 shards half the core list apart.
        assert_eq!(PinPolicy::Spread.plan(2, &cores), vec![Some(0), Some(4)]);
        assert_eq!(PinPolicy::Spread.plan(4, &cores), vec![Some(0), Some(2), Some(4), Some(6)]);
        // Explicit lists wrap; oversubscription is the operator's call.
        assert_eq!(PinPolicy::Explicit(vec![6, 7]).plan(3, &cores), vec![Some(6), Some(7), Some(6)]);
        // Sparse affinity masks (cgroup cpusets) are respected, not
        // assumed contiguous.
        assert_eq!(PinPolicy::Compact.plan(2, &[3, 9]), vec![Some(3), Some(9)]);
        // No visible cores → nothing to pin to.
        assert_eq!(PinPolicy::Compact.plan(2, &[]), vec![None, None]);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn pinning_the_current_thread_works() {
        let cores = available_cores();
        assert!(!cores.is_empty());
        let core = cores[0];
        pin_current_thread(core).expect("pin to an allowed core");
        // The mask now contains exactly that core.
        assert_eq!(sys::allowed_cores().unwrap(), vec![core]);
        // Restore the original mask for whatever shares this thread.
        restore_mask(&cores);
        assert_eq!(sys::allowed_cores().unwrap(), cores);
        // An impossible core is an error, not a panic.
        assert!(pin_current_thread(100_000).is_err());
    }

    #[cfg(target_os = "linux")]
    fn restore_mask(cores: &[u32]) {
        #[allow(unsafe_code)]
        {
            extern "C" {
                fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
            }
            let mut mask = [0u64; MASK_WORDS];
            for &c in cores {
                mask[c as usize / 64] |= 1u64 << (c % 64);
            }
            // SAFETY: valid mask buffer of the declared size.
            let rc = unsafe { sched_setaffinity(0, MASK_WORDS * 8, mask.as_ptr()) };
            assert_eq!(rc, 0);
        }
    }
}
