//! eBPF maps: the persistent state shared between programs and user space.
//!
//! The paper (§2.1) relies on maps for two things: keeping state across
//! program invocations (the WRR scheduler's weights and last-chosen path)
//! and exchanging data with user-space daemons. This module implements the
//! three map types the use cases need — arrays, per-CPU arrays and
//! perf-event arrays — behind a common [`Map`] trait. User space copies
//! values in and out ([`Map::lookup`], [`Map::update`]); programs look a
//! value up with `bpf_map_lookup_elem` and read and write it in place. No
//! map deletes entries: array entries always exist, as in the kernel.
//!
//! ## Layout
//!
//! An array map is laid out as the kernel lays out `struct bpf_array`: one
//! [`Arena`] of `max_entries` elements of `round_up(value_size, 8)` bytes,
//! 8-byte aligned. A per-CPU array has one such block per CPU, one after
//! the other. Loading a program makes each map it references one region of
//! its address space ([`ProgramMaps`]), so a lookup is arithmetic on the
//! arena's shape — `key < max_entries ? base + (cpu % cpus) × block +
//! key × elem : NULL` — the sequence the kernel's `array_map_gen_lookup`
//! inlines, and two lookups of one key return one address. A program
//! reaches only the first `value_size` bytes of an element: the padding
//! behind them faults.
//!
//! ## Memory model
//!
//! Programs write values in place — native code with plain stores — while
//! user space may copy the same values in and out on another thread. The
//! kernel takes no lock there either: a concurrent reader sees racy bytes,
//! possibly a torn value, and `BPF_F_LOCK` (out of scope here) is its
//! opt-in remedy. So the arena is `UnsafeCell` memory that nothing ever
//! borrows: every access — the interpreter's, a helper's, user space's —
//! is a byte copy through a raw pointer after a bounds check against the
//! layout, and there is no lock for a writer to ignore. A per-CPU map
//! gives each CPU (worker shard) its own block, so programs on different
//! shards never write the same bytes.
#![allow(unsafe_code)]

use crate::error::{Error, Result};
use crate::perf::PerfEventBuffer;
use crate::vm::{fd_from_map_ptr, MAP_VALUE_BASE, MAP_VALUE_STRIDE};
use std::cell::UnsafeCell;
use std::sync::Arc;

/// Shared handle to a map.
pub type MapHandle = Arc<dyn Map>;

/// The map types implemented by this crate: the array family the paper's
/// use cases (§4) need.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MapType {
    /// Fixed-size array indexed by a 32-bit key.
    Array,
    /// Per-CPU array: every entry holds one independent value slot per
    /// logical CPU (worker shard), and programs transparently address the
    /// slot of the CPU they run on.
    PerCpuArray,
    /// Perf-event array used by `bpf_perf_event_output`.
    PerfEventArray,
}

/// Update flags mirroring `BPF_ANY` / `BPF_NOEXIST` / `BPF_EXIST`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UpdateFlags {
    /// Create or overwrite.
    #[default]
    Any,
    /// Only create; fail if the key exists.
    NoExist,
    /// Only overwrite; fail if the key does not exist.
    Exist,
}

/// Common interface of all maps.
pub trait Map: Send + Sync {
    /// The map's type.
    fn map_type(&self) -> MapType;
    /// Key size in bytes.
    fn key_size(&self) -> usize;
    /// Value size in bytes.
    fn value_size(&self) -> usize;
    /// Maximum number of entries.
    fn max_entries(&self) -> usize;
    /// Copy-out lookup (user-space view). For per-CPU maps this returns the
    /// concatenation of every CPU's slot, as the `bpf()` syscall does.
    fn lookup(&self, key: &[u8]) -> Option<Vec<u8>>;
    /// Number of per-CPU slots each entry holds (1 for ordinary maps).
    fn num_cpus(&self) -> u32 {
        1
    }
    /// Overwrite an element (user space only; programs write through the
    /// pointer `bpf_map_lookup_elem` returns).
    fn update(&self, key: &[u8], value: &[u8], flags: UpdateFlags) -> Result<()>;
    /// Snapshot of the current keys (user-space iteration).
    fn keys(&self) -> Vec<Vec<u8>>;
    /// The perf-event buffer, for [`MapType::PerfEventArray`] maps only:
    /// a handle for the daemons that drain it.
    fn perf_buffer(&self) -> Option<Arc<PerfEventBuffer>> {
        None
    }
    /// The same buffer, borrowed: where `bpf_perf_event_output` writes,
    /// with no reference count taken per record.
    fn perf_ring(&self) -> Option<&PerfEventBuffer> {
        None
    }
    /// Where the values live, for the maps programs look values up in.
    fn arena(&self) -> Option<&Arena> {
        None
    }
}

fn check_key(map: &dyn Map, key: &[u8]) -> Result<()> {
    if key.len() != map.key_size() {
        return Err(Error::Map(format!("key size mismatch: expected {}, got {}", map.key_size(), key.len())));
    }
    Ok(())
}

fn check_value(map: &dyn Map, value: &[u8]) -> Result<()> {
    if value.len() != map.value_size() {
        return Err(Error::Map(format!(
            "value size mismatch: expected {}, got {}",
            map.value_size(),
            value.len()
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Arenas
// ---------------------------------------------------------------------------

/// The shape of an [`Arena`]: `cpus` blocks of `max_entries` elements of
/// `elem` bytes, of which a program reaches the first `value_size`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ArenaLayout {
    /// Bytes of one value.
    pub value_size: u32,
    /// Bytes from one element to the next: `value_size` rounded up to 8.
    pub elem: u32,
    /// Elements per block.
    pub max_entries: u32,
    /// Blocks, one per CPU (1 for a plain array).
    pub cpus: u32,
}

impl ArenaLayout {
    /// Bytes of one CPU's block.
    pub(crate) fn block(&self) -> u64 {
        u64::from(self.max_entries) * u64::from(self.elem)
    }

    /// Bytes of the whole arena.
    fn size(&self) -> u64 {
        self.block() * u64::from(self.cpus)
    }

    /// Offset of `key`'s value for `cpu` from the arena's start; `None`
    /// (a NULL lookup) past `max_entries`. CPU ids wrap rather than fault:
    /// programs obtain the id from the environment, which the embedder
    /// already bounds, and wrapping keeps a map usable if it was
    /// provisioned for fewer CPUs than the runtime grew to.
    fn offset(&self, key: u32, cpu: u32) -> Option<u64> {
        (key < self.max_entries)
            .then(|| u64::from(cpu % self.cpus) * self.block() + u64::from(key) * u64::from(self.elem))
    }

    /// Whether the `len` bytes at `offset` lie inside one value, not in
    /// the padding behind it or past the arena.
    fn holds(&self, offset: u64, len: usize) -> bool {
        offset < self.size() && offset % u64::from(self.elem) + len as u64 <= u64::from(self.value_size)
    }
}

/// The values of one array-family map, for every CPU: zeroed, 8-byte
/// aligned memory that is only ever copied through raw pointers (see the
/// module's memory model).
pub struct Arena {
    words: Box<[UnsafeCell<u64>]>,
    layout: ArenaLayout,
}

// SAFETY: nothing borrows the words; every access is a raw-pointer copy
// inside the layout (`copy_out` / `copy_in`, and native code within the
// bounds the verifier or the emitted checks prove), and concurrent copies
// race only as the module documents.
unsafe impl Sync for Arena {}

impl Arena {
    fn new(value_size: usize, max_entries: usize, cpus: u32) -> Arena {
        let elem = value_size.max(1).next_multiple_of(8);
        let words = max_entries * elem * cpus as usize / 8;
        Arena {
            words: (0..words).map(|_| UnsafeCell::new(0)).collect(),
            layout: ArenaLayout {
                value_size: value_size as u32,
                elem: elem as u32,
                max_entries: max_entries as u32,
                cpus,
            },
        }
    }

    /// Host address of the first byte, stable for the arena's life.
    pub(crate) fn host(&self) -> u64 {
        self.words.as_ptr() as u64
    }

    /// Copies the value bytes at `offset` into `out`, if they lie inside
    /// one value.
    fn copy_out(&self, offset: u64, out: &mut [u8]) -> Option<()> {
        self.layout.holds(offset, out.len()).then(|| {
            // SAFETY: the bytes lie inside the arena (checked above), which
            // `self` keeps alive; see the module's memory model for races.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    (self.host() + offset) as *const u8,
                    out.as_mut_ptr(),
                    out.len(),
                )
            }
        })
    }

    /// Copies `bytes` over the value bytes at `offset`, if they lie inside
    /// one value.
    fn copy_in(&self, offset: u64, bytes: &[u8]) -> Option<()> {
        self.layout.holds(offset, bytes.len()).then(|| {
            // SAFETY: as in `copy_out`; the arena is `UnsafeCell` memory,
            // so writing through a shared reference is allowed.
            unsafe {
                std::ptr::copy_nonoverlapping(bytes.as_ptr(), (self.host() + offset) as *mut u8, bytes.len())
            }
        })
    }
}

// ---------------------------------------------------------------------------
// Array and per-CPU array maps
// ---------------------------------------------------------------------------

/// The array family: a fixed-size array of zero-initialised values indexed
/// by a host-endian 32-bit key, one [`Arena`] holding them. Entries can
/// never be deleted. Used through its two shapes, [`ArrayMap`] and
/// [`PerCpuArrayMap`].
pub struct Array<const PER_CPU: bool> {
    arena: Arena,
}

/// `BPF_MAP_TYPE_ARRAY`: one value per entry, shared by every CPU.
pub type ArrayMap = Array<false>;

/// `BPF_MAP_TYPE_PERCPU_ARRAY`: every entry holds one independent value
/// slot *per logical CPU*.
///
/// A program calling `bpf_map_lookup_elem` receives a pointer to the slot
/// of the CPU it runs on, so concurrent workers never contend or race on
/// shared state — the property the paper's End.BPF datapath gets from the
/// kernel and that the multi-queue runtime reproduces by giving each worker
/// shard its own CPU id. User-space reads see every slot at once, as the
/// `bpf()` syscall does.
pub type PerCpuArrayMap = Array<true>;

/// Default number of logical CPUs a per-CPU map is provisioned for when the
/// embedder does not say. Large enough for any worker count the runtime
/// accepts.
pub const DEFAULT_NUM_CPUS: u32 = 64;

impl ArrayMap {
    /// Creates an array map with `max_entries` zeroed values of
    /// `value_size` bytes.
    pub fn new(value_size: usize, max_entries: usize) -> Arc<Self> {
        Arc::new(Array { arena: Arena::new(value_size, max_entries, 1) })
    }

    /// Creates a per-CPU array map sized for [`DEFAULT_NUM_CPUS`] logical
    /// CPUs. Use [`PerCpuArrayMap`]'s `new` to pick the CPU count.
    pub fn new_per_cpu(value_size: usize, max_entries: usize) -> Arc<PerCpuArrayMap> {
        PerCpuArrayMap::new(value_size, max_entries, DEFAULT_NUM_CPUS)
    }
}

impl PerCpuArrayMap {
    /// Creates a per-CPU array with `max_entries` entries of `value_size`
    /// bytes, one slot per CPU for `num_cpus` CPUs.
    pub fn new(value_size: usize, max_entries: usize, num_cpus: u32) -> Arc<Self> {
        Arc::new(Array { arena: Arena::new(value_size, max_entries, num_cpus.max(1)) })
    }

    /// User-space view of one CPU's slot.
    pub fn lookup_cpu(&self, key: &[u8], cpu: u32) -> Option<Vec<u8>> {
        let mut out = vec![0; self.value_size()];
        self.arena.copy_out(self.offset(key, cpu)?, &mut out)?;
        Some(out)
    }

    /// User-space update of one CPU's slot.
    pub fn update_cpu(&self, key: &[u8], cpu: u32, value: &[u8]) -> Result<()> {
        check_value(self, value)?;
        self.update_slot(key, cpu, value)
    }
}

impl<const PER_CPU: bool> Array<PER_CPU> {
    fn offset(&self, key: &[u8], cpu: u32) -> Option<u64> {
        self.arena.layout.offset(u32::from_ne_bytes(key.try_into().ok()?), cpu)
    }

    /// Copies a `value_size` value into `key`'s slot for `cpu`.
    fn update_slot(&self, key: &[u8], cpu: u32, value: &[u8]) -> Result<()> {
        let offset = self.offset(key, cpu).ok_or_else(|| Error::Map("array index out of bounds".into()))?;
        self.arena.copy_in(offset, value).ok_or_else(|| Error::Map("value size mismatch".into()))
    }
}

impl<const PER_CPU: bool> Map for Array<PER_CPU> {
    fn map_type(&self) -> MapType {
        if PER_CPU {
            MapType::PerCpuArray
        } else {
            MapType::Array
        }
    }
    fn key_size(&self) -> usize {
        4
    }
    fn value_size(&self) -> usize {
        self.arena.layout.value_size as usize
    }
    fn max_entries(&self) -> usize {
        self.arena.layout.max_entries as usize
    }
    fn num_cpus(&self) -> u32 {
        self.arena.layout.cpus
    }
    /// The user-space view: all CPU slots of the entry, concatenated in CPU
    /// order (the layout `bpf_map_lookup_elem` presents to the syscall).
    fn lookup(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.offset(key, 0)?;
        let mut out = vec![0; self.value_size() * self.num_cpus() as usize];
        for (cpu, slot) in out.chunks_mut(self.value_size().max(1)).enumerate() {
            self.arena.copy_out(self.offset(key, cpu as u32)?, slot)?;
        }
        Some(out)
    }
    /// User-space update: writes the same value into *every* CPU slot (the
    /// common initialisation pattern). Use [`PerCpuArrayMap`]'s
    /// `update_cpu` to touch one slot.
    fn update(&self, key: &[u8], value: &[u8], flags: UpdateFlags) -> Result<()> {
        check_key(self, key)?;
        check_value(self, value)?;
        if flags == UpdateFlags::NoExist {
            return Err(Error::Map("array entries always exist".into()));
        }
        for cpu in 0..self.num_cpus() {
            self.update_slot(key, cpu, value)?;
        }
        Ok(())
    }
    fn keys(&self) -> Vec<Vec<u8>> {
        (0..self.arena.layout.max_entries).map(|i| i.to_ne_bytes().to_vec()).collect()
    }
    fn arena(&self) -> Option<&Arena> {
        Some(&self.arena)
    }
}

// ---------------------------------------------------------------------------
// Perf event array
// ---------------------------------------------------------------------------

/// `BPF_MAP_TYPE_PERF_EVENT_ARRAY`: the map handed to
/// `bpf_perf_event_output`. Lookups are meaningless; the interesting part is
/// the attached ring buffer that user-space daemons poll.
pub struct PerfEventArray {
    buffer: Arc<PerfEventBuffer>,
}

impl PerfEventArray {
    /// Creates a perf-event array backed by a single ring of `capacity`
    /// events.
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(PerfEventArray { buffer: Arc::new(PerfEventBuffer::new(capacity)) })
    }

    /// Creates a perf-event array with one `capacity`-event ring per CPU,
    /// the shape the multi-queue runtime attaches so worker shards never
    /// contend on event output.
    pub fn per_cpu(capacity: usize, num_cpus: u32) -> Arc<Self> {
        Arc::new(PerfEventArray { buffer: Arc::new(PerfEventBuffer::with_rings(capacity, num_cpus)) })
    }
}

impl Map for PerfEventArray {
    fn map_type(&self) -> MapType {
        MapType::PerfEventArray
    }
    fn key_size(&self) -> usize {
        4
    }
    fn value_size(&self) -> usize {
        4
    }
    fn max_entries(&self) -> usize {
        1
    }
    fn lookup(&self, _key: &[u8]) -> Option<Vec<u8>> {
        None
    }
    fn update(&self, _key: &[u8], _value: &[u8], _flags: UpdateFlags) -> Result<()> {
        Err(Error::Map("perf event arrays are not updated directly".into()))
    }
    fn keys(&self) -> Vec<Vec<u8>> {
        Vec::new()
    }
    fn perf_buffer(&self) -> Option<Arc<PerfEventBuffer>> {
        Some(Arc::clone(&self.buffer))
    }
    fn perf_ring(&self) -> Option<&PerfEventBuffer> {
        Some(&self.buffer)
    }
}

// ---------------------------------------------------------------------------
// A program's maps
// ---------------------------------------------------------------------------

/// The maps one loaded program references, keyed by the fd its bytecode
/// uses, laid out at load as the program's map-value address space: the
/// `i`-th map in fd order is the region at `MAP_VALUE_BASE + i ×
/// MAP_VALUE_STRIDE`, and a map without an arena (a perf-event array) is
/// an empty region. The layout belongs to the program, not to a run
/// state: one state serves several programs, and fds repeat across
/// programs. (Every map takes an `lddw`, two of the at most
/// [`crate::insn::MAX_INSNS`] slots, so the regions never run out.)
#[derive(Clone, Default)]
pub struct ProgramMaps {
    maps: Vec<(u32, MapHandle)>,
}

impl ProgramMaps {
    /// Lays out `maps`, fd → map. Fails if an arena outgrows its region.
    pub fn new<'a>(maps: impl IntoIterator<Item = (&'a u32, &'a MapHandle)>) -> Result<ProgramMaps> {
        let mut maps: Vec<(u32, MapHandle)> =
            maps.into_iter().map(|(&fd, map)| (fd, Arc::clone(map))).collect();
        maps.sort_unstable_by_key(|&(fd, _)| fd);
        match maps.iter().find(|(_, map)| map.arena().is_some_and(|a| a.layout.size() > MAP_VALUE_STRIDE)) {
            Some((fd, _)) => Err(Error::Map(format!("map fd {fd} is larger than a map-value region"))),
            None => Ok(ProgramMaps { maps }),
        }
    }

    /// The map with file descriptor `fd`.
    pub fn get(&self, fd: u32) -> Option<&MapHandle> {
        self.maps.iter().find(|(f, _)| *f == fd).map(|(_, map)| map)
    }

    /// The attached fds, in region order.
    pub(crate) fn fds(&self) -> impl Iterator<Item = u32> + '_ {
        self.maps.iter().map(|&(fd, _)| fd)
    }

    /// Map `fd`'s region base and arena, if it has one.
    fn arena(&self, fd: u32) -> Option<(u64, &Arena)> {
        let region = self.maps.iter().position(|&(f, _)| f == fd)?;
        Some((MAP_VALUE_BASE + region as u64 * MAP_VALUE_STRIDE, self.maps[region].1.arena()?))
    }

    /// The region of map `fd`, if it has an arena: its synthetic base and
    /// the arena's layout. A lookup of `key` on `cpu` returns `base +
    /// layout.offset(key, cpu)`, or NULL.
    pub(crate) fn region(&self, fd: u32) -> Option<(u64, ArenaLayout)> {
        self.arena(fd).map(|(base, arena)| (base, arena.layout))
    }

    /// `host address − synthetic address` in map `fd`'s region, constant
    /// for the program's life: native code adds it to a map-value address.
    pub(crate) fn bias(&self, fd: u32) -> Option<u64> {
        self.arena(fd).map(|(base, arena)| arena.host().wrapping_sub(base))
    }

    /// `bpf_map_lookup_elem` on the map `map_ptr` names (a pseudo-map-fd
    /// `lddw` value): the value's address, or 0. `cpu` is asked for only
    /// when the map is per-CPU.
    pub(crate) fn lookup(&self, map_ptr: u64, key: u32, cpu: impl FnOnce() -> u32) -> u64 {
        let Some((base, layout)) = fd_from_map_ptr(map_ptr).and_then(|fd| self.region(fd)) else { return 0 };
        let cpu = if layout.cpus > 1 { cpu() } else { 0 };
        layout.offset(key, cpu).map_or(0, |offset| base + offset)
    }

    /// The arena and offset a map-value address `addr` falls in.
    fn resolve(&self, addr: u64) -> Option<(&Arena, u64)> {
        let region = addr.checked_sub(MAP_VALUE_BASE)? / MAP_VALUE_STRIDE;
        Some((self.maps.get(region as usize)?.1.arena()?, (addr - MAP_VALUE_BASE) % MAP_VALUE_STRIDE))
    }

    /// Copies the value bytes at `addr` into `out`; `None` unless they lie
    /// inside one value of one of the program's maps.
    pub(crate) fn read(&self, addr: u64, out: &mut [u8]) -> Option<()> {
        let (arena, offset) = self.resolve(addr)?;
        arena.copy_out(offset, out)
    }

    /// Copies `bytes` over the value bytes at `addr`, as [`Self::read`].
    pub(crate) fn write(&self, addr: u64, bytes: &[u8]) -> Option<()> {
        let (arena, offset) = self.resolve(addr)?;
        arena.copy_in(offset, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::map_ptr_value;

    #[test]
    fn array_lookup_update_roundtrip() {
        let map = ArrayMap::new(8, 4);
        assert_eq!(map.lookup(&0u32.to_ne_bytes()), Some(vec![0u8; 8]));
        map.update(&2u32.to_ne_bytes(), &[1, 2, 3, 4, 5, 6, 7, 8], UpdateFlags::Any).unwrap();
        assert_eq!(map.lookup(&2u32.to_ne_bytes()), Some(vec![1, 2, 3, 4, 5, 6, 7, 8]));
        assert_eq!(map.lookup(&9u32.to_ne_bytes()), None);
        assert_eq!(map.keys().len(), 4);
        // Exhaustive on purpose: the VM offers exactly the array family, so
        // a new map type must come with a reason to change this match.
        for map in [map as MapHandle, PerCpuArrayMap::new(4, 1, 2), PerfEventArray::new(1)] {
            match map.map_type() {
                MapType::Array | MapType::PerCpuArray | MapType::PerfEventArray => {}
            }
        }
    }

    #[test]
    fn array_rejects_bad_sizes_and_out_of_bounds() {
        let map = ArrayMap::new(8, 2);
        assert!(map.update(&[0u8; 3], &[0u8; 8], UpdateFlags::Any).is_err());
        assert!(map.update(&0u32.to_ne_bytes(), &[0u8; 7], UpdateFlags::Any).is_err());
        assert!(map.update(&5u32.to_ne_bytes(), &[0u8; 8], UpdateFlags::Any).is_err());
    }

    #[test]
    fn array_arena_aliases_storage() {
        let map: MapHandle = ArrayMap::new(12, 3);
        let maps = ProgramMaps::new([(&7u32, &map)]).unwrap();
        // Elements are 16 bytes apart; a value's 12 bytes are reachable,
        // its padding is not.
        let (base, layout) = maps.region(7).unwrap();
        assert_eq!((layout.elem, layout.block(), base), (16, 48, MAP_VALUE_BASE));
        let addr = maps.lookup(map_ptr_value(7), 2, || unreachable!("a plain array asks for no CPU"));
        assert_eq!(addr, base + 32);
        maps.write(addr + 8, &[9, 9, 9, 9]).unwrap();
        assert_eq!(map.lookup(&2u32.to_ne_bytes()).unwrap()[8..], [9, 9, 9, 9]);
        assert!(maps.write(addr + 12, &[1]).is_none());
        assert!(maps.read(addr + 9, &mut [0; 4]).is_none());
        assert!(maps.read(base + layout.size(), &mut [0]).is_none());
        for key in [3, u32::MAX] {
            assert_eq!(maps.lookup(map_ptr_value(7), key, || 0), 0);
        }
        assert_eq!(maps.lookup(map_ptr_value(8), 0, || 0), 0);
    }

    #[test]
    fn perf_event_array_exposes_its_buffer() {
        let map = PerfEventArray::new(8);
        assert!(map.perf_buffer().is_some());
        assert!(std::ptr::eq(map.perf_ring().unwrap(), &*map.perf_buffer().unwrap()));
        assert!(ArrayMap::new(4, 1).perf_ring().is_none());
        assert!(map.update(&[0; 4], &[0; 4], UpdateFlags::Any).is_err());
        assert_eq!(map.map_type(), MapType::PerfEventArray);
    }

    #[test]
    fn per_cpu_array_gives_each_cpu_its_own_slot() {
        let map = PerCpuArrayMap::new(4, 2, 4);
        assert_eq!(map.map_type(), MapType::PerCpuArray);
        assert_eq!(map.num_cpus(), 4);
        let key = 1u32.to_ne_bytes();
        // Writes through a CPU's address land only in that CPU's slot.
        let handle: MapHandle = map.clone();
        let maps = ProgramMaps::new([(&1u32, &handle)]).unwrap();
        for cpu in 0..4u32 {
            let addr = maps.lookup(map_ptr_value(1), 1, || cpu);
            maps.write(addr, &[cpu as u8; 4]).unwrap();
        }
        for cpu in 0..4u32 {
            assert_eq!(map.lookup_cpu(&key, cpu), Some(vec![cpu as u8; 4]));
        }
        // Distinct CPUs share nothing; the same CPU sees its own state.
        assert_ne!(map.lookup_cpu(&key, 0), map.lookup_cpu(&key, 1));
        // User-space sees every slot concatenated in CPU order.
        assert_eq!(map.lookup(&key), Some(vec![0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3]));
        // A CPU id past the map's CPUs wraps.
        assert_eq!(maps.lookup(map_ptr_value(1), 1, || 6), maps.lookup(map_ptr_value(1), 1, || 2));
    }

    #[test]
    fn per_cpu_array_user_space_update_hits_every_slot() {
        let map = PerCpuArrayMap::new(2, 1, 3);
        let key = 0u32.to_ne_bytes();
        map.update(&key, &[7, 7], UpdateFlags::Any).unwrap();
        for cpu in 0..3 {
            assert_eq!(map.lookup_cpu(&key, cpu), Some(vec![7, 7]));
        }
        map.update_cpu(&key, 1, &[9, 9]).unwrap();
        assert_eq!(map.lookup_cpu(&key, 1), Some(vec![9, 9]));
        assert_eq!(map.lookup_cpu(&key, 0), Some(vec![7, 7]));
        // Out-of-range CPU ids wrap.
        assert_eq!(map.lookup_cpu(&key, 4), Some(vec![9, 9]));
        assert!(map.update_cpu(&key, 0, &[1]).is_err());
        assert_eq!(map.keys().len(), 1);
    }

    #[test]
    fn new_per_cpu_provisions_default_cpu_count() {
        let map = ArrayMap::new_per_cpu(4, 2);
        assert_eq!(map.map_type(), MapType::PerCpuArray);
        assert_eq!(map.num_cpus(), DEFAULT_NUM_CPUS);
    }
}
