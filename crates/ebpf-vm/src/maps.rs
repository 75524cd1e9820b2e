//! eBPF maps: the persistent state shared between programs and user space.
//!
//! The paper (§2.1) relies on maps for two things: keeping state across
//! program invocations (the WRR scheduler's weights and last-chosen path)
//! and exchanging data with user-space daemons. This module implements the
//! three map types the use cases need — arrays, per-CPU arrays and
//! perf-event arrays — behind a common [`Map`] trait with both copy
//! semantics (the user-space `bpf()` syscall view) and pointer semantics
//! (`bpf_map_lookup_elem` returning a value reference). Programs only look
//! values up and write through the returned pointer; user space fills
//! arrays with [`Map::update`]. No map deletes entries: array entries
//! always exist, as in the kernel.

use crate::error::{Error, Result};
use crate::perf::PerfEventBuffer;
use parking_lot::RwLock;
use std::sync::Arc;

/// Shared, mutable reference to a map value, handed to programs by
/// `bpf_map_lookup_elem`.
pub type ValueRef = Arc<RwLock<Vec<u8>>>;

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
    /// Reference lookup (program view, as `bpf_map_lookup_elem` returns a
    /// pointer into the value).
    fn lookup_ref(&self, key: &[u8]) -> Option<ValueRef>;
    /// Reference lookup on behalf of a program running on `cpu`. Ordinary
    /// maps have one shared slot and ignore the CPU; per-CPU maps return
    /// the slot owned by that CPU.
    fn lookup_ref_cpu(&self, key: &[u8], cpu: u32) -> Option<ValueRef> {
        let _ = cpu;
        self.lookup_ref(key)
    }
    /// Number of per-CPU slots each entry holds (1 for ordinary maps).
    fn num_cpus(&self) -> u32 {
        1
    }
    /// Overwrite an element (user space only; programs write through the
    /// pointer `bpf_map_lookup_elem` returns).
    fn update(&self, key: &[u8], value: &[u8], flags: UpdateFlags) -> Result<()>;
    /// Snapshot of the current keys (user-space iteration).
    fn keys(&self) -> Vec<Vec<u8>>;
    /// The perf-event buffer, for [`MapType::PerfEventArray`] maps only.
    fn perf_buffer(&self) -> Option<Arc<PerfEventBuffer>> {
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
// Array map
// ---------------------------------------------------------------------------

/// `BPF_MAP_TYPE_ARRAY`: a fixed-size array of zero-initialised values,
/// indexed by a host-endian 32-bit key. Entries can never be deleted.
pub struct ArrayMap {
    values: Vec<ValueRef>,
    value_size: usize,
}

impl ArrayMap {
    /// Creates an array map with `max_entries` zeroed values of
    /// `value_size` bytes.
    pub fn new(value_size: usize, max_entries: usize) -> Arc<Self> {
        Arc::new(ArrayMap {
            values: (0..max_entries).map(|_| Arc::new(RwLock::new(vec![0u8; value_size]))).collect(),
            value_size,
        })
    }

    /// Creates a per-CPU array map sized for [`DEFAULT_NUM_CPUS`] logical
    /// CPUs. Use [`PerCpuArrayMap::new`] to pick the CPU count explicitly.
    pub fn new_per_cpu(value_size: usize, max_entries: usize) -> Arc<PerCpuArrayMap> {
        PerCpuArrayMap::new(value_size, max_entries, DEFAULT_NUM_CPUS)
    }

    fn index(&self, key: &[u8]) -> Option<usize> {
        if key.len() != 4 {
            return None;
        }
        let idx = u32::from_ne_bytes([key[0], key[1], key[2], key[3]]) as usize;
        (idx < self.values.len()).then_some(idx)
    }
}

impl Map for ArrayMap {
    fn map_type(&self) -> MapType {
        MapType::Array
    }
    fn key_size(&self) -> usize {
        4
    }
    fn value_size(&self) -> usize {
        self.value_size
    }
    fn max_entries(&self) -> usize {
        self.values.len()
    }
    fn lookup(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.index(key).map(|i| self.values[i].read().clone())
    }
    fn lookup_ref(&self, key: &[u8]) -> Option<ValueRef> {
        self.index(key).map(|i| Arc::clone(&self.values[i]))
    }
    fn update(&self, key: &[u8], value: &[u8], flags: UpdateFlags) -> Result<()> {
        check_key(self, key)?;
        check_value(self, value)?;
        if flags == UpdateFlags::NoExist {
            return Err(Error::Map("array entries always exist".into()));
        }
        let idx = self.index(key).ok_or_else(|| Error::Map("array index out of bounds".into()))?;
        self.values[idx].write().copy_from_slice(value);
        Ok(())
    }
    fn keys(&self) -> Vec<Vec<u8>> {
        (0..self.values.len() as u32).map(|i| i.to_ne_bytes().to_vec()).collect()
    }
}

// ---------------------------------------------------------------------------
// Per-CPU array map
// ---------------------------------------------------------------------------

/// Default number of logical CPUs a per-CPU map is provisioned for when the
/// embedder does not say. Large enough for any worker count the runtime
/// accepts.
pub const DEFAULT_NUM_CPUS: u32 = 64;

/// `BPF_MAP_TYPE_PERCPU_ARRAY`: a fixed-size array where every entry holds
/// one independent value slot *per logical CPU*.
///
/// A program calling `bpf_map_lookup_elem` receives a pointer to the slot
/// of the CPU it runs on ([`Map::lookup_ref_cpu`] with the environment's
/// CPU id), so concurrent workers never contend or race on shared state —
/// the property the paper's End.BPF datapath gets from the kernel and that
/// the multi-queue runtime reproduces by giving each worker shard its own
/// CPU id. User-space reads see every slot at once, as the `bpf()` syscall
/// does.
pub struct PerCpuArrayMap {
    /// `values[entry][cpu]`.
    values: Vec<Vec<ValueRef>>,
    value_size: usize,
}

impl PerCpuArrayMap {
    /// Creates a per-CPU array with `max_entries` entries of `value_size`
    /// bytes, one slot per CPU for `num_cpus` CPUs.
    pub fn new(value_size: usize, max_entries: usize, num_cpus: u32) -> Arc<Self> {
        let num_cpus = num_cpus.max(1);
        Arc::new(PerCpuArrayMap {
            values: (0..max_entries)
                .map(|_| (0..num_cpus).map(|_| Arc::new(RwLock::new(vec![0u8; value_size]))).collect())
                .collect(),
            value_size,
        })
    }

    fn index(&self, key: &[u8]) -> Option<usize> {
        if key.len() != 4 {
            return None;
        }
        let idx = u32::from_ne_bytes([key[0], key[1], key[2], key[3]]) as usize;
        (idx < self.values.len()).then_some(idx)
    }

    fn cpu_slot(&self, entry: usize, cpu: u32) -> &ValueRef {
        // Out-of-range CPU ids wrap rather than fault: programs obtain the
        // id from the environment, which the embedder already bounds, and
        // wrapping keeps the map usable if it was provisioned for fewer
        // CPUs than the runtime grew to.
        let slots = &self.values[entry];
        &slots[cpu as usize % slots.len()]
    }

    /// User-space view of one CPU's slot.
    pub fn lookup_cpu(&self, key: &[u8], cpu: u32) -> Option<Vec<u8>> {
        self.index(key).map(|i| self.cpu_slot(i, cpu).read().clone())
    }

    /// User-space update of one CPU's slot.
    pub fn update_cpu(&self, key: &[u8], cpu: u32, value: &[u8]) -> Result<()> {
        if value.len() != self.value_size {
            return Err(Error::Map(format!(
                "value size mismatch: expected {}, got {}",
                self.value_size,
                value.len()
            )));
        }
        let idx = self.index(key).ok_or_else(|| Error::Map("array index out of bounds".into()))?;
        self.cpu_slot(idx, cpu).write().copy_from_slice(value);
        Ok(())
    }
}

impl Map for PerCpuArrayMap {
    fn map_type(&self) -> MapType {
        MapType::PerCpuArray
    }
    fn key_size(&self) -> usize {
        4
    }
    fn value_size(&self) -> usize {
        self.value_size
    }
    fn max_entries(&self) -> usize {
        self.values.len()
    }
    fn num_cpus(&self) -> u32 {
        self.values.first().map_or(1, |slots| slots.len() as u32)
    }
    /// The user-space view: all CPU slots of the entry, concatenated in CPU
    /// order (the layout `bpf_map_lookup_elem` presents to the syscall).
    fn lookup(&self, key: &[u8]) -> Option<Vec<u8>> {
        let idx = self.index(key)?;
        let mut out = Vec::with_capacity(self.value_size * self.values[idx].len());
        for slot in &self.values[idx] {
            out.extend_from_slice(&slot.read());
        }
        Some(out)
    }
    fn lookup_ref(&self, key: &[u8]) -> Option<ValueRef> {
        self.lookup_ref_cpu(key, 0)
    }
    fn lookup_ref_cpu(&self, key: &[u8], cpu: u32) -> Option<ValueRef> {
        self.index(key).map(|i| Arc::clone(self.cpu_slot(i, cpu)))
    }
    /// User-space update: writes the same value into *every* CPU slot (the
    /// common initialisation pattern). Use [`PerCpuArrayMap::update_cpu`]
    /// to touch one slot.
    fn update(&self, key: &[u8], value: &[u8], flags: UpdateFlags) -> Result<()> {
        check_key(self, key)?;
        check_value(self, value)?;
        if flags == UpdateFlags::NoExist {
            return Err(Error::Map("array entries always exist".into()));
        }
        let idx = self.index(key).ok_or_else(|| Error::Map("array index out of bounds".into()))?;
        for slot in &self.values[idx] {
            slot.write().copy_from_slice(value);
        }
        Ok(())
    }
    fn keys(&self) -> Vec<Vec<u8>> {
        (0..self.values.len() as u32).map(|i| i.to_ne_bytes().to_vec()).collect()
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
    fn lookup_ref(&self, _key: &[u8]) -> Option<ValueRef> {
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
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn array_lookup_ref_aliases_storage() {
        let map = ArrayMap::new(4, 1);
        let slot = map.lookup_ref(&0u32.to_ne_bytes()).unwrap();
        slot.write().copy_from_slice(&[9, 9, 9, 9]);
        assert_eq!(map.lookup(&0u32.to_ne_bytes()), Some(vec![9, 9, 9, 9]));
    }

    #[test]
    fn perf_event_array_exposes_its_buffer() {
        let map = PerfEventArray::new(8);
        assert!(map.perf_buffer().is_some());
        assert!(map.update(&[0; 4], &[0; 4], UpdateFlags::Any).is_err());
        assert_eq!(map.map_type(), MapType::PerfEventArray);
    }

    #[test]
    fn per_cpu_array_gives_each_cpu_its_own_slot() {
        let map = PerCpuArrayMap::new(4, 2, 4);
        assert_eq!(map.map_type(), MapType::PerCpuArray);
        assert_eq!(map.num_cpus(), 4);
        let key = 1u32.to_ne_bytes();
        // Writes through a CPU's reference land only in that CPU's slot.
        for cpu in 0..4u32 {
            let slot = map.lookup_ref_cpu(&key, cpu).unwrap();
            slot.write().copy_from_slice(&[cpu as u8; 4]);
        }
        for cpu in 0..4u32 {
            assert_eq!(map.lookup_cpu(&key, cpu), Some(vec![cpu as u8; 4]));
        }
        // Distinct CPUs share nothing; the same CPU sees its own state.
        assert_ne!(map.lookup_cpu(&key, 0), map.lookup_cpu(&key, 1));
        // User-space sees every slot concatenated in CPU order.
        assert_eq!(map.lookup(&key), Some(vec![0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3]));
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
