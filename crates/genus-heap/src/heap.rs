//! The per-execution arena heap and its stop-the-world mark-sweep
//! collector.
//!
//! # Layout
//!
//! Every reference value a Genus program creates — objects, arrays,
//! packed existentials — lives in one [`Heap`] owned by the engine
//! executing the run. A [`Handle`] is a `u32` index into the heap's slot
//! vector; `Value::Obj`/`Arr`/`Packed` carry handles, never host
//! pointers. Allocation is a bump push onto the slot vector (or a pop
//! from the free list once a collection has run); the object *body* is
//! reference-counted host memory so accessors can hand out cheap clones,
//! but the only long-lived owner of that `Rc` is the slot itself —
//! object-to-object references are handles, which is why handle cycles
//! are collectable.
//!
//! # Exact byte accounting
//!
//! Each allocation computes its exact size — the header counts the
//! reified type arguments and model witnesses that Genus objects carry
//! (§4.6, §7.2: reification is what makes the sizes interesting), array
//! payloads count their element-specialized width (§7.3), packed
//! existentials count their witness tables — and charges it to the run's
//! [`Meter`] *before* the object materializes. The meter's `mem_used` is
//! cumulative-allocated, so the `R0010` trap point is a pure function of
//! the program's allocation sequence: identical on the AST interpreter,
//! the VM, and Tier 2, no matter when (or whether) each engine collects.
//!
//! Strings are the one exception: they stay host-managed `Rc<str>`
//! values (immutable, acyclic, shared with the constant pool), so they
//! are metered at concatenation ([`str_bytes`]) but not traced.
//!
//! # Collection
//!
//! [`Heap::collect`] is stop-the-world mark-sweep over engine-supplied
//! roots (frame locals/registers, temporaries, statics, the constant
//! pool, any parked call frame). Engines poll [`Heap::should_collect`]
//! at safe points — statement boundaries in the AST interpreter, the top
//! of the dispatch loop in the VM and Tier 2 — where every live value is
//! reachable from the root set. The trigger is threshold-doubling:
//! collect once live bytes exceed the threshold, then set the threshold
//! to twice the surviving live set (floored at the initial threshold).
//! Setting `GENUS_GC_STRESS=1` makes `should_collect` always true, so
//! stress runs collect at every safe point. Setting `GENUS_GC_OFF=1`
//! disables collection entirely — the heap degenerates to a pure arena
//! (byte *accounting* is unaffected: `mem_used` is charge-driven and
//! identical with the collector on, off, or stressed). The off switch
//! exists for A/B measurements and for bisecting suspected
//! collector bugs; `GENUS_GC_STRESS` wins when both are set.

use crate::meter::Meter;
use crate::value::{
    ArrayData, ModelValue, ObjData, PackedData, RtType, RuntimeError, Storage, Value,
};
use genus_types::{ClassId, PrimTy};
use std::cell::{Cell, RefCell};
use std::mem::size_of;
use std::rc::Rc;

/// An index into the heap's slot table. Two handles are the same object
/// exactly when they are equal, so `==` on handles is reference identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Handle(pub u32);

/// Live bytes that trigger the first collection (and the threshold
/// floor afterwards).
pub const GC_INITIAL_THRESHOLD: u64 = 64 << 10;

/// The body of a heap slot. The `Rc` lets accessors return clones that
/// stay valid while an engine works on the object; the slot is the only
/// *persistent* owner, so a sweep that clears the slot frees the body.
#[derive(Debug, Clone)]
pub enum HeapData {
    /// An object.
    Obj(Rc<ObjData>),
    /// An array.
    Arr(Rc<ArrayData>),
    /// A packed existential.
    Packed(Rc<PackedData>),
}

#[derive(Debug)]
struct Slot {
    data: HeapData,
    /// Exact bytes charged for this allocation (returned to `live` on
    /// sweep).
    bytes: u64,
    /// Allocation sequence number: the deterministic identity hash
    /// (stable across engines because the allocation *order* is what
    /// differential parity already guarantees).
    seq: u32,
    marked: Cell<bool>,
}

/// Collector statistics for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Bytes currently live (allocated minus swept).
    pub live_bytes: u64,
    /// High-water mark of `live_bytes`.
    pub peak_bytes: u64,
    /// Stop-the-world collections performed.
    pub collections: u64,
}

/// The per-execution arena. See the module docs.
#[derive(Debug)]
pub struct Heap {
    slots: RefCell<Vec<Option<Slot>>>,
    free: RefCell<Vec<u32>>,
    live: Cell<u64>,
    peak: Cell<u64>,
    collections: Cell<u64>,
    threshold: Cell<u64>,
    next_seq: Cell<u32>,
    stress: bool,
    /// Collection disabled (`GENUS_GC_OFF`): pure-arena mode.
    off: bool,
}

impl Default for Heap {
    fn default() -> Self {
        Heap::new()
    }
}

impl Heap {
    /// An empty heap. Honours the `GENUS_GC_STRESS` and `GENUS_GC_OFF`
    /// environment variables (any value but `0` enables each; stress
    /// wins when both are set).
    pub fn new() -> Heap {
        let env_on = |name: &str| std::env::var_os(name).is_some_and(|v| v != *"0");
        let stress = env_on("GENUS_GC_STRESS");
        Heap::with_modes(stress, !stress && env_on("GENUS_GC_OFF"))
    }

    /// An empty heap with stress mode set explicitly (tests).
    pub fn with_stress(stress: bool) -> Heap {
        Heap::with_modes(stress, false)
    }

    /// An empty heap with both collector modes set explicitly.
    pub fn with_modes(stress: bool, off: bool) -> Heap {
        Heap {
            slots: RefCell::new(Vec::new()),
            free: RefCell::new(Vec::new()),
            live: Cell::new(0),
            peak: Cell::new(0),
            collections: Cell::new(0),
            threshold: Cell::new(GC_INITIAL_THRESHOLD),
            next_seq: Cell::new(0),
            stress,
            off,
        }
    }

    // ---- allocation -----------------------------------------------------

    /// Allocates an object with the given field slots (one per declared
    /// instance field over the class's superclass chain), charging its
    /// exact byte size to `meter`.
    ///
    /// # Errors
    ///
    /// `R0010` when the charge exceeds the memory limit; the object is
    /// not allocated.
    pub fn alloc_obj(
        &self,
        meter: &Meter,
        class: ClassId,
        targs: Vec<RtType>,
        models: Vec<ModelValue>,
        fields: Vec<Value>,
    ) -> Result<Value, RuntimeError> {
        let bytes = obj_bytes(&targs, &models, fields.len());
        meter.charge(bytes)?;
        let data = HeapData::Obj(Rc::new(ObjData {
            class,
            targs,
            models,
            fields: RefCell::new(fields),
        }));
        Ok(Value::Obj(self.insert(data, bytes)))
    }

    /// Allocates an array of `len` default-initialized elements with
    /// element-specialized storage, charging its exact byte size.
    ///
    /// # Errors
    ///
    /// `R0010` when the charge exceeds the memory limit.
    pub fn alloc_arr(
        &self,
        meter: &Meter,
        elem: RtType,
        len: usize,
    ) -> Result<Value, RuntimeError> {
        let bytes = array_bytes(&elem, len);
        meter.charge(bytes)?;
        let data = HeapData::Arr(Rc::new(ArrayData {
            storage: RefCell::new(Storage::new(&elem, len)),
            elem,
        }));
        Ok(Value::Arr(self.insert(data, bytes)))
    }

    /// Allocates a packed existential, charging its exact byte size.
    ///
    /// # Errors
    ///
    /// `R0010` when the charge exceeds the memory limit.
    pub fn alloc_packed(
        &self,
        meter: &Meter,
        value: Value,
        types: Vec<RtType>,
        models: Vec<ModelValue>,
    ) -> Result<Value, RuntimeError> {
        let bytes = packed_bytes(&types, &models);
        meter.charge(bytes)?;
        let data = HeapData::Packed(Rc::new(PackedData {
            value,
            types,
            models,
        }));
        Ok(Value::Packed(self.insert(data, bytes)))
    }

    fn insert(&self, data: HeapData, bytes: u64) -> Handle {
        let seq = self.next_seq.get();
        self.next_seq.set(seq.wrapping_add(1));
        let slot = Slot {
            data,
            bytes,
            seq,
            marked: Cell::new(false),
        };
        let mut slots = self.slots.borrow_mut();
        let index = match self.free.borrow_mut().pop() {
            Some(i) => {
                slots[i as usize] = Some(slot);
                i
            }
            None => {
                slots.push(Some(slot));
                u32::try_from(slots.len() - 1).expect("heap slot index overflow")
            }
        };
        let live = self.live.get() + bytes;
        self.live.set(live);
        if live > self.peak.get() {
            self.peak.set(live);
        }
        Handle(index)
    }

    // ---- access ---------------------------------------------------------

    /// The object behind `h`.
    ///
    /// # Panics
    ///
    /// Panics on a freed handle or a non-object slot — both are engine
    /// bugs (the type checker guarantees `Obj` handles reach here).
    pub fn obj(&self, h: Handle) -> Rc<ObjData> {
        match &self.slot(h).data {
            HeapData::Obj(o) => Rc::clone(o),
            other => panic!("handle {h:?} is not an object: {other:?}"),
        }
    }

    /// The array behind `h`.
    ///
    /// # Panics
    ///
    /// Panics on a freed handle or a non-array slot (engine bug).
    pub fn arr(&self, h: Handle) -> Rc<ArrayData> {
        match &self.slot(h).data {
            HeapData::Arr(a) => Rc::clone(a),
            other => panic!("handle {h:?} is not an array: {other:?}"),
        }
    }

    /// The packed existential behind `h`.
    ///
    /// # Panics
    ///
    /// Panics on a freed handle or a non-package slot (engine bug).
    pub fn packed(&self, h: Handle) -> Rc<PackedData> {
        match &self.slot(h).data {
            HeapData::Packed(p) => Rc::clone(p),
            other => panic!("handle {h:?} is not a packed existential: {other:?}"),
        }
    }

    fn slot(&self, h: Handle) -> std::cell::Ref<'_, Slot> {
        std::cell::Ref::map(self.slots.borrow(), |slots| {
            slots
                .get(h.0 as usize)
                .and_then(Option::as_ref)
                .unwrap_or_else(|| panic!("stale heap handle {h:?}"))
        })
    }

    /// The deterministic identity hash of a reference: its allocation
    /// sequence number. Engines allocate in the same order (that is what
    /// differential parity guarantees), so `hashCode()` agrees across
    /// engines — unlike the host pointer it replaces.
    pub fn identity_hash(&self, h: Handle) -> i32 {
        self.slot(h).seq as i32
    }

    /// Looks through packed existentials to the underlying value.
    pub fn unpack(&self, v: Value) -> Value {
        let mut v = v;
        while let Value::Packed(h) = v {
            v = self.packed(h).value.clone();
        }
        v
    }

    /// Whether `v` is the null reference (looking through packages).
    pub fn is_null(&self, v: &Value) -> bool {
        match v {
            Value::Null => true,
            Value::Packed(h) => self.is_null(&self.packed(*h).value),
            _ => false,
        }
    }

    /// Reference identity / primitive equality, used by `==`: packed
    /// existentials compare by their underlying value, references by
    /// handle.
    pub fn ref_eq(&self, a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Packed(h), _) => self.ref_eq(&self.packed(*h).value, b),
            (_, Value::Packed(h)) => self.ref_eq(a, &self.packed(*h).value),
            _ => a.ref_eq_shallow(b),
        }
    }

    /// Renders a value the way the engines print it: primitives by value,
    /// objects/arrays opaquely, packages transparently.
    pub fn render(&self, v: &Value) -> String {
        match v {
            Value::Int(x) => x.to_string(),
            Value::Long(x) => x.to_string(),
            Value::Double(x) => {
                if x.fract() == 0.0 && x.is_finite() {
                    format!("{x:.1}")
                } else {
                    format!("{x}")
                }
            }
            Value::Bool(x) => x.to_string(),
            Value::Char(x) => x.to_string(),
            Value::Str(s) => s.to_string(),
            Value::Obj(h) => format!("<object#{:?}>", self.obj(*h).class),
            Value::Arr(h) => format!("<array[{}]>", self.arr(*h).storage.borrow().len()),
            Value::Packed(h) => self.render(&self.packed(*h).value),
            Value::Null => "null".to_string(),
            Value::Void => "void".to_string(),
        }
    }

    // ---- collection -----------------------------------------------------

    /// Whether the engine should collect at its next safe point.
    pub fn should_collect(&self) -> bool {
        !self.off && (self.stress || self.live.get() >= self.threshold.get())
    }

    /// Appends `v`'s handle to a root list, if it is a reference.
    pub fn root(&self, out: &mut Vec<u32>, v: &Value) {
        if let Value::Obj(h) | Value::Arr(h) | Value::Packed(h) = v {
            out.push(h.0);
        }
    }

    /// Stop-the-world mark-sweep from the given root handles. Safe to
    /// call only at an engine safe point, where every live reference is
    /// in the root set.
    pub fn collect(&self, mut work: Vec<u32>) {
        {
            let slots = self.slots.borrow();
            while let Some(i) = work.pop() {
                let slot = slots[i as usize]
                    .as_ref()
                    .unwrap_or_else(|| panic!("rooted a freed handle {i}"));
                if slot.marked.replace(true) {
                    continue;
                }
                match &slot.data {
                    HeapData::Obj(o) => {
                        for v in o.fields.borrow().iter() {
                            self.root(&mut work, v);
                        }
                    }
                    HeapData::Arr(a) => {
                        if let Storage::Ref(vs) = &*a.storage.borrow() {
                            for v in vs {
                                self.root(&mut work, v);
                            }
                        }
                    }
                    HeapData::Packed(p) => self.root(&mut work, &p.value),
                }
            }
        }
        let mut slots = self.slots.borrow_mut();
        let mut free = self.free.borrow_mut();
        let mut live = 0u64;
        for (i, s) in slots.iter_mut().enumerate() {
            match s {
                Some(slot) if slot.marked.get() => {
                    slot.marked.set(false);
                    live += slot.bytes;
                }
                Some(_) => {
                    *s = None;
                    free.push(i as u32);
                }
                None => {}
            }
        }
        self.live.set(live);
        self.collections.set(self.collections.get() + 1);
        self.threshold
            .set(live.saturating_mul(2).max(GC_INITIAL_THRESHOLD));
    }

    /// Collector statistics so far.
    pub fn stats(&self) -> HeapStats {
        HeapStats {
            live_bytes: self.live.get(),
            peak_bytes: self.peak.get(),
            collections: self.collections.get(),
        }
    }

    /// Overlays this heap's collector statistics onto a meter snapshot.
    pub fn fill_stats(&self, stats: &mut crate::meter::ResourceStats) {
        let h = self.stats();
        stats.live_bytes = h.live_bytes;
        stats.peak_bytes = h.peak_bytes;
        stats.collections = h.collections;
    }

    /// Number of occupied slots (tests).
    pub fn live_handles(&self) -> usize {
        self.slots.borrow().iter().flatten().count()
    }
}

// ---- exact sizing -------------------------------------------------------

/// Deep size of a reified type term.
pub fn rt_type_bytes(t: &RtType) -> u64 {
    let base = size_of::<RtType>() as u64;
    match t {
        RtType::Prim(_) | RtType::Null => base,
        RtType::Class { args, models, .. } => {
            base + args.iter().map(rt_type_bytes).sum::<u64>()
                + models.iter().map(model_value_bytes).sum::<u64>()
        }
        RtType::Array(e) => base + rt_type_bytes(e),
    }
}

/// Deep size of a model witness.
pub fn model_value_bytes(m: &ModelValue) -> u64 {
    let base = size_of::<ModelValue>() as u64;
    match m {
        ModelValue::Natural { args, .. } => base + args.iter().map(rt_type_bytes).sum::<u64>(),
        ModelValue::Decl { targs, margs, .. } => {
            base + targs.iter().map(rt_type_bytes).sum::<u64>()
                + margs.iter().map(model_value_bytes).sum::<u64>()
        }
    }
}

/// Exact size of an object: the header (reified type arguments and model
/// witnesses — the cost of reification, §7.2) plus one `Value` slot per
/// declared instance field over the superclass chain.
pub fn obj_bytes(targs: &[RtType], models: &[ModelValue], field_slots: usize) -> u64 {
    size_of::<ObjData>() as u64
        + targs.iter().map(rt_type_bytes).sum::<u64>()
        + models.iter().map(model_value_bytes).sum::<u64>()
        + (field_slots * size_of::<Value>()) as u64
}

/// Exact size of an array: header, reified element type, and the
/// element-specialized payload (§7.3 — `double[]` pays 8 bytes per
/// element, `boolean[]` one).
pub fn array_bytes(elem: &RtType, len: usize) -> u64 {
    let width = match elem {
        RtType::Prim(PrimTy::Int) => size_of::<i32>(),
        RtType::Prim(PrimTy::Long) => size_of::<i64>(),
        RtType::Prim(PrimTy::Double) => size_of::<f64>(),
        RtType::Prim(PrimTy::Boolean) => size_of::<bool>(),
        RtType::Prim(PrimTy::Char) => size_of::<char>(),
        _ => size_of::<Value>(),
    };
    size_of::<ArrayData>() as u64 + rt_type_bytes(elem) + (len * width) as u64
}

/// Exact size of a packed existential: header, the packed value slot,
/// and the witness tables.
pub fn packed_bytes(types: &[RtType], models: &[ModelValue]) -> u64 {
    size_of::<PackedData>() as u64
        + size_of::<Value>() as u64
        + types.iter().map(rt_type_bytes).sum::<u64>()
        + models.iter().map(model_value_bytes).sum::<u64>()
}

/// Bytes charged for a freshly built string of `len` bytes: the payload
/// plus the host `Rc<str>` header (two reference counts).
pub fn str_bytes(len: usize) -> u64 {
    len as u64 + 2 * size_of::<usize>() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meter::{Limits, Meter};

    fn int_ty() -> RtType {
        RtType::Prim(PrimTy::Int)
    }

    #[test]
    fn alloc_and_access_roundtrip() {
        let heap = Heap::with_stress(false);
        let meter = Meter::unlimited();
        let a = heap.alloc_arr(&meter, int_ty(), 4).unwrap();
        let Value::Arr(h) = a else {
            panic!("not an array")
        };
        heap.arr(h).storage.borrow_mut().set(2, Value::Int(9));
        assert!(matches!(heap.arr(h).storage.borrow().get(2), Value::Int(9)));
        assert_eq!(meter.stats().mem_used, array_bytes(&int_ty(), 4));
        assert_eq!(heap.stats().live_bytes, meter.stats().mem_used);
    }

    #[test]
    fn memory_trap_leaves_heap_unchanged() {
        let heap = Heap::with_stress(false);
        let meter = Meter::with_limits(Limits {
            memory: Some(8),
            ..Limits::default()
        });
        let e = heap.alloc_arr(&meter, int_ty(), 1000).unwrap_err();
        assert_eq!(e.code(), "R0010");
        assert_eq!(heap.live_handles(), 0);
        // The failed charge still counts (monotonic accounting).
        assert!(meter.stats().mem_used > 8);
    }

    #[test]
    fn collect_frees_unrooted_and_keeps_rooted() {
        let heap = Heap::with_stress(false);
        let meter = Meter::unlimited();
        let kept = heap.alloc_arr(&meter, int_ty(), 2).unwrap();
        let _dropped = heap.alloc_arr(&meter, int_ty(), 2).unwrap();
        let mut roots = Vec::new();
        heap.root(&mut roots, &kept);
        heap.collect(roots);
        assert_eq!(heap.live_handles(), 1);
        assert_eq!(heap.stats().collections, 1);
        assert_eq!(heap.stats().live_bytes, array_bytes(&int_ty(), 2));
        // The freed slot is recycled by the next allocation.
        let re = heap.alloc_arr(&meter, int_ty(), 1).unwrap();
        let Value::Arr(h) = re else {
            panic!("not an array")
        };
        assert_eq!(heap.live_handles(), 2);
        let _ = heap.arr(h);
    }

    #[test]
    fn gc_off_is_a_pure_arena_with_unchanged_accounting() {
        let on = Heap::with_modes(false, false);
        let off = Heap::with_modes(false, true);
        let meter_on = Meter::unlimited();
        let meter_off = Meter::unlimited();
        // Push both heaps far past the initial threshold with garbage.
        for _ in 0..100 {
            on.alloc_arr(&meter_on, int_ty(), 200).unwrap();
            off.alloc_arr(&meter_off, int_ty(), 200).unwrap();
        }
        assert!(on.should_collect(), "past the threshold");
        assert!(!off.should_collect(), "arena mode never asks to collect");
        // Charge-driven accounting is identical either way.
        assert_eq!(meter_on.stats().mem_used, meter_off.stats().mem_used);
    }

    #[test]
    fn mark_traces_object_graphs_and_cycles() {
        let heap = Heap::with_stress(false);
        let meter = Meter::unlimited();
        let a = heap
            .alloc_obj(&meter, ClassId(0), vec![], vec![], vec![Value::Null])
            .unwrap();
        let b = heap
            .alloc_obj(&meter, ClassId(0), vec![], vec![], vec![Value::Null])
            .unwrap();
        let (Value::Obj(ha), Value::Obj(hb)) = (&a, &b) else {
            panic!("not objects")
        };
        // a.f = b; b.f = a — a cycle refcounting could never free.
        heap.obj(*ha).fields.borrow_mut()[0] = b.clone();
        heap.obj(*hb).fields.borrow_mut()[0] = a.clone();
        let mut roots = Vec::new();
        heap.root(&mut roots, &a);
        heap.collect(roots);
        assert_eq!(heap.live_handles(), 2, "cycle rooted via a stays live");
        heap.collect(Vec::new());
        assert_eq!(heap.live_handles(), 0, "unrooted cycle is collected");
        assert_eq!(heap.stats().live_bytes, 0);
    }

    #[test]
    fn packed_semantics_through_heap() {
        let heap = Heap::with_stress(false);
        let meter = Meter::unlimited();
        let p = heap
            .alloc_packed(&meter, Value::Int(7), vec![int_ty()], vec![])
            .unwrap();
        assert!(matches!(heap.unpack(p.clone()), Value::Int(7)));
        assert!(!heap.is_null(&p));
        assert!(heap.ref_eq(&p, &Value::Int(7)));
        let pn = heap
            .alloc_packed(&meter, Value::Null, vec![int_ty()], vec![])
            .unwrap();
        assert!(heap.is_null(&pn));
        assert_eq!(heap.render(&p), "7");
    }

    #[test]
    fn identity_hash_is_allocation_order() {
        let heap = Heap::with_stress(false);
        let meter = Meter::unlimited();
        let a = heap.alloc_arr(&meter, int_ty(), 0).unwrap();
        let b = heap.alloc_arr(&meter, int_ty(), 0).unwrap();
        let (Value::Arr(ha), Value::Arr(hb)) = (&a, &b) else {
            panic!("not arrays")
        };
        assert_eq!(heap.identity_hash(*ha), 0);
        assert_eq!(heap.identity_hash(*hb), 1);
    }

    #[test]
    fn stress_mode_always_wants_collection() {
        let heap = Heap::with_stress(true);
        assert!(heap.should_collect());
        let heap = Heap::with_stress(false);
        assert!(!heap.should_collect());
    }

    #[test]
    fn threshold_doubles_after_collection() {
        let heap = Heap::with_stress(false);
        let meter = Meter::unlimited();
        // Allocate past the initial threshold with rooted arrays.
        let mut rooted = Vec::new();
        while !heap.should_collect() {
            rooted.push(heap.alloc_arr(&meter, int_ty(), 1024).unwrap());
        }
        let mut roots = Vec::new();
        for v in &rooted {
            heap.root(&mut roots, v);
        }
        heap.collect(roots);
        assert!(
            !heap.should_collect(),
            "surviving live set doubles the threshold"
        );
    }
}
