//! Runtime-implemented (`native`) operations: primitive methods and the
//! `String`/`Object` built-ins (the "common methods" of natural models,
//! §3.3).

use crate::Heap;
use genus_check::hir::NativeOp;
use genus_common::Symbol;
use genus_heap::value::{ErrorKind, RtType, RuntimeError, Value};
use genus_types::PrimTy;
use std::rc::Rc;

type RResult<T> = Result<T, RuntimeError>;

/// The [`NativeOp`] behind a dynamically dispatched `String` method, if
/// any (reached when a string is stored behind `Object` or a type
/// variable).
#[must_use]
pub fn string_native_op(name: Symbol) -> Option<NativeOp> {
    Some(match name.as_str() {
        "equals" => NativeOp::StrEquals,
        "compareTo" => NativeOp::StrCompareTo,
        "equalsIgnoreCase" => NativeOp::StrEqualsIgnoreCase,
        "compareToIgnoreCase" => NativeOp::StrCompareToIgnoreCase,
        "length" => NativeOp::StrLength,
        "charAt" => NativeOp::StrCharAt,
        "substring" => NativeOp::StrSubstring,
        "concat" => NativeOp::StrConcat,
        "hashCode" => NativeOp::StrHashCode,
        "toLowerCase" => NativeOp::StrToLowerCase,
        "indexOf" => NativeOp::StrIndexOf,
        "toString" => NativeOp::ToString,
        _ => return None,
    })
}

// ----------------------------------------------------------------------
// Primitives and natives
// ----------------------------------------------------------------------

/// Calls a primitive-type method (the natural models of `int`, `double`,
/// … — §3.3). `recv: None` is a static operation like `int.zero()`.
///
/// # Errors
///
/// `NoSuchMethodError` for unknown operations; `Other` for mismatched
/// primitive operands.
pub fn prim_call(
    heap: &Heap,
    prim: PrimTy,
    name: Symbol,
    recv: Option<Value>,
    args: Vec<Value>,
) -> RResult<Value> {
    let n = name.as_str();
    let Some(r) = recv else {
        // Static primitive operations.
        return match n {
            "default" => Ok(RtType::Prim(prim).default_value()),
            "zero" => Ok(match prim {
                PrimTy::Int => Value::Int(0),
                PrimTy::Long => Value::Long(0),
                PrimTy::Double => Value::Double(0.0),
                _ => RtType::Prim(prim).default_value(),
            }),
            "one" => Ok(match prim {
                PrimTy::Int => Value::Int(1),
                PrimTy::Long => Value::Long(1),
                PrimTy::Double => Value::Double(1.0),
                _ => RtType::Prim(prim).default_value(),
            }),
            _ => Err(RuntimeError::new(
                ErrorKind::NoSuchMethod,
                format!("no static `{n}` on `{}`", prim.name()),
            )),
        };
    };
    let r = heap.unpack(r);
    match n {
        "equals" => Ok(Value::Bool(heap.ref_eq(&r, &args[0]))),
        "compareTo" => {
            let ord = match (&r, &args[0]) {
                (Value::Int(a), Value::Int(b)) => a.cmp(b) as i32,
                (Value::Long(a), Value::Long(b)) => a.cmp(b) as i32,
                (Value::Double(a), Value::Double(b)) => {
                    a.partial_cmp(b).map(|o| o as i32).unwrap_or(0)
                }
                (Value::Char(a), Value::Char(b)) => a.cmp(b) as i32,
                (Value::Bool(a), Value::Bool(b)) => a.cmp(b) as i32,
                _ => {
                    return Err(RuntimeError::new(
                        ErrorKind::Other,
                        "compareTo on mismatched primitives",
                    ))
                }
            };
            Ok(Value::Int(ord))
        }
        "hashCode" => Ok(Value::Int(match &r {
            Value::Int(x) => *x,
            Value::Long(x) => (*x ^ (*x >> 32)) as i32,
            Value::Double(x) => {
                let b = x.to_bits();
                (b ^ (b >> 32)) as i32
            }
            Value::Bool(b) => {
                if *b {
                    1231
                } else {
                    1237
                }
            }
            Value::Char(c) => *c as i32,
            _ => 0,
        })),
        "toString" => Ok(Value::Str(Rc::from(heap.render(&r).as_str()))),
        "plus" | "minus" | "times" | "min" | "max" => {
            let op = n;
            let b = args[0].clone();
            Ok(match (&r, &b) {
                (Value::Int(x), Value::Int(y)) => Value::Int(match op {
                    "plus" => x.wrapping_add(*y),
                    "minus" => x.wrapping_sub(*y),
                    "times" => x.wrapping_mul(*y),
                    "min" => *x.min(y),
                    _ => *x.max(y),
                }),
                (Value::Long(x), Value::Long(y)) => Value::Long(match op {
                    "plus" => x.wrapping_add(*y),
                    "minus" => x.wrapping_sub(*y),
                    "times" => x.wrapping_mul(*y),
                    "min" => *x.min(y),
                    _ => *x.max(y),
                }),
                (Value::Double(x), Value::Double(y)) => Value::Double(match op {
                    "plus" => x + y,
                    "minus" => x - y,
                    "times" => x * y,
                    "min" => x.min(*y),
                    _ => x.max(*y),
                }),
                _ => {
                    return Err(RuntimeError::new(
                        ErrorKind::Other,
                        "ring op on mismatched primitives",
                    ))
                }
            })
        }
        "abs" => Ok(match r {
            Value::Int(x) => Value::Int(x.wrapping_abs()),
            Value::Long(x) => Value::Long(x.wrapping_abs()),
            Value::Double(x) => Value::Double(x.abs()),
            other => other,
        }),
        _ => Err(RuntimeError::new(
            ErrorKind::NoSuchMethod,
            format!("no `{n}` on `{}`", prim.name()),
        )),
    }
}

/// Executes a [`NativeOp`]. `stringify` renders a value for
/// `Object.toString`-style operations (it needs to call back into the
/// engine because `toString` overrides can be user code).
///
/// # Errors
///
/// Operation-specific runtime errors (`NullPointerException`,
/// `IndexOutOfBounds`, …).
pub fn native_call_with(
    heap: &Heap,
    mut stringify: impl FnMut(&Value) -> String,
    op: NativeOp,
    recv: Option<Value>,
    args: Vec<Value>,
) -> RResult<Value> {
    let as_str = |v: &Value| -> RResult<Rc<str>> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            Value::Packed(h) => match &heap.packed(*h).value {
                Value::Str(s) => Ok(s.clone()),
                _ => Err(RuntimeError::new(ErrorKind::Other, "expected a string")),
            },
            Value::Null => Err(RuntimeError::new(
                ErrorKind::NullPointer,
                "null string dereference",
            )),
            _ => Err(RuntimeError::new(ErrorKind::Other, "expected a string")),
        }
    };
    match op {
        NativeOp::StrEquals => {
            let r = as_str(recv.as_ref().expect("recv"))?;
            Ok(Value::Bool(match &args[0] {
                Value::Str(s) => *r == **s,
                Value::Packed(h) => {
                    matches!(&heap.packed(*h).value, Value::Str(s) if *r == **s)
                }
                _ => false,
            }))
        }
        NativeOp::StrCompareTo => {
            let r = as_str(recv.as_ref().expect("recv"))?;
            let o = as_str(&args[0])?;
            Ok(Value::Int(match r.cmp(&o) {
                std::cmp::Ordering::Less => -1,
                std::cmp::Ordering::Equal => 0,
                std::cmp::Ordering::Greater => 1,
            }))
        }
        NativeOp::StrEqualsIgnoreCase => {
            let r = as_str(recv.as_ref().expect("recv"))?;
            let o = as_str(&args[0])?;
            Ok(Value::Bool(r.to_lowercase() == o.to_lowercase()))
        }
        NativeOp::StrCompareToIgnoreCase => {
            let r = as_str(recv.as_ref().expect("recv"))?.to_lowercase();
            let o = as_str(&args[0])?.to_lowercase();
            Ok(Value::Int(match r.cmp(&o) {
                std::cmp::Ordering::Less => -1,
                std::cmp::Ordering::Equal => 0,
                std::cmp::Ordering::Greater => 1,
            }))
        }
        NativeOp::StrLength => {
            let r = as_str(recv.as_ref().expect("recv"))?;
            Ok(Value::Int(r.chars().count() as i32))
        }
        NativeOp::StrCharAt => {
            let r = as_str(recv.as_ref().expect("recv"))?;
            let Value::Int(i) = args[0] else {
                return Err(RuntimeError::new(
                    ErrorKind::Other,
                    "charAt index must be int",
                ));
            };
            r.chars()
                .nth(i.max(0) as usize)
                .map(Value::Char)
                .ok_or_else(|| {
                    RuntimeError::new(
                        ErrorKind::IndexOutOfBounds,
                        format!("charAt({i}) out of range"),
                    )
                })
        }
        NativeOp::StrSubstring => {
            let r = as_str(recv.as_ref().expect("recv"))?;
            let (Value::Int(lo), Value::Int(hi)) = (&args[0], &args[1]) else {
                return Err(RuntimeError::new(ErrorKind::Other, "substring indices"));
            };
            let chars: Vec<char> = r.chars().collect();
            let lo = (*lo).max(0) as usize;
            let hi = (*hi).max(0) as usize;
            if lo > hi || hi > chars.len() {
                return Err(RuntimeError::new(
                    ErrorKind::IndexOutOfBounds,
                    format!("substring({lo}, {hi}) out of range"),
                ));
            }
            let s: String = chars[lo..hi].iter().collect();
            Ok(Value::Str(Rc::from(s.as_str())))
        }
        NativeOp::StrConcat => {
            let r = as_str(recv.as_ref().expect("recv"))?;
            let o = as_str(&args[0])?;
            Ok(Value::Str(Rc::from(format!("{r}{o}").as_str())))
        }
        NativeOp::StrHashCode => {
            let r = as_str(recv.as_ref().expect("recv"))?;
            let mut h: i32 = 0;
            for c in r.chars() {
                h = h.wrapping_mul(31).wrapping_add(c as i32);
            }
            Ok(Value::Int(h))
        }
        NativeOp::StrToLowerCase => {
            let r = as_str(recv.as_ref().expect("recv"))?;
            Ok(Value::Str(Rc::from(r.to_lowercase().as_str())))
        }
        NativeOp::StrIndexOf => {
            let r = as_str(recv.as_ref().expect("recv"))?;
            let o = as_str(&args[0])?;
            Ok(Value::Int(
                r.find(&*o)
                    .map(|p| r[..p].chars().count() as i32)
                    .unwrap_or(-1),
            ))
        }
        NativeOp::ObjHashCode => {
            let r = recv.as_ref().expect("recv");
            Ok(Value::Int(match r {
                // Allocation sequence number: deterministic across runs
                // and engines, unlike the host pointer it replaced.
                Value::Obj(o) => heap.identity_hash(*o),
                Value::Str(s) => {
                    let mut h: i32 = 0;
                    for c in s.chars() {
                        h = h.wrapping_mul(31).wrapping_add(c as i32);
                    }
                    h
                }
                _ => 0,
            }))
        }
        NativeOp::ObjEquals => {
            let r = recv.as_ref().expect("recv");
            Ok(Value::Bool(heap.ref_eq(r, &args[0])))
        }
        NativeOp::ObjToString | NativeOp::ToString => {
            let r = recv.as_ref().expect("recv");
            match r {
                Value::Str(s) => Ok(Value::Str(s.clone())),
                other => Ok(Value::Str(Rc::from(stringify(other).as_str()))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dispatch, RunState};

    /// A fresh run state; none of these operations calls `toString`.
    fn with_state(f: impl FnOnce(&RunState, &dyn Fn(Value) -> RResult<Value>)) {
        f(&RunState::new(Dispatch::default()), &|_| {
            unreachable!("no toString")
        });
    }

    fn s(v: &str) -> Value {
        Value::Str(Rc::from(v))
    }

    #[test]
    fn string_natives() {
        with_state(|i, ts| {
            let v = i
                .native(NativeOp::StrLength, Some(s("héllo")), vec![], &ts)
                .unwrap();
            assert!(matches!(v, Value::Int(5)));
            let v = i
                .native(NativeOp::StrCompareTo, Some(s("a")), vec![s("b")], &ts)
                .unwrap();
            assert!(matches!(v, Value::Int(-1)));
            let v = i
                .native(
                    NativeOp::StrEqualsIgnoreCase,
                    Some(s("AbC")),
                    vec![s("aBc")],
                    &ts,
                )
                .unwrap();
            assert!(matches!(v, Value::Bool(true)));
            let v = i
                .native(
                    NativeOp::StrSubstring,
                    Some(s("hello")),
                    vec![Value::Int(1), Value::Int(3)],
                    &ts,
                )
                .unwrap();
            assert!(matches!(v, Value::Str(x) if &*x == "el"));
            let v = i
                .native(NativeOp::StrIndexOf, Some(s("hello")), vec![s("ll")], &ts)
                .unwrap();
            assert!(matches!(v, Value::Int(2)));
        });
    }

    #[test]
    fn string_native_errors() {
        with_state(|i, ts| {
            let e = i
                .native(NativeOp::StrCharAt, Some(s("ab")), vec![Value::Int(9)], &ts)
                .unwrap_err();
            assert_eq!(e.kind, ErrorKind::IndexOutOfBounds);
            let e = i
                .native(NativeOp::StrLength, Some(Value::Null), vec![], &ts)
                .unwrap_err();
            assert_eq!(e.kind, ErrorKind::NullPointer);
        });
    }

    #[test]
    fn prim_calls() {
        with_state(|i, _| {
            let name = Symbol::intern("plus");
            let v = prim_call(
                &i.heap,
                PrimTy::Double,
                name,
                Some(Value::Double(1.5)),
                vec![Value::Double(2.0)],
            )
            .unwrap();
            assert!(matches!(v, Value::Double(x) if (x - 3.5).abs() < 1e-12));
            let v = prim_call(&i.heap, PrimTy::Int, Symbol::intern("zero"), None, vec![]).unwrap();
            assert!(matches!(v, Value::Int(0)));
            let v = prim_call(
                &i.heap,
                PrimTy::Int,
                Symbol::intern("compareTo"),
                Some(Value::Int(3)),
                vec![Value::Int(5)],
            )
            .unwrap();
            assert!(matches!(v, Value::Int(-1)));
            let e = prim_call(
                &i.heap,
                PrimTy::Boolean,
                Symbol::intern("plus"),
                Some(Value::Bool(true)),
                vec![Value::Bool(false)],
            )
            .unwrap_err();
            assert_eq!(e.kind, ErrorKind::Other);
        });
    }

    #[test]
    fn string_virtual_dispatch_by_name() {
        let prog = genus_check::check_source("void main() { }").expect("empty program checks");
        with_state(|i, ts| {
            let call =
                |name: &str| i.builtin_method(&prog, s("Hello"), Symbol::intern(name), vec![], &ts);
            let v = call("toLowerCase").unwrap();
            assert!(matches!(v, Value::Str(x) if &*x == "hello"));
            assert_eq!(call("nonsense").unwrap_err().kind, ErrorKind::NoSuchMethod);
        });
    }
}
